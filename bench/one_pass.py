"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1
        --spawned-at T [--scale S] [--spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from process start to the
moment the workload inputs are built (imports, configs, the network
with its links). The pass itself is timed separately. Peak RSS is this
process's ``ru_maxrss``. The qkdsim under test is the one in the
checkout's ``src/``; without it the pass fails with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    import numpy as np
    import qkdsim
    if Path(qkdsim.__file__).resolve().parents[1] != ROOT / "src":
        print(f"qkdsim imported from {qkdsim.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    inputs = workloads.build(args.workload, args.seed, args.scale)
    setup_s = time.monotonic() - args.spawned_at

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = workloads.run_pass(inputs)
    finally:
        if tracer:
            tracer.uninstall()
    workloads.check(inputs, result)  # untraced: its calls are not the pass

    out = {
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "peak_rss_mb": tracing.maxrss_mb(),
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors[:10],
        "relay_ms": result.relay_ms,
        "digest": result.digest,
    }
    if result.relay_ms:
        out["relay_p50_ms"], out["relay_p99_ms"] = (
            float(x) for x in np.percentile(result.relay_ms, [50, 99]))
    if tracer:
        out["per_layer"] = tracer.metrics()
        out["per_layer_units"] = tracing.PER_LAYER_UNITS
        out["layer_self_s"] = tracer.layer_self_times()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
