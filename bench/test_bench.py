"""Self-test of the benchmark: small workloads, span arithmetic, checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qkdsim import protocol  # noqa: E402

# Small enough to be fast, large enough that no session aborts on its
# error sample: the noisy link sits close to the abort threshold, and the
# relay chain's B-C session must fund the long-path relays (at half size
# it distils 538-810 bits on seeds 1-8 for 160 needed; at a quarter, as
# little as 50 for 80).
SMALL = {"long_haul": 0.01, "metro_key": 0.05, "noisy_link": 0.25,
         "trusted_relay": 0.5}
SECOND_SEED = 2


def test_self_time_is_span_minus_children():
    # root 0..10 holds a 1..4 and b 5..9; a holds a1 2..3; c 12..13 is
    # another root
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
             ("a1", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0), ("c", 12.0, 13.0, -1)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0),
             ("b", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("rng.bits", lambda n: n)
    outer = tracer.wrap("protocol.session", lambda: inner(3) + inner(4))
    assert outer() == 7
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("protocol.session", -1), ("rng.bits", 0),
                     ("rng.bits", 0)]
    layers = tracer.layer_self_times()
    assert layers["protocol"] >= 0.0 and layers["netsim"] == 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_workload_runs_end_to_end(name):
    result = run.measure(name, 1, seconds=0, trace=1, scale=SMALL[name])
    assert result["correct"], result["errors"]
    assert result["failed_frac"] == 0.0
    relays = set(run.RELAY) if name == "trusted_relay" else set()
    assert set(result["end_to_end"]) == set(run.END_TO_END) | relays
    assert set(result["per_layer"]) == set(tracing.PER_LAYER_UNITS) \
        | set(run.OVERHEAD)
    assert all(v > 0 for v in result["end_to_end"].values())
    for trace in (0, 1):
        last = json.loads(run.result_line(result, trace))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_pass_on_a_second_seed(name):
    inputs = workloads.build(name, SECOND_SEED, SMALL[name])
    result = workloads.run_pass(inputs)
    workloads.check(inputs, result)
    assert result.failed == 0, result.errors
    assert result.attempted >= 1


def test_traced_pass_reports_the_same_outputs():
    inputs = workloads.build("trusted_relay", 1, SMALL["trusted_relay"])
    plain = workloads.run_pass(inputs)
    workloads.check(inputs, plain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        again = workloads.build("trusted_relay", 1, SMALL["trusted_relay"])
        traced = workloads.run_pass(again)
    finally:
        tracer.uninstall()
    workloads.check(again, traced)
    assert traced.digest == plain.digest and traced.failed == 0
    m = tracer.metrics()
    assert m["netsim.hops"] == sum(len(p) - 1 for p, _ in inputs.relays)
    assert m["auth.messages"] == 2 * 5 + m["netsim.hops"]
    assert m["auth.key_bits_consumed"] == 2 * workloads.AUTH_BITS_PER_SESSION \
        + sum(workloads.auth_bits_needed(inputs.relays).values())
    assert m["adversary.ledger_entries"] > 0
    assert m["postprocess.final_bits"] > 0


def test_session_checks_catch_broken_invariants():
    config = workloads.session_configs("metro_key", 1, SMALL["metro_key"])[0]
    report = protocol.run_session(config)
    assert workloads.session_errors(report, config, check_clicks=True) == []
    short_key = replace(report, final_len=report.final_len + 1)
    assert workloads.session_errors(short_key, config)
    overspent = replace(report, auth_bits_consumed=448)
    assert workloads.session_errors(overspent, config)
    few_clicks = replace(report, clicks=report.clicks // 2)
    assert workloads.session_errors(few_clicks, config, check_clicks=True)


def test_check_counts_a_wrongly_delivered_key():
    inputs = workloads.build("trusted_relay", 1, SMALL["trusted_relay"])
    result = workloads.run_pass(inputs)
    result.delivered[0][3].end_key[0] ^= 1
    workloads.check(inputs, result)
    assert result.failed == 1 and "delivered key differs" in result.errors[0]


def test_relay_keys_regenerate_from_their_seeds():
    a = workloads.relay_seed_key(7, 128)
    assert np.array_equal(a, workloads.relay_seed_key(7, 128))
    assert not np.array_equal(a, workloads.relay_seed_key(8, 128))


def test_trusted_relay_pools_cannot_run_dry():
    plan = workloads.relay_plan(workloads.RELAYS)
    for hop, bits in workloads.auth_bits_needed(plan).items():
        assert bits <= workloads.LINK_AUTH_POOL_BITS, hop
    stub_hops = {frozenset(h) for h in zip(workloads.SHORT_PATH,
                                            workloads.SHORT_PATH[1:])}
    for hop, bits in workloads.link_bits_needed(plan).items():
        if hop in stub_hops:
            assert bits <= workloads.STUB_LINK_BITS, hop


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {**tracing.PER_LAYER_UNITS, **run.OVERHEAD}
    assert [w["name"] for w in spec["workloads"]] == list(run.MEASURED)
    assert set(run.MEASURED) <= set(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
