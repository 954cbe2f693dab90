"""Command-line front end.

Subcommands: ``run`` (one session, human-readable report), ``sweep``
(cartesian parameter sweep to CSV), ``network`` (trusted-node scenario),
``selftest`` (fast invariant battery). Everything is deterministic given
--seed; sweep rows come out in declaration order at any --jobs level.

Exit codes are a stable contract: 0 success, 1 usage or config error,
2 session aborted at the error-rate test, 3 session aborted at
reconciliation, 4 insufficient link or authentication key (a relay, or
a session whose authentication pool ran dry).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import sys

from .adversary import (InterceptResend, NoAttack, PhotonNumberSplit,
                        strategy_label)
from .auth import KeyExhausted
from .netsim import Network, SessionAborted, StubKeySource
from .photonics import DetectorPair, FiberChannel, SourceModel
from .postprocess import AttackModel
from .protocol import SessionConfig, SessionOutcome, run_session
from .rng import RandomSource, mix64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT_QBER = 2
EXIT_ABORT_RECONCILIATION = 3
EXIT_INSUFFICIENT_LINK_KEY = 4

CSV_COLUMNS = ["seed", "distance_km", "mu", "eve", "pulses", "clicks",
               "raw_len", "sifted_len", "qber", "leak_ec", "final_len",
               "eve_info", "auth_consumed", "secret_growth", "outcome"]

CONFIG_KEYS = {"pulses", "mu", "distance_km", "attenuation_db_per_km",
               "efficiency", "dark_count_prob", "flip_prob", "eve",
               "attack_model", "sample_fraction", "margin",
               "auth_pool_bits", "seed", "sweep", "repeats", "output"}
SWEEP_KEYS = {"distance_km", "mu", "eve_fraction"}

# A scenario's keys at each level; a link "session" takes the session
# keys of DEFAULTS.
SCENARIO_KEYS = ("nodes", "links", "relays")
LINK_KEYS = ("a", "b", "stub", "session", "auth_pool_bits")
STUB_KEYS = ("seed", "bits")
RELAY_KEYS = ("path", "key_len", "seed")

DEFAULTS = {"pulses": 200_000, "mu": 0.1, "distance_km": 15.0,
            "attenuation_db_per_km": 0.2, "efficiency": 0.1,
            "dark_count_prob": 1e-5, "flip_prob": 0.01, "eve": "none",
            "attack_model": "coherent", "sample_fraction": 0.1,
            "margin": 30, "auth_pool_bits": 512, "seed": 1}


def _integer(value) -> int:
    """int(value), refusing a value that int() would truncate (2000.9)."""
    number = int(value)
    if number != value and str(number) != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


# Numeric parameters as (conversion, test, what the test requires).
# Every value from a flag, config file, sweep axis or scenario link
# passes one of these before it reaches a model constructor.
_FINITE = (float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
PARAM_RULES = {
    "pulses": (_integer, lambda v: v >= 1, "an integer >= 1"),
    "mu": _FINITE,
    "distance_km": _FINITE,
    "attenuation_db_per_km": _FINITE,
    "efficiency": (float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "dark_count_prob": (float, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "flip_prob": (float, lambda v: 0 <= v <= 0.5, "a number in [0, 0.5]"),
    "sample_fraction": (float, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "margin": (_integer, lambda v: v >= 0, "an integer >= 0"),
    "auth_pool_bits": (_integer, lambda v: v >= 0, "an integer >= 0"),
    "seed": (_integer, lambda v: True, "an integer"),
    "repeats": (_integer, lambda v: v >= 1, "an integer >= 1"),
    "jobs": (_integer, lambda v: v >= 1, "an integer >= 1"),
    "key_len": (_integer, lambda v: v >= 0, "an integer >= 0"),
    "bits": (_integer, lambda v: v >= 0, "an integer >= 0"),
}


class ConfigError(Exception):
    """Bad config file or flag combination; maps to exit 1."""


def _checked(key: str, value):
    """``value`` converted by the rule for ``key``; a ConfigError naming
    the key if it does not convert or breaks the rule."""
    convert, test, wording = PARAM_RULES[key]
    try:
        number = convert(value)
        ok = test(number)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"\"{key}\" must be {wording}, got {value!r}")
    return number


def parse_eve(text: str):
    if text == "none":
        return NoAttack()
    if text == "pns":
        return PhotonNumberSplit()
    if text == "intercept":
        return InterceptResend(1.0)
    if text.startswith("intercept:"):
        try:
            return InterceptResend(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad intercept fraction in {text!r}") from exc
    raise ConfigError(
        f"unknown eve strategy {text!r}; use none, pns, intercept, "
        "or intercept:<fraction>")


def parse_attack_model(text: str) -> AttackModel:
    try:
        return AttackModel(text.lower())
    except ValueError as exc:
        raise ConfigError(
            f"unknown attack model {text!r}; use coherent or individual"
        ) from exc


def _load_json_object(path: str, what: str) -> tuple[str, dict]:
    """Read a JSON file whose top level must be an object; a relative
    name that does not exist here may live in $QKDSIM_CONFIG_DIR.
    Returns the resolved path and the parsed object."""
    base = os.environ.get("QKDSIM_CONFIG_DIR")
    if base and not os.path.exists(path) and not os.path.isabs(path) \
            and os.path.exists(os.path.join(base, path)):
        path = os.path.join(base, path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return path, data


def load_config_file(path: str) -> dict:
    path, data = _load_json_object(path, "config")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(CONFIG_KEYS)}")
    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict) or set(sweep) - SWEEP_KEYS:
        raise ConfigError(
            f"{path}: sweep axes must be among {sorted(SWEEP_KEYS)}")
    return data


def merge_params(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags (flags win)."""
    params = dict(DEFAULTS)
    sweep: dict = {}
    if getattr(args, "config", None):
        data = load_config_file(args.config)
        sweep = data.pop("sweep", {})
        params.update({k: v for k, v in data.items()
                       if k not in ("repeats", "output")})
        for k in ("repeats", "output"):
            if k in data:
                params[k] = data[k]
    flag_map = {"pulses": "pulses", "mu": "mu", "distance_km": "distance_km",
                "attenuation_db_per_km": "attenuation_db_per_km",
                "efficiency": "efficiency", "dark": "dark_count_prob",
                "flip": "flip_prob", "eve": "eve",
                "attack_model": "attack_model",
                "sample_fraction": "sample_fraction", "margin": "margin",
                "auth_pool_bits": "auth_pool_bits", "seed": "seed"}
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            params[key] = value
    params["sweep"] = sweep
    return params


def session_config(params: dict) -> SessionConfig:
    def value(key):
        return _checked(key, params[key])

    return SessionConfig(
        n_pulses=value("pulses"),
        source=SourceModel(value("mu")),
        channel=FiberChannel(value("distance_km"),
                             value("attenuation_db_per_km"),
                             value("flip_prob")),
        detectors=DetectorPair(value("efficiency"),
                               value("dark_count_prob")),
        seed=value("seed"),
        eve=parse_eve(params["eve"]),
        sample_fraction=value("sample_fraction"),
        attack_model=parse_attack_model(str(params["attack_model"])),
        security_margin_bits=value("margin"),
        auth_pool_bits=value("auth_pool_bits"))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def csv_row(config: SessionConfig, report) -> list[str]:
    return [_fmt(v) for v in [
        config.seed, config.channel.length_km, config.source.mu,
        strategy_label(config.eve), report.pulses_sent, report.clicks,
        report.raw_len, report.sifted_len, float(report.e_hat),
        report.leak_ec_bits, report.final_len,
        float(report.eve_info_fraction), report.auth_bits_consumed,
        report.secret_growth, report.outcome.value]]


def exit_code_for(outcome: SessionOutcome) -> int:
    return {SessionOutcome.SUCCESS: EXIT_OK,
            SessionOutcome.ABORT_QBER: EXIT_ABORT_QBER,
            SessionOutcome.ABORT_RECONCILIATION:
                EXIT_ABORT_RECONCILIATION}[outcome]


def cmd_run(args: argparse.Namespace) -> int:
    params = merge_params(args)
    config = session_config(params)
    report = run_session(config)
    print(f"session seed {config.seed}: {config.n_pulses} pulses, "
          f"mu={config.source.mu:g}, {config.channel.length_km:g} km @ "
          f"{config.channel.attenuation_db_per_km:g} dB/km (1550 nm "
          f"window), eve={strategy_label(config.eve)}")
    rows = [("pulses sent", report.pulses_sent),
            ("clicks", report.clicks),
            ("raw key bits", report.raw_len),
            ("sifted key bits", report.sifted_len),
            ("QBER estimate", f"{report.e_hat:.6g}"),
            ("EC leakage bits", report.leak_ec_bits),
            ("final key bits", report.final_len),
            ("Eve info fraction", f"{report.eve_info_fraction:.6g}"),
            ("auth bits consumed", report.auth_bits_consumed),
            ("secret growth", f"{report.secret_growth:+d}"),
            ("outcome", report.outcome.value)]
    for label, value in rows:
        print(f"  {label:<20} {value}")
    return exit_code_for(report.outcome)


def _sweep_points(params: dict) -> list[dict]:
    sweep = params.get("sweep") or {}
    if not sweep:
        raise ConfigError("sweep needs at least one axis "
                          "(sweep.distance_km / sweep.mu / "
                          "sweep.eve_fraction)")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis \"{axis}\" must be a non-empty "
                              "list of values")
    distances = sweep.get("distance_km", [params["distance_km"]])
    mus = sweep.get("mu", [params["mu"]])
    fractions = sweep.get("eve_fraction", [None])
    points = []
    for d in distances:
        for m in mus:
            for f in fractions:
                point = dict(params)
                point["distance_km"] = d
                point["mu"] = m
                if f is not None:
                    point["eve"] = f"intercept:{f}"
                points.append(point)
    return points


def _run_point(job) -> tuple[int, list[str]]:
    order, config = job
    return order, csv_row(config, run_session(config))


def cmd_sweep(args: argparse.Namespace) -> int:
    params = merge_params(args)
    output = args.output or params.get("output")
    if not output:
        raise ConfigError("sweep needs --output (or \"output\" in config)")
    if os.path.exists(output) and not args.force:
        raise ConfigError(f"refusing to overwrite {output}; pass --force")
    repeats = _checked("repeats", params.get("repeats", 1)
                       if args.repeats is None else args.repeats)
    workers = _checked("jobs", args.jobs)
    configs = [session_config(point) for point in _sweep_points(params)]

    jobs = []
    master = _checked("seed", params["seed"])
    for i, config in enumerate(configs):
        for r in range(repeats):
            # Per-session seed from a documented 64-bit mix so any subset
            # of the sweep reproduces the exact same sessions.
            jobs.append((len(jobs), dataclasses.replace(
                config, seed=mix64(master, i * repeats + r))))

    results: list[list[str] | None] = [None] * len(jobs)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            for order, row in pool.map(_run_point, jobs, chunksize=1):
                results[order] = row
    else:
        for job in jobs:
            order, row = _run_point(job)
            results[order] = row

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(results)
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())
    print(f"wrote {len(jobs)} rows to {output}")
    return EXIT_OK


def _require(path: str, where: str, spec, keys, allowed) -> None:
    """``spec`` must be an object holding every key of ``keys`` and no
    key outside ``allowed``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: {where} must be an object")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        names = ", ".join(f'"{key}"' for key in unknown)
        raise ConfigError(f"{path}: {where} has unknown key {names}; "
                          f"allowed: {', '.join(sorted(allowed))}")
    for key in keys:
        if key not in spec:
            raise ConfigError(f"{path}: {where} needs \"{key}\"")


def load_scenario(path: str) -> dict:
    """Read and check a trusted-node scenario. Every number in it comes
    back converted by its ``PARAM_RULES`` rule, and every relay hop is
    a declared link."""
    path, data = _load_json_object(path, "scenario")
    _require(path, "scenario", data, SCENARIO_KEYS, SCENARIO_KEYS)
    for key in SCENARIO_KEYS:
        if not isinstance(data[key], list):
            raise ConfigError(f"{path}: \"{key}\" must be a list")
    nodes = {str(node_id) for node_id in data["nodes"]}

    def check(where: str, spec: dict, key: str) -> None:
        try:
            spec[key] = _checked(key, spec[key])
        except ConfigError as exc:
            raise ConfigError(f"{path}: {where}: {exc}") from exc

    links = set()
    for i, spec in enumerate(data["links"]):
        _require(path, f"link {i}", spec, ("a", "b"), LINK_KEYS)
        for end in ("a", "b"):
            if str(spec[end]) not in nodes:
                raise ConfigError(
                    f"{path}: link {i} ({spec['a']}-{spec['b']}) \"{end}\" "
                    f"names node {spec[end]!r}, not in \"nodes\"")
        links.add(frozenset((str(spec["a"]), str(spec["b"]))))
        if "auth_pool_bits" in spec:
            check(f"link {i}", spec, "auth_pool_bits")
        if "stub" in spec:
            _require(path, f"link {i} stub", spec["stub"], STUB_KEYS,
                     STUB_KEYS)
            check(f"link {i} stub", spec["stub"], "seed")
            check(f"link {i} stub", spec["stub"], "bits")
        elif "session" in spec:
            _require(path, f"link {i} \"session\"", spec["session"], (),
                     DEFAULTS)
    for i, spec in enumerate(data["relays"]):
        _require(path, f"relay {i}", spec, ("path", "key_len"), RELAY_KEYS)
        check(f"relay {i}", spec, "key_len")
        if "seed" in spec:
            check(f"relay {i}", spec, "seed")
        hops = spec["path"]
        if not isinstance(hops, list) or len(hops) < 2:
            raise ConfigError(f"{path}: relay {i} \"path\" must be a list "
                              f"of at least 2 node ids, got {hops!r}")
        for node_id in hops:
            if str(node_id) not in nodes:
                raise ConfigError(f"{path}: relay {i} \"path\" names "
                                  f"node {node_id!r}, not in \"nodes\"")
        for a, b in zip(hops, hops[1:]):
            if frozenset((str(a), str(b))) not in links:
                raise ConfigError(f"{path}: relay {i} \"path\" hop "
                                  f"{a}-{b} is not a link")
    return data


def cmd_network(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    net = Network()
    for node_id in scenario["nodes"]:
        net.node(str(node_id))
    for spec in scenario["links"]:
        a, b = str(spec["a"]), str(spec["b"])
        if "stub" in spec:
            stub = spec["stub"]
            source = StubKeySource(stub["seed"], stub["bits"])
        elif "session" in spec:
            cfg = dict(DEFAULTS)
            cfg.update(spec["session"])
            try:
                source = session_config(cfg)
            except ConfigError as exc:
                raise ConfigError(f"link {a}-{b} session: {exc}") from exc
        else:
            raise ConfigError(
                f"link {a}-{b} needs a \"stub\" or \"session\" key source")
        net.add_link(a, b, source,
                     auth_pool_bits=spec.get("auth_pool_bits", 4096))

    try:
        net.provision_all()
    except SessionAborted as exc:
        print(f"link provisioning failed: {exc}", file=sys.stderr)
        return EXIT_ABORT_QBER

    rows = []
    relayed_keys = []
    for i, spec in enumerate(scenario["relays"]):
        path_ids = [str(x) for x in spec["path"]]
        key_len = spec["key_len"]
        rand = RandomSource(spec.get("seed", i)).split("relay")
        try:
            transcript = net.relay(path_ids, key_len, rand)
        except KeyExhausted as exc:
            print(f"relay {i} failed: {exc}", file=sys.stderr)
            return EXIT_INSUFFICIENT_LINK_KEY
        relayed_keys.append(transcript.end_key)
        rows.append([str(i), "-".join(transcript.path), str(key_len),
                     str(len(transcript.hop_messages)),
                     "-".join(path_ids[1:-1]) or "(none)", "ok"])
        print(f"relay {i}: {' -> '.join(path_ids)}, {key_len} bits "
              f"delivered over {len(transcript.hop_messages)} hops")

    print("trust exposure:")
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        print(f"  {node_id}: saw {len(node.knowledge_log)} relayed "
              f"key(s) in plaintext")
    print("link key accounting:")
    for link in net.links:
        a, b = link.endpoints
        store = a.store_for(b.id)
        print(f"  {a.id}-{b.id}: {store.cursor} consumed, "
              f"{store.remaining} remaining")

    if args.csv:
        if os.path.exists(args.csv) and not args.force:
            raise ConfigError(f"refusing to overwrite {args.csv}; "
                              "pass --force")
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["relay", "path", "key_len", "hops",
                             "interior", "status"])
            writer.writerows(rows)
        print(f"wrote {len(rows)} relay rows to {args.csv}")
    return EXIT_OK


def _selftest_checks():
    from . import selftest as checks
    return checks.all_checks()


def cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in _selftest_checks():
        status = "ok" if ok else "FAIL"
        line = f"selftest: {name:<36} {status}"
        if detail:
            line += f"  ({detail})"
        print(line)
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} check(s) failed", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Deterministic BB84 key-distribution simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_session_flags(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--pulses", type=int)
        p.add_argument("--mu", type=float)
        p.add_argument("--distance-km", dest="distance_km", type=float)
        p.add_argument("--attenuation-db-per-km",
                       dest="attenuation_db_per_km", type=float)
        p.add_argument("--efficiency", type=float)
        p.add_argument("--dark", type=float,
                       help="dark count probability per detector per gate")
        p.add_argument("--flip", type=float,
                       help="bit flip probability at matched-basis readout")
        p.add_argument("--eve",
                       help="none | pns | intercept | intercept:<fraction>")
        p.add_argument("--attack-model", dest="attack_model",
                       help="coherent | individual")
        p.add_argument("--sample-fraction", dest="sample_fraction",
                       type=float)
        p.add_argument("--margin", type=int)
        p.add_argument("--auth-pool-bits", dest="auth_pool_bits", type=int)
        p.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", help="run one session")
    add_session_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    add_session_flags(p_sweep)
    p_sweep.add_argument("--output", help="CSV output path")
    p_sweep.add_argument("--force", action="store_true",
                         help="overwrite an existing output file")
    p_sweep.add_argument("--repeats", type=int,
                         help="sessions per sweep point (default 1)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers; output is identical "
                              "at any level")
    p_sweep.set_defaults(func=cmd_sweep)

    p_net = sub.add_parser("network", help="trusted-node scenario")
    p_net.add_argument("scenario", help="JSON scenario file")
    p_net.add_argument("--csv", help="per-relay CSV output path")
    p_net.add_argument("--force", action="store_true")
    p_net.set_defaults(func=cmd_network)

    p_self = sub.add_parser("selftest", help="fast invariant battery")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyExhausted as exc:
        # A session spent its whole authentication pool (relays report
        # their own shortfall before spending anything).
        print(f"error: authentication pool exhausted: {exc}; raise "
              "auth_pool_bits", file=sys.stderr)
        return EXIT_INSUFFICIENT_LINK_KEY


if __name__ == "__main__":
    sys.exit(main())
