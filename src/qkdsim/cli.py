"""Command-line front end.

Subcommands: ``run`` (one session, human-readable report), ``sweep``
(cartesian parameter sweep to CSV), ``network`` (trusted-node scenario),
``selftest`` (fast invariant battery). Everything is deterministic given
--seed; sweep rows come out in declaration order at any --jobs level.

Flags, config files, sweep axes and scenarios are all checked, before
anything runs, by one walker (:func:`_validate`) over one rule table,
whose number rules are the models' own: string and number types and
ranges, unknown and missing keys, and exactly one of ``stub`` and
``session`` per link. A scenario's network, which refuses a topology it
cannot hold, and every output path are checked before anything runs too.

Exit codes are a stable contract: 0 success, 1 usage or config error
(a bad flag, a missing subcommand and a session too large for memory
included), 2 session aborted at
the error-rate test, 3 session aborted at reconciliation, 4 insufficient
link or authentication key (a relay, a session whose authentication
pool ran dry, or a ``network`` link session that yielded an empty key).
A ``network`` link session that aborts exits as ``run`` would, 2 or 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

from .adversary import (InterceptResend, NoAttack, PhotonNumberSplit,
                        strategy_label)
from .auth import KeyExhausted
from .netsim import (LINK_AUTH_POOL_BITS, Network, SessionAborted,
                     StubKeySource)
from .photonics import DetectorPair, FiberChannel, SourceModel
from .postprocess import AttackModel
from .protocol import BITS, SessionConfig, SessionOutcome, run_session
from .rng import INTEGRAL, POSITIVE, REAL, RandomSource, Rule, mix64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT_QBER = 2
EXIT_ABORT_RECONCILIATION = 3
EXIT_INSUFFICIENT_LINK_KEY = 4

CSV_COLUMNS = ["seed", "distance_km", "mu", "eve", "pulses", "clicks",
               "raw_len", "sifted_len", "qber", "leak_ec", "final_len",
               "eve_info", "auth_consumed", "secret_growth", "outcome"]


class ConfigError(Exception):
    """Bad config file or flag combination; maps to exit 1."""


def parse_eve(text: str):
    try:
        if text.startswith("intercept:"):
            return InterceptResend(float(text[len("intercept:"):]))
        return {"none": NoAttack(), "pns": PhotonNumberSplit(),
                "intercept": InterceptResend(1.0)}[text]
    except (KeyError, ValueError):
        raise ConfigError(f"bad eve strategy {text!r}") from None


def parse_attack_model(text: str) -> AttackModel:
    try:
        return AttackModel(text.lower())
    except ValueError:
        raise ConfigError(f"unknown attack model {text!r}") from None


def _integer(value) -> int:
    """int(value), refusing a value that int() would truncate (2000.9)."""
    number = int(value)
    if number != value and str(number) != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _convert(spec, kind):
    """The CLI's own step before a rule's check: a flag's text or a JSON
    number as the int or float that a numeric rule checks. Anything else,
    a bool included, is left as given, for the rule to refuse."""
    if isinstance(spec, bool) or not isinstance(spec, (str, int, float)):
        return spec
    if kind is INTEGRAL:
        return _integer(spec)
    return float(spec) if kind is REAL else spec


# The session parameters in flag order (config file, flag and scenario
# "session" keys): default, model field (whose rule checks the key) and,
# for text, its own rule, whose test parses the text into the field.
SESSION_PARAMS = {
    "pulses": (200_000, SessionConfig, "n_pulses"),
    "mu": (0.1, SourceModel, "mu"),
    "distance_km": (15.0, FiberChannel, "length_km"),
    "attenuation_db_per_km": (0.2, FiberChannel, "attenuation_db_per_km"),
    "efficiency": (0.1, DetectorPair, "efficiency"),
    "dark_count_prob": (1e-5, DetectorPair, "dark_count_prob"),
    "flip_prob": (0.01, FiberChannel, "excess_flip_prob"),
    "eve": ("none", SessionConfig, "eve", Rule(
        str, parse_eve, "none, pns, intercept or intercept:<fraction>")),
    "attack_model": ("coherent", SessionConfig, "attack_model", Rule(
        str, parse_attack_model, "coherent or individual")),
    "sample_fraction": (0.1, SessionConfig, "sample_fraction"),
    "margin": (30, SessionConfig, "security_margin_bits"),
    "auth_pool_bits": (512, SessionConfig, "auth_pool_bits"),
    "seed": (1, SessionConfig, "seed")}
DEFAULTS = {key: default for key, (default, *_) in SESSION_PARAMS.items()}

# Every value from a flag, config file, sweep axis or scenario passes
# one of these rules before it reaches a model constructor. A key whose
# value reaches a model has that model's very rule.
_NODE = Rule((str, *INTEGRAL), lambda v: True,
             "a node id (a string or an integer)")
PARAM_RULES = {
    **{key: text[0] if text else model.RULES[field]
       for key, (_, model, field, *text) in SESSION_PARAMS.items()},
    "repeats": POSITIVE, "jobs": POSITIVE, "key_len": BITS,
    "bits": StubKeySource.RULES["n_bits"],
    "output": Rule(str, bool, "a non-empty string")}


class Seq(NamedTuple):
    """A list, at least ``least`` long, whose every item passes ``item``."""
    item: object
    least: int = 0
    wording: str = "a list"


class Obj(NamedTuple):
    """An object whose keys pass ``rules``, with every key of
    ``required`` and one key of ``one_of``. ``label`` names it in
    messages, formatted with its parent's label ({0}) and fields or
    with its list index ({i})."""
    label: str
    rules: dict
    required: tuple = ()
    one_of: tuple = ()


SESSION = Obj('link {a}-{b} session, {0} "session"',
              {key: PARAM_RULES[key] for key in SESSION_PARAMS})
CONFIG = Obj("config", {
    **SESSION.rules,
    "sweep": Obj("sweep", {
        axis: Seq(rule, 1, "a non-empty list of values") for axis, rule in {
            "distance_km": PARAM_RULES["distance_km"],
            "mu": PARAM_RULES["mu"],
            "eve_fraction": InterceptResend.RULES["fraction"]}.items()}),
    "repeats": PARAM_RULES["repeats"], "output": PARAM_RULES["output"]})
SCENARIO = Obj("scenario", {
    "nodes": Seq(_NODE),
    "links": Seq(Obj("link {i}", {
        "a": _NODE, "b": _NODE,
        "stub": Obj("{0} stub", {key: PARAM_RULES[key]
                                 for key in ("seed", "bits")},
                    required=("seed", "bits")),
        "session": SESSION,
        "auth_pool_bits": PARAM_RULES["auth_pool_bits"]},
        required=("a", "b"), one_of=("stub", "session"))),
    "relays": Seq(Obj("relay {i}", {
        "path": Seq(_NODE, 2, "a list of at least 2 node ids"),
        "key_len": PARAM_RULES["key_len"], "seed": PARAM_RULES["seed"]},
        required=("path", "key_len")))},
    required=("nodes", "links", "relays"))


def _validate(path: str, where: str, spec, rule):
    """``spec`` checked against ``rule`` and converted.

    A rule is a :class:`~qkdsim.rng.Rule` for one value, a :class:`Seq`
    or an :class:`Obj`. The first value that breaks its rule raises a
    ConfigError naming ``path`` (the file, "" for flags) and the value's
    label, ``where`` for ``spec`` itself."""
    def fail(problem):
        return ConfigError(f"{path}: {where} {problem}" if path
                           else f"{where} {problem}")

    if isinstance(rule, Seq):
        if not isinstance(spec, list) or len(spec) < rule.least:
            raise fail(f"must be {rule.wording}, got {spec!r}")
        return [_validate(path, rule.item.label.format(where, i=i)
                          if isinstance(rule.item, Obj) else where,
                          item, rule.item) for i, item in enumerate(spec)]
    if isinstance(rule, Obj):
        if not isinstance(spec, dict):
            raise fail("must be an object")
        unknown = sorted(set(spec) - set(rule.rules))
        if unknown:
            names = ", ".join(f'"{key}"' for key in unknown)
            raise fail(f"has unknown key {names}; "
                       f"allowed: {', '.join(sorted(rule.rules))}")
        for key in rule.required:
            if key not in spec:
                raise fail(f"needs \"{key}\"")
        if rule.one_of and sum(key in spec for key in rule.one_of) != 1:
            raise fail("needs exactly one of "
                       + ", ".join(f'"{key}"' for key in rule.one_of))
        return {key: _validate(path, child.label.format(where, **spec)
                               if isinstance(child, Obj)
                               else f'{where}: "{key}"'.lstrip(": "),
                               spec[key], child)
                for key, child in rule.rules.items() if key in spec}
    try:
        value = rule.check(where, _convert(spec, rule.kind))
    except (TypeError, ValueError, OverflowError, ConfigError):
        raise fail(f"must be {rule.wording}, got {spec!r}") from None
    return str(value) if rule is _NODE else value


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
    return _validate(path, "config", data, CONFIG)


def merge_params(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags (flags win)."""
    params = dict(DEFAULTS, sweep={})
    if getattr(args, "config", None):
        params.update(load_config_file(args.config))
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG.rules and value is not None}
    params.update(_validate("", "", flags, CONFIG))
    return params


def session_config(p: dict) -> SessionConfig:
    """The session of checked parameters ``p``, each value set on the
    model field :data:`SESSION_PARAMS` gives its key."""
    fields = {SessionConfig: {}, SourceModel: {}, FiberChannel: {},
              DetectorPair: {}}
    for key, (_, model, field, *text) in SESSION_PARAMS.items():
        fields[model][field] = text[0].test(p[key]) if text else p[key]
    return SessionConfig(source=SourceModel(**fields[SourceModel]),
                         channel=FiberChannel(**fields[FiberChannel]),
                         detectors=DetectorPair(**fields[DetectorPair]),
                         **fields[SessionConfig])


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


def _run_session(config: SessionConfig):
    """``run_session``; a session that outgrows memory (the count rules
    admit up to 2^32) is a ConfigError that names its size."""
    try:
        return run_session(config)
    except MemoryError:
        raise ConfigError(
            f"a session of {config.n_pulses} pulses with a "
            f"{config.auth_pool_bits}-bit authentication pool does not fit "
            "in memory; lower \"pulses\" or \"auth_pool_bits\"") from None


def cmd_run(args: argparse.Namespace) -> int:
    params = merge_params(args)
    config = session_config(params)
    report = _run_session(config)
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
    sweep = params["sweep"]
    if not sweep:
        raise ConfigError("sweep needs at least one axis "
                          "(sweep.distance_km / sweep.mu / "
                          "sweep.eve_fraction)")
    points = []
    for d, m, f in itertools.product(
            sweep.get("distance_km", [params["distance_km"]]),
            sweep.get("mu", [params["mu"]]),
            sweep.get("eve_fraction", [None])):
        point = dict(params, distance_km=d, mu=m)
        if f is not None:
            point["eve"] = f"intercept:{f}"
        points.append(point)
    return points


def _refuse_overwrite(path: str, force: bool) -> None:
    """Refuse, before any session runs, a path that cannot take a file."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if os.path.exists(path) and not force:
        raise ConfigError(f"refusing to overwrite {path}; pass --force")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: no directory {parent}")


def _write_csv(path: str, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_point(config: SessionConfig) -> list[str]:
    return csv_row(config, _run_session(config))


def cmd_sweep(args: argparse.Namespace) -> int:
    params = merge_params(args)
    output = params.get("output")
    if not output:
        raise ConfigError("sweep needs --output (or \"output\" in config)")
    _refuse_overwrite(output, args.force)
    repeats = params.get("repeats", 1)
    jobs = _validate("", '"jobs"', args.jobs, PARAM_RULES["jobs"])
    # Per-session seed from a documented 64-bit mix so any subset of the
    # sweep reproduces the exact same sessions.
    configs = [dataclasses.replace(config,
                                   seed=mix64(params["seed"], i * repeats + r))
               for i, config in enumerate(map(session_config,
                                              _sweep_points(params)))
               for r in range(repeats)]
    # a process pool forks all its workers at its first task
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_run_point, configs, chunksize=1))
    else:
        results = [_run_point(config) for config in configs]
    _write_csv(output, [CSV_COLUMNS, *results])
    print(f"wrote {len(configs)} rows to {output}")
    return EXIT_OK


def load_scenario(path: str) -> tuple[Network, list]:
    """The unprovisioned network and the relays of a scenario checked
    against ``SCENARIO``. A node declared twice, an undeclared node, a
    self-loop, a second link between two nodes and a seed two links
    share are refused; each relay hop must be a link, and no two relays
    may share a seed (mod 2^64; a relay with none takes its index)."""
    path, data = _load_json_object(path, "scenario")
    data = _validate(path, "scenario", data, SCENARIO)
    net = Network()
    for node_id in data["nodes"]:
        if node_id in net.nodes:  # ids are strings: 1 and "1" are one node
            raise ConfigError(f"{path}: node {node_id!r} is declared twice")
        net.node(node_id)
    for i, spec in enumerate(data["links"]):
        a, b = spec["a"], spec["b"]
        source = (StubKeySource(spec["stub"]["seed"], spec["stub"]["bits"])
                  if "stub" in spec
                  else session_config(dict(DEFAULTS, **spec["session"])))
        try:
            net.require_nodes((a, b), f"{a}-{b}")
            net.add_link(a, b, source,
                         spec.get("auth_pool_bits", LINK_AUTH_POOL_BITS))
        except ValueError as exc:
            raise ConfigError(f"{path}: link {i}: {exc}") from None
    seeds = {}  # relay seed mod 2^64 -> relay
    for i, spec in enumerate(data["relays"]):
        where, hops = f'relay {i} "path"', spec["path"]
        seed = spec.get("seed", i)
        j = seeds.setdefault(RandomSource(seed).seed, i)
        if j != i:
            raise ConfigError(f"{path}: relay {i}: seed {seed} is already "
                              f"the seed of relay {j}")
        try:
            net.require_nodes(hops, where)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for a, b in zip(hops, hops[1:]):
            if b not in net.nodes[a].links:
                raise ConfigError(f"{path}: {where} hop {a}-{b} is not a "
                                  "link")
    return net, data["relays"]


def cmd_network(args: argparse.Namespace) -> int:
    if args.csv is not None:
        _validate("", '"csv"', args.csv, PARAM_RULES["output"])
        _refuse_overwrite(args.csv, args.force)
    net, relays = load_scenario(args.scenario)

    try:
        net.provision_all()
    except SessionAborted as exc:
        # a session that succeeded with an empty key left the link short
        print(f"link provisioning failed: {exc}", file=sys.stderr)
        return exit_code_for(exc.outcome) or EXIT_INSUFFICIENT_LINK_KEY

    rows = []
    for i, spec in enumerate(relays):
        path_ids, key_len = spec["path"], spec["key_len"]
        rand = RandomSource(spec.get("seed", i)).split("relay")
        try:
            transcript = net.relay(path_ids, key_len, rand)
        except KeyExhausted as exc:
            print(f"relay {i} failed: {exc}", file=sys.stderr)
            return EXIT_INSUFFICIENT_LINK_KEY
        hops = len(transcript.path) - 1
        rows.append([str(i), "-".join(transcript.path), str(key_len),
                     str(hops), "-".join(path_ids[1:-1]) or "(none)", "ok"])
        print(f"relay {i}: {' -> '.join(path_ids)}, {key_len} bits "
              f"delivered over {hops} hops")

    print("trust exposure:")
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        print(f"  {node_id}: saw {len(node.observed)} relayed "
              f"key(s) in plaintext")
    print("link key accounting:")
    for link in net.links:
        a, b = link.endpoints
        print(f"  {a.id}-{b.id}: {link.key.cursor} consumed, "
              f"{link.key.remaining} remaining")

    if args.csv:
        _write_csv(args.csv, [["relay", "path", "key_len", "hops",
                               "interior", "status"], *rows])
        print(f"wrote {len(rows)} relay rows to {args.csv}")
    return EXIT_OK


def cmd_selftest(_args: argparse.Namespace) -> int:
    from . import selftest
    failures = 0
    for name, ok, detail in selftest.all_checks():
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so that it exits 1 like
    any other bad input (argparse would exit 2, a QBER abort here)."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


# Flags that are not "--" plus the key with "-" for "_", and their help
# texts; a text key's help is its rule's wording.
_FLAGS = {"dark_count_prob": ("--dark", "dark count probability per "
                              "detector per gate"),
          "flip_prob": ("--flip", "bit flip probability at "
                        "matched-basis readout")}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkdsim",
        description="Deterministic BB84 key-distribution simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_session_flags(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        for key, (_, _, _, *text) in SESSION_PARAMS.items():
            flag, note = _FLAGS.get(key, ("--" + key.replace("_", "-"),
                                          text[0].wording if text else None))
            p.add_argument(flag, dest=key, help=note)

    p_run = sub.add_parser("run", help="run one session")
    add_session_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    add_session_flags(p_sweep)
    p_sweep.add_argument("--output", help="CSV output path")
    p_sweep.add_argument("--force", action="store_true",
                         help="overwrite an existing output file")
    p_sweep.add_argument("--repeats",
                         help="sessions per sweep point (default 1)")
    p_sweep.add_argument("--jobs", default=1,
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
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError:
        # a count the rules admit by a route that names no one session:
        # a scenario's link sessions, stubs and authentication pools
        print("error: out of memory; lower the pulse and bit counts",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
