"""The four benchmark workloads: their inputs, one timed pass, and checks.

Each workload is built from a workload seed and a size scale (1.0 is the
benchmark; the self-test uses a small scale). Building covers everything
the pass needs (configs, and for ``trusted_relay`` the network with its
links and auth pools) so that set-up time and pass time stay apart.

Every operation of a pass (one session or one relay) is checked against
invariants that do not depend on the random-stream layout; an operation
that raises or breaks one counts as failed. The program is always called
through its module attributes (``protocol.run_session``, ``Network.relay``)
so that the tracer can wrap those names from outside.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from qkdsim import adversary, netsim, photonics, protocol, rng

ATTENUATION_DB_PER_KM = 0.2
DARK_COUNT_PROB = 1e-5
AUTH_BITS_PER_SESSION = 128 + 4 * 64  # hash key + first pad, four more pads
CLICK_TOLERANCE_SIGMAS = 5.0

# trusted_relay traffic: relay i uses the long path when i % LONG_EVERY == 0
RELAYS = 4000
LONG_EVERY = 200
LONG_PATH = ("A", "B", "C", "D")
SHORT_PATH = ("C", "D", "E", "F")
LONG_KEY_BITS = 16
SHORT_KEY_BITS = 128
STUB_LINK_BITS = 10**6
LINK_AUTH_POOL_BITS = 4 * 10**5

WORKLOADS = ("long_haul", "metro_key", "noisy_link", "trusted_relay")


def _session(seed: int, n_pulses: int, km: float, mu: float,
             efficiency: float = 1.0, flip: float = 0.0,
             eve=adversary.NoAttack()) -> protocol.SessionConfig:
    return protocol.SessionConfig(
        n_pulses=n_pulses,
        source=photonics.SourceModel(mu),
        channel=photonics.FiberChannel(km, ATTENUATION_DB_PER_KM, flip),
        detectors=photonics.DetectorPair(efficiency, DARK_COUNT_PROB),
        seed=seed, eve=eve)


def session_configs(name: str, seed: int, scale: float = 1.0):
    """The SessionConfigs of a workload, derived from its seed."""
    def pulses(n):
        return max(1, round(n * scale))

    if name == "long_haul":
        return [_session(rng.mix64(seed, 1), pulses(10**7), 50.0, 0.1,
                         efficiency=0.1, flip=0.01)]
    if name == "metro_key":
        return [_session(rng.mix64(seed, 2), pulses(2 * 10**5), 5.0, 0.5,
                         efficiency=0.8, flip=0.01)]
    if name == "noisy_link":
        return [_session(rng.mix64(seed, 3), pulses(7 * 10**5), 5.0, 0.5,
                         efficiency=0.8, flip=0.098)]
    if name == "trusted_relay":
        # the hardware of a `qkdsim network` scenario link by default
        return [
            _session(rng.mix64(seed, 4), pulses(2 * 10**6), 40.0, 0.5,
                     efficiency=0.1, flip=0.01,
                     eve=adversary.PhotonNumberSplit()),
            _session(rng.mix64(seed, 5), pulses(2 * 10**6), 20.0, 0.1,
                     efficiency=0.1, flip=0.01,
                     eve=adversary.InterceptResend(0.15)),
        ]
    raise ValueError(f"unknown workload {name!r}")


def relay_plan(n_relays: int) -> list[tuple[tuple[str, ...], int]]:
    """(path, key_len) of relay i, for i in range(n_relays)."""
    return [(LONG_PATH, LONG_KEY_BITS) if i % LONG_EVERY == 0
            else (SHORT_PATH, SHORT_KEY_BITS) for i in range(n_relays)]


def auth_bits_needed(plan) -> dict[frozenset, int]:
    """Auth-pool bits each link spends on a relay plan: one 64-bit hash
    key the first time, then one 64-bit pad per hop message."""
    messages: dict[frozenset, int] = {}
    for path, _ in plan:
        for a, b in zip(path, path[1:]):
            hop = frozenset((a, b))
            messages[hop] = messages.get(hop, 0) + 1
    return {hop: 64 + 64 * m for hop, m in messages.items()}


def link_bits_needed(plan) -> dict[frozenset, int]:
    """Link-key bits each link spends on a relay plan."""
    need: dict[frozenset, int] = {}
    for path, key_len in plan:
        for a, b in zip(path, path[1:]):
            hop = frozenset((a, b))
            need[hop] = need.get(hop, 0) + key_len
    return need


def build_relay_network(seed: int, scale: float = 1.0):
    """The six-node chain A-F: two session links, three stub links."""
    net = netsim.Network()
    pool = max(1, round(LINK_AUTH_POOL_BITS * scale))
    ab, bc = session_configs("trusted_relay", seed, scale)
    net.add_link("A", "B", ab, auth_pool_bits=pool)
    net.add_link("B", "C", bc, auth_pool_bits=pool)
    stub_bits = max(1, round(STUB_LINK_BITS * scale))
    for k, (a, b) in enumerate(zip(SHORT_PATH, SHORT_PATH[1:])):
        stub = netsim.StubKeySource(rng.mix64(seed, 6 + k), stub_bits)
        net.add_link(a, b, stub, auth_pool_bits=pool)
    return net


@dataclass
class Inputs:
    """Everything one pass needs, built before the pass is timed."""

    name: str
    configs: list = field(default_factory=list)
    network: netsim.Network | None = None
    relays: list = field(default_factory=list)


def build(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Build a workload's inputs from its seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if name == "trusted_relay":
        return Inputs(name, network=build_relay_network(seed, scale),
                      relays=relay_plan(max(1, round(RELAYS * scale))))
    return Inputs(name, configs=session_configs(name, seed, scale))


def click_probability(config: protocol.SessionConfig) -> float:
    """Closed-form probability that a gate records any click: Poisson
    photons thinned by fiber and detector efficiency, plus two
    independent dark counts."""
    eta = photonics.survival_probability(config.channel) \
        * config.detectors.efficiency
    return 1.0 - math.exp(-config.source.mu * eta) \
        * (1.0 - config.detectors.dark_count_prob) ** 2


def session_errors(report: protocol.SessionReport,
                   config: protocol.SessionConfig,
                   check_clicks: bool = False) -> list[str]:
    """Invariants a session report must satisfy; empty when it passes."""
    errors = []
    if report.secret_growth != report.final_len - report.auth_bits_consumed:
        errors.append("secret_growth != final_len - auth_bits_consumed")
    key_len = 0 if report.secret_key is None else len(report.secret_key)
    if key_len != report.final_len:
        errors.append(f"secret key has {key_len} bits, "
                      f"final_len is {report.final_len}")
    # a session that reached reconciliation sent all five messages
    outcome = protocol.SessionOutcome
    completed = report.outcome is outcome.ABORT_RECONCILIATION \
        or (report.outcome is outcome.SUCCESS and report.leak_ec_bits > 0)
    if not completed:
        errors.append(f"session stopped early: {report.outcome.value}")
    elif report.auth_bits_consumed != AUTH_BITS_PER_SESSION:
        errors.append(f"completed session consumed "
                      f"{report.auth_bits_consumed} auth bits, "
                      f"expected {AUTH_BITS_PER_SESSION}")
    if check_clicks:
        n, p = report.pulses_sent, click_probability(config)
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(report.clicks - n * p) > CLICK_TOLERANCE_SIGMAS * sigma:
            errors.append(f"{report.clicks} clicks in {n} pulses, "
                          f"closed form {n * p:.1f} +- "
                          f"{CLICK_TOLERANCE_SIGMAS:g} x {sigma:.1f}")
    return errors


def relay_seed_key(i: int, key_len: int) -> np.ndarray:
    """The key relay i must deliver, regenerated from its own seed."""
    return rng.RandomSource(i).split("relay").bits(key_len)


@dataclass
class PassResult:
    """What one pass did: operations, failures, timings, outputs, digest."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    relay_ms: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # (report, config)
    delivered: list = field(default_factory=list)  # relay transcripts
    digest: str = ""


def _report_record(report: protocol.SessionReport) -> bytes:
    fields = (report.pulses_sent, report.clicks, report.raw_len,
              report.sifted_len, repr(report.e_hat), report.leak_ec_bits,
              report.final_len, repr(report.eve_info_fraction),
              report.auth_bits_consumed, report.outcome.value)
    key = b"" if report.secret_key is None \
        else np.packbits(report.secret_key.bits).tobytes()
    return repr(fields).encode() + key


def _fail(result: PassResult, error: str) -> None:
    result.failed += 1
    result.errors.append(error)


def _run_relays(net: netsim.Network, plan, result: PassResult) -> list:
    """Relay i of the plan with seed i, timing each call; returns the
    delivered transcripts for checking after the timed region."""
    delivered = []
    for i, (path, key_len) in enumerate(plan):
        result.attempted += 1
        rand = rng.RandomSource(i).split("relay")
        t0 = time.perf_counter()
        try:
            transcript = net.relay(list(path), key_len, rand)
        except Exception as exc:  # a failed relay is counted, not fatal
            result.relay_ms.append(math.inf)  # and misses any latency limit
            _fail(result, f"relay {i}: {type(exc).__name__}: {exc}")
            continue
        result.relay_ms.append((time.perf_counter() - t0) * 1e3)
        delivered.append((i, path, key_len, transcript))
    return delivered


def run_pass(inputs: Inputs) -> PassResult:
    """Run one timed pass of the workload; ``check`` judges its outputs."""
    result = PassResult()
    t0 = time.perf_counter()
    if inputs.network is not None:
        try:
            inputs.network.provision_all()
        except Exception as exc:  # the unfunded relays fail after it
            result.errors.append(f"provisioning: {type(exc).__name__}: {exc}")
        result.delivered = _run_relays(inputs.network, inputs.relays, result)
    else:
        for config in inputs.configs:
            result.attempted += 1
            try:
                result.reports.append((protocol.run_session(config), config))
            except Exception as exc:  # a failed session is counted
                _fail(result, f"session: {type(exc).__name__}: {exc}")
    result.wall_s = time.perf_counter() - t0
    if inputs.network is not None:
        for link in inputs.network.links:
            if not isinstance(link.key_source, netsim.StubKeySource):
                result.attempted += 1
                result.reports.append((link.reports[0] if link.reports
                                       else None, link.key_source))
    return result


def _check_relays(delivered, result: PassResult, digest) -> None:
    for i, path, key_len, transcript in delivered:
        if transcript.path != tuple(path) \
                or not np.array_equal(transcript.end_key,
                                      relay_seed_key(i, key_len)):
            _fail(result, f"relay {i}: delivered key differs")
        digest.update(np.packbits(transcript.end_key).tobytes())


def check(inputs: Inputs, result: PassResult) -> None:
    """Check every operation of a pass and set the digest of its outputs;
    a broken invariant counts the operation as failed."""
    digest = hashlib.sha256(inputs.name.encode())
    _check_relays(result.delivered, result, digest)
    for report, config in result.reports:
        if report is None:
            _fail(result, "session link never provisioned")
            continue
        digest.update(_report_record(report))
        errors = session_errors(report, config,
                                check_clicks=inputs.name == "long_haul")
        if errors:
            _fail(result, "; ".join(errors))
    result.digest = digest.hexdigest()
