"""Span tracer that wraps qkdsim's public functions from outside.

``Tracer.install()`` replaces the names that ``qkdsim.protocol`` and
``qkdsim.netsim`` look up at call time (module functions and a few
methods) with wrappers that record a span per call: name, start, end and
parent. Counts are taken from the arguments and results of the wrapped
calls. Nothing under ``src/`` changes; ``uninstall()`` puts the original
names back. Spans stay in memory until the pass ends.

Span names are ``<layer>.<stage>``; a layer's self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict

from qkdsim import auth, netsim, photonics, postprocess, protocol, rng

LAYERS = ("rng", "photonics", "adversary", "protocol", "postprocess",
          "auth", "netsim")

# metric name -> unit; the traced run reports every one of them
PER_LAYER_UNITS = {
    "rng.bits_s": "s",
    "photonics.source_s": "s",
    "photonics.channel_s": "s",
    "photonics.detector_s": "s",
    "photonics.rss_growth_mb": "MB",
    "photonics.pulses": "count",
    "photonics.clicks": "count",
    "photonics.click_ratio": "ratio",
    "protocol.quantum_phase_s": "s",
    "protocol.sift_s": "s",
    "protocol.sample_s": "s",
    "protocol.session_self_s": "s",
    "protocol.sifted_bits": "bit",
    "protocol.sift_ratio": "ratio",
    "postprocess.cascade_s": "s",
    "postprocess.cascade_leak_bits": "bit",
    "postprocess.cascade_f": "ratio",
    "postprocess.cascade_failures": "count",
    "postprocess.pa_s": "s",
    "postprocess.pa_rss_growth_mb": "MB",
    "postprocess.pa_matrix_bits": "bit",
    "postprocess.final_bits": "bit",
    "auth.tag_s": "s",
    "auth.messages": "count",
    "auth.bytes": "byte",
    "auth.gf64_blocks": "count",
    "auth.key_bits_consumed": "bit",
    "adversary.intercept_s": "s",
    "adversary.knowledge_s": "s",
    "adversary.ledger_entries": "count",
    "adversary.eve_known_frac": "ratio",
    "netsim.provision_s": "s",
    "netsim.relay_s": "s",
    "netsim.keystore_s": "s",
    "netsim.hops": "count",
    "netsim.link_bits_consumed": "bit",
}


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that
    its direct children cover. ``spans`` holds (name, start, end,
    parent) tuples, parent an index into ``spans`` or -1."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _blocks(n_bytes: int) -> int:
    return (n_bytes + 7) // 8


class Tracer:
    """Records spans and counts around wrapped qkdsim calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rss_growth: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, count=None, rss_key: str | None = None):
        """A wrapper of ``fn`` that records span ``name``.

        ``count`` is a pair of callables: ``before(args)`` runs ahead of
        the call and ``after(counts, args, result, exc, before_value)``
        adds to the counts. ``rss_key`` accumulates the growth of peak
        RSS across the call."""
        before, after = count if count is not None else (None, None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            rss0 = maxrss_mb() if rss_key else 0.0
            state = before(args) if before is not None else None
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if rss_key:
                    self.rss_growth[rss_key] += maxrss_mb() - rss0
                if after is not None:
                    after(self.counts, args, result, exc, state)

        return traced

    def _patch(self, owner, attr: str, name: str, count=None,
               rss_key=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, count, rss_key))

    def install(self) -> None:
        """Wrap every traced name; call ``uninstall`` to undo."""
        P = protocol
        self._patch(rng.RandomSource, "bits", "rng.bits")
        self._patch(P, "sample_photon_counts", "photonics.source",
                    _count_pulses, "photonics")
        self._patch(P, "transmit_counts", "photonics.channel",
                    rss_key="photonics")
        self._patch(P, "measure_batch", "photonics.detector",
                    _count_clicks, "photonics")
        self._patch(P, "intercept_batch", "adversary.intercept",
                    _count_ledger)
        self._patch(P, "finalize_knowledge", "adversary.knowledge")
        self._patch(P, "eve_information", "adversary.knowledge",
                    _count_known)
        self._patch(P, "run_quantum_phase", "protocol.quantum_phase")
        self._patch(P, "sift", "protocol.sift", _count_sifted)
        self._patch(P, "estimate_qber", "protocol.sample")
        self._patch(P, "error_correct", "postprocess.cascade",
                    _count_cascade)
        self._patch(P, "privacy_amplify", "postprocess.pa", _count_pa,
                    "pa")
        session = self.wrap("protocol.session", P.run_session)
        for module in (P, netsim):
            self._saved.append((module, "run_session", module.run_session))
            module.run_session = session
        self._patch(auth.AuthenticatedChannel, "send", "auth.send",
                    _count_send)
        self._patch(auth.AuthenticatedChannel, "deliver", "auth.deliver",
                    _count_deliver)
        self._patch(netsim, "provision_link", "netsim.provision")
        self._patch(netsim.Network, "provision_all", "netsim.provision")
        self._patch(netsim.Network, "relay", "netsim.relay", _count_relay)
        self._patch(netsim.KeyStore, "consume", "netsim.keystore")
        self._patch(netsim.KeyStore, "deposit", "netsim.keystore")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def stage_self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, self_times(self.spans)):
            totals[name] += t
        return totals

    def layer_self_times(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, t in self.stage_self_times().items():
            totals[name.split(".")[0]] += t
        return totals

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer that did not run reports 0."""
        s = self.stage_self_times()
        c = self.counts
        pulses = c["photonics.pulses"]
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        return {
            "rng.bits_s": s["rng.bits"],
            "photonics.source_s": s["photonics.source"],
            "photonics.channel_s": s["photonics.channel"],
            "photonics.detector_s": s["photonics.detector"],
            "photonics.rss_growth_mb": self.rss_growth["photonics"],
            "photonics.pulses": pulses,
            "photonics.clicks": c["photonics.clicks"],
            "photonics.click_ratio": ratio(c["photonics.clicks"], pulses),
            "protocol.quantum_phase_s": s["protocol.quantum_phase"],
            "protocol.sift_s": s["protocol.sift"],
            "protocol.sample_s": s["protocol.sample"],
            "protocol.session_self_s": s["protocol.session"],
            "protocol.sifted_bits": c["protocol.sifted_bits"],
            "protocol.sift_ratio": ratio(c["protocol.sifted_bits"], pulses),
            "postprocess.cascade_s": s["postprocess.cascade"],
            "postprocess.cascade_leak_bits": c["postprocess.cascade_leak"],
            "postprocess.cascade_f": ratio(c["postprocess.cascade_leak"],
                                           c["postprocess.cascade_nh"]),
            "postprocess.cascade_failures": c["postprocess.cascade_failures"],
            "postprocess.pa_s": s["postprocess.pa"],
            "postprocess.pa_rss_growth_mb": self.rss_growth["pa"],
            "postprocess.pa_matrix_bits": c["postprocess.pa_matrix_bits"],
            "postprocess.final_bits": c["postprocess.final_bits"],
            "auth.tag_s": s["auth.send"] + s["auth.deliver"],
            "auth.messages": c["auth.messages"],
            "auth.bytes": c["auth.bytes"],
            "auth.gf64_blocks": c["auth.gf64_blocks"],
            "auth.key_bits_consumed": c["auth.key_bits_consumed"],
            "adversary.intercept_s": s["adversary.intercept"],
            "adversary.knowledge_s": s["adversary.knowledge"],
            "adversary.ledger_entries": c["adversary.ledger_entries"],
            "adversary.eve_known_frac": ratio(c["adversary.eve_known"],
                                              c["adversary.eve_sifted"]),
            "netsim.provision_s": s["netsim.provision"],
            "netsim.relay_s": s["netsim.relay"],
            "netsim.keystore_s": s["netsim.keystore"],
            "netsim.hops": c["netsim.hops"],
            "netsim.link_bits_consumed": c["netsim.link_bits"],
        }

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent] each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


# -- counters: (before, after) pairs, see Tracer.wrap ------------------------


def _after(fn):
    return (None, fn)


@_after
def _count_pulses(c, args, result, exc, _):
    if result is not None:
        c["photonics.pulses"] += len(result)


@_after
def _count_clicks(c, args, result, exc, _):
    if result is not None:
        c["photonics.clicks"] += int((result[0] != int(
            photonics.ClickKind.NO_CLICK)).sum())


def _ledger_size(args) -> int:
    ledger = args[4]
    return len(ledger.stored) + len(ledger.measured)


def _ledger_growth(c, args, result, exc, size_before):
    if result is not None:
        c["adversary.ledger_entries"] += _ledger_size(args) - size_before


_count_ledger = (_ledger_size, _ledger_growth)


@_after
def _count_known(c, args, result, exc, _):
    if result is not None:
        sifted = len(args[1])
        c["adversary.eve_known"] += round(result * sifted)
        c["adversary.eve_sifted"] += sifted


@_after
def _count_sifted(c, args, result, exc, _):
    if result is not None:
        c["protocol.sifted_bits"] += len(result)


@_after
def _count_cascade(c, args, result, exc, _):
    if isinstance(exc, postprocess.ReconciliationFailure):
        result = exc.result
        c["postprocess.cascade_failures"] += 1
    if result is not None:
        n, e_hat = len(args[0]), args[2]
        c["postprocess.cascade_leak"] += result.leaked_bits
        c["postprocess.cascade_nh"] += n * postprocess.binary_entropy(e_hat)


@_after
def _count_pa(c, args, result, exc, _):
    if result is not None:
        ell = args[1]
        c["postprocess.pa_matrix_bits"] += len(args[0]) * ell
        c["postprocess.final_bits"] += ell


def _pool_cursor(args) -> int:
    return args[0].pool.cursor


def _sent(c, args, result, exc, cursor_before):
    if result is not None:
        channel, payload = args
        c["auth.messages"] += 1
        c["auth.bytes"] += len(payload)
        c["auth.gf64_blocks"] += _blocks(len(payload))
        c["auth.key_bits_consumed"] += channel.pool.cursor - cursor_before


_count_send = (_pool_cursor, _sent)


@_after
def _count_deliver(c, args, result, exc, _):
    if result is not None:
        c["auth.gf64_blocks"] += _blocks(len(result))


@_after
def _count_relay(c, args, result, exc, _):
    if result is not None:
        _, path_ids, key_len, _ = args
        hops = len(path_ids) - 1
        c["netsim.hops"] += hops
        c["netsim.link_bits"] += hops * key_len
