"""Trusted-node relay layer: stores, hop encryption, exposure audit.

The relay oracle is recomputed in-test: each hop ciphertext, decrypted
with the pad recovered from that store's consumption log, must yield the
carried key, and only interior nodes may ever log it.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkdsim.auth import (AuthenticatedMessage, AuthenticationFailure,
                         KeyExhausted)
from qkdsim.netsim import (KeyStore, LengthMismatch, Link, Network, Node,
                           RelayTranscript, SessionAborted, StubKeySource,
                           combine_keys, provision_link, relay_key)
from qkdsim.photonics import ConstantSource, DetectorPair, FiberChannel
from qkdsim.protocol import BITS, SessionConfig
from qkdsim.rng import SHORT_BITS, RandomSource

from reference_kernels import unpacked_relay_key


def stub_network(edges, n_bits=2048, seed_base=500):
    net = Network()
    for i, (a, b) in enumerate(edges):
        net.add_link(a, b, StubKeySource(seed_base + i, n_bits))
    net.provision_all()
    return net


class TestCombineKeys:
    def test_xor_identities(self):
        k = RandomSource(1).bits(64)
        assert np.array_equal(combine_keys(k, np.zeros(64, np.uint8)), k)
        assert not np.any(combine_keys(k, k))

    def test_order_irrelevant(self):
        a, b = RandomSource(2).bits(32), RandomSource(3).bits(32)
        assert np.array_equal(combine_keys(a, b), combine_keys(b, a))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine_keys(np.zeros(4, np.uint8), np.zeros(5, np.uint8))

    def test_recovering_either_input_needs_the_other(self):
        a, b = RandomSource(4).bits(128), RandomSource(5).bits(128)
        c = combine_keys(a, b)
        assert np.array_equal(c ^ b, a)
        assert np.array_equal(c ^ a, b)


class TestKeyStore:
    def test_deposit_consume_cycle(self):
        store = KeyStore()
        assert store.remaining == 0
        store.deposit([1, 0, 1, 1])
        assert store.remaining == 4
        assert np.array_equal(store.consume(3), [1, 0, 1])
        assert store.remaining == 1
        assert store.consumed_log == [(0, 3)]

    def test_overdraw_raises_and_spends_nothing(self):
        store = KeyStore()
        store.deposit(RandomSource(6).bits(10))
        with pytest.raises(KeyExhausted):
            store.consume(11)
        assert store.remaining == 10
        assert store.consumed_log == []

    def test_consumed_ranges_disjoint(self):
        store = KeyStore()
        store.deposit(RandomSource(7).bits(100))
        for n in (10, 20, 30):
            store.consume(n)
        assert store.consumed_log == [(0, 10), (10, 30), (30, 60)]


class TestProvisioning:
    def test_stub_source_deposits_same_bits_both_ends(self):
        net = Network()
        link = net.add_link("A", "B", StubKeySource(510, 256))
        bits = provision_link(link)
        want = RandomSource(510).split("stub_link_key").bits(256)
        assert np.array_equal(bits, want)
        assert np.array_equal(net.node("A").links["B"].key.bits, want)
        assert np.array_equal(net.node("B").links["A"].key.bits, want)

    @pytest.mark.parametrize("seed, n_bits", [
        (1, 10.5), (1, -1), (1, True), (1, np.True_), (1.5, 10),
        (True, 10)])
    def test_stub_source_refuses_non_integers(self, seed, n_bits):
        # n_bits=10.5 used to construct and die at provisioning
        with pytest.raises(ValueError, match="seed|n_bits"):
            StubKeySource(seed=seed, n_bits=n_bits)

    def test_stub_source_accepts_numpy_integers(self):
        net = Network()
        link = net.add_link("A", "B", StubKeySource(np.int64(510),
                                                    np.uint16(256)))
        want = RandomSource(510).split("stub_link_key").bits(256)
        assert np.array_equal(provision_link(link), want)

    def test_session_source_deposits_distilled_key(self):
        config = SessionConfig(
            n_pulses=20_000, source=ConstantSource(1),
            channel=FiberChannel(0.0), detectors=DetectorPair(1.0, 0.0),
            seed=511)
        net = Network()
        link = net.add_link("A", "B", config)
        bits = provision_link(link)
        assert len(link.reports) == 1
        report = link.reports[0]
        assert report.final_len == len(bits) > 0
        assert np.array_equal(bits, report.secret_key.bits)
        assert np.array_equal(net.node("A").links["B"].key.bits, bits)

    def test_aborting_session_leaves_stores_empty(self):
        from qkdsim.adversary import InterceptResend
        config = SessionConfig(
            n_pulses=20_000, source=ConstantSource(1),
            channel=FiberChannel(0.0), detectors=DetectorPair(1.0, 0.0),
            seed=512, eve=InterceptResend(1.0))
        net = Network()
        link = net.add_link("A", "B", config)
        with pytest.raises(SessionAborted):
            provision_link(link)
        assert net.node("A").links["B"].key.remaining == 0
        assert net.node("B").links["A"].key.remaining == 0

    def test_link_wires_one_shared_channel(self):
        net = Network()
        net.add_link("A", "B", StubKeySource(513, 64))
        assert net.node("A").links["B"].channel is \
            net.node("B").links["A"].channel

    def test_link_wires_one_shared_store(self):
        net = Network()
        link = net.add_link("A", "B", StubKeySource(534, 64))
        assert net.node("A").links["B"].key is link.key
        assert net.node("B").links["A"].key is link.key
        provision_link(link)
        assert link.key.remaining == 64
        with pytest.raises(KeyError):
            net.node("A").links["C"]
        assert list(net.node("A").links) == ["B"]


class TestRelay:
    def test_two_nodes_direct(self):
        net = stub_network([("A", "B")])
        transcript = net.relay(["A", "B"], 128, RandomSource(514))
        assert isinstance(transcript, RelayTranscript)
        assert transcript.path == ("A", "B")
        assert np.array_equal(transcript.end_key,
                              RandomSource(514).bits(128))
        assert net.node("A").knowledge_log == []
        assert net.node("B").knowledge_log == []
        assert net.node("A").links["B"].key.cursor == 128

    def test_four_node_chain_hop_oracle(self):
        # Recompute every hop: ciphertext XOR the pad recovered from the
        # store's consumption log must equal the carried key, and the
        # carried key never changes along the path.
        net = stub_network([("A", "B"), ("B", "C"), ("C", "D")])
        transcript = net.relay(["A", "B", "C", "D"], 96, RandomSource(515))
        fresh = RandomSource(515).bits(96)
        assert np.array_equal(transcript.end_key, fresh)
        path = ["A", "B", "C", "D"]
        for i, msg in enumerate(transcript.hop_messages):
            sender = net.node(path[i])
            store = sender.links[path[i + 1]].key
            lo, hi = store.consumed_log[-1]
            pad = store.bits[lo:hi]
            cipher = np.unpackbits(
                np.frombuffer(msg.payload, dtype=np.uint8))[:96]
            assert np.array_equal(cipher ^ pad, fresh)

    def test_interior_exposure_exact(self):
        net = stub_network([("A", "B"), ("B", "C"), ("C", "D")])
        transcript = net.relay(["A", "B", "C", "D"], 64, RandomSource(516))
        for interior in ("B", "C"):
            log = net.node(interior).knowledge_log
            assert len(log) == 1
            assert np.array_equal(log[0], transcript.end_key)
        assert net.node("A").knowledge_log == []
        assert net.node("D").knowledge_log == []

    def test_repeated_relays_use_disjoint_key_ranges(self):
        net = stub_network([("A", "B"), ("B", "C")])
        t1 = net.relay(["A", "B", "C"], 100, RandomSource(517))
        t2 = net.relay(["A", "B", "C"], 100, RandomSource(518))
        assert not np.array_equal(t1.end_key, t2.end_key)
        log = net.node("A").links["B"].key.consumed_log
        assert log == [(0, 100), (100, 200)]

    def test_precheck_spends_nothing_on_failure(self):
        # Second hop is underfunded: the relay must refuse before the
        # first hop consumes anything.
        net = Network()
        net.add_link("A", "B", StubKeySource(519, 256))
        net.add_link("B", "C", StubKeySource(520, 32))
        net.provision_all()
        with pytest.raises(KeyExhausted) as exc_info:
            net.relay(["A", "B", "C"], 64, RandomSource(521))
        assert "B-C" in str(exc_info.value)
        assert net.node("A").links["B"].key.cursor == 0
        assert net.node("B").links["C"].key.cursor == 0
        assert net.node("B").knowledge_log == []

    def test_auth_precheck_spends_nothing_on_failure(self):
        # B-C's 150-bit auth pool funds the first relay's hop message
        # (hash key + pad = 128 bits) but not a second pad: the second
        # relay must refuse before any pad, tag or exposure.
        net = Network()
        net.add_link("A", "B", StubKeySource(526, 1024))
        net.add_link("B", "C", StubKeySource(527, 1024), auth_pool_bits=150)
        net.provision_all()
        net.relay(["A", "B", "C"], 64, RandomSource(528))
        a, b, c = (net.node(i) for i in "ABC")
        stores = [a.links["B"].key, b.links["A"].key, b.links["C"].key,
                  c.links["B"].key]
        pools = [a.links["B"].channel.pool, b.links["C"].channel.pool]
        before = [s.cursor for s in stores + pools]
        with pytest.raises(KeyExhausted) as exc_info:
            net.relay(["A", "B", "C"], 64, RandomSource(529))
        assert "B-C" in str(exc_info.value)
        assert [s.cursor for s in stores + pools] == before
        assert len(b.knowledge_log) == 1

    @pytest.mark.parametrize("key_len", [0, 8])
    def test_hop_without_link_touches_no_store(self, key_len):
        # Nodes A, B, C with only the link A-B: a relay over A-C used to
        # create an empty A->C store and then fail on it.
        net = stub_network([("A", "B")], n_bits=256)
        net.node("C")
        before = {node_id: {peer: (link.key.cursor, link.key.remaining)
                            for peer, link in node.links.items()}
                  for node_id, node in net.nodes.items()}
        with pytest.raises(ValueError, match="A-C"):
            net.relay(["A", "C"], key_len, RandomSource(532))
        after = {node_id: {peer: (link.key.cursor, link.key.remaining)
                           for peer, link in node.links.items()}
                 for node_id, node in net.nodes.items()}
        assert after == before
        assert sorted(net.nodes) == ["A", "B", "C"]
        assert all(node.knowledge_log == [] for node in net.nodes.values())

    @pytest.mark.parametrize("path", [["A", "Z"], ["Z", "A"],
                                      ["A", "B", "Z"]])
    def test_unknown_node_id_creates_nothing(self, path):
        net = stub_network([("A", "B")], n_bits=256)
        with pytest.raises(ValueError, match="unknown node 'Z'"):
            net.relay(path, 8, RandomSource(533))
        assert sorted(net.nodes) == ["A", "B"]
        assert net.nodes["A"].links["B"].key.cursor == 0
        assert net.nodes["A"].links["B"].channel.pool.cursor == 0

    def test_precheck_counts_every_crossing_of_a_link(self):
        # A-B-A crosses one link twice: 2 x 64 pad bits from its store.
        net = stub_network([("A", "B")], n_bits=100)
        with pytest.raises(KeyExhausted):
            net.relay(["A", "B", "A"], 64, RandomSource(530))
        assert net.node("A").links["B"].key.cursor == 0
        assert net.node("B").links["A"].key.cursor == 0
        assert net.node("A").links["B"].channel.pool.cursor == 0
        assert net.node("B").knowledge_log == []
        transcript = net.relay(["A", "B", "A"], 50, RandomSource(531))
        assert np.array_equal(transcript.end_key,
                              RandomSource(531).bits(50))

    def test_non_link_hop_after_a_repeated_link_spends_nothing(self):
        # A-B-A-C crosses A-B twice, funded, and then A-C, not a link
        net = stub_network([("A", "B"), ("B", "C")], n_bits=256)
        pools = [pool for link in net.links
                 for pool in (link.key, link.channel.pool)]
        with pytest.raises(ValueError, match="hop A-C is not a link"):
            net.relay(list("ABAC"), 8, RandomSource(534))
        assert [(p.cursor, p.consumed_log) for p in pools] == [(0, [])] * 4
        assert all(node.knowledge_log == [] for node in net.nodes.values())

    @pytest.mark.parametrize("key_len", [-8, 8.0, True, "8"])
    def test_bad_key_len_refused_before_anything(self, key_len):
        # -8 used to die inside numpy and 8.0 with a TypeError; a packed
        # key would let a negative count slip through np.unpackbits.
        net = stub_network([("A", "B"), ("B", "C")], n_bits=256)
        pools = [pool for link in net.links
                 for pool in (link.key, link.channel.pool)]
        rand = RandomSource(537)
        with pytest.raises(ValueError, match="key_len"):
            net.relay(["A", "B", "C"], key_len, rand)
        assert [(p.cursor, p.consumed_log) for p in pools] == [(0, [])] * 4
        assert net.node("B").knowledge_log == []
        assert np.array_equal(rand.bits(64), RandomSource(537).bits(64))

    def test_key_len_refusal_uses_the_count_rule(self):
        net = stub_network([("A", "B")], n_bits=64)
        with pytest.raises(ValueError) as exc_info:
            net.relay(["A", "B"], -8, RandomSource(1))
        assert str(exc_info.value) \
            == f"key_len must be {BITS.wording}, got -8"

    @pytest.mark.parametrize("key_len", [0, np.int64(12)])
    def test_zero_and_numpy_key_len_accepted(self, key_len):
        net = stub_network([("A", "B"), ("B", "C")], n_bits=256)
        transcript = net.relay(["A", "B", "C"], key_len, RandomSource(538))
        assert np.array_equal(transcript.end_key,
                              RandomSource(538).bits(int(key_len)))
        assert transcript.end_key.dtype == np.uint8
        assert net.node("A").links["B"].key.cursor == key_len

    def test_short_path_rejected(self):
        net = stub_network([("A", "B")])
        with pytest.raises(ValueError):
            net.relay(["A"], 16, RandomSource(522))

    def test_tampered_hop_detected(self):
        net = stub_network([("A", "B"), ("B", "C")])
        channel = net.node("B").links["C"].channel
        original_send = channel.send

        def corrupting_send(payload: bytes):
            msg = original_send(payload)
            flipped = bytes([payload[0] ^ 0x80]) + payload[1:]
            return AuthenticatedMessage(flipped, msg.tag)

        channel.send = corrupting_send
        with pytest.raises(AuthenticationFailure):
            net.relay(["A", "B", "C"], 64, RandomSource(525))


class TestNetwork:
    def test_node_idempotent(self):
        net = Network()
        assert net.node("X") is net.node("X")
        assert isinstance(net.node("X"), Node)

    def test_shortest_path_line(self):
        net = stub_network([("A", "B"), ("B", "C"), ("C", "D")])
        assert [n.id for n in net.shortest_path("A", "D")] == \
            ["A", "B", "C", "D"]

    def test_shortest_path_prefers_shortcut(self):
        net = stub_network([("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])
        assert [n.id for n in net.shortest_path("A", "D")] == ["A", "D"]

    def test_shortest_path_deterministic_tie_break(self):
        # Two equal-length routes: BFS visits sorted neighbors, so the
        # lexicographically earlier branch wins.
        net = stub_network([("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")])
        assert [n.id for n in net.shortest_path("A", "D")] == ["A", "B", "D"]

    @pytest.mark.parametrize("ends", [("Z", "Z"), ("A", "Z"), ("Z", "A")])
    def test_shortest_path_unknown_node(self, ends):
        net = stub_network([("A", "B")])
        with pytest.raises(ValueError, match="unknown node 'Z'"):
            net.shortest_path(*ends)
        assert sorted(net.nodes) == ["A", "B"]

    def test_add_link_refuses_self_loop(self):
        net = Network()
        with pytest.raises(ValueError, match="A-A"):
            net.add_link("A", "A", StubKeySource(535, 64))
        assert (net.nodes, net.links) == ({}, [])

    @pytest.mark.parametrize("pair", [("A", "B"), ("B", "A")])
    def test_add_link_refuses_second_link_between_a_pair(self, pair):
        net = stub_network([("A", "B")], n_bits=64)
        first = net.links[0]
        with pytest.raises(ValueError, match="already linked"):
            net.add_link(*pair, StubKeySource(536, 64))
        assert net.links == [first]
        assert net.node("A").links == {"B": first}
        assert net.node("B").links == {"A": first}
        assert first.key.remaining == 64

    @pytest.mark.parametrize("source", [
        StubKeySource(500, 64), StubKeySource(500 + 2**64, 64),
        SessionConfig(2000, ConstantSource(1), FiberChannel(0.0),
                      DetectorPair(), 500)],
        ids=["stub", "stub_seed_plus_2_64", "session"])
    def test_add_link_refuses_a_seed_another_link_has(self, source):
        # links with one seed (mod 2^64, as RandomSource takes it) would
        # hold the same key and authentication pool, so a relay across
        # both would spend the same pads twice
        net = stub_network([("A", "B")], n_bits=64)
        first = net.links[0]
        with pytest.raises(ValueError,
                           match="already the seed of link A-B"):
            net.add_link("B", "C", source)
        assert net.links == [first] and sorted(net.nodes) == ["A", "B"]
        assert net.node("B").links == {"A": first}

    def test_second_link_between_a_pair_is_named_before_its_seed(self):
        net = stub_network([("A", "B")], n_bits=64)
        with pytest.raises(ValueError, match="already linked"):
            net.add_link("B", "A", StubKeySource(500, 64))

    def test_no_path_raises(self):
        net = stub_network([("A", "B"), ("C", "D")])
        with pytest.raises(ValueError):
            net.shortest_path("A", "D")

    @pytest.mark.parametrize("trial", range(10))
    def test_randomized_ring_topologies(self, trial):
        # Ring of 4-7 nodes plus random chords; relay along the BFS
        # path: the endpoints agree on the fresh key, exactly the
        # interior nodes saw it, and no store range is spent twice.
        rand = RandomSource(5300 + trial)
        n = int(rand.integers(4, 8))
        names = [f"N{i}" for i in range(n)]
        edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
        for _ in range(int(rand.integers(0, 3))):
            i, j = sorted(int(x) for x in rand.integers(0, n, size=2))
            # a chord skips ring neighbors, N0 and N{n-1} among them
            if 1 < j - i < n - 1 and (names[i], names[j]) not in edges:
                edges.append((names[i], names[j]))
        net = stub_network(edges, n_bits=512,
                           seed_base=6000 + 100 * trial)
        src, dst = names[0], names[n // 2]
        path = [node.id for node in net.shortest_path(src, dst)]

        relay_seed = 7000 + trial
        transcript = net.relay(path, 200, RandomSource(relay_seed))
        assert np.array_equal(transcript.end_key,
                              RandomSource(relay_seed).bits(200))

        interior = set(path[1:-1])
        for name in names:
            log = net.node(name).knowledge_log
            if name in interior:
                assert len(log) == 1
                assert np.array_equal(log[0], transcript.end_key)
            else:
                assert log == []

        for link in net.links:
            spans = sorted(link.key.consumed_log)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 <= a2


# -- the packed relay against the unpacked one it replaced --------------------

NODES = "ABCD"
RING = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]


@st.composite
def relay_cases(draw):
    """Store and auth-pool sizes for the four links of a ring, in half
    the cases too small to fund every relay, and up to three relays
    along walks that may turn back over a link or, now and then, step
    to a node that is not a neighbor (A-C and B-D are not links)."""
    if draw(st.booleans()):
        funds = [(3000, 3000)] * len(RING)
    else:
        funds = [(draw(st.integers(0, 900)), draw(st.integers(0, 600)))
                 for _ in RING]
    relays = []
    for _ in range(draw(st.integers(1, 3))):
        walk = [draw(st.sampled_from(NODES))]
        for _ in range(draw(st.integers(1, 5))):
            i = NODES.index(walk[-1])
            step = draw(st.sampled_from([1, -1] * 6 + [2]))
            walk.append(NODES[(i + step) % 4])
        relays.append((walk, draw(st.integers(0, 200)),
                       draw(st.integers(0, 2**32 - 1))))
    return funds, relays


def ring_network(funds):
    net = Network()
    for i, ((a, b), (key_bits, auth_bits)) in enumerate(zip(RING, funds)):
        net.add_link(a, b, StubKeySource(900 + i, key_bits),
                     auth_pool_bits=auth_bits)
    net.provision_all()
    return net


def relay_outcome(relay, net, walk, key_len, seed):
    path = [net.nodes[i] for i in walk]
    try:
        transcript = relay(path, key_len, RandomSource(seed))
    except (ValueError, KeyExhausted) as exc:
        return type(exc), str(exc)
    return (transcript.path,
            [(m.payload, m.tag) for m in transcript.hop_messages],
            transcript.end_key.dtype, transcript.end_key.tolist())


def network_state(net):
    logs = {name: [(k.dtype, k.tolist()) for k in node.knowledge_log]
            for name, node in net.nodes.items()}
    pools = [(pool.cursor, pool.consumed_log) for link in net.links
             for pool in (link.key, link.channel.pool)]
    return logs, pools


FUNDED = [(3000, 3000)] * len(RING)


class TestPackedRelayMatchesUnpacked:
    @given(relay_cases())
    # paths that cross one link twice, funded and not, and one whose
    # non-link hop follows a repeated link: each link is checked for all
    # its crossings at its first hop, and a non-link hop raises first
    @example((FUNDED, [(list("ABAB"), 9, 1), (list("DABCBA"), 128, 2),
                       (list("ABAC"), 9, 10)]))
    @example(([(20, 3000), (20, 3000), (3000, 3000), (3000, 3000)],
              [(list("ABA"), 9, 3), (list("ABCB"), 9, 4),
               (list("ABCD"), 9, 5)]))
    # key lengths around a byte, each read at the cursor the last left:
    # 1, then 8 and 15 bits into the stores
    @example((FUNDED, [(list("ABCD"), n, n) for n in (0, 1, 7, 9, 128)]))
    # a 128-bit key read from a cursor 3 bits into a byte
    @example((FUNDED, [(list("AB"), 3, 6), (list("ABC"), 128, 7),
                       (list("CBAD"), 13, 8)]))
    def test_same_messages_keys_logs_and_spending(self, case):
        funds, relays = case
        packed, unpacked = ring_network(funds), ring_network(funds)
        for walk, key_len, seed in relays:
            got = relay_outcome(relay_key, packed, walk, key_len, seed)
            want = relay_outcome(unpacked_relay_key, unpacked, walk,
                                 key_len, seed)
            assert got == want
            assert network_state(packed) == network_state(unpacked)

    def test_delivered_arrays_are_distinct_and_writable(self):
        # every interior node and the receiver hold their own key array,
        # so changing one in place changes no other
        net = ring_network(FUNDED)
        ends = [relay_key([net.nodes[i] for i in walk], 12,
                          RandomSource(seed)).end_key
                for walk, seed in (("ABCDA", 1), ("ABAB", 2))]
        logs = [key for node in net.nodes.values()
                for key in node.knowledge_log]
        assert len(logs) == 3 + 2
        arrays = ends + logs
        for i, key in enumerate(arrays):
            assert key.flags.writeable and key.base is None
            assert not any(np.shares_memory(key, other)
                           for other in arrays[i + 1:])
        before = [key.copy() for key in logs]
        ends[0][0] ^= 1
        assert all(np.array_equal(k, b) for k, b in zip(logs, before))

    @pytest.mark.parametrize("key_len", [0, 1, 16, 128, 256, 257, 300,
                                         SHORT_BITS, SHORT_BITS + 1])
    def test_end_key_is_the_seeds_relay_draw(self, key_len):
        # a delivered key is RandomSource(s).split("relay").bits(k) drawn
        # afresh, which is how the benchmark checks every relay
        net = ring_network(FUNDED)
        for seed in (0, 1, 2**64 - 1):
            transcript = net.relay(list("ABCD"), key_len,
                                   RandomSource(seed).split("relay"))
            assert np.array_equal(
                transcript.end_key,
                RandomSource(seed).split("relay").bits(key_len))

    def test_interior_nodes_share_one_packed_entry(self):
        # one immutable (packed bytes, bit length) entry per key seen;
        # each read of the log unpacks new arrays from it
        net = ring_network(FUNDED)
        transcript = net.relay(list("ABCDA"), 13, RandomSource(4))
        entries = [net.nodes[i].observed for i in "BCD"]
        assert all(len(seen) == 1 for seen in entries)
        assert entries[0][0] is entries[1][0] is entries[2][0]
        assert entries[0][0] == (np.packbits(transcript.end_key).tobytes(),
                                 13)
        first = net.nodes["B"].knowledge_log[0]
        first ^= 1
        assert np.array_equal(net.nodes["B"].knowledge_log[0],
                              transcript.end_key)

    def test_key_changed_in_transit_reaches_later_nodes(self, monkeypatch):
        # a hop message altered yet accepted (a forged tag, which a real
        # forger lands with probability about 2^-64): the nodes after that
        # hop decrypt and log the altered key, the ones before it do not
        net = stub_network([("A", "B"), ("B", "C"), ("C", "D")])
        channel = net.nodes["B"].links["C"].channel
        deliver = channel.deliver

        def forged(msg):
            payload = bytearray(deliver(msg))
            payload[0] ^= 0x80
            return bytes(payload)

        monkeypatch.setattr(channel, "deliver", forged)
        transcript = relay_key([net.nodes[i] for i in "ABCD"], 12,
                               RandomSource(3))
        sent = RandomSource(3).bits(12)
        altered = sent.copy()
        altered[0] ^= 1
        assert np.array_equal(net.nodes["B"].knowledge_log[0], sent)
        assert np.array_equal(net.nodes["C"].knowledge_log[0], altered)
        assert np.array_equal(transcript.end_key, altered)
        assert net.nodes["B"].observed[0] is not net.nodes["C"].observed[0]
