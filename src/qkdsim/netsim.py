"""Multi-node layer: trusted-node key relay and the dual-key combiner.

Each link holds one store of key material, produced by a point-to-point
session (or a seeded stub for fast tests) and shared by both endpoints
like the link's authentication pool. A relay sends a fresh key down a
path as a chain of one-time-pad encryptions: each intermediate node
decrypts with the inbound link key, sees the key in plaintext (that is
the trust assumption, made testable via the knowledge log), and
re-encrypts with the outbound link key. Every hop message is
authenticated and every link-key bit is spent exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .auth import AuthenticatedChannel, BitPool, KeyExhausted
from .protocol import BITS, SessionConfig, SessionOutcome, run_session
from .rng import INTEGER, Checked, RandomSource, bit_array


class SessionAborted(Exception):
    """Link provisioning ran a session that produced no key: it aborted,
    or it succeeded with an empty key. ``outcome`` says which."""

    def __init__(self, message: str, outcome: SessionOutcome):
        super().__init__(message)
        self.outcome = outcome


class LengthMismatch(ValueError):
    """Keys to combine must have equal length."""


LINK_AUTH_POOL_BITS = 4096


class KeyStore(BitPool):
    """A link's key material, shared by both endpoints.

    A class of its own only so that the benchmark's tracer can time its
    deposits; relays read it with ``consume_int``, which is not traced.
    """


@dataclass
class Node:
    """A network participant: its links by neighbor id plus a record of
    every relayed key this node observed in plaintext.

    ``observed`` holds one ``(packed key bytes, bit length)`` entry per
    key seen; the interior nodes of one relay share the entry of a key
    that reached them unchanged.
    """

    id: str
    links: dict = field(default_factory=dict)
    observed: list = field(default_factory=list)

    @property
    def knowledge_log(self) -> list[np.ndarray]:
        """The keys this node observed, oldest first, each as a new
        uint8 array of one bit per element."""
        return [np.unpackbits(np.frombuffer(packed, np.uint8), count=n)
                for packed, n in self.observed]


@dataclass(frozen=True)
class StubKeySource(Checked):
    """Seeded stand-in for a full session, for fast network tests."""

    RULES = {"seed": INTEGER, "n_bits": BITS}

    seed: int
    n_bits: int


KeySource = Union[SessionConfig, StubKeySource]


class Link:
    """A point-to-point connection whose endpoints share key material.

    It owns one key store, ``key``, and one authenticated channel,
    ``channel``, funded by a seeded pre-shared pool; both endpoints reach
    these same two objects through their ``links``.
    """

    def __init__(self, a: Node, b: Node, key_source: KeySource,
                 auth_pool_bits: int = LINK_AUTH_POOL_BITS):
        BITS.check("auth_pool_bits", auth_pool_bits)
        self.endpoints = (a, b)
        self.key_source = key_source
        self.reports = []
        self.key = KeyStore()
        auth = RandomSource(key_source.seed).split("link_auth")
        self.channel = AuthenticatedChannel(BitPool(auth.bits(auth_pool_bits)))
        a.links[b.id] = self
        b.links[a.id] = self


def provision_link(link: Link) -> np.ndarray:
    """Produce link key and deposit it in the link's store.

    A full-pipeline source runs the whole protocol; any abort (or an
    empty key) raises :class:`SessionAborted` and leaves the store
    untouched. Returns the deposited bits.
    """
    source = link.key_source
    if isinstance(source, StubKeySource):
        bits = RandomSource(source.seed).split("stub_link_key").bits(
            source.n_bits)
    else:
        report = run_session(source)
        link.reports.append(report)
        if report.outcome is not SessionOutcome.SUCCESS \
                or report.final_len == 0:
            raise SessionAborted(
                f"link session ended {report.outcome.value} with "
                f"final_len={report.final_len}", report.outcome)
        bits = report.secret_key.bits
    link.key.deposit(bits)
    return bits


@dataclass(frozen=True, slots=True)
class RelayTranscript:
    """What a relay left behind: the path, the authenticated hop
    ciphertexts, and the delivered key."""

    path: tuple
    hop_messages: tuple
    end_key: np.ndarray


def relay_key(path: list[Node], key_len: int,
              rand: RandomSource) -> RelayTranscript:
    """Carry a fresh key from path[0] to path[-1] by hop-wise one-time-pad
    re-encryption. ``key_len`` must be an integer in [0, 2^32]. Every hop
    must be a link, and its link key and authentication key are checked
    before any bit is spent, so a failed precondition consumes nothing
    and exposes the key to no node. Key and pads are XORed as the ints
    of the zero-padded bytes each hop sends; each interior node records
    the packed key it saw, and the key is unpacked again only if it
    changed in transit."""
    key_len = int(BITS.check("key_len", key_len))
    if len(path) < 2:
        raise ValueError("a relay path needs at least two nodes")
    links = [a.links.get(b.id) for a, b in zip(path, path[1:])]
    # a path may cross one link more than once: each crossing pays, and
    # the link is checked for all of them at its first hop
    for i, (a, b, link) in enumerate(zip(path, path[1:], links)):
        if link is None:
            raise ValueError(f"hop {a.id}-{b.id} is not a link")
        if links.index(link) < i:
            continue
        n = links.count(link)
        for kind, pool, need in (
                ("link-key", link.key, n * key_len),
                ("authentication", link.channel.pool,
                 link.channel.bits_needed(n))):
            if pool.remaining < need:
                raise KeyExhausted(f"hop {a.id}-{b.id} holds {pool.remaining}"
                                   f" {kind} bits, need {need}")

    n_bytes, shift = (key_len + 7) >> 3, -key_len % 8
    key = rand.bits(key_len)
    entry = (np.packbits(key).tobytes(), key_len)
    carried = int.from_bytes(entry[0], "big")
    messages = []
    for i, (b, link) in enumerate(zip(path[1:], links)):
        pad = link.key.consume_int(key_len) << shift
        msg = link.channel.send((carried ^ pad).to_bytes(n_bytes, "big"))
        messages.append(msg)
        seen = int.from_bytes(link.channel.deliver(msg), "big") ^ pad
        if seen != carried:  # a key changed in transit gets its own entry
            carried, entry = seen, (seen.to_bytes(n_bytes, "big"), key_len)
            key = np.unpackbits(np.frombuffer(entry[0], np.uint8),
                                count=key_len)
        if i + 1 < len(links):  # interior node sees the key in the clear
            b.observed.append(entry)
    return RelayTranscript(tuple(n.id for n in path), tuple(messages), key)


def combine_keys(k_quantum, k_classical) -> np.ndarray:
    """XOR combiner of the dual-key-agreement scheme: breaking the result
    requires both inputs, so it is at least as strong as the stronger."""
    kq = bit_array("k_quantum", k_quantum)
    kc = bit_array("k_classical", k_classical)
    if len(kq) != len(kc):
        raise LengthMismatch(f"lengths differ: {len(kq)} vs {len(kc)}")
    return kq ^ kc


class Network:
    """Nodes and links addressed by id, with BFS path discovery."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []

    def node(self, node_id: str) -> Node:
        if node_id not in self.nodes:
            self.nodes[node_id] = Node(node_id)
        return self.nodes[node_id]

    def add_link(self, a_id: str, b_id: str, key_source: KeySource,
                 auth_pool_bits: int = LINK_AUTH_POOL_BITS) -> Link:
        """Link two nodes, creating them if new. A self-loop, a second
        link between one pair or another link's seed (mod 2^64: its key
        and auth pool) or an ``auth_pool_bits`` outside ``protocol.BITS``
        raises ``ValueError`` before anything is made."""
        BITS.check("auth_pool_bits", auth_pool_bits)
        if a_id == b_id:
            raise ValueError(f"link {a_id}-{b_id} joins a node to itself")
        if a_id in self.nodes and b_id in self.nodes[a_id].links:
            raise ValueError(f"nodes {a_id} and {b_id} are already linked")
        seed = RandomSource(key_source.seed).seed
        for other in self.links:
            if RandomSource(other.key_source.seed).seed == seed:
                x, y = (node.id for node in other.endpoints)
                raise ValueError(f"seed {key_source.seed} is already the "
                                 f"seed of link {x}-{y}")
        link = Link(self.node(a_id), self.node(b_id), key_source,
                    auth_pool_bits)
        self.links.append(link)
        return link

    def provision_all(self) -> None:
        for link in self.links:
            provision_link(link)

    def require_nodes(self, node_ids, where: str) -> None:
        for node_id in node_ids:
            if node_id not in self.nodes:
                raise ValueError(f"unknown node {node_id!r} in {where}")

    def shortest_path(self, a_id: str, b_id: str) -> list[Node]:
        """Fewest-hops path, breadth-first over links; neighbors are
        visited in sorted id order, so ties go the same way every time."""
        self.require_nodes((a_id, b_id), "path query")
        seen = {a_id: None}
        queue = deque([a_id])
        while queue:
            cur = queue.popleft()
            if cur == b_id:
                path = []
                while cur is not None:
                    path.append(cur)
                    cur = seen[cur]
                return [self.nodes[i] for i in reversed(path)]
            for nxt in sorted(self.nodes[cur].links):
                if nxt not in seen:
                    seen[nxt] = cur
                    queue.append(nxt)
        raise ValueError(f"no path from {a_id} to {b_id}")

    def relay(self, path_ids: list[str], key_len: int,
              rand: RandomSource) -> RelayTranscript:
        """Relay over existing nodes only; an unknown id raises
        ``ValueError`` before anything is created or spent."""
        self.require_nodes(path_ids, "relay path")
        return relay_key([self.nodes[i] for i in path_ids], key_len, rand)
