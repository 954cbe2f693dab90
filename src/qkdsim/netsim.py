"""Multi-node layer: trusted-node key relay and the dual-key combiner.

Nodes hold per-neighbor stores of link key material produced by
point-to-point sessions (or seeded stubs for fast tests). A relay sends
a fresh key down a path as a chain of one-time-pad encryptions: each
intermediate node decrypts with the inbound link key, sees the key in
plaintext (that is the trust assumption, made testable via the
knowledge log), and re-encrypts with the outbound link key. Every hop
message is authenticated and every link-key bit is spent exactly once.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .auth import AuthenticatedChannel, BitPool, KeyExhausted
from .protocol import SessionConfig, SessionOutcome, run_session
from .rng import RandomSource


class SessionAborted(Exception):
    """Link provisioning ran a session that produced no key."""


class LengthMismatch(ValueError):
    """Keys to combine must have equal length."""


class KeyStore(BitPool):
    """One node's view of a link's shared key material.

    A separate class from the authentication pools only so that link-key
    spending can be told apart from tag spending when tracing.
    """


@dataclass
class Node:
    """A network participant: key stores per neighbor plus a log of every
    relayed key this node observed in plaintext."""

    id: str
    key_stores: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    knowledge_log: list = field(default_factory=list)

    def store_for(self, neighbor_id: str) -> KeyStore:
        if neighbor_id not in self.key_stores:
            self.key_stores[neighbor_id] = KeyStore()
        return self.key_stores[neighbor_id]


@dataclass(frozen=True)
class StubKeySource:
    """Seeded stand-in for a full session, for fast network tests."""

    seed: int
    n_bits: int


KeySource = Union[SessionConfig, StubKeySource]


class Link:
    """A point-to-point connection whose endpoints share key material.

    Construction wires mirrored key stores and one authenticated channel
    (funded by a seeded pre-shared pool) into both endpoint nodes.
    """

    def __init__(self, a: Node, b: Node, key_source: KeySource,
                 auth_pool_bits: int = 4096):
        self.endpoints = (a, b)
        self.key_source = key_source
        self.reports = []
        a.store_for(b.id)
        b.store_for(a.id)
        seed = key_source.seed
        pool = BitPool(
            RandomSource(seed).split("link_auth").bits(auth_pool_bits))
        channel = AuthenticatedChannel(pool)
        a.channels[b.id] = channel
        b.channels[a.id] = channel


def provision_link(link: Link) -> np.ndarray:
    """Produce link key and deposit it at both endpoints.

    A full-pipeline source runs the whole protocol; any abort (or an
    empty key) raises :class:`SessionAborted` and leaves the stores
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
                f"final_len={report.final_len}")
        bits = report.secret_key.bits
    a, b = link.endpoints
    a.store_for(b.id).deposit(bits)
    b.store_for(a.id).deposit(bits)
    return bits


@dataclass(frozen=True)
class RelayTranscript:
    """What a relay left behind: the path, the authenticated hop
    ciphertexts, and the delivered key."""

    path: tuple
    hop_messages: tuple
    end_key: np.ndarray


def relay_key(path: list[Node], key_len: int,
              rand: RandomSource) -> RelayTranscript:
    """Carry a fresh key from path[0] to path[-1] by hop-wise one-time-pad
    re-encryption. Every hop must be a link, and its link key and
    authentication key are checked before any bit is spent, so a failed
    precondition consumes nothing, creates no key store and exposes the
    key to no node."""
    if len(path) < 2:
        raise ValueError("a relay path needs at least two nodes")
    # a path may cross one link more than once; each crossing pays
    crossings = Counter(frozenset((a.id, b.id))
                        for a, b in zip(path, path[1:]))
    for a, b in zip(path, path[1:]):
        if b.id not in a.channels:
            raise ValueError(f"hop {a.id}-{b.id} is not a link")
        n = crossings[frozenset((a.id, b.id))]
        have = a.store_for(b.id).remaining
        if have < n * key_len:
            raise KeyExhausted(
                f"hop {a.id}-{b.id} holds {have} link-key bits, "
                f"need {n * key_len}")
        channel = a.channels[b.id]
        need = channel.bits_needed(n)
        if channel.pool.remaining < need:
            raise KeyExhausted(
                f"hop {a.id}-{b.id} holds {channel.pool.remaining} "
                f"authentication bits, need {need}")

    fresh = rand.bits(key_len)
    messages = []
    carried = fresh
    for i, (a, b) in enumerate(zip(path, path[1:])):
        pad_a = a.store_for(b.id).consume(key_len)
        pad_b = b.store_for(a.id).consume(key_len)
        if not np.array_equal(pad_a, pad_b):
            raise RuntimeError(f"link {a.id}-{b.id} stores desynchronized")
        cipher = carried ^ pad_a
        channel = a.channels[b.id]
        payload = channel.deliver(channel.send(np.packbits(cipher).tobytes()))
        messages.append(channel.transcript[-1])
        received = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8))[:key_len]
        carried = received ^ pad_b
        if i + 1 < len(path) - 1:  # interior node sees the key in the clear
            b.knowledge_log.append(carried.copy())
    return RelayTranscript(tuple(n.id for n in path), tuple(messages),
                           carried)


def combine_keys(k_quantum, k_classical) -> np.ndarray:
    """XOR combiner of the dual-key-agreement scheme: breaking the result
    requires both inputs, so it is at least as strong as the stronger."""
    kq = np.asarray(k_quantum, dtype=np.uint8)
    kc = np.asarray(k_classical, dtype=np.uint8)
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
                 auth_pool_bits: int = 4096) -> Link:
        link = Link(self.node(a_id), self.node(b_id), key_source,
                    auth_pool_bits)
        self.links.append(link)
        return link

    def provision_all(self) -> None:
        for link in self.links:
            provision_link(link)

    def shortest_path(self, a_id: str, b_id: str) -> list[Node]:
        """Fewest-hops path, breadth-first over provisioned links."""
        neighbors: dict[str, list[str]] = {}
        for link in self.links:
            x, y = link.endpoints
            neighbors.setdefault(x.id, []).append(y.id)
            neighbors.setdefault(y.id, []).append(x.id)
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
            for nxt in sorted(neighbors.get(cur, [])):
                if nxt not in seen:
                    seen[nxt] = cur
                    queue.append(nxt)
        raise ValueError(f"no path from {a_id} to {b_id}")

    def relay(self, path_ids: list[str], key_len: int,
              rand: RandomSource) -> RelayTranscript:
        """Relay over existing nodes only; an unknown id raises
        ``ValueError`` before anything is created or spent."""
        for node_id in path_ids:
            if node_id not in self.nodes:
                raise ValueError(f"unknown node {node_id!r} in relay path")
        return relay_key([self.nodes[i] for i in path_ids], key_len, rand)
