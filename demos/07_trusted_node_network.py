"""
A trusted-node relay network
============================

Point-to-point links cannot span a continent, so keys hop: each
intermediate node decrypts with the key it shares upstream and
re-encrypts with the key it shares downstream. The endpoints end up with
the same fresh key, every hop rides a one-time pad plus authentication,
and the price is trust: interior nodes see the key in plaintext. The
simulator logs exactly who saw what and which key bits were burned.
"""

from qkdsim import Network, RandomSource, StubKeySource

# A five-node backbone with a shortcut. StubKeySource fills each link
# store from a seeded generator; swap in a SessionConfig to provision a
# link from an actual quantum session instead.
net = Network()
for i, (a, b) in enumerate([("amsterdam", "berlin"), ("berlin", "copenhagen"),
                            ("copenhagen", "dublin"), ("dublin", "eindhoven"),
                            ("berlin", "dublin")]):
    net.add_link(a, b, StubKeySource(seed=300 + i, n_bits=4096))
net.provision_all()

# BFS routing prefers fewest hops: the berlin-dublin shortcut wins.
path = [node.id for node in net.shortest_path("amsterdam", "eindhoven")]
print("route:", " -> ".join(path))

transcript = net.relay(path, key_len=256, rand=RandomSource(1))
print(f"delivered {len(transcript.end_key)} key bits over "
      f"{len(transcript.hop_messages)} authenticated hops")

# Who can read that key? Exactly the interior nodes, nobody else.
for name in sorted(net.nodes):
    log = net.nodes[name].knowledge_log
    role = "endpoint" if name in (path[0], path[-1]) else \
        ("interior" if name in path else "bystander")
    print(f"  {name:10} ({role:9}): saw {len(log)} relayed key(s)")

# Every consumed key range is logged; ranges never overlap, so no pad
# bit is ever used twice even across repeated relays.
net.relay(path, key_len=256, rand=RandomSource(2))
store = net.nodes["berlin"].links["dublin"].key
print(f"\nberlin->dublin store after two relays: "
      f"consumed spans {store.consumed_log}, {store.remaining} bits left")

# Underfunded hops fail atomically: the precheck runs before any bit is
# spent, so a refused relay leaves every store untouched.
tiny = Network()
tiny.add_link("x", "y", StubKeySource(seed=9, n_bits=100))
tiny.provision_all()
try:
    tiny.relay(["x", "y"], key_len=512, rand=RandomSource(3))
except Exception as exc:
    print(f"\nunderfunded relay refused: {exc}")
untouched = tiny.nodes["x"].links["y"].key
print(f"x->y store untouched: {untouched.remaining} bits remaining")
