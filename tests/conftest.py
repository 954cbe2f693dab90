"""Shared pytest setup.

Property tests run under one deterministic hypothesis profile: examples
come from a fixed derandomized stream, their number is bounded, and no
example database is read or written, so the suite gives the same result
on every run and on every machine.
"""

from hypothesis import settings

settings.register_profile("qkdsim", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("qkdsim")
