"""Shared test configuration.

One hypothesis profile for every property test: examples are derived from
the test itself (seed-deterministic across runs), no example database is
written, and no per-example deadline applies (simulations vary in cost).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
