"""Counter-based, splittable random streams.

All randomness flows through `SplitStream`, a thin wrapper around a Philox
counter-based bit generator keyed by (master seed, path of integers).  A
stream can be split into independent child streams by extending the path;
callers give replication r the child at r.

The rule: every function that draws takes a `SplitStream` or an integer
seed, reads it through `as_stream`, and draws from one fresh generator at
the stream's (seed, path), in one fixed order.  A replication draws
everything, from its immigrants through every cluster, from that one
generator; there are no per-cluster substreams, also in a lockstep
branching of several (`simulate_processes`).  So the same (seed, path)
gives the same bytes in every run and under any `--threads`, which only
splits the replications into contiguous chunks, one per thread, and one
stream object passed twice repeats the draws.  Only this module builds a
numpy generator.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


class SplitStream:
    """A reproducible random stream addressed by (seed, path)."""

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    def child(self, *indices: int) -> "SplitStream":
        return SplitStream(self.seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator at this stream's (seed, path)."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def describe(self) -> dict:
        return {"seed": self.seed, "path": list(self.path)}

    def __repr__(self):
        return f"SplitStream(seed={self.seed}, path={self.path})"


def as_stream(rng) -> SplitStream:
    """`rng` as a stream: a `SplitStream` as it is, an integer seed as
    `SplitStream(seed)`; anything else raises `InvalidArgumentError`."""
    if isinstance(rng, SplitStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return SplitStream(int(rng))
    raise InvalidArgumentError(f"a simulation needs a SplitStream or an integer seed, not {rng!r}")
