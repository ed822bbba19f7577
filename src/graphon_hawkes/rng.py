"""Counter-based, splittable random streams.

All randomness flows through `SplitStream`, a thin wrapper around a Philox
counter-based bit generator keyed by (master seed, path of integers).  A
stream can be split into independent child streams by extending the path;
callers give replication r the child at r.

The contract: one generator per replication.  A replication draws
everything, from its immigrants through every cluster, from the one
generator at its stream's (seed, path), in one fixed order; there are no
per-cluster substreams, also in a lockstep branching of several
(`simulate_processes`).  So the same (seed, path) gives the same bytes in
every run and under any `--threads`, which only splits the replications
into contiguous chunks, one per thread.  Passing one stream object twice
repeats the run in `simulate_process`, `simulate_cluster` and
`simulate_thinning` (each builds a fresh generator), and continues it in
`sample_quenched_graph`, `simulate_coupled` and the MC oracles.
"""

from __future__ import annotations

import numpy as np


class SplitStream:
    """A reproducible random stream addressed by (seed, path)."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._gen = None

    def child(self, *indices: int) -> "SplitStream":
        return SplitStream(self.seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """The numpy Generator for this stream (created once, cached)."""
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def describe(self) -> dict:
        return {"seed": self.seed, "path": list(self.path)}

    def __repr__(self):
        return f"SplitStream(seed={self.seed}, path={self.path})"
