"""Ogata-style thinning from the conditional intensity density.

Covers nonlinear rate functions and nonempty initial histories; in the
linear case it is an independent oracle for the cluster simulator.

The dominating rate exploits that h decays between events (a nonincreasing
majorant of h is used, so table kernels need not be monotone): right after
any event, the total intensity bound computed there dominates all later
times until the next accepted event.

The excitation sum_k xi_k h(t - t_k) b(., y_k) W(., y_k) on the n-point
grid is carried per kernel family, so that no accepted event copies the
history and exponential candidates need no sum at all:
  exponential  S(t) = e^{-beta (t - t_ref)} S(t_ref), and an event at t
               sets S <- e^{-beta (t - t_ref)} S + xi l1 beta b(., y) W(., y),
               t_ref <- t (Ogata 1981; Dassios & Zhao 2013).  Exact;
               O(n) per candidate and per event, O(n) memory.  h is
               monotone, so the bound is S itself.
  table and    a row buffer of xi b(., y) W(., y), written in place and
  power-law    reallocated at twice the need when full: O(n N) per candidate
               for N past events (initial history included), memory O(n N),
               amortized O(n) per event.
Offspring columns come from `OffspringColumns`, shared with the cluster
engine: one column per source cell for piecewise-constant profiles.
Evaluation times must not decrease between calls on one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster_sim import OffspringColumns, sample_location
from .errors import AcausalHistoryError, ThinningBoundError
from .events import Realization
from .model import ModelSpec
from .rng import SplitStream

DEFAULT_RATE_CAP = 1e9
DEFAULT_EVENT_CAP = 10**7


@dataclass
class HistorySnapshot:
    """Past events (time, location, mark scalar) strictly before `t_ref`,
    sorted by time (stable, so ties keep their given order)."""

    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    locations: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))
    mark_scalars: np.ndarray = field(default_factory=lambda: np.empty(0))
    t_ref: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        self.locations = np.atleast_2d(np.asarray(self.locations, float))
        if self.locations.shape[0] != self.times.shape[0]:
            # an empty history keeps one (empty) coordinate column
            dim = -1 if self.times.size else 1
            self.locations = self.locations.reshape(self.times.shape[0], dim)
        self.mark_scalars = np.asarray(self.mark_scalars, float)
        if self.times.size and self.times.max() >= self.t_ref:
            raise AcausalHistoryError("history events must lie strictly before t_ref")
        order = np.argsort(self.times, kind="stable")
        self.times = self.times[order]
        self.locations = self.locations[order]
        self.mark_scalars = self.mark_scalars[order]

    @classmethod
    def from_realization(cls, real: Realization, t_ref: float) -> "HistorySnapshot":
        keep = real.times < t_ref
        return cls(
            times=real.times[keep],
            locations=real.locations[keep],
            mark_scalars=real.mark_scalars[keep],
            t_ref=t_ref,
        )


def conditional_intensity(
    spec: ModelSpec, history: HistorySnapshot, t: float
) -> np.ndarray:
    """lambda_t on the standard grid given the history before t."""
    if history.times.size and history.times.max() > t:
        raise AcausalHistoryError("history contains events after the evaluation time")
    nodes, _ = spec.std_grid
    total = spec.baseline_on(nodes).astype(float)
    past = history.times < t
    for s, y, xi in zip(
        history.times[past], history.locations[past], history.mark_scalars[past]
    ):
        total += xi * spec.excitation_column(nodes, y) * float(spec.excitation.h(t - s))
    return spec.nonlinearity(total)


class _ThinningState:
    """Mutable per-run state: the excitation carried by the past events.

    Exponential kernels keep the recursion S (see the module docstring);
    every other kernel keeps a row buffer of xi * b(., y) W(., y).
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.nodes, self.weights = spec.std_grid
        self.base = np.maximum(spec.baseline_on(self.nodes), 0.0)
        self._columns = OffspringColumns(spec)
        kernel = spec.excitation
        self._beta = kernel.rate if kernel.family == "exponential" else None
        self._t_ref = -math.inf
        self._s: np.ndarray | None = None  # S(t_ref), exponential kernels
        self._n = 0  # buffer rows in use
        self._times = np.empty(0)
        self._rows = np.empty((0, self.nodes.shape[0]))

    def push(self, t: float, y: np.ndarray, xi: float):
        col = self._columns.column(y)[1]
        if self._beta is not None:
            jump = (xi * self.spec.excitation.sup_norm) * col  # sup_norm = h(0)
            if self._s is None:
                self._s = jump
            else:
                self._s *= self._decay(t)
                self._s += jump
            self._t_ref = t
            return
        if self._n == self._times.shape[0]:
            self._make_room(1)
        self._times[self._n] = t
        np.multiply(col, xi, out=self._rows[self._n])
        self._n += 1

    def load(self, history: HistorySnapshot):
        """Push a time-sorted history in one pass, without per-event copies."""
        if self._beta is None and history.times.size:
            self._make_room(history.times.size)
        for s, y, xi in zip(history.times, history.locations, history.mark_scalars):
            self.push(float(s), y, float(xi))

    def _make_room(self, k: int):
        """Reallocate the buffer at twice the rows needed for k more events."""
        size = max(2 * (self._n + k), 16)
        times, rows = np.empty(size), np.empty((size, self.nodes.shape[0]))
        times[: self._n] = self._times[: self._n]
        rows[: self._n] = self._rows[: self._n]
        self._times, self._rows = times, rows

    def _decay(self, t: float) -> float:
        return math.exp(-self._beta * (t - self._t_ref))

    def _excitation(self, t: float, envelope: bool) -> np.ndarray | float:
        if self._beta is not None:
            return 0.0 if self._s is None else self._decay(t) * self._s
        if self._n == 0:
            return 0.0
        lags = t - self._times[: self._n]
        kernel = self.spec.excitation
        hv = (
            kernel.h_envelope(np.maximum(lags, 0.0))
            if envelope
            else np.where(lags > 0, kernel.h(np.maximum(lags, 0.0)), 0.0)
        )
        return hv @ self._rows[: self._n]

    def intensity(self, t: float) -> np.ndarray:
        return self.spec.nonlinearity(self.base + self._excitation(t, envelope=False))

    def total_bound(self, t: float) -> float:
        """Dominating total rate valid for all times >= t until the next event."""
        vals = self.spec.nonlinearity(self.base + self._excitation(t, envelope=True))
        return float(np.sum(vals * self.weights))


def simulate_thinning(
    spec: ModelSpec,
    horizon: float,
    initial: HistorySnapshot | None = None,
    rng=None,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
    rate_cap: float = DEFAULT_RATE_CAP,
) -> Realization:
    """Simulate on [0, horizon] by thinning a piecewise-constant upper bound.

    Candidates arrive at the dominating rate; each is accepted with
    probability Lambda_t / Lambda_bar and located by sampling the
    normalized conditional intensity density.  The bound is recomputed
    after every accepted event and refreshed lazily on rejections once it
    is more than 4x the actual rate.  Dominating-rate correctness is
    checked at every candidate; a violation raises ThinningBoundError.
    """
    if isinstance(rng, (int, np.integer)):
        rng = SplitStream(int(rng))
    gen = rng.child().generator() if isinstance(rng, SplitStream) else rng
    seed_info = rng.describe() if isinstance(rng, SplitStream) else {}

    state = _ThinningState(spec)
    if initial is not None and initial.times.size:
        if initial.times.max() >= 0:
            raise AcausalHistoryError("initial history must lie strictly before time 0")
        state.load(initial)

    out_t, out_x, out_xi, out_lt = [], [], [], []
    censored = False
    t = 0.0
    bound = state.total_bound(0.0)
    while True:
        if bound > rate_cap or len(out_t) >= cap:
            censored = True
            break
        if bound <= 0:
            break
        t = t + gen.exponential(1.0 / bound)
        if t > horizon:
            break
        lam_vals = state.intensity(t)
        lam_total = float(np.sum(lam_vals * state.weights))
        if not lam_total <= bound * (1.0 + 1e-9):  # NaN fails too
            raise ThinningBoundError(
                f"total intensity {lam_total!r} exceeds the dominating rate {bound!r}"
            )
        if gen.random() * bound <= lam_total:
            loc = sample_location(lam_vals, spec.domain, gen.random((1, spec.domain.dim)))[0]
            xi = float(spec.marks.sample_xi(gen, 1)[0])
            out_t.append(t)
            out_x.append(loc)
            out_xi.append(xi)
            out_lt.append(
                float(spec.lifetimes.sample(gen, 1)[0]) if with_lifetimes else math.nan
            )
            state.push(t, loc, xi)
            bound = state.total_bound(t)
        elif bound > 4.0 * lam_total:
            bound = state.total_bound(t)

    n = len(out_t)
    return Realization(
        times=np.asarray(out_t),
        locations=(
            np.asarray(out_x).reshape(n, spec.domain.dim)
            if n
            else np.empty((0, spec.domain.dim))
        ),
        generations=np.zeros(n, dtype=np.int64),
        parent_ids=np.full(n, -1, dtype=np.int64),
        mark_scalars=np.asarray(out_xi),
        lifetimes=np.asarray(out_lt) if n else np.empty(0),
        ids=np.arange(n, dtype=np.int64),
        horizon=float(horizon),
        seed=seed_info,
        censored=censored,
    )
