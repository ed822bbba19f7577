"""Ogata-style thinning from the conditional intensity density.

Covers nonlinear rate functions and nonempty initial histories; in the
linear case it is an independent oracle for the cluster simulator.

The dominating rate exploits that h decays between events (a nonincreasing
majorant of h is used, so table kernels need not be monotone): right after
any event, the total intensity bound computed there dominates all later
times until the next accepted event.

The state lives on the grid of the model's one cluster engine,
`ModelSpec.engine`: its cells when it has them (`ModelSpec.form` states the
rule), 1 cell for a constant model, else the standard grid's n^m nodes.
The baseline and the excitation sum_k xi_k h(t - t_k) b(., y_k) W(., y_k)
hold one value per cell.  Each event's column
comes from the engine's offspring law, the one of `OffspringColumns`: s_k
times the cached shape phi of its key (a key cell with s_k = 1, or the sign
of a rank-one scale), or, with no key, its own rebuilt column.  The
excitation is carried per kernel family:
  exponential  S(t) = e^{-beta (t - t_ref)} S(t_ref); an event at t sets
               S <- S(t) + xi l1 beta s phi, t_ref <- t (Ogata 1981;
               Dassios & Zhao 2013), and the total sum_c v_c S_c is carried
               beside S.  Exact, and h is monotone, so the bound is S itself.
               O(d) per event; with an identity f a candidate's total is
               base_total + decay * S_total: O(1), no cell vector formed.
  table and    a column table: the N past events keep (time, xi s, row),
  power-law    one row per key's shape (at most d, or 2 for a rank-one
               product) or per event (no key).  A candidate costs
               bincount(row, xi s h(t - t_k)) @ table: O(N + d^2), or O(N d).
Other candidates form the cell vector once and reduce it with one dot
product.  An accepted event is placed by `sample_location` from the cell
vector; on one cell that draw is lo + u (hi - lo) bit for bit, so a one-cell
model forms no vector.
Evaluation times must not decrease between calls on one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .cluster_sim import DEFAULT_EVENT_CAP, _as_stream, sample_location
from .errors import AcausalHistoryError, ThinningBoundError
from .events import Realization
from .model import ModelSpec

RATE_CAP = 1e9


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
    """Mutable per-run state on the model's cells: the excitation carried by
    the past events, each a scale times its key's shape by the offspring law.
    Exponential kernels keep the recursion S and its total; every other
    kernel keeps the column table, one row per key, with the scale folded
    into the event's weight (see the module docstring).
    """

    def __init__(self, spec: ModelSpec):
        self._columns = engine = spec.engine
        self.spec = spec = engine.spec  # on the cells
        self.weights, self.base = engine.weights, engine.lam_vals
        self.flat = self.weights.size == 1  # one cell
        self._base_total = float(self.base @ self.weights)  # not engine.alpha: other rounding
        kernel = spec.excitation
        self._beta = kernel.rate if kernel.family == "exponential" else None
        self._linear = self._beta is not None and spec.nonlinearity.is_identity
        self._t_ref = -math.inf
        self._s = np.zeros(self.weights.size)  # S(t_ref), exponential kernels
        self._s_total = 0.0  # sum_c v_c S_c(t_ref)
        self._n = 0  # events held
        self._times, self._event_w = np.empty(0), np.empty(0)  # xi times the scale, per event
        self._ids = np.empty(0, dtype=np.intp)  # event -> table row
        self._k = 0  # table rows in use
        self._table = np.empty((0, self.weights.size))
        self._row_of: dict[int, int] = {}  # cache key -> table row (its shape)

    def push(self, t: float, y: np.ndarray, xi: float):
        self._push(t, y, xi, *self._columns.law_at(y))

    def load(self, history: HistorySnapshot):
        """Push a time-sorted history in one pass, keyed in one `law` call."""
        keys, scales = self._columns.law(history.locations)
        # lazy per-event iterators: no list as long as the history
        keys = repeat(None) if keys is None else map(int, keys)
        scales = repeat(1.0) if scales is None else map(float, scales)
        for s, y, xi, key, scale in zip(history.times, history.locations,
                                        history.mark_scalars, keys, scales):
            self._push(float(s), y, float(xi), key, scale)

    def _push(self, t: float, y: np.ndarray, xi: float, key: int | None, scale: float):
        weight = xi * scale  # the event's column is weight times its key's shape
        if self._beta is not None:
            mass, col = self._columns.column_of(key, y)
            jump = weight * self.spec.excitation.sup_norm  # sup_norm = h(0)
            decay = self._decay(t)  # 0 before the first event
            self._s *= decay
            self._s += jump * col
            self._s_total = decay * self._s_total + jump * mass
            self._t_ref = t
            return
        row = self._row_of.get(key)
        if row is None:  # a new key, or any event whose column is rebuilt
            row = self._k
            if row == self._table.shape[0]:
                self._table = _grown(self._table, row, 2 * row)
            self._table[row] = self._columns.column_of(key, y)[1]
            self._k += 1
            if key is not None:
                self._row_of[key] = row
        if self._n == self._times.shape[0]:  # full: reallocate at twice the size
            self._times, self._event_w, self._ids = (
                _grown(a, self._n, 2 * self._n) for a in (self._times, self._event_w, self._ids))
        self._times[self._n], self._event_w[self._n], self._ids[self._n] = t, weight, row
        self._n += 1

    def _decay(self, t: float) -> float:
        return math.exp(-self._beta * (t - self._t_ref))

    def _excitation(self, t: float, envelope: bool) -> np.ndarray | float:
        if self._beta is not None:
            return self._decay(t) * self._s
        if self._n == 0:
            return 0.0
        lags = t - self._times[: self._n]
        kernel = self.spec.excitation
        hv = (
            kernel.h_envelope(np.maximum(lags, 0.0))
            if envelope
            else np.where(lags > 0, kernel.h(np.maximum(lags, 0.0)), 0.0)
        )
        weights = np.bincount(self._ids[: self._n], hv * self._event_w[: self._n], self._k)
        return weights @ self._table[: self._k]

    def intensity(self, t: float, envelope: bool = False) -> np.ndarray:
        """lambda_t on the cells; `envelope` reads h's nonincreasing majorant."""
        return self.spec.nonlinearity(self.base + self._excitation(t, envelope))

    def total(self, t: float, envelope: bool = False) -> tuple[float, np.ndarray | None]:
        """(sum_c v_c lambda_t(c), the cell vector, or None if not formed)."""
        if self._linear:
            return self._base_total + self._decay(t) * self._s_total, None
        vals = self.intensity(t, envelope)
        return float(vals @ self.weights), vals

    def total_bound(self, t: float) -> float:
        """Dominating total rate valid for all times >= t until the next event."""
        return self.total(t, envelope=True)[0]


def _grown(a: np.ndarray, used: int, size: int) -> np.ndarray:
    """`a` reallocated to max(size, 16) rows, its first `used` rows kept."""
    out = np.empty((max(size, 16),) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


def simulate_thinning(
    spec: ModelSpec,
    horizon: float,
    initial: HistorySnapshot | None = None,
    rng=None,
    with_lifetimes: bool = True,
    cap: int = DEFAULT_EVENT_CAP,
) -> Realization:
    """Simulate on [0, horizon] by thinning a piecewise-constant upper bound.

    Candidates arrive at the dominating rate; each is accepted with
    probability Lambda_t / Lambda_bar and located by sampling the
    normalized conditional intensity density.  The bound is recomputed
    after every accepted event and refreshed lazily on rejections once it
    is more than 4x the actual rate.  Dominating-rate correctness is
    checked at every candidate; a violation raises ThinningBoundError.
    """
    stream = _as_stream(rng)
    gen = stream.child().generator()

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
        if bound > RATE_CAP or len(out_t) >= cap:
            censored = True
            break
        if bound <= 0:
            break
        t = t + gen.exponential(1.0 / bound)
        if t > horizon:
            break
        lam_total, lam_vals = state.total(t)
        if not lam_total <= bound * (1.0 + 1e-9):  # NaN fails too
            raise ThinningBoundError(
                f"total intensity {lam_total!r} exceeds the dominating rate {bound!r}"
            )
        if gen.random() * bound <= lam_total:
            if state.flat:  # on one cell the inverse-CDF draw is lo + u (hi - lo)
                density = None
            else:
                density = state.intensity(t) if lam_vals is None else lam_vals
            loc = sample_location(density, spec.domain, gen.random((1, spec.domain.dim)))[0]
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
        locations=np.asarray(out_x, float).reshape(n, spec.domain.dim),
        generations=np.zeros(n, dtype=np.int64),
        parent_ids=np.full(n, -1, dtype=np.int64),
        mark_scalars=np.asarray(out_xi),
        lifetimes=np.asarray(out_lt, float),
        ids=np.arange(n, dtype=np.int64),
        horizon=float(horizon),
        seed=stream.describe(),
        censored=censored,
    )
