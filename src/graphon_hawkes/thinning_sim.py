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
hold one value per cell.  Each event's column is s_k phi, its scale times
the shape of its key under the engine's offspring law (its own rebuilt
column with no key; `cluster_sim.ClusterEngine` states the rule).  The
excitation is carried per kernel family:
  exponential  S(t) = e^{-beta (t - t_ref)} S(t_ref); an event at t sets
               S <- S(t) + xi l1 beta s phi, t_ref <- t (Ogata 1981;
               Dassios & Zhao 2013), and the total sum_c v_c S_c is carried
               beside S.  Exact, and h is monotone, so the bound is S itself.
               With an identity f a candidate's total and bound are the
               float base_total + decay * S_total.  A one-cell linear state
               of a flat law (one key, scale 1) carries S_total alone, in
               floats; its cell value (tests only) is S_total over the
               cell's volume.
  table and    a column table: the N past events keep (time, xi s, row),
  power-law    one row per key's shape (at most d, or 2 for a rank-one
               product) or per event (no key).  A candidate's excitation is
               bincount(row, xi s h(t - t_k)) @ table, with no clamp or mask
               past the last event and no product while every xi s is 1
               (exact no-ops); the bound reuses its h values (a table
               kernel's bound reads h's majorant).  A history loads in one
               step.
Other candidates form the cell vector once and reduce it with one dot
product.  An accepted event is placed by `sample_point` from the cell vector,
or on one cell as lo + u (hi - lo) per axis in floats, that draw's doubles.
A mark scalar or lifetime whose law is a point mass is that float, with no
draw.  Evaluation times must not decrease between calls on one state.  A
history is a `Realization`, checked once, before it is read: one location and
mark scalar per time, finite times strictly before 0 in time order (as a
`Realization` holds them), finite nonnegative mark scalars and m coordinates in
the domain.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .cluster_sim import DEFAULT_EVENT_CAP, sample_point
from .errors import (
    AcausalHistoryError,
    InvalidArgumentError,
    OutOfDomainError,
    ShapeError,
    ThinningBoundError,
)
from .events import Realization
from .model import ModelSpec
from .rng import as_stream

RATE_CAP = 1e9


def _check_history(spec: ModelSpec, history: Realization):
    """The one check of a history: one location row and one mark scalar per
    time, the domain's dimension, finite times strictly before 0 in time order,
    finite nonnegative mark scalars and locations inside the domain."""
    times, locs, xis = history.times, history.locations, history.mark_scalars
    n = times.shape[0]
    if locs.ndim != 2 or locs.shape[0] != n or xis.shape != (n,):
        raise ShapeError(f"a history of {n} times needs one location row and one "
                         "mark scalar per time")
    if not n:
        return
    if locs.shape[1] != spec.domain.dim:
        raise ShapeError(f"history locations have {locs.shape[1]} coordinates, "
                         f"the model's domain {spec.domain.dim}")
    if not np.isfinite(times).all():
        raise InvalidArgumentError("history times must be finite")
    if times.max() >= 0:
        raise AcausalHistoryError("history times must lie strictly before time 0")
    if (times[1:] < times[:-1]).any():
        raise InvalidArgumentError("history times must be in time order")
    if not (np.isfinite(xis) & (xis >= 0)).all():
        raise InvalidArgumentError("history mark scalars must be finite and nonnegative")
    if not spec.domain.contains(locs):
        raise OutOfDomainError("history locations must lie in the domain")


class _ThinningState:
    """Mutable per-run state on the model's cells: the excitation carried by
    the past events, each a scale times its key's shape by the offspring law.
    Exponential kernels keep the recursion S and its total; every other
    kernel keeps the column table, one row per key, with the scale folded
    into the event's weight (see the module docstring).
    """

    def __init__(self, spec: ModelSpec):
        self._engine = engine = spec.engine
        self.spec = spec = engine.spec  # on the cells
        self.weights, self.base = engine.weights, engine.lam_vals
        self.flat = self.weights.size == 1  # one cell
        self._base_total = float(self.base @ self.weights)  # not engine.alpha: other rounding
        kernel = spec.excitation
        self._beta = kernel.rate if kernel.family == "exponential" else None
        self._h0 = kernel.sup_norm  # h(0) of an exponential kernel
        self._linear = self._beta is not None and spec.nonlinearity.is_identity
        self._t_ref = -math.inf
        # S(t_ref), exponential kernels; a linear one-cell state of a flat law carries its total
        one_shape = self._linear and self.flat and engine.form.flat  # one key, scale 1
        self._s = None if one_shape else np.zeros(self.weights.size)
        self._s_total = 0.0  # sum_c v_c S_c(t_ref)
        self._mass = engine.column_of(0, None)[0] if one_shape else math.nan  # its one shape's
        self._n = 0  # events held
        self._times, self._event_w = np.empty(0), np.empty(0)  # xi times the scale, per event
        self._ids = np.empty(0, dtype=np.intp)  # event -> table row
        self._unit = True  # every event weight is 1 (an unmarked history, keyed law): no product
        self._k = 0  # table rows in use
        self._table = np.empty((0, self.weights.size))
        self._row_of: dict[int, int] = {}  # cache key -> table row (its shape)
        self._last_h = (math.nan, np.empty(0))  # (t, `_h_at` values at t)

    def push(self, t: float, y: np.ndarray, xi: float):
        if self._s is None:  # one linear cell of a flat law: the float recursion, no law lookup
            decay = math.exp(-self._beta * (t - self._t_ref))
            self._s_total = decay * self._s_total + xi * self._h0 * self._mass
            self._t_ref = t
            return
        self._push(t, y, xi, *self._engine.law_at(y))

    def load(self, history: Realization):
        """Push a checked history, keyed in one `law` call: into the recursion
        event by event, into the column table in one step, as pushes would."""
        times, locs, xis = history.times, history.locations, history.mark_scalars
        keys, scales = self._engine.law(locs)
        weights = xis if scales is None else xis * scales
        if self._beta is not None:  # by `push` on a flat law; lazy iterators, no list of events
            push = self._push if self._s is not None else lambda s, y, w, *_: self.push(s, y, w)
            for s, y, w, key in zip(times, locs, weights,
                                    repeat(None) if keys is None else map(int, keys)):
                push(float(s), y, float(w), key, 1.0)
            return
        if keys is None:  # a row per event, its column rebuilt
            ids = np.array([self._row(None, y) for y in locs], dtype=np.intp)
        else:  # dict.fromkeys keeps the keys' order of first appearance
            rows = {key: self._row(key, None) for key in dict.fromkeys(keys.tolist())}
            uniq, inverse = np.unique(keys, return_inverse=True)
            ids = np.array([rows[key] for key in uniq.tolist()], dtype=np.intp)[inverse]
        new = slice(self._n, self._n + ids.size)
        self._resize(new.stop)
        self._times[new], self._event_w[new], self._ids[new] = times, weights, ids
        self._n, self._unit = new.stop, self._unit and bool((weights == 1.0).all())

    def _push(self, t: float, y: np.ndarray, xi: float, key: int | None, scale: float):
        weight = xi * scale  # the event's column is weight times its key's shape
        if self._beta is None:  # the column table
            row, n = self._row(key, y), self._n
            if n == self._times.shape[0]:  # full: reallocate at twice the size
                self._resize(2 * n)
            self._times[n], self._event_w[n], self._ids[n] = t, weight, row
            self._n, self._unit = n + 1, self._unit and weight == 1.0
            return
        mass, col = self._engine.column_of(key, y)
        jump = weight * self._h0
        decay = self._decay(t)  # 0 before the first event
        self._s *= decay
        self._s += jump * col
        self._s_total = decay * self._s_total + jump * mass
        self._t_ref = t

    def _row(self, key: int | None, y: np.ndarray | None) -> int:
        """The table row of `key`'s shape, added if new; with no key, y's new row."""
        row = self._row_of.get(key)
        if row is None:
            row = self._k
            if row == self._table.shape[0]:  # full: reallocate at twice the size
                self._table = np.resize(self._table, (max(2 * row, 16), self._table.shape[1]))
            self._table[row] = self._engine.column_of(key, y)[1]
            self._k += 1
            if key is not None:
                self._row_of[key] = row
        return row

    def _resize(self, size: int):  # the event arrays at max(size, 16) rows; size >= n, n kept
        self._times, self._event_w, self._ids = (
            np.resize(a, max(size, 16)) for a in (self._times, self._event_w, self._ids))

    def _decay(self, t: float) -> float:
        return math.exp(-self._beta * (t - self._t_ref))

    def _excitation(self, t: float, envelope: bool) -> np.ndarray | float:
        if self._beta is not None:
            if self._s is None:  # one cell: its value from the carried total
                return self._decay(t) * self._s_total / self.weights
            return self._decay(t) * self._s
        n = self._n
        if n == 0:
            return 0.0
        kernel = self.spec.excitation
        past = t > self._times[n - 1]  # every lag positive: the clamp and the mask are no-ops
        if envelope and kernel.family == "table":  # h's majorant
            lags = t - self._times[:n]
            hv = kernel.h_envelope(lags if past else np.maximum(lags, 0.0))
        else:  # h, its own majorant in the other families
            hv = self._h_at(t, past)
            if not (envelope or past):
                hv = np.where(t - self._times[:n] > 0, hv, 0.0)
        weights = np.bincount(self._ids[:n], hv if self._unit else hv * self._event_w[:n],
                              self._k)
        return weights @ self._table[: self._k]

    def _h_at(self, t: float, past: bool) -> np.ndarray:
        """h(max(t - t_k, 0)) of the held events, unclamped if t is `past` them all.
        The last call's values are kept, and a call at the same t computes only
        the events pushed since: a bound right after a candidate reads its values.
        h acts elementwise, so the values are those of one call over all events."""
        at, hv = self._last_h
        k = hv.shape[0] if at == t else 0
        if k < self._n:
            lags = t - self._times[k:self._n]
            new = self.spec.excitation.h(lags if past else np.maximum(lags, 0.0))
            hv = np.concatenate((hv, new)) if k else new
            self._last_h = (t, hv)
        return hv

    def intensity(self, t: float, envelope: bool = False) -> np.ndarray:
        """lambda_t on the cells; `envelope` reads h's nonincreasing majorant."""
        return self.spec.nonlinearity(self.base + self._excitation(t, envelope))

    def total(self, t: float, envelope: bool = False) -> tuple[float, np.ndarray | None]:
        """(sum_c v_c lambda_t(c), the cell vector, or None if not formed)."""
        if self._linear:  # one float expression
            decay = math.exp(-self._beta * (t - self._t_ref))
            return self._base_total + decay * self._s_total, None
        vals = self.intensity(t, envelope)
        return float(vals @ self.weights), vals

    def total_bound(self, t: float) -> float:
        """Dominating total rate valid for all times >= t until the next event."""
        return self.total(t, envelope=True)[0]


def simulate_thinning(
    spec: ModelSpec,
    horizon: float,
    initial: Realization | None = None,
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
    `initial` holds the events before time 0 that the run conditions on.
    """
    stream = as_stream(rng)
    gen = stream.generator()

    state = _ThinningState(spec)
    if initial is not None:
        _check_history(spec, initial)
        state.load(initial)
    dim, lo = spec.domain.dim, spec.domain.lo
    corner = list(zip(lo.tolist(), (spec.domain.hi - lo).tolist()))  # (lo, hi - lo) per axis
    exponential, random = gen.exponential, gen.random
    total, push, total_bound = state.total, state.push, state.total_bound
    marks, lifetimes = spec.marks, spec.lifetimes
    # a law that draws nothing gives its one value as a float, read once
    fixed_xi = marks.fixed_xi
    fixed_lt = lifetimes.fixed if with_lifetimes else math.nan

    out_t, out_x, out_xi, out_lt = [], [], [], []
    censored = False
    t = 0.0
    bound = total_bound(0.0)
    while True:
        if bound > RATE_CAP or len(out_t) >= cap:
            censored = True
            break
        if bound <= 0:
            break
        t = t + exponential(1.0 / bound)
        if t > horizon:
            break
        lam_total, lam_vals = total(t)
        if not lam_total <= bound * (1.0 + 1e-9):  # NaN fails too
            raise ThinningBoundError(
                f"total intensity {lam_total!r} exceeds the dominating rate {bound!r}"
            )
        if random() * bound <= lam_total:
            if state.flat:  # on one cell the inverse-CDF draw is lo + u (hi - lo), in floats
                loc = [a + random() * b for a, b in corner]
            else:
                density = state.intensity(t) if lam_vals is None else lam_vals
                loc = sample_point(density, spec.domain, random(dim))
            xi = fixed_xi if fixed_xi is not None else float(marks.sample_xi(gen, 1)[0])
            out_t.append(t)
            out_x.append(loc)
            out_xi.append(xi)
            out_lt.append(fixed_lt if fixed_lt is not None else float(lifetimes.sample(gen, 1)[0]))
            push(t, loc, xi)
            bound = total_bound(t)
        elif bound > 4.0 * lam_total:
            bound = total_bound(t)

    return Realization.build(np.asarray(out_t), np.asarray(out_x, float).reshape(-1, dim),
                             np.asarray(out_xi), np.asarray(out_lt, float), horizon,
                             stream.describe(), censored)
