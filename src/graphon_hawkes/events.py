"""Realization container plus NDJSON serialization.

Realizations are stored as structure-of-arrays.  NDJSON lines follow the
wire format {id, t, x: [...], gen, parent, xi, lifetime}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ShapeError


def _json_floats(a: np.ndarray, nan: str = "NaN") -> list[str]:
    """Each number as the json encoder writes it: repr, `nan`, +-Infinity."""
    out = list(map(repr, a.tolist()))
    if np.isfinite(a).all():
        return out
    words = {"nan": nan, "inf": "Infinity", "-inf": "-Infinity"}
    return [words.get(s, s) for s in out]


def _unique_keys(pairs: list) -> dict:
    if len(obj := dict(pairs)) != len(pairs):
        raise InvalidArgumentError("malformed NDJSON: duplicate key")
    return obj


def _locations(xs: list) -> np.ndarray:
    """The records' "x" lists as an (n, dim) array, dim the length of record 0's;
    a record whose "x" is not such a list raises a ShapeError naming it."""
    dim = len(xs[0]) if type(xs[0]) is list else -1
    try:
        locs = np.array(xs, float)
    except (TypeError, ValueError):  # a ragged "x", or a coordinate that is no number
        locs = None
    if locs is not None and locs.shape == (len(xs), dim):
        return locs
    for i, x in enumerate(xs):
        if type(x) is not list or len(x) != dim:
            need = "a list" if dim < 0 else f"a list of {dim} coordinates, as in record 0"
            raise ShapeError(f'NDJSON record {i}: "x" is not {need}')
    raise InvalidArgumentError('NDJSON "x" coordinates must be numbers')


_ABSENT = object()  # the value of a required key that a record lacks


def _scalars(recs: list, key: str, dtype, default=_ABSENT, null=None) -> np.ndarray:
    """The records' `key` values as one array of `dtype`, `default` where a record
    lacks the key and `null` where it is null.  Else the first record whose value
    is absent, no number (null, a boolean) or not an int64 (1.5) raises naming it."""
    values = [x.get(key, default) for x in recs]
    if null is not None:
        values = [null if v is None else v for v in values]
    whole = dtype is np.int64
    if set(map(type, values)) <= ({int} if whole else {int, float}):  # not bool, None, _ABSENT
        try:
            return np.array(values, dtype)
        except OverflowError:
            pass
    for i, v in enumerate(values):
        if v is _ABSENT:
            raise InvalidArgumentError(f'NDJSON record {i} has no "{key}"')
        if type(v) is list:
            raise ShapeError(f'NDJSON record {i}: "{key}" is not one number')
        if type(v) not in (int, float):  # null, a string, an object, a boolean
            raise InvalidArgumentError(f'NDJSON record {i}: "{key}" is not a number')
        if whole and not ((type(v) is int or v.is_integer()) and -2**63 <= v < 2**63):
            raise InvalidArgumentError(f'NDJSON record {i}: "{key}" is not a 64-bit integer')
        try:
            np.array(v, dtype)
        except OverflowError:
            raise InvalidArgumentError(f'NDJSON record {i}: "{key}" is not a number') from None
    return np.array(values, dtype)  # integral floats for an int dtype


def box_mask(points: np.ndarray, box) -> np.ndarray:
    """Rows of the (k, m) `points` inside the closed box (lo, hi); all rows
    when `box` is None."""
    if box is None:
        return np.ones(points.shape[0], dtype=bool)
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    return ((points >= lo) & (points <= hi)).all(axis=1)


@dataclass
class Realization:
    """Time-sorted collection of events on [0, horizon].

    `parent_ids` uses -1 for immigrants.  `lifetimes` holds NaN when the
    run was generated without lifetimes.  `censored` flags realizations
    truncated by the explosion guard.
    """

    times: np.ndarray
    locations: np.ndarray  # (n, m)
    generations: np.ndarray
    parent_ids: np.ndarray  # -1 for immigrants
    mark_scalars: np.ndarray
    lifetimes: np.ndarray
    ids: np.ndarray
    horizon: float
    seed: dict = field(default_factory=dict)
    censored: bool = False

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def dim(self) -> int:
        return int(self.locations.shape[1]) if self.locations.ndim == 2 else 1

    def has_lifetimes(self) -> bool:
        return len(self) == 0 or bool(np.isfinite(self.lifetimes).all())

    @classmethod
    def build(cls, times, locations, mark_scalars, lifetimes, horizon, seed, censored,
              generations=None, parent_ids=None, ids=None) -> "Realization":
        """The realization of these columns; ids default to 0..n-1, generations
        to 0 and parents to -1 (immigrants)."""
        n = times.shape[0]
        return cls(
            times=times,
            locations=locations,
            generations=np.zeros(n, dtype=np.int64) if generations is None else generations,
            parent_ids=np.full(n, -1, dtype=np.int64) if parent_ids is None else parent_ids,
            mark_scalars=mark_scalars,
            lifetimes=lifetimes,
            ids=np.arange(n, dtype=np.int64) if ids is None else ids,
            horizon=float(horizon),
            seed=seed,
            censored=censored,
        )

    @classmethod
    def empty(cls, dim: int, horizon: float, seed: dict | None = None,
              censored: bool = False) -> "Realization":
        return cls.build(np.empty(0), np.empty((0, dim)), np.empty(0), np.empty(0),
                         horizon, seed or {}, censored)

    def to_ndjson(self) -> str:
        """One line per event, as json.dumps(separators=(",", ":")) writes it; a column
        of one bit pattern (not `==`: 0.0 and -0.0 differ) goes into the line once."""
        n, m = len(self), self.dim
        cols = [(self.ids, np.ndarray.tolist), (self.times, _json_floats),
                *((x, _json_floats) for x in self.locations.reshape(n, m).T),
                (self.generations, np.ndarray.tolist),
                (self.parent_ids, lambda a: ["null" if p < 0 else str(p) for p in a.tolist()]),
                (self.mark_scalars, _json_floats),
                (self.lifetimes, lambda a: _json_floats(a, nan="null"))]
        bits = [a.view(f"i{a.itemsize}") for a, _ in cols]
        folded = [n > 0 and bool((b == b[0]).all()) for b in bits]
        specs = [fmt(a[:1])[0] if f else "%s" for (a, fmt), f in zip(cols, folded)]
        free = [fmt(a) for (a, fmt), f in zip(cols, folded) if not f]
        line = ('{"id":%s,"t":%s,"x":[' + ",".join(["%s"] * m)
                + '],"gen":%s,"parent":%s,"xi":%s,"lifetime":%s}\n') % tuple(specs)
        return "".join([line % row for row in zip(*free)]) if free else line * n

    @classmethod
    def from_ndjson(cls, text: str, horizon: float = math.inf) -> "Realization":
        lines = [line for line in text.splitlines() if line.strip()]
        try:  # one parse of {"0": line 0, ...}; split records, two on a line, key repeats fail
            recs = json.loads("{" + ",".join('"%d":%s' % kv for kv in enumerate(lines)) + "}",
                              object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"malformed NDJSON: {exc.msg}") from None
        recs = list(recs.values())
        n = len(recs)
        if n != len(lines) or not all(type(x) is dict for x in recs):
            raise InvalidArgumentError(f"NDJSON needs one object on each of {len(lines)} lines")
        if not n:
            return cls.empty(1, horizon)
        # a dict display runs in the order written: the columns are checked in this order
        cols = {"times": _scalars(recs, "t", float),
                "locations": _locations([x.get("x") for x in recs]),
                "generations": _scalars(recs, "gen", np.int64, 0),
                "parent_ids": _scalars(recs, "parent", np.int64, -1, -1),
                "mark_scalars": _scalars(recs, "xi", float, 1.0),
                "lifetimes": _scalars(recs, "lifetime", float, math.nan, math.nan),
                "ids": _scalars(recs, "id", np.int64)}
        order = np.argsort(cols["times"], kind="stable")  # time order, ties in line order
        return cls.build(**{k: v[order] for k, v in cols.items()},
                         horizon=horizon, seed={}, censored=False)
