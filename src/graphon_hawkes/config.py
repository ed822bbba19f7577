"""Model configuration: YAML documents <-> ModelSpec, plus stable digests.

One document per model.  `_SCHEMA` is the one list of what a document may
hold: its sections, the families of each (chosen by `family`, by `kind` for
the marks), and for each family every key with the model field it fills,
its type and its default.  `build_spec` reads a document by that table and
`spec_config` writes a model back by it, so a written model reads back to
the same `model_digest`.  A key, family or value the table does not admit
is refused with an `InvalidParameterError` naming its section and key.
A grid gives its values inline (`values`) or as a CSV path (`csv`, resolved
relative to the config file).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .errors import InvalidParameterError
from .model import (ExcitationKernel, LifetimeModel, MarkModel, ModelSpec, Nonlinearity,
                    PairFunction, SpatialDomain, SpatialProfile)


class _Type(NamedTuple):
    """Reads a config value into a model value, raising TypeError or
    ValueError if it cannot, and writes it back; None leaves the key out."""

    read: Callable  # (config value, config directory) -> model value
    what: str  # what the document must give, named when it does not
    write: Callable = lambda v: v


def _real(v, _dir=None) -> float:
    if isinstance(v, bool):
        raise TypeError
    return float(v)  # PyYAML reads `1e-3` as a string, which float() takes


def _whole(v, _dir=None) -> int:
    if (n := int(v)) != _real(v):  # 12.7 is refused, not cut to 12
        raise ValueError
    return n


def _typed(kind, item=None) -> Callable:
    """Reader of a `kind` value, or of a list of `item` values."""
    def read(v, _dir=None):
        if not isinstance(v, kind):
            raise TypeError
        return v if item is None else tuple(map(item, v))
    return read


def _array(shape, csv: bool = False) -> Callable:
    """Reader of an array of numbers, or of a CSV path to one, shaped by `shape`."""
    def read(v, base):
        if not csv:
            return shape(np.asarray(v, float))
        path = Path(_typed(str)(v))  # an absolute path stays as it is
        return shape(np.loadtxt(base / path if base else path, delimiter=",", ndmin=2))
    return read


_NUM = _Type(_real, "a number")
_BOUND = _Type(_real, "a number", lambda v: v if math.isfinite(v) else None)  # C_W
_INT = _Type(_whole, "an integer")
_BOOL = _Type(_typed(bool), "true or false")
_STR = _Type(_typed(str), "a string")
_NUMS = _Type(_typed((list, tuple, np.ndarray), _real), "a list of numbers", list)
_INTS = _Type(_typed((list, tuple, np.ndarray), _whole), "a list of integers", list)
_ARRAY = _Type(_array(np.asarray), "an array of numbers", lambda v: np.asarray(v).tolist())
_FIXED = _Type(lambda v, _dir: v, "", lambda v: None)  # a field that no key sets

_REQUIRED = object()  # the default of a key that the document must give


class _Key(NamedTuple):
    name: str | None  # config key; None for a field that no key sets
    field: str  # model field it fills
    type: _Type | str  # its value type, or the section of a nested mapping
    default: object  # a config value, or a function of the fields read before it
    out: str  # model attribute written back


def _key(name, type, default=_REQUIRED, field=None, out=None) -> _Key:
    return _Key(name, field or name, type, default, out or field or name)


def _section(cls, families, tag=None, default=None, field=None, outer=()) -> tuple:
    """(cls, families, tag, outer, allowed): a mapping's families, each a tuple
    of keys, chosen by the key `tag` (None: one family) that each reads first.
    `outer` keys belong to every family and fill fields of the parent, as all
    keys do when `cls` is None.  `allowed` holds each family's key names."""
    head = (_key(tag, _STR, default, field),) if tag else ()
    families = {f: head + keys for f, keys in families.items()}
    allowed = {f: frozenset(k.name for k in (*keys, *outer)) - {None}
               for f, keys in families.items()}
    return cls, families, head[0] if head else None, outer, allowed


def _grid(shape) -> tuple:
    """A grid's keys; its counts default to those `cell_counts` reads off its values."""
    return (_key("values", _ARRAY._replace(read=_array(shape))),
            _key("csv", _Type(_array(shape, csv=True), "a path to a CSV table of numbers",
                              lambda v: None), field="values"),
            _key("axis_counts", _INTS, lambda f: (np.shape(f["values"])[0],), out="cell_counts"),
            _key("interp", _STR, "pw-constant"))


_PAIRS = {
    "constant": (_key("value", _NUM, 0.0),),
    "rank-one": (_key("coeff", _NUM, 1.0), _key("profile", "profile", {"family": "identity"})),
    "grid": _grid(np.atleast_2d),
}
_SCHEMA = {
    "model": _section(None, {None: (
        _key("domain", "domain", {"lower": [0.0], "upper": [1.0]}),
        _key("baseline", "profile", {"family": "constant", "value": 1.0}),
        _key("graphon", "graphon", {}), _key("excitation", "excitation", {}),
        _key("marks", "marks", {}), _key("lifetimes", "lifetimes", {}),
        _key("nonlinearity", "nonlinearity", {}), _key("grid_n", _INT, 512))}),
    "domain": _section(SpatialDomain, {None: (_key("lower", _NUMS), _key("upper", _NUMS))}),
    "profile": _section(SpatialProfile, {
        "constant": (_key("value", _NUM, 0.0),),
        "identity": (),
        "affine": (_key("intercept", _NUM, 0.0), _key("slope", _NUMS, ())),
        "grid": _grid(np.ravel)}, "family", "constant"),
    "pair": _section(PairFunction, _PAIRS, "family", "constant"),
    # the graphon is a pair function that also carries the model's C_W and symmetry
    "graphon": _section(PairFunction, _PAIRS, "family", "constant", outer=(
        _key("c_w", _BOUND, math.inf), _key("symmetric", _BOOL, False))),
    "excitation": _section(ExcitationKernel, {
        "exponential": (_key("rate", _NUM, 1.0), _key("l1", _NUM, 1.0)),
        "power-law": (_key("exponent", _NUM, 2.0), _key("cutoff", _NUM, 1.0),
                      _key("l1", _NUM, 1.0)),
        # a table's L1 mass is derived from its table
        "table": (_key("breaks", _ARRAY), _key("values", _ARRAY, field="table_values"),
                  _key(None, _FIXED, math.nan, field="l1"))}, "family", "exponential"),
    "marks": _section(MarkModel, {
        "unmarked": (),
        "scaled-profile": (_key("profile", "pair", {"family": "constant", "value": 1.0}),
                           _key("xi", "xi", {"family": "deterministic", "value": 1.0}))},
        "kind", "unmarked"),
    "xi": _section(None, {
        "deterministic": (_key("value", _NUM, 1.0, field="xi_value"),),
        "exponential": (_key("mean", _NUM, 1.0, field="xi_value"),),
        "gamma": (_key("shape", _NUM, 1.0, field="xi_shape"),
                  _key("scale", _NUM, 1.0, field="xi_value"))},
        "family", "deterministic", "xi_family"),
    "lifetimes": _section(LifetimeModel, {
        "deterministic": (_key("tau", _NUM, 1.0),),
        "exponential": (_key("rate", _NUM, 1.0),)}, "family", "exponential"),
    "nonlinearity": _section(Nonlinearity, {
        "identity": (_key("lipschitz", _NUM, 1.0),),
        "clipped-linear": (_key("lipschitz", _NUM, 1.0), _key("cap", _NUM, math.inf)),
        "sigmoid-scaled": (_key("lipschitz", _NUM, 1.0), _key("scale", _NUM, 1.0))},
        "family", "identity"),
}
_MODEL = _key("config", "model")  # the document: the fields of a ModelSpec

# ---------------------------------------------------------------------------
# Reading and writing by the schema


def _read(node, key: _Key, path: str, base: Path | None) -> dict:
    """The fields that the mapping `node`, which `key` holds at `path`, gives
    the model object that holds it."""
    cls, families, tag, outer, allowed = _SCHEMA[key.type]
    if not isinstance(node, dict):
        raise InvalidParameterError(f"{path}: expected a mapping, got {node!r:.60}")
    fam = node.get(tag.name, tag.default) if tag else None
    try:
        keys = families[fam]
    except (KeyError, TypeError):
        raise InvalidParameterError(f"{path}: unknown {tag.name} {fam!r:.60} (known: "
                                    f"{', '.join(families)})") from None
    if extra := node.keys() - allowed[fam]:
        raise InvalidParameterError(f"{path}: unknown key {sorted(map(str, extra))[0]!r}")
    own = _fill(node, keys, path, base)
    return {**(own if cls is None else {key.field: cls(**own)}), **_fill(node, outer, path, base)}


def _fill(node: dict, keys: tuple, path: str, base: Path | None) -> dict:
    """The fields that `keys` read from `node`, by default where it lacks them."""
    given = [k.field for k in keys if k.name in node]
    if len(set(given)) < len(given):  # only a grid's values have two keys
        raise InvalidParameterError(f"{path}: give 'values' or 'csv', not both")
    if need := [k for k in keys if k.default is _REQUIRED and k.field not in given]:
        names = " or ".join(repr(k.name) for k in need if k.field == need[0].field)
        raise InvalidParameterError(f"{path}: missing key {names}")
    fields = {}
    for k in keys:
        if k.name in node:
            raw = node[k.name]
        elif k.field in given:  # given by its alternative
            continue
        else:
            raw = k.default(fields) if callable(k.default) else k.default
        at = f"{path}.{k.name}"
        if isinstance(k.type, str):
            fields.update(_read(raw, k, at, base))
            continue
        try:
            fields[k.field] = k.type.read(raw, base)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameterError(f"{at}: expected {k.type.what}, got {raw!r:.60}") from None
    return fields


def _write(parent, key: _Key) -> dict:
    """The mapping that `key` holds: of the model object it names in `parent`,
    or of `parent` itself when its section has no class."""
    cls, families, tag, outer, _ = _SCHEMA[key.type]
    if (obj := getattr(parent, key.out) if cls else parent) is None:
        return dict(key.default)  # an unset rank-one profile is its default
    node, fam = {}, getattr(obj, tag.out) if tag else None
    for src, keys in ((obj, families[fam]), (parent, outer)):
        for k in keys:
            if isinstance(k.type, str):
                node[k.name] = _write(src, k)
            elif (value := k.type.write(getattr(src, k.out))) is not None:
                node[k.name] = value
    return node


def build_spec(cfg: dict, base_dir: Path | None = None) -> ModelSpec:
    return ModelSpec(**_read(cfg, _MODEL, "config", base_dir))


def spec_config(spec: ModelSpec) -> dict:
    return _write(spec, _MODEL)


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml, SafeLoader's constructors


def load_model(path) -> ModelSpec:
    path = Path(path)
    with open(path) as fh:
        try:
            cfg = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise InvalidParameterError(f"config {path} is not valid YAML: {exc}") from exc
    return build_spec(cfg, base_dir=path.parent)


def model_digest(spec: ModelSpec) -> str:
    blob = json.dumps(spec_config(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
