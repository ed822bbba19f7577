"""Model configuration: YAML documents <-> ModelSpec, plus stable digests.

One document per model.  Functions are selected by family name with their
parameters inline; grids may be given inline (`values`) or by CSV path
(`csv`, resolved relative to the config file).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import yaml

from .errors import InvalidParameterError
from .model import (
    ExcitationKernel,
    LifetimeModel,
    MarkModel,
    ModelSpec,
    Nonlinearity,
    PairFunction,
    SpatialDomain,
    SpatialProfile,
)


def _load_values(node: dict, base_dir: Path | None, ndim: int) -> np.ndarray:
    if "values" in node:
        return np.asarray(node["values"], float)
    if "csv" in node:
        path = Path(node["csv"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return np.loadtxt(path, delimiter=",", ndmin=ndim)
    raise InvalidParameterError("grid family needs 'values' or 'csv'")


def _profile_from(node: dict, base_dir: Path | None) -> SpatialProfile:
    fam = node.get("family", "constant")
    if fam == "constant":
        return SpatialProfile("constant", value=float(node.get("value", 0.0)))
    if fam == "identity":
        return SpatialProfile("identity")
    if fam == "affine":
        return SpatialProfile(
            "affine",
            intercept=float(node.get("intercept", 0.0)),
            slope=tuple(float(s) for s in node.get("slope", [])),
        )
    if fam == "grid":
        vals = _load_values(node, base_dir, 1).ravel()
        counts = tuple(node.get("axis_counts", (vals.size,)))
        return SpatialProfile(
            "grid",
            values=vals,
            axis_counts=counts,
            interp=node.get("interp", "pw-constant"),
        )
    raise InvalidParameterError(f"unknown profile family {fam!r}")


def _pair_from(node: dict, base_dir: Path | None) -> PairFunction:
    fam = node.get("family", "constant")
    if fam == "constant":
        return PairFunction("constant", value=float(node.get("value", 0.0)))
    if fam == "rank-one":
        return PairFunction(
            "rank-one",
            coeff=float(node.get("coeff", 1.0)),
            profile=_profile_from(node.get("profile", {"family": "identity"}), base_dir),
        )
    if fam == "grid":
        vals = np.atleast_2d(_load_values(node, base_dir, 2))
        counts = tuple(node.get("axis_counts", (vals.shape[0],)))
        return PairFunction(
            "grid",
            values=vals,
            axis_counts=counts,
            interp=node.get("interp", "pw-constant"),
        )
    raise InvalidParameterError(f"unknown pair-function family {fam!r}")


def build_spec(cfg: dict, base_dir: Path | None = None) -> ModelSpec:
    dom = cfg.get("domain", {"lower": [0.0], "upper": [1.0]})
    domain = SpatialDomain(
        tuple(float(v) for v in dom["lower"]), tuple(float(v) for v in dom["upper"])
    )

    exc = cfg.get("excitation", {"family": "exponential", "rate": 1.0, "l1": 1.0})
    fam = exc.get("family", "exponential")
    if fam == "exponential":
        excitation = ExcitationKernel(
            "exponential", rate=float(exc.get("rate", 1.0)), l1=float(exc.get("l1", 1.0))
        )
    elif fam == "power-law":
        excitation = ExcitationKernel(
            "power-law",
            exponent=float(exc.get("exponent", 2.0)),
            cutoff=float(exc.get("cutoff", 1.0)),
            l1=float(exc.get("l1", 1.0)),
        )
    elif fam == "table":
        excitation = ExcitationKernel(
            "table",
            breaks=np.asarray(exc["breaks"], float),
            table_values=np.asarray(exc["values"], float),
            l1=float(exc.get("l1", math.nan)),
        )
    else:
        raise InvalidParameterError(f"unknown excitation family {fam!r}")

    marks_node = cfg.get("marks", {"kind": "unmarked"})
    if marks_node.get("kind", "unmarked") == "unmarked":
        marks = MarkModel(kind="unmarked")
    else:
        xi = marks_node.get("xi", {"family": "deterministic", "value": 1.0})
        xf = xi.get("family", "deterministic")
        if xf == "deterministic":
            xv, xs = float(xi.get("value", 1.0)), 1.0
        elif xf == "exponential":
            xv, xs = float(xi.get("mean", 1.0)), 1.0
        elif xf == "gamma":
            xv, xs = float(xi.get("scale", 1.0)), float(xi.get("shape", 1.0))
        else:
            raise InvalidParameterError(f"unknown mark scalar family {xf!r}")
        marks = MarkModel(
            kind="scaled-profile",
            profile=_pair_from(marks_node.get("profile", {"family": "constant", "value": 1.0}), base_dir),
            xi_family=xf,
            xi_value=xv,
            xi_shape=xs,
        )

    lt = cfg.get("lifetimes", {"family": "exponential", "rate": 1.0})
    lifetimes = LifetimeModel(
        family=lt.get("family", "exponential"),
        tau=float(lt.get("tau", 1.0)),
        rate=float(lt.get("rate", 1.0)),
    )

    nl = cfg.get("nonlinearity", {"family": "identity"})
    nonlinearity = Nonlinearity(
        family=nl.get("family", "identity"),
        cap=float(nl.get("cap", math.inf)),
        scale=float(nl.get("scale", 1.0)),
        lipschitz=float(nl.get("lipschitz", 1.0)),
    )

    graphon_node = cfg.get("graphon", {"family": "constant", "value": 0.0})
    return ModelSpec(
        domain=domain,
        baseline=_profile_from(cfg.get("baseline", {"family": "constant", "value": 1.0}), base_dir),
        graphon=_pair_from(graphon_node, base_dir),
        excitation=excitation,
        marks=marks,
        lifetimes=lifetimes,
        nonlinearity=nonlinearity,
        c_w=float(graphon_node.get("c_w", math.inf)),
        symmetric=bool(graphon_node.get("symmetric", False)),
        grid_n=int(cfg.get("grid_n", 512)),
    )


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml, SafeLoader's constructors


def load_model(path) -> ModelSpec:
    path = Path(path)
    with open(path) as fh:
        try:
            cfg = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise InvalidParameterError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"config {path} is not a mapping")
    return build_spec(cfg, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Serialization back to a config mapping (round-trips through build_spec)


def _profile_config(p: SpatialProfile) -> dict:
    if p.family == "constant":
        return {"family": "constant", "value": p.value}
    if p.family == "identity":
        return {"family": "identity"}
    if p.family == "affine":
        return {"family": "affine", "intercept": p.intercept, "slope": list(p.slope)}
    return _grid_config(p)


def _pair_config(p: PairFunction) -> dict:
    if p.family == "constant":
        return {"family": "constant", "value": p.value}
    if p.family == "rank-one":
        return {
            "family": "rank-one",
            "coeff": p.coeff,
            "profile": _profile_config(p.profile or SpatialProfile("identity")),
        }
    return _grid_config(p)


def _grid_config(p: SpatialProfile | PairFunction) -> dict:
    return {"family": "grid", "values": np.asarray(p.values).tolist(),
            "axis_counts": list(p.cell_counts), "interp": p.interp}


def spec_config(spec: ModelSpec) -> dict:
    exc = spec.excitation
    if exc.family == "exponential":
        exc_cfg = {"family": "exponential", "rate": exc.rate, "l1": exc.l1}
    elif exc.family == "power-law":
        exc_cfg = {
            "family": "power-law",
            "exponent": exc.exponent,
            "cutoff": exc.cutoff,
            "l1": exc.l1,
        }
    else:
        exc_cfg = {
            "family": "table",
            "breaks": np.asarray(exc.breaks).tolist(),
            "values": np.asarray(exc.table_values).tolist(),
        }
    if spec.marks.kind == "unmarked":
        marks_cfg = {"kind": "unmarked"}
    else:
        xf = spec.marks.xi_family
        xi_cfg = {"family": xf}
        if xf == "deterministic":
            xi_cfg["value"] = spec.marks.xi_value
        elif xf == "exponential":
            xi_cfg["mean"] = spec.marks.xi_value
        else:
            xi_cfg.update({"shape": spec.marks.xi_shape, "scale": spec.marks.xi_value})
        marks_cfg = {
            "kind": "scaled-profile",
            "profile": _pair_config(spec.marks.profile),
            "xi": xi_cfg,
        }
    graphon_cfg = _pair_config(spec.graphon)
    if math.isfinite(spec.c_w):
        graphon_cfg["c_w"] = spec.c_w
    graphon_cfg["symmetric"] = spec.symmetric
    lt = spec.lifetimes
    lt_cfg = (
        {"family": "deterministic", "tau": lt.tau}
        if lt.family == "deterministic"
        else {"family": "exponential", "rate": lt.rate}
    )
    nl = spec.nonlinearity
    nl_cfg = {"family": nl.family, "lipschitz": nl.lipschitz}
    if nl.family == "clipped-linear":
        nl_cfg["cap"] = nl.cap
    if nl.family == "sigmoid-scaled":
        nl_cfg["scale"] = nl.scale
    return {
        "domain": {"lower": list(spec.domain.lower), "upper": list(spec.domain.upper)},
        "baseline": _profile_config(spec.baseline),
        "graphon": graphon_cfg,
        "excitation": exc_cfg,
        "marks": marks_cfg,
        "lifetimes": lt_cfg,
        "nonlinearity": nl_cfg,
        "grid_n": spec.grid_n,
    }


def model_digest(spec: ModelSpec) -> str:
    blob = json.dumps(spec_config(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
