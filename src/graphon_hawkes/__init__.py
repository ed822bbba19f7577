"""Spatiotemporal self-exciting point processes with graphon connectivity:
simulation, spectral stability diagnostics, finite-dimensional prelimit
coupling, limit-theorem experiments and Laplace-functional fixed points."""

__version__ = "0.1.0"

from .errors import GraphonHawkesError
from .events import Realization
from .model import (
    ExcitationKernel,
    LifetimeModel,
    MarkModel,
    ModelSpec,
    Nonlinearity,
    PairFunction,
    SpatialDomain,
    SpatialProfile,
    constant_model,
    eval_kernel_density,
    integrated_excitation,
    rank_one_model,
    validate_model,
)
from .rng import SplitStream

__all__ = [
    "ExcitationKernel",
    "GraphonHawkesError",
    "LifetimeModel",
    "MarkModel",
    "ModelSpec",
    "Nonlinearity",
    "PairFunction",
    "Realization",
    "SpatialDomain",
    "SpatialProfile",
    "SplitStream",
    "constant_model",
    "eval_kernel_density",
    "integrated_excitation",
    "rank_one_model",
    "validate_model",
]
