"""Pseudo-spectral solver and verification bench for a vertically
filtered approximate-deconvolution large-eddy model on the periodic box.
"""

__version__ = "0.1.0"

from .filters import (
    DeconvSpec,
    FilterSpec,
    apply_bar,
    apply_deconv,
    apply_filter,
    deconv_symbol,
    filter_symbol,
)
from .grid import Grid
from .solver import (
    RandomBandLimited,
    SingleMode,
    SolverConfig,
    SolverState,
    TaylorGreen,
    ZeroForcing,
    dependence_experiment,
    read_checkpoint,
    run,
    write_checkpoint,
)
from .spectral import SpectralField, VectorField, field_from_samples

__all__ = [
    "DeconvSpec",
    "FilterSpec",
    "Grid",
    "RandomBandLimited",
    "SingleMode",
    "SolverConfig",
    "SolverState",
    "SpectralField",
    "TaylorGreen",
    "VectorField",
    "ZeroForcing",
    "__version__",
    "apply_bar",
    "apply_deconv",
    "apply_filter",
    "dependence_experiment",
    "deconv_symbol",
    "field_from_samples",
    "filter_symbol",
    "read_checkpoint",
    "run",
    "write_checkpoint",
]
