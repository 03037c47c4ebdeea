"""Pseudo-spectral solver and verification bench for a vertically
filtered approximate-deconvolution large-eddy model on the periodic box.
"""

__version__ = "0.1.0"

from .ensembles import draw_scalar
from .filters import (
    DeconvSpec,
    FilterSpec,
    apply_bar,
    apply_deconv,
    apply_filter,
    apply_half_deconv,
    apply_half_filter,
    check_filter_identities,
    deconv_error_symbol,
    deconv_symbol,
    filter_symbol,
)
from .grid import Grid
from .inequalities import (
    agmon_ratio,
    ladyzhenskaya_ratio,
    trilinear_ratio_i,
    trilinear_ratio_ii,
    vertical_embedding_ratio,
)
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
from .spectral import (
    SpectralField,
    VectorField,
    field_from_samples,
    vertical_seminorm,
)

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
    "agmon_ratio",
    "apply_bar",
    "apply_deconv",
    "apply_filter",
    "apply_half_deconv",
    "apply_half_filter",
    "check_filter_identities",
    "dependence_experiment",
    "deconv_error_symbol",
    "deconv_symbol",
    "draw_scalar",
    "field_from_samples",
    "filter_symbol",
    "ladyzhenskaya_ratio",
    "read_checkpoint",
    "run",
    "trilinear_ratio_i",
    "trilinear_ratio_ii",
    "vertical_embedding_ratio",
    "vertical_seminorm",
    "write_checkpoint",
]
