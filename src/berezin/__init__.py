"""Berezin-transform toolkit on finite reproducing-kernel models.

The package evaluates Berezin symbols, Berezin numbers, Berezin norms, the
numerical radius, and the operator norm for matrices acting on a family of
kernel models, and ships a catalog of inequalities between those quantities
together with a randomized certification harness.
"""

from .calc import (
    BerezinEvaluation,
    SupEstimate,
    berezin_number,
    berezin_norm,
    berezin_set_sample,
    berezin_symbol,
    counterexample_check,
    numerical_radius,
)
from .errors import (
    BerezinError,
    DimensionMismatch,
    NoConvergence,
    NotCommuting,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    PointOutOfDomain,
    UnknownIneqId,
)
from .fuzz import (
    GeneratorSpec,
    TrialReport,
    Violation,
    gen_commuting_pair,
    gen_matrix,
    run_suite,
)
from .inequalities import (
    CATALOG,
    CATALOG_ORDER,
    DEFAULT_TOL,
    CatalogEntry,
    InequalityCase,
    check,
    power_mean,
    verify_positive_equality,
)
from .linalg import (
    abs_power,
    adjoint,
    as_complex_matrix,
    herm_eig,
    im_part,
    is_hermitian,
    is_positive,
    operator_norm,
    positive_power,
    positive_sqrt,
    precise_eigensolver,
    re_part,
    spectral_radius,
)
from .models import KernelModel, OmegaGrid, bergman, default_grid, finite, fock, hardy, kernel_matrix, normalized_kernel
from .results import InequalityResult

__version__ = "0.1.0"

__all__ = [
    "BerezinError",
    "BerezinEvaluation",
    "CATALOG",
    "CATALOG_ORDER",
    "CatalogEntry",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "GeneratorSpec",
    "InequalityCase",
    "InequalityResult",
    "KernelModel",
    "NoConvergence",
    "NotCommuting",
    "NotHermitian",
    "NotPositive",
    "OmegaGrid",
    "ParamOutOfRange",
    "PointOutOfDomain",
    "SupEstimate",
    "TrialReport",
    "UnknownIneqId",
    "Violation",
    "abs_power",
    "adjoint",
    "as_complex_matrix",
    "berezin_number",
    "berezin_norm",
    "berezin_set_sample",
    "berezin_symbol",
    "bergman",
    "check",
    "counterexample_check",
    "default_grid",
    "finite",
    "fock",
    "gen_commuting_pair",
    "gen_matrix",
    "hardy",
    "herm_eig",
    "im_part",
    "is_hermitian",
    "is_positive",
    "kernel_matrix",
    "normalized_kernel",
    "numerical_radius",
    "operator_norm",
    "positive_power",
    "positive_sqrt",
    "power_mean",
    "precise_eigensolver",
    "re_part",
    "run_suite",
    "spectral_radius",
    "verify_positive_equality",
]
