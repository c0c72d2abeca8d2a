"""Shared numerical utilities for the Adams-1983 reproduction.

Small, dependency-free helpers used across the core solver, the multicolor
machinery, and the machine simulators: norms, inner products with counting,
SPD/symmetry validation, and permutation helpers.
"""

from repro.util.linalg import (
    OperationCounter,
    as_dense,
    column_dots,
    inf_norm,
    inner,
    permutation_matrix,
)
from repro.util.validation import (
    check_spd,
    is_diagonal,
    is_spd,
    is_symmetric,
    require,
)

__all__ = [
    "OperationCounter",
    "as_dense",
    "column_dots",
    "inf_norm",
    "inner",
    "permutation_matrix",
    "check_spd",
    "is_diagonal",
    "is_spd",
    "is_symmetric",
    "require",
]
