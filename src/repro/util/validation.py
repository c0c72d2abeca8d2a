"""Structural validation predicates.

The preconditioning theory in the paper requires specific structure at every
layer: ``K`` symmetric positive definite (Section 1), the preconditioner ``M``
symmetric positive definite (Section 2.1), the multicolor diagonal blocks
``D_ii`` and same-node blocks ``B₁₂, B₃₄, B₅₆`` *diagonal* matrices (system
3.1).  These checks are used by constructors and by the test-suite so that a
structural violation fails loudly instead of silently producing a
non-convergent solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["require", "is_symmetric", "is_spd", "check_spd", "is_diagonal"]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def is_symmetric(a, tol: float = 1e-10) -> bool:
    """True when ``‖A − Aᵀ‖_max ≤ tol · max(1, ‖A‖_max)``."""
    if sp.issparse(a):
        diff = (a - a.T).tocoo()
        if diff.nnz == 0:
            return True
        scale = max(1.0, float(np.max(np.abs(a.data))) if a.nnz else 1.0)
        return float(np.max(np.abs(diff.data))) <= tol * scale
    a = np.asarray(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    return float(np.max(np.abs(a - a.T))) <= tol * scale if a.size else True


def _min_eig(a) -> float:
    """Smallest eigenvalue, computed densely (a check for test-sized
    systems: O(n³), exact and deterministic)."""
    dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    return float(np.linalg.eigvalsh(dense)[0])


def is_spd(a, tol: float = 1e-10) -> bool:
    """True when ``a`` is symmetric with all eigenvalues > tol·‖a‖."""
    if not is_symmetric(a, tol=max(tol, 1e-10)):
        return False
    if a.shape[0] == 0:
        return True
    scale = float(abs(a).max()) if not sp.issparse(a) else float(np.max(np.abs(a.data)))
    return _min_eig(a) > -tol * max(1.0, scale)


def check_spd(a, name: str = "matrix", tol: float = 1e-10) -> None:
    """Raise ``ValueError`` unless ``a`` is symmetric positive definite."""
    require(is_symmetric(a, tol=max(tol, 1e-10)), f"{name} is not symmetric")
    if a.shape[0] == 0:
        return
    lam = _min_eig(a)
    require(lam > 0.0, f"{name} is not positive definite (λ_min = {lam:g})")


def is_diagonal(a, tol: float = 0.0) -> bool:
    """True when all off-diagonal entries of ``a`` are ≤ tol in magnitude."""
    if sp.issparse(a):
        coo = a.tocoo()
        off = coo.row != coo.col
        if not np.any(off):
            return True
        return float(np.max(np.abs(coo.data[off]))) <= tol
    a = np.asarray(a)
    off = a - np.diag(np.diag(a)) if a.ndim == 2 and a.shape[0] == a.shape[1] else a
    return float(np.max(np.abs(off))) <= tol if off.size else True
