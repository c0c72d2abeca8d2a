"""Spectrum tools for splittings and preconditioned operators.

The parametrized method needs the interval ``[λ₁, λ_n]`` containing the
eigenvalues of ``P⁻¹K`` (Section 2.2).  ``P⁻¹K`` is similar to the
*symmetric* operator ``S = W⁻¹ K W⁻ᵀ`` through the factor ``P = W Wᵀ`` each
symmetric splitting exposes, so its spectrum is computed stably:

* dense path (small n): generalized symmetric eigenproblem
  ``K v = λ P v`` via ``scipy.linalg.eigh``;
* iterative path (large n): Lanczos (``eigsh``) on ``S`` for ``λ_n``, and on
  ``S⁻¹ = Wᵀ K⁻¹ W`` (one sparse LU of K) for ``1/λ₁`` — both extreme-end
  computations, where Lanczos converges quickly.

Because the preconditioned operator ``M_m⁻¹K`` is a fixed polynomial ``q``
of ``P⁻¹K``, its spectrum — and hence κ(M_m⁻¹K), the quantity Adams (1982)
proves decreases with m — is obtained exactly by mapping eigenvalues of
``P⁻¹K`` through ``q`` rather than by re-running Lanczos per m.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from repro.core.polynomial import eigenvalue_map
from repro.core.splittings import Splitting
from repro.util import require

__all__ = [
    "spectrum_interval",
    "full_splitting_spectrum",
    "condition_number",
    "preconditioned_spectrum",
    "preconditioned_condition_number",
]

_DENSE_LIMIT = 700


def full_splitting_spectrum(splitting: Splitting) -> np.ndarray:
    """All eigenvalues of ``P⁻¹K`` (ascending); dense computation.

    Only for analysis on small problems — O(n³).
    """
    n = splitting.n
    require(n <= 2000, "full spectrum is a dense computation; use spectrum_interval")
    k = splitting.k.toarray()
    p = splitting.p_matrix().toarray()
    return sla.eigh(k, p, eigvals_only=True)


def _symmetric_operator(splitting: Splitting) -> spla.LinearOperator:
    """``S = W⁻¹ K W⁻ᵀ`` as a LinearOperator.

    The splitting applications are batched (``(n, k)`` blocks of vectors go
    through one color-block sweep each), so the operator advertises
    ``matmat`` too — block methods probe it with matmuls instead of ``k``
    sequential applies.
    """
    k = splitting.k

    def apply(x):
        return splitting.apply_w_inv(k @ splitting.apply_wt_inv(x))

    return spla.LinearOperator(
        (splitting.n, splitting.n), matvec=apply, matmat=apply
    )


def _inverse_operator(splitting: Splitting) -> spla.LinearOperator:
    """``S⁻¹ = Wᵀ K⁻¹ W``; factors K once."""
    lu = spla.splu(splitting.k.tocsc())
    w = _WFactor(splitting)

    def apply(x):
        return w.wt(lu.solve(w.w(x)))

    return spla.LinearOperator(
        (splitting.n, splitting.n), matvec=apply, matmat=apply
    )


class _WFactor:
    """Forward actions of W and Wᵀ derived from the inverse actions.

    ``W x`` is recovered by solving ``W⁻¹ y = x`` — but splittings only give
    us inverse applications.  Rather than invert numerically we use
    ``W = P W⁻ᵀ`` (from ``P = W Wᵀ``), which needs only ``P`` and ``W⁻ᵀ``.
    """

    def __init__(self, splitting: Splitting):
        self._p = splitting.p_matrix()
        self._splitting = splitting

    def w(self, x: np.ndarray) -> np.ndarray:
        return self._p @ self._splitting.apply_wt_inv(x)

    def wt(self, x: np.ndarray) -> np.ndarray:
        # Wᵀ = W⁻¹ P by the same identity.
        return self._splitting.apply_w_inv(self._p @ x)


def spectrum_interval(
    splitting: Splitting,
    tol: float = 1e-7,
    safety: float = 0.0,
) -> tuple[float, float]:
    """``(λ₁, λ_n)`` of ``P⁻¹K``, optionally widened by ``safety`` (relative).

    A small ``safety`` (e.g. 0.02) widens the interval used for polynomial
    fitting so that Lanczos under-estimation of the extremes cannot place an
    eigenvalue outside it (which could cost positivity of ``q``).
    """
    require(splitting.symmetric, "spectrum interval needs a symmetric splitting")
    n = splitting.n
    if n <= _DENSE_LIMIT:
        eigs = full_splitting_spectrum(splitting)
        lo, hi = float(eigs[0]), float(eigs[-1])
    else:
        s = _symmetric_operator(splitting)
        hi = float(
            spla.eigsh(s, k=1, which="LA", return_eigenvectors=False, tol=tol)[0]
        )
        s_inv = _inverse_operator(splitting)
        inv_max = float(
            spla.eigsh(s_inv, k=1, which="LA", return_eigenvectors=False, tol=tol)[0]
        )
        lo = 1.0 / inv_max
    if safety:
        span = hi - lo
        lo = max(lo - safety * span, 0.0 if lo >= 0.0 else lo * (1 + safety))
        hi = hi + safety * span
    return lo, hi


def condition_number(eigenvalues_or_interval) -> float:
    """κ = λ_max / λ_min from a spectrum array or an (lo, hi) pair."""
    arr = np.atleast_1d(np.asarray(eigenvalues_or_interval, dtype=float))
    lo, hi = float(arr.min()), float(arr.max())
    if lo <= 0:
        return float("inf")
    return hi / lo


def preconditioned_spectrum(
    splitting_eigenvalues: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Eigenvalues of ``M_m⁻¹K``: the map ``q`` applied to eigs of ``P⁻¹K``."""
    q = eigenvalue_map(coefficients)
    return np.sort(q(np.asarray(splitting_eigenvalues, dtype=float)))


def preconditioned_condition_number(
    splitting: Splitting, coefficients: np.ndarray
) -> float:
    """Exact κ(M_m⁻¹K) on a small problem (full spectrum + polynomial map)."""
    eigs = full_splitting_spectrum(splitting)
    mapped = preconditioned_spectrum(eigs, coefficients)
    return condition_number(mapped)
