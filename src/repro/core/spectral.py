"""Spectrum tools for splittings and preconditioned operators.

The parametrized method fits its ``αᵢ`` on an interval ``[λ₁, λ_n]`` that
contains the eigenvalues of ``P⁻¹K`` (Section 2.2).  For the SSOR
splitting with ``0 < ω < 2`` that spectrum lies in ``(0, 1]`` (Adams 1982),
so :func:`spectrum_interval` takes ``λ_n = 1`` — exact at ω = 1, where the
empty first column of the strict upper triangle makes ``e₁`` an
eigenvector — and computes only ``λ₁``: the smallest eigenvalue of the
Lanczos tridiagonal that CG's ``α``/``β`` scalars build (Chandra 1978),
run on the operator with its m = 1 sweep from a ones start vector.  Ritz
values approach ``λ₁`` from above, and the fit stays positive below its
left end (``q(μ) = μ·h(μ)`` with ``h(0) = Σαᵢ > 0``), so the estimate is
safe.  The run is deterministic and needs only ``K·x`` and the sweep, so
the assembled and the matrix-free backends share it.

Because the preconditioned operator ``M_m⁻¹K`` is a fixed polynomial ``q``
of ``P⁻¹K``, its spectrum — and hence κ(M_m⁻¹K), the quantity Adams (1982)
proves decreases with m — is obtained exactly by mapping eigenvalues of
``P⁻¹K`` through ``q``; :func:`full_splitting_spectrum` is the dense
reference for that analysis on small problems.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.core.polynomial import eigenvalue_map
from repro.core.splittings import Splitting
from repro.util import inner, require

__all__ = [
    "spectrum_interval",
    "full_splitting_spectrum",
    "condition_number",
    "preconditioned_spectrum",
    "preconditioned_condition_number",
]

#: The Lanczos run stops once λ₁ moves by at most this fraction between
#: checks 10 steps apart.  The α fit hardly feels λ₁ (a 178×-high λ₁
#: moved plate iteration counts by about 1%), so three digits is ample;
#: more would only buy steps.
_RTOL = 1e-3


def full_splitting_spectrum(splitting: Splitting) -> np.ndarray:
    """All eigenvalues of ``P⁻¹K`` (ascending); dense computation.

    Only for analysis on small problems — O(n³).
    """
    n = splitting.n
    require(n <= 2000, "full spectrum is a dense computation; use spectrum_interval")
    k = splitting.k.toarray()
    p = splitting.p_matrix().toarray()
    return sla.eigh(k, p, eigvals_only=True)


def _smallest_ritz(diag: list, off: list) -> float:
    """Smallest eigenvalue of the Lanczos tridiagonal built so far."""
    return float(sla.eigvalsh_tridiagonal(
        diag, off[: len(diag) - 1], select="i", select_range=(0, 0)
    )[0])


def spectrum_interval(k, sweep) -> tuple[float, float]:
    """``(λ₁, 1.0)`` for ``P⁻¹K``, with ``P⁻¹`` = ``sweep`` (an SSOR step).

    ``k`` is anything supporting ``k @ x`` (the permuted CSR system or a
    :class:`~repro.kernels.StencilOperator`); ``sweep(r)`` applies ``P⁻¹``
    and may return a buffer it reuses on the next call.  ``λ₁`` is the
    smallest Ritz value of the CG-Lanczos tridiagonal
    (``T_jj = 1/α_j + β_{j−1}/α_{j−1}``, ``T_{j,j+1} = √β_j/α_j``) after
    the run stops: on a ``_RTOL`` change between checks, on breakdown
    (``ρ ≤ 0`` or ``pᵀKp ≤ 0``), or after ``n`` steps.
    """
    n = k.shape[0]
    r = np.ones(n)
    z = sweep(r)
    rho = inner(r, z)
    require(rho > 0, "the sweep is not positive definite")
    p = np.array(z)
    diag: list[float] = []
    off: list[float] = []
    carry = 0.0  # β_{j−1}/α_{j−1}
    lam = np.inf
    for _ in range(n):
        q = k @ p
        denom = inner(p, q)
        if not denom > 0:
            break
        alpha = rho / denom
        diag.append(1.0 / alpha + carry)
        r -= alpha * q
        z = sweep(r)
        rho_next = inner(r, z)
        if not rho_next > 0:
            break
        beta = rho_next / rho
        off.append(np.sqrt(beta) / alpha)
        carry = beta / alpha
        p = z + beta * p
        rho = rho_next
        if len(diag) % 10 == 0:
            lam_prev, lam = lam, _smallest_ritz(diag, off)
            if abs(lam - lam_prev) <= _RTOL * lam:
                return lam, 1.0
    return _smallest_ritz(diag, off), 1.0


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
