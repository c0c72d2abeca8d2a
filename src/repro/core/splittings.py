"""Matrix splittings ``K = P − Q`` for m-step preconditioners (Section 2).

A splitting packages three actions the preconditioner needs:

* ``apply_p_inv(r)``      — one stationary step from zero: ``P⁻¹ r``;
* ``apply_g(x)``          — the iteration matrix action
  ``G x = (I − P⁻¹K) x``;
* ``p_matrix()``          — an explicit ``P`` for dense analysis.

Implemented splittings:

* :class:`JacobiSplitting` — ``P = diag(K)``; its unparametrized m-step
  preconditioner is the truncated Neumann series of Dubois–Greenbaum–
  Rodrigue (1979), and its parametrized form is Johnson–Micchelli–Paul
  (1982).
* :class:`SSORSplitting` — the paper's choice (2.1):
  ``P = (1/(ω(2−ω))) (D − ωL) D⁻¹ (D − ωU)``; symmetric positive definite
  for ``0 < ω < 2``; the paper fixes ω = 1.
* :class:`SORSplitting` — ``P = D/ω − L``; *not* symmetric, provided for
  completeness and to demonstrate why SSOR is the one used in PCG.
* :class:`RichardsonSplitting` — ``P = c·I``; the simplest valid splitting,
  useful for tests where everything is computable by hand.

All splittings treat the matrix in the ordering given to them.  Under a
multicolor ordering the elementwise triangles coincide with the color-block
triangles of (3.1), so :class:`SSORSplitting` on the permuted matrix is the
same operator that :class:`repro.multicolor.sor.MStepSSOR` applies by sweeps
— a fact the test-suite verifies.
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro.kernels import make_triangular_solver, resolve_backend, row_scale
from repro.util import require

__all__ = [
    "Splitting",
    "JacobiSplitting",
    "SSORSplitting",
    "SORSplitting",
    "RichardsonSplitting",
]


class Splitting(abc.ABC):
    """Abstract splitting ``K = P − Q`` of an SPD matrix.

    ``backend`` selects the kernel implementation of the hot paths
    (``"vectorized"`` default, ``"reference"`` for the paper-faithful
    row-sequential pin); see :mod:`repro.kernels`.  All applications accept
    a single vector ``(n,)`` or a block of right-hand sides ``(n, k)``.
    """

    def __init__(self, k: sp.spmatrix, backend: str | None = None):
        require(k.shape[0] == k.shape[1], "matrix must be square")
        self.k = k.tocsr()
        self.n = k.shape[0]
        self.backend = resolve_backend(backend)

    #: Whether P is symmetric (required for a PCG preconditioner).
    symmetric: bool = True

    @abc.abstractmethod
    def apply_p_inv(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``P⁻¹ r`` (optionally written into ``out``)."""

    def apply_g(self, x: np.ndarray) -> np.ndarray:
        """``G x = x − P⁻¹ (K x)``."""
        return x - self.apply_p_inv(self.k @ x)

    @abc.abstractmethod
    def p_matrix(self) -> sp.spmatrix:
        """Explicit ``P`` (analysis/testing; never needed by the solver)."""

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Splitting", "")


class JacobiSplitting(Splitting):
    """``P = D = diag(K)``; ``G = I − D⁻¹K`` (point Jacobi iteration)."""

    def __init__(self, k: sp.spmatrix, backend: str | None = None):
        super().__init__(k, backend=backend)
        d = self.k.diagonal().copy()
        require(bool(np.all(d > 0)), "Jacobi splitting needs a positive diagonal")
        self.d = d

    def apply_p_inv(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scale = self.d if r.ndim == 1 else self.d[:, None]
        if out is not None and out.shape == r.shape:
            np.divide(r, scale, out=out)
            return out
        return r / scale

    def p_matrix(self) -> sp.spmatrix:
        return sp.diags(self.d).tocsr()


class RichardsonSplitting(Splitting):
    """``P = c·I`` with ``c`` at least a Gershgorin bound on ``λ_max(K)``.

    With that default the iteration ``x ← x + (b − Kx)/c`` converges for any
    SPD ``K``; the m-step preconditioner it induces is a plain polynomial in
    ``K`` itself.
    """

    def __init__(self, k: sp.spmatrix, c: float | None = None, backend: str | None = None):
        super().__init__(k, backend=backend)
        if c is None:
            # Gershgorin: λ_max ≤ max_i Σ_j |K_ij|.
            c = float(np.max(np.abs(self.k).sum(axis=1)))
        require(c > 0, "Richardson constant must be positive")
        self.c = float(c)

    def apply_p_inv(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if out is not None and out.shape == r.shape:
            np.divide(r, self.c, out=out)
            return out
        return r / self.c

    def p_matrix(self) -> sp.spmatrix:
        return (self.c * sp.identity(self.n)).tocsr()


class _TriangularParts:
    """Shared D/L/U decomposition ``K = D − L − U`` (L, U strict parts)."""

    def __init__(self, k: sp.csr_matrix):
        d = k.diagonal().copy()
        require(bool(np.all(d > 0)), "splitting needs a positive diagonal")
        self.d = d
        self.lower = (-sp.tril(k, -1)).tocsr()  # L ≥ 0 convention: K = D − L − U
        self.upper = (-sp.triu(k, 1)).tocsr()


class SORSplitting(Splitting):
    """``P = D/ω − L`` (forward SOR).  Not symmetric — unfit for PCG alone."""

    symmetric = False

    def __init__(self, k: sp.spmatrix, omega: float = 1.0, backend: str | None = None):
        super().__init__(k, backend=backend)
        require(0.0 < omega < 2.0, "SOR requires 0 < ω < 2")
        self.omega = float(omega)
        self._parts = _TriangularParts(self.k)
        self._p = (sp.diags(self._parts.d / self.omega) - self._parts.lower).tocsr()
        self._lower_solver = None

    def _solver(self):
        """Cached triangular kernel for ``P`` (built on first use)."""
        if self._lower_solver is None:
            self._lower_solver = make_triangular_solver(
                self._p, lower=True, backend=self.backend
            )
        return self._lower_solver

    def apply_p_inv(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._solver().solve(np.asarray(r, dtype=float), out=out)

    def p_matrix(self) -> sp.spmatrix:
        return self._p


class SSORSplitting(Splitting):
    """The paper's SSOR splitting (2.1), ω-parametrized.

    ``P(ω) = (1/(ω(2−ω))) (D − ωL) D⁻¹ (D − ωU)`` — symmetric positive
    definite for SPD ``K`` and ``0 < ω < 2``; the stationary iteration it
    induces is a forward then a backward SOR sweep.  The paper sets ω = 1
    ("for this ordering and few colors ω = 1 is a good choice", citing
    Adams 1983), giving ``P = (D − L) D⁻¹ (D − U)``.
    """

    def __init__(self, k: sp.spmatrix, omega: float = 1.0, backend: str | None = None):
        super().__init__(k, backend=backend)
        require(0.0 < omega < 2.0, "SSOR requires 0 < ω < 2")
        self.omega = float(omega)
        parts = _TriangularParts(self.k)
        self.d = parts.d
        self._scale = self.omega * (2.0 - self.omega)
        self._dl = (sp.diags(parts.d) - self.omega * parts.lower).tocsr()
        self._du = (sp.diags(parts.d) - self.omega * parts.upper).tocsr()
        self._solvers = None

    def _triangular_solvers(self):
        """Cached kernels for ``(D−ωL)⁻¹`` and ``(D−ωU)⁻¹`` (built once).

        Under a multicolor ordering both factors decompose into per-color
        CSR sub-blocks with diagonal diagonal-blocks, so each solve is
        ``nc`` dense vector updates (see :mod:`repro.kernels.triangular`);
        otherwise a cached factorization (vectorized backend) or the
        row-sequential reference solver is used.
        """
        if self._solvers is None:
            self._solvers = (
                make_triangular_solver(self._dl, lower=True, backend=self.backend),
                make_triangular_solver(self._du, lower=False, backend=self.backend),
            )
        return self._solvers

    def apply_p_inv(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``P⁻¹ r = ω(2−ω) (D−ωU)⁻¹ D (D−ωL)⁻¹ r`` (two sweeps)."""
        lower, upper = self._triangular_solvers()
        z = lower.solve(np.asarray(r, dtype=float))
        row_scale(z, self.d, out=z)
        z = upper.solve(z, out=out)
        z *= self._scale
        return z

    def p_matrix(self) -> sp.spmatrix:
        d_inv = sp.diags(1.0 / self.d)
        return ((self._dl @ d_inv @ self._du) / self._scale).tocsr()
