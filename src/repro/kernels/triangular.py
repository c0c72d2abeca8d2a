"""Cached triangular application — the kernel behind every splitting solve.

The paper's point (3.1): under a multicolor ordering the SSOR factors
``D − ωL`` and ``D − ωU`` are *block* triangular with genuinely diagonal
diagonal blocks, so the "triangular solve" is really ``nc`` dense vector
updates

    z_c ← (r_c − Σ_{j<c} T_cj z_j) / d_c          (lower; upper mirrored)

— all vector-length work, no row recurrence.  :class:`ColorBlockTriangularSolver`
precomputes the per-color CSR sub-blocks and inverse diagonals once at
construction and replays them on every solve, for single vectors or
``(n, k)`` blocks of right-hand sides.

Matrices that are *not* color-structured (incomplete-Cholesky factors of
naturally ordered systems, arbitrary test matrices) get
:class:`FactorizedTriangularSolver`: one CSC conversion + SuperLU
factorization cached across the thousands of solves a Table-2 sweep makes.
:class:`ReferenceTriangularSolver` keeps the row-sequential
``spsolve_triangular`` formulation for the ``"reference"`` backend pin.

:func:`detect_color_slices` discovers the block structure from the sparsity
pattern alone, so consumers need not thread the multicolor ordering through
— a splitting built on ``blocked.permuted`` finds its six color blocks by
itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spsolve_triangular

from repro.kernels.backend import REFERENCE, resolve_backend

__all__ = [
    "detect_color_slices",
    "ColorBlockTriangularSolver",
    "FactorizedTriangularSolver",
    "ReferenceTriangularSolver",
    "make_triangular_solver",
]

#: Above this many detected blocks the per-color Python loop stops paying
#: for itself and the factorized path wins.
MAX_COLOR_GROUPS = 32


def detect_color_slices(
    t: sp.spmatrix, lower: bool = True, max_groups: int | None = None
) -> tuple[slice, ...] | None:
    """Partition ``0..n`` into consecutive blocks with diagonal diagonal-blocks.

    Returns the coarsest front-to-back greedy partition such that the
    strictly-triangular part of ``t`` has no entry *inside* any block —
    exactly the condition under which the block solve above is valid.  For
    a matrix permuted by a :class:`~repro.multicolor.ordering.MulticolorOrdering`
    this recovers the color groups.  Returns ``None`` when more than
    ``max_groups`` blocks would be needed (structure absent; use the
    factorized fallback).
    """
    t = t.tocsr()
    n = t.shape[0]
    if max_groups is None:
        max_groups = MAX_COLOR_GROUPS
    if n == 0:
        return ()
    if lower:
        strict = sp.tril(t, -1).tocoo()
        # extreme[i] = max column of row i's strictly-lower entries (−1: none)
        extreme = np.full(n, -1, dtype=np.int64)
        np.maximum.at(extreme, strict.row, strict.col)
        bounds = [0]
        start = 0
        for i in range(n):
            if extreme[i] >= start:
                bounds.append(i)
                start = i
                if len(bounds) > max_groups:
                    return None
        bounds.append(n)
    else:
        strict = sp.triu(t, 1).tocoo()
        # extreme[i] = min column of row i's strictly-upper entries (n: none)
        extreme = np.full(n, n, dtype=np.int64)
        np.minimum.at(extreme, strict.row, strict.col)
        rbounds = [n]
        end = n
        for i in range(n - 1, -1, -1):
            if extreme[i] < end:
                rbounds.append(i + 1)
                end = i + 1
                if len(rbounds) > max_groups:
                    return None
        rbounds.append(0)
        bounds = rbounds[::-1]
    return tuple(
        slice(bounds[c], bounds[c + 1]) for c in range(len(bounds) - 1)
    )


class ColorBlockTriangularSolver:
    """``T z = r`` by ``nc`` dense color-block updates (cached sub-blocks).

    ``T`` must be (block-)triangular with diagonal diagonal-blocks on the
    given ``slices`` — the form every multicolor-ordered SSOR/SOR factor
    has.  Solves accept ``(n,)`` vectors or ``(n, k)`` blocks.
    """

    kind = "color_block"

    def __init__(self, t: sp.spmatrix, slices, lower: bool = True):
        t = t.tocsr()
        self.lower = bool(lower)
        self.slices = tuple(slices)
        self.n = t.shape[0]
        diag = t.diagonal()
        if not np.all(diag != 0.0):
            raise ValueError("triangular matrix has a zero diagonal entry")
        nc = len(self.slices)
        self._inv_diag = [1.0 / diag[s] for s in self.slices]
        self._blocks: list[list[tuple[int, sp.csr_matrix]]] = []
        for c in range(nc):
            rows = t[self.slices[c]]
            js = range(c) if lower else range(c + 1, nc)
            row_blocks = []
            for j in js:
                block = rows[:, self.slices[j]].tocsr()
                if block.nnz:
                    row_blocks.append((j, block))
            self._blocks.append(row_blocks)
        self._order = range(nc) if lower else range(nc - 1, -1, -1)

    @property
    def n_groups(self) -> int:
        return len(self.slices)

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        z = out if out is not None and out.shape == b.shape else np.empty_like(b)
        slices = self.slices
        for c in self._order:
            sc = slices[c]
            acc = np.array(b[sc], dtype=np.float64)
            for j, block in self._blocks[c]:
                acc -= block @ z[slices[j]]
            inv = self._inv_diag[c] if b.ndim == 1 else self._inv_diag[c][:, None]
            np.multiply(acc, inv, out=z[sc])
        return z


class FactorizedTriangularSolver:
    """Cached SuperLU factorization of a triangular matrix.

    Structure-unaware fallback: the CSC conversion and (trivial, natural-
    order, unpivoted) factorization happen once; every subsequent solve is
    one compiled sweep, for vectors or ``(n, k)`` blocks.
    """

    kind = "factorized"

    def __init__(self, t: sp.spmatrix, lower: bool = True):
        self.lower = bool(lower)
        self.n = t.shape[0]
        self._lu = spla.splu(
            t.tocsc(),
            permc_spec="NATURAL",
            options={"DiagPivotThresh": 0.0, "SymmetricMode": False},
        )

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = self._lu.solve(np.asarray(b, dtype=np.float64))
        if out is not None and out.shape == z.shape:
            out[...] = z
            return out
        return z


class ReferenceTriangularSolver:
    """Row-sequential ``spsolve_triangular`` — the paper-faithful pin."""

    kind = "reference"

    def __init__(self, t: sp.spmatrix, lower: bool = True):
        self.lower = bool(lower)
        self.n = t.shape[0]
        self._t = t.tocsr()

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = spsolve_triangular(self._t, np.asarray(b, dtype=np.float64), lower=self.lower)
        if out is not None and out.shape == z.shape:
            out[...] = z
            return out
        return z


def make_triangular_solver(
    t: sp.spmatrix,
    lower: bool = True,
    slices=None,
    backend: str | None = None,
    max_groups: int | None = None,
):
    """Build the best cached solver for ``T`` under the given backend.

    ``"reference"`` always returns the row-sequential solver.  The
    vectorized backend uses the color-block sweep when ``slices`` are given
    or detected, and the cached factorization otherwise.
    """
    if resolve_backend(backend) == REFERENCE:
        return ReferenceTriangularSolver(t, lower=lower)
    if slices is None:
        slices = detect_color_slices(t, lower=lower, max_groups=max_groups)
    if slices is not None and len(slices) >= 1:
        return ColorBlockTriangularSolver(t, slices, lower=lower)
    return FactorizedTriangularSolver(t, lower=lower)
