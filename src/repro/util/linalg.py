"""Basic linear-algebra helpers.

The paper's algorithms are expressed in terms of three primitives — the inner
product ``(x, y) = xᵀy``, the infinity norm used by the stopping test in
Algorithm 1, and sparse matrix-vector products.  This module provides those
plus an :class:`OperationCounter` that the instrumented solvers use to report
how many of each primitive they executed (the paper's whole argument is about
*how many inner products* an iteration costs, so we count them explicitly
rather than inferring them).

The inner product is a fixed-order sum, like the Finite Element Machine's
sum/max circuit: :func:`column_dots` adds the products in 8 lanes (lane
``l`` takes rows ``i ≡ l (mod 8)`` in index order, starting from ``+0.0``)
and combines the lanes as ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``.  It
runs compiled (:mod:`repro.kernels._native`) or in numpy, bitwise the same
either way, so no result depends on the BLAS build, its CPU kernel or its
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "OperationCounter",
    "as_dense",
    "column_dots",
    "inf_norm",
    "inner",
    "permutation_matrix",
]


_LOADER: list = []  # [load_native, BLOCK_WIDTH] of repro.kernels._native
_F64 = np.dtype(np.float64)


def _pack(k: int):
    """The compiled kernel pack for ``k`` columns, or ``None``: loaded on
    the first dot, and ``None`` past the widest compiled dot."""
    if not _LOADER:
        # Imported here: repro.kernels imports repro.util, and importing
        # the package must not build or load the pack.
        from repro.kernels._native import BLOCK_WIDTH, load_native

        _LOADER[:] = [load_native, BLOCK_WIDTH]
    return _LOADER[0]() if k <= _LOADER[1] else None


def dots_numpy(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The numpy twin of the compiled ``fixed_dots``, bitwise.

    ``x`` and ``y`` are C-ordered ``(n,)`` vectors or ``(n, k)`` blocks;
    ``out`` receives the k column dots.  Reducing axis 0 of the
    ``(n // 8, 8, k)`` view adds row after row onto ``+0.0`` for every
    lane and column — numpy reduces a non-contiguous axis sequentially,
    not pairwise (the test-suite pins this against the compiled kernel).
    """
    n = x.shape[0]
    k = 1 if x.ndim == 1 else x.shape[1]
    with np.errstate(all="ignore"):  # silent on inf and NaN, as compiled
        prod = np.multiply(x, y).reshape(n, k)
        n8 = n - n % 8
        lanes = np.add.reduce(prod[:n8].reshape(n8 // 8, 8, k), axis=0)
        lanes[: n - n8] += prod[n8:]
        np.add(lanes[0] + lanes[1], lanes[2] + lanes[3], out=out)
        out += (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    return out


def _operand(a) -> np.ndarray:
    """``a`` as a C-contiguous float64 array; no conversion if it is one."""
    if type(a) is np.ndarray and a.dtype == _F64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


def column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The fixed-order dots of the columns of two ``(n, k)`` blocks.

    Returns ``(k,)``; column ``j`` is bitwise ``inner(x[:, j], y[:, j])``.
    ``(n,)`` vectors count as one column.  Compiled up to 8 columns; a
    wider block takes the numpy twin.
    """
    x, y = _operand(x), _operand(y)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError("column_dots needs two (n,) or (n, k) arrays of one shape")
    k = 1 if x.ndim == 1 else x.shape[1]
    out = np.empty(k)
    pack = _pack(k)
    if pack is None:
        return dots_numpy(x, y, out)
    ptr = pack.pointer
    pack.fixed_dots(x.shape[0], k, ptr(x), ptr(y), ptr(out))
    return out


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean inner product ``(x, y) = xᵀ y`` as a Python float.

    The fixed-order sum of :func:`column_dots` over the flattened operands.
    """
    return float(column_dots(np.ravel(x), np.ravel(y))[0])


def inf_norm(x: np.ndarray) -> float:
    """``‖x‖_∞`` — the norm used by Algorithm 1's convergence test."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x)))


def as_dense(a) -> np.ndarray:
    """Return ``a`` as a dense ndarray (accepts sparse matrices and arrays)."""
    if sp.issparse(a):
        return a.toarray()
    return np.asarray(a)


def permutation_matrix(perm: np.ndarray) -> sp.csr_matrix:
    """Sparse permutation matrix ``P`` with ``(P x)[i] = x[perm[i]]``.

    Row ``i`` of ``P`` has a single 1 in column ``perm[i]``; consequently
    ``P A Pᵀ`` reorders a matrix so that old index ``perm[i]`` becomes new
    index ``i``.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n):
        raise ValueError("perm is not a permutation of 0..n-1")
    if np.unique(perm).size != n:
        raise ValueError("perm contains repeated indices")
    data = np.ones(n)
    rows = np.arange(n)
    return sp.csr_matrix((data, (rows, perm)), shape=(n, n))


@dataclass
class OperationCounter:
    """Tally of the primitives executed by an instrumented solver.

    Attributes
    ----------
    inner_products:
        Number of global inner products (the reduction the paper identifies
        as the parallel bottleneck).
    matvecs:
        Number of products with the full operator ``K``.
    precond_applications:
        Number of applications of ``M⁻¹`` (one per PCG iteration plus the
        initial one).
    precond_steps:
        Total *inner* stationary steps taken by m-step preconditioners
        (``m × precond_applications`` when m is fixed).
    axpys:
        Vector updates of the form ``y ← y + a·x``.
    """

    inner_products: int = 0
    matvecs: int = 0
    precond_applications: int = 0
    precond_steps: int = 0
    axpys: int = 0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "OperationCounter") -> None:
        """Accumulate another counter's totals into this one."""
        self.inner_products += other.inner_products
        self.matvecs += other.matvecs
        self.precond_applications += other.precond_applications
        self.precond_steps += other.precond_steps
        self.axpys += other.axpys
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def charge_sweep(self, m: int, ncols: int, nc: int, couplings: int) -> None:
        """Book ``ncols`` applications of the m-step merged multicolor
        sweep (Algorithm 2) over ``nc`` colors whose block rows hold
        ``couplings`` nonzero off-diagonal blocks in all.

        Each step multiplies every block once and solves every color
        forward and colors ``nc − 2 … 1`` backward; the closing color-0
        solve comes once per application.  These are the counts the
        sweep's loop performs, in closed form.
        """
        solves = m * (nc + max(nc - 2, 0)) + (1 if nc >= 2 else 0)
        self.precond_applications += ncols
        self.precond_steps += m * ncols
        self.extra["block_multiplies"] = (
            self.extra.get("block_multiplies", 0) + m * couplings * ncols
        )
        self.extra["diag_solves"] = self.extra.get("diag_solves", 0) + solves * ncols

    def as_dict(self) -> dict:
        out = {
            "inner_products": self.inner_products,
            "matvecs": self.matvecs,
            "precond_applications": self.precond_applications,
            "precond_steps": self.precond_steps,
            "axpys": self.axpys,
        }
        out.update(self.extra)
        return out
