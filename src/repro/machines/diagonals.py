"""Matrix storage and multiplication by diagonals (Madsen–Rodrique–Karush).

On the CYBER, a sparse matrix-vector product vectorizes when the matrix is
stored by its nonzero *diagonals*: each diagonal contributes one long
multiply-add over contiguous storage (equation 3.2 of the paper shows the
diagonal structure of the six-color plate system).  Under the multicolor
numbering with constrained nodes included, every block of (3.1) has only a
handful of diagonals — the diagonal blocks exactly one, the same-node
blocks one, and each cross-color block at most three (one per neighbor of
that color in the Figure-2 stencil).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.util import require

__all__ = ["DiagonalStorage"]


@dataclass(frozen=True)
class DiagonalStorage:
    """A (possibly rectangular) block stored by its nonzero diagonals.

    Diagonal ``k`` holds entries ``block[i, i + k]``; entry ``j`` of
    ``data[k]`` is ``block[rows_of_k[j], rows_of_k[j] + k]`` where the row
    range is the valid span ``max(0, −k) … min(nrows, ncols − k)``.
    """

    shape: tuple[int, int]
    offsets: tuple[int, ...]
    data: tuple[np.ndarray, ...]

    @classmethod
    def from_block(cls, block: sp.spmatrix, prune: bool = True) -> "DiagonalStorage":
        """Extract all structurally nonzero diagonals of ``block``.

        ``prune`` drops diagonals that are numerically zero everywhere
        (which arise from exact cancellations in the assembled stiffness).
        """
        coo = block.tocoo()
        nrows, ncols = coo.shape
        if coo.nnz == 0:
            return cls(shape=(nrows, ncols), offsets=(), data=())
        diag_offsets = np.unique(coo.col - coo.row)
        offsets = []
        arrays = []
        for k in diag_offsets:
            start = max(0, -int(k))
            stop = min(nrows, ncols - int(k))
            if stop <= start:
                continue
            seg = np.zeros(stop - start)
            mask = (coo.col - coo.row) == k
            seg[coo.row[mask] - start] = coo.data[mask]
            if prune and not np.any(seg):
                continue
            offsets.append(int(k))
            arrays.append(seg)
        return cls(shape=(nrows, ncols), offsets=tuple(offsets), data=tuple(arrays))

    @property
    def n_diagonals(self) -> int:
        return len(self.offsets)

    @cached_property
    def terms(self) -> tuple[tuple[int, int, int, np.ndarray], ...]:
        """``(offset, start, stop, values)`` per diagonal, ``start … stop``
        its valid row range: resolved once, for the products and charge
        streams that walk every diagonal per call."""
        nrows, ncols = self.shape
        return tuple(
            (k, max(0, -k), min(nrows, ncols - k), seg)
            for k, seg in zip(self.offsets, self.data)
        )

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y (+)= block @ x`` one diagonal at a time.

        Each diagonal is a single elementwise multiply-add over contiguous
        slices — the CYBER-friendly access pattern.  Accumulates into
        ``out`` when given.  ``x`` may be an ``(n,)`` vector or an
        ``(n, k)`` block; block columns see the identical elementwise
        multiply-adds a vector would, so they are bit-identical to ``k``
        single applications.
        """
        require(x.shape[0] == self.shape[1], "input length mismatch")
        if out is None:
            shape = (self.shape[0],) if x.ndim == 1 else (self.shape[0], x.shape[1])
            y = np.zeros(shape)
        else:
            y = out
        require(y.shape[0] == self.shape[0], "output length mismatch")
        for k, start, stop, seg in self.terms:
            if x.ndim == 2:
                seg = seg[:, None]
            y[start:stop] += seg * x[start + k : stop + k]
        return y

    def to_csr(self) -> sp.csr_matrix:
        """Reconstruct the block (round-trip testing)."""
        rows = []
        cols = []
        vals = []
        for k, start, stop, seg in self.terms:
            r = np.arange(start, stop)
            rows.append(r)
            cols.append(r + k)
            vals.append(seg)
        if not rows:
            return sp.csr_matrix(self.shape)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.shape,
        )

    def max_vector_length(self) -> int:
        """Longest diagonal (the vector length its multiply streams)."""
        if not self.data:
            return 0
        return max(seg.shape[0] for seg in self.data)
