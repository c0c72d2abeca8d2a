"""The blocked color system (3.1).

After multicolor reordering the matrix takes the form

```
    [ D₁  B₁₂ B₁₃ … ]
K = [ B₁₂ᵀ D₂  B₂₃ … ]        D_c diagonal matrices,
    [ …            ]          B_cj sparse blocks (≤ a few diagonals each)
```

:class:`BlockedMatrix` stores the diagonal of every ``D_c`` as a vector and
every nonempty off-diagonal block as CSR, which is the storage Algorithms 2
and 3 operate on.  For the plate's six groups, the same-node coupling blocks
``B₁₂, B₃₄, B₅₆`` are themselves diagonal matrices — validated here because
the paper's CYBER implementation depends on it (multiplication by diagonals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.multicolor.coloring import validate_groups
from repro.multicolor.ordering import MulticolorOrdering
from repro.util import is_diagonal, require

__all__ = ["BlockedMatrix", "CSRSweepPlan"]


@dataclass(frozen=True)
class CSRSweepPlan:
    """The merged multicolor sweep's schedule over the permuted CSR rows.

    ``gp[c]:gp[c + 1]`` is color ``c``'s row range and ``diag`` holds the
    ``D_c`` diagonals, concatenated.  Each half, ``lower`` and ``upper``,
    is ``(ptr, col, val)`` over all ``n`` rows (32-bit ``ptr``/``col``,
    as scipy's own indices): row ``i``'s stored entries
    left of its color's columns, or right of them, with absolute column
    indices, in the permuted matrix's stored order.  The compiled walker
    accumulates them in that order, as scipy's ``csr_matvec``/
    ``csr_matvecs`` do when the numpy twin
    (:func:`repro.kernels.sweep.sweep_numpy`) runs them straight off a
    half.  ``couplings`` counts the nonzero off-diagonal blocks, which
    the operation counters charge.
    """

    gp: np.ndarray
    diag: np.ndarray
    lower: tuple
    upper: tuple
    couplings: int

    #: The compiled walker over this plan.
    entry = "csr_ssor"

    @classmethod
    def from_blocked(cls, blocked: "BlockedMatrix") -> "CSRSweepPlan":
        a = blocked.permuted
        nnz = int(a.indptr[-1])
        require(nnz < 2**31, "the compiled sweep indexes entries with 32 bits")
        sizes = [s.stop - s.start for s in blocked.group_slices]
        gp = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=gp[1:])
        # Per color, its rows' entries are one contiguous span: an entry is
        # lower when its column precedes the color, upper when it follows.
        lower, upper = np.empty(nnz, dtype=bool), np.empty(nnz, dtype=bool)
        for c in range(len(sizes)):
            span = slice(a.indptr[gp[c]], a.indptr[gp[c + 1]])
            np.less(a.indices[span], gp[c], out=lower[span])
            np.greater_equal(a.indices[span], gp[c + 1], out=upper[span])

        def half(keep: np.ndarray) -> tuple:
            kept = np.zeros(nnz + 1, dtype=np.int32)
            np.cumsum(keep, dtype=np.int32, out=kept[1:])
            return (
                kept[a.indptr],  # row pointers: kept entries before each row
                np.ascontiguousarray(a.indices[:nnz][keep], dtype=np.int32),
                np.ascontiguousarray(a.data[:nnz][keep], dtype=np.float64),
            )

        return cls(
            gp=gp,
            diag=np.concatenate(blocked.diagonals).astype(np.float64),
            lower=half(lower),
            upper=half(upper),
            couplings=blocked.n_offdiagonal_blocks,
        )

    @property
    def arrays(self) -> tuple:
        """The C kernel's plan arguments, in order."""
        return (self.gp, self.diag, *self.lower, *self.upper)


@dataclass(frozen=True)
class BlockedMatrix:
    """Multicolor block view of an SPD matrix.

    Attributes
    ----------
    ordering:
        The multicolor ordering used to build the blocks.
    permuted:
        The full reordered matrix ``P K Pᵀ`` (kept for whole-matrix products
        such as ``K p`` in the outer CG iteration).
    diagonals:
        ``diagonals[c]`` is the (strictly positive) diagonal of ``D_c``.
    blocks:
        ``blocks[c][j]`` is block ``(c, j)`` in CSR form for ``c ≠ j``;
        structurally empty blocks are omitted.
    """

    ordering: MulticolorOrdering
    permuted: sp.csr_matrix
    diagonals: tuple[np.ndarray, ...]
    blocks: dict[int, dict[int, sp.csr_matrix]]

    @classmethod
    def from_matrix(
        cls,
        k: sp.spmatrix,
        ordering: MulticolorOrdering,
        validate: bool = True,
    ) -> "BlockedMatrix":
        """Build the block view; raises if the group map is not a coloring."""
        if validate:
            validate_groups(k, ordering.groups)
        permuted = ordering.permute_matrix(k)
        slices = ordering.group_slices
        nc = ordering.n_groups

        diagonals = []
        blocks: dict[int, dict[int, sp.csr_matrix]] = {}
        for c in range(nc):
            rows = permuted[slices[c]]
            dc = rows[:, slices[c]].diagonal().copy()
            require(bool(np.all(dc > 0)), f"group {c} has a non-positive diagonal")
            diagonals.append(dc)
            row_blocks: dict[int, sp.csr_matrix] = {}
            for j in range(nc):
                if j == c:
                    continue
                block = rows[:, slices[j]].tocsr()
                if block.nnz:
                    row_blocks[j] = block
            blocks[c] = row_blocks
        return cls(
            ordering=ordering,
            permuted=permuted,
            diagonals=tuple(diagonals),
            blocks=blocks,
        )

    # ----------------------------------------------------------------- sizes
    @property
    def n(self) -> int:
        return self.permuted.shape[0]

    @property
    def n_groups(self) -> int:
        return self.ordering.n_groups

    @property
    def group_slices(self) -> tuple[slice, ...]:
        return self.ordering.group_slices

    @cached_property
    def n_offdiagonal_blocks(self) -> int:
        """Number of structurally nonzero off-diagonal blocks."""
        return sum(len(row) for row in self.blocks.values())

    # ---------------------------------------------------- cached sweep tables
    # The SOR/SSOR sweeps walk fixed subsets of each block row thousands of
    # times per solve; these tables are computed once so the inner loops do
    # no dict lookups or per-sweep counting.

    @cached_property
    def lower_block_list(self) -> tuple[tuple[tuple[int, sp.csr_matrix], ...], ...]:
        """``lower_block_list[c]`` = the ``(j, B_cj)`` pairs with ``j < c``."""
        return tuple(
            tuple((j, self.blocks[c][j]) for j in range(c) if j in self.blocks[c])
            for c in range(self.n_groups)
        )

    @cached_property
    def upper_block_list(self) -> tuple[tuple[tuple[int, sp.csr_matrix], ...], ...]:
        """``upper_block_list[c]`` = the ``(j, B_cj)`` pairs with ``j > c``."""
        return tuple(
            tuple(
                (j, self.blocks[c][j])
                for j in range(c + 1, self.n_groups)
                if j in self.blocks[c]
            )
            for c in range(self.n_groups)
        )

    @cached_property
    def sweep_plan(self) -> CSRSweepPlan:
        """The merged sweep's plan (:class:`CSRSweepPlan`), built once
        from :attr:`permuted` and shared by every
        :class:`~repro.multicolor.sor.MStepSSOR` on this system."""
        return CSRSweepPlan.from_blocked(self)

    @cached_property
    def offdiag_block_list(self) -> tuple[tuple[tuple[int, sp.csr_matrix], ...], ...]:
        """``offdiag_block_list[c]`` = all ``(j, B_cj)`` pairs, ``j ≠ c``."""
        return tuple(
            self.lower_block_list[c] + self.upper_block_list[c]
            for c in range(self.n_groups)
        )

    # ------------------------------------------------------------- operations
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``K x`` in multicolor ordering (uses the full reordered CSR)."""
        return self.permuted @ x

    def matvec_blockwise(self, x: np.ndarray) -> np.ndarray:
        """``K x`` accumulated block by block (used to cross-check blocks)."""
        out = np.empty_like(x, dtype=float)
        slices = self.group_slices
        for c in range(self.n_groups):
            acc = self.diagonals[c] * x[slices[c]]
            for j, block in self.blocks[c].items():
                acc += block @ x[slices[j]]
            out[slices[c]] = acc
        return out

    def block_row_sum(
        self, c: int, x_groups: list[np.ndarray], js: range | list[int]
    ) -> np.ndarray:
        """``Σ_{j∈js} B_cj x_j`` — the sweep accumulation primitive."""
        acc = np.zeros(self.diagonals[c].shape[0])
        row = self.blocks[c]
        for j in js:
            block = row.get(j)
            if block is not None:
                acc += block @ x_groups[j]
        return acc

    # ------------------------------------------------------------- validation
    def same_node_blocks_diagonal(self, n_components: int = 2) -> bool:
        """Whether blocks coupling components of the same color are diagonal.

        For the plate's group order (Ru, Rv, Bu, Bv, Gu, Gv) these are
        ``B₁₂, B₃₄, B₅₆`` in the paper's 1-based numbering.
        """
        for base in range(0, self.n_groups - n_components + 1, n_components):
            for i in range(n_components):
                for j in range(i + 1, n_components):
                    block = self.blocks[base + i].get(base + j)
                    if block is not None and not is_diagonal(block):
                        return False
        return True

    def symmetry_residual(self) -> float:
        """``max |B_cj − B_jcᵀ|`` over all stored blocks (0 for symmetric K)."""
        worst = 0.0
        for c, row in self.blocks.items():
            for j, block in row.items():
                other = self.blocks[j].get(c)
                if other is None:
                    worst = max(worst, float(np.max(np.abs(block.data))) if block.nnz else 0.0)
                    continue
                diff = (block - other.T).tocoo()
                if diff.nnz:
                    worst = max(worst, float(np.max(np.abs(diff.data))))
        return worst
