"""Matrix-free stencil operator: fused ``K·x`` and multicolor SSOR sweeps.

The paper's two inner kernels — the operator product ``K·x`` and the
multicolor SSOR color-block sweep — need no assembled matrix on a regular
mesh: every row of ``K`` couples a node to a fixed set of grid neighbors,
so the whole operator is a handful of *diagonals* ``K[i, i+o]`` indexed by
a constant offset ``o``.  :class:`StencilOperator` stores exactly those
diagonals (a few ``(n,)`` vectors instead of CSR data/indices/indptr) and

* applies ``K·x`` as trimmed shifted-slice multiply-adds, accumulated in
  ascending-offset order — which *is* ascending-column order per row, the
  same association scipy's compiled ``csr_matvec`` uses, so the product is
  bitwise identical to the assembled natural-ordering matvec;
* builds one flat sweep plan (:class:`SweepPlan`: each color's rows,
  diagonal and coupling coefficients) that :class:`StencilSSOR` runs
  Algorithm 2's Conrad–Wallach merged double sweep on, directly in
  natural ordering — no permutation, no ``ColorBlockTriangularSolver``
  factors, no CSR.  The compiled walker and its numpy twin
  (:mod:`repro.kernels.sweep`) take the same plan.

Both paths handle ``(n,)`` vectors and ``(n, k)`` blocks; the block forms
are per-column bitwise identical to the single-vector forms (same
accumulation order), so :func:`repro.core.pcg.block_pcg` batches through
them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.kernels._native import load_native
from repro.kernels.sweep import apply_sweep
from repro.kernels.workspace import WorkspacePool
from repro.util import OperationCounter, require

__all__ = ["StencilOperator", "StencilSSOR"]


@dataclass(frozen=True)
class SweepPlan:
    """The multicolor sweep schedule as the flat arrays both walkers take.

    ``gp[c]:gp[c + 1]`` delimits color ``c``'s scheduled rows: ``rows``
    holds their unknown indices (ascending within each color) and
    ``diag`` their diagonal.  Each half, ``lower`` and ``upper``, is
    ``(ep, eoff, ecb, ecoef)``: color ``c``'s couplings are entries
    ``ep[c]:ep[c + 1]``, with column offsets ``eoff`` and a row-major
    ``(rows, entries)`` coefficient matrix at ``ecoef[ecb[c]:]``.  The
    entries are sorted by ``(target color, offset)`` — per row ascending
    permuted-column order, the order the rows of
    :class:`~repro.multicolor.blocked.CSRSweepPlan` accumulate in, which
    keeps the sweeps bitwise comparable.  ``couplings`` counts the
    coupled (color, color) pairs over both halves, which the operation
    counters charge.
    """

    gp: np.ndarray
    rows: np.ndarray
    diag: np.ndarray
    lower: tuple
    upper: tuple
    couplings: int

    #: The compiled walker over this plan.
    entry = "stencil_ssor"

    @property
    def arrays(self) -> tuple:
        """The C kernel's plan arguments, in order."""
        return (self.gp, self.rows, self.diag, *self.lower, *self.upper)


class StencilOperator:
    """``K`` as constant-offset diagonals over the natural ordering.

    Parameters
    ----------
    offsets:
        Strictly increasing integer diagonal offsets; must include ``0``.
    values:
        ``(len(offsets), n)`` float64 array, ``values[d][i] = K[i, i+offsets[d]]``.
        Rows whose column ``i + o`` falls outside ``[0, n)`` are zeroed on
        construction, so builders only need to mask *interior* holes (e.g.
        grid-row wraps).
    groups:
        ``(n,)`` color-group index per unknown (the multicolor ordering's
        ``group_of_unknown``); consecutive integers starting at 0.
    group_labels:
        Optional color names for display.
    copy:
        Copy ``values`` before zeroing the out-of-range rows in place
        (the default).  Builders that construct a fresh array anyway pass
        ``copy=False`` to hand over ownership — at large ``n`` the
        defensive copy would double the coefficient footprint exactly at
        construction peak, which is the metric the matrix-free path
        exists to win.
    """

    #: Block products are per-column bitwise identical to single-vector
    #: ones (see :func:`repro.kernels.ops.supports_matvec_block`).
    block_matvec_bitwise = True

    def __init__(self, offsets, values, groups, group_labels=None, copy=True):
        offsets = np.asarray(offsets, dtype=np.int64)
        values = (  # zeroed in place below, then read in place by the kernels
            np.array(values, dtype=float, order="C") if copy
            else np.ascontiguousarray(values, dtype=float)
        )
        groups = np.asarray(groups, dtype=np.int64)
        require(offsets.ndim == 1 and values.ndim == 2, "offsets (d,), values (d, n)")
        require(values.shape[0] == offsets.size, "one value row per offset")
        require(np.all(np.diff(offsets) > 0), "offsets must be strictly increasing")
        n = values.shape[1]
        require(groups.shape == (n,), "one group per unknown")
        for d, o in enumerate(offsets):
            o = int(o)
            if o < 0:
                values[d, : min(-o, n)] = 0.0
            elif o > 0:
                values[d, n - min(o, n):] = 0.0
        where = np.flatnonzero(offsets == 0)
        require(where.size == 1, "offsets must include the main diagonal (0)")
        diag = values[int(where[0])]
        require(bool(np.all(diag > 0.0)), "stencil diagonal must be positive")
        self.offsets = tuple(int(o) for o in offsets)
        self.values = values
        self.diag = diag
        self.groups = groups
        self.n_groups = int(groups.max()) + 1 if n else 0
        self.group_labels = (
            tuple(group_labels)
            if group_labels is not None
            else tuple(f"C{c}" for c in range(self.n_groups))
        )
        self.workspace = WorkspacePool()
        self._native = False  # resolved lazily: None or the kernel pack
        self._sweep_plan = None  # built lazily by sweep_plan

    # ------------------------------------------------------------- protocol
    @property
    def n(self) -> int:
        return int(self.values.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def nnz(self) -> int:
        """Structural nonzeros (for memory/size reporting)."""
        return int(np.count_nonzero(self.values))

    def memory_bytes(self) -> int:
        """Bytes held by the diagonals and (if built) the sweep plan."""
        total = self.values.nbytes + self.groups.nbytes
        if self._sweep_plan is not None:
            total += sum(a.nbytes for a in self._sweep_plan.arrays)
        return total

    # --------------------------------------------------------------- matvec
    @property
    def _native_plan(self):
        """The compiled kernel pack and this operator's bound products.

        ``(native, values, constant)``: ``values`` is the value-row
        product, which serves every product off the value rows read in
        place; ``constant`` is the faster constant-diagonal vector
        product, or ``None`` (see :meth:`_constant_recipe`).  Both are
        bound once (:meth:`~repro.kernels._native.NativeKernels
        .bind_values`).  ``None`` overall keeps the numpy shifted-slice
        path, which is always correct.
        """
        if self._native is False:
            native = load_native()
            if native is None:
                self._native = None
            else:
                offs = np.asarray(self.offsets, dtype=np.int64)
                recipe = self._constant_recipe()
                self._native = (
                    native,
                    native.bind_values(offs, self.values),
                    None if recipe is None else native.bind_constant(
                        self.n, offs, *recipe, np.empty(recipe[1].size)
                    ),
                )
        return self._native

    def _constant_recipe(self):
        """``(constants, special rows, their values)`` or ``None``.

        A regular-mesh diagonal is one constant almost everywhere — the
        exceptions are boundary tapering and grid-row wrap masks, ``O(√n)``
        of ``n`` entries.  Set when every diagonal is scalar-dominated
        that way and the special rows — boundary margins where a diagonal
        leaves the window, plus every row where a diagonal deviates from
        its constant — are a small fraction of ``n``.  The plate's
        alternating u/v couplings and ulp-scattered self-couplings never
        qualify.
        """
        n = self.n
        constants, exceptions = [], []
        for o, v in zip(self.offsets, self.values):
            s = -o if o < 0 else 0
            e = n - o if o > 0 else n
            window = v[s:e]
            uniq, counts = np.unique(window, return_counts=True)
            c = float(uniq[np.argmax(counts)]) if uniq.size else 0.0
            exc = s + np.flatnonzero(window != c)
            if exc.size > max(32, (e - s) // 8):
                return None
            constants.append(c)
            exceptions.append(exc)
        lo = -self.offsets[0] if self.offsets[0] < 0 else 0
        hi = max(n - self.offsets[-1] if self.offsets[-1] > 0 else n, lo)
        margins = [np.arange(0, lo), np.arange(hi, n)]
        srows = np.unique(np.concatenate(margins + exceptions))
        if srows.size > max(64, n // 4):
            return None
        return (
            np.array(constants, dtype=np.float64),
            np.ascontiguousarray(srows, dtype=np.int64),
            np.ascontiguousarray(self.values[:, srows]),
        )

    def _apply_native(self, x: np.ndarray, out: np.ndarray, zero: bool):
        """The compiled product, when the kernel loaded and layout allows.

        Vectors take the constant kernel where the stencil has one;
        everything else C-contiguous takes the value-row kernel (a vector
        is its one-column block); column-major blocks go column by column.
        """
        plan = self._native_plan
        if (
            plan is None
            or x.dtype != np.float64
            or out.dtype != np.float64
            or not out.flags.writeable
            or x.ndim not in (1, 2)
            or x.shape[0] != self.n
            or out.shape != x.shape
        ):
            return None
        native, values, constant = plan
        if x.flags.c_contiguous and out.flags.c_contiguous:
            px, pout, acc = native.pointer(x), native.pointer(out), int(not zero)
            if x.ndim == 1 and constant is not None:
                constant(px, pout, acc)
            else:
                values(1 if x.ndim == 1 else x.shape[1], px, pout, acc)
            return out
        if x.ndim == 2 and x.flags.f_contiguous and out.flags.f_contiguous:
            # Column-major block: each column is a contiguous vector.
            for j in range(x.shape[1]):
                self._apply_native(x[:, j], out[:, j], zero)
            return out
        return None

    #: Row-chunk size (in elements, chunk_rows × width) of the numpy
    #: fallback: the out chunk, the temporary and the x windows all stay
    #: cache-resident across the diagonals, so DRAM sees x and out once.
    _CHUNK_ELEMS = 16384

    def _apply(self, x: np.ndarray, out: np.ndarray, zero: bool) -> np.ndarray:
        done = self._apply_native(x, out, zero)
        if done is not None:
            return done
        n = self.n
        one_d = x.ndim == 1
        width = 1 if one_d else int(x.shape[1])
        rows = max(1, min(n, self._CHUNK_ELEMS // max(width, 1)))
        tmp = self.workspace.get("mv_tmp", (rows,) + x.shape[1:])
        for cs in range(0, n, rows):
            ce = min(cs + rows, n)
            if zero:
                out[cs:ce] = 0.0
            for o, v in zip(self.offsets, self.values):
                ls, le = max(cs, -o), min(ce, n - o)
                if ls >= le:
                    continue
                t = tmp[: le - ls]
                np.multiply(
                    v[ls:le] if one_d else v[ls:le, None],
                    x[ls + o : le + o],
                    out=t,
                )
                out[ls:le] += t
        return out

    def matvec_accumulate(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out += K·x`` by chunked, trimmed shifted slices.

        Per output element the terms accumulate in ascending-offset order
        — ascending column order per row, the association of the
        natural-ordering ``csr_matvec`` — so the sum is bitwise identical
        to the assembled product.  Handles ``(n,)`` and ``(n, k)``; the
        temporaries come from the operator's workspace pool, so
        steady-state applications allocate nothing.
        """
        return self._apply(x, out, zero=False)

    def matvec_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out ← K·x`` (chunk-wise zero-fill + accumulate)."""
        return self._apply(x, out, zero=True)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        require(x.shape[0] == self.n, "operand length mismatch")
        out = np.zeros(x.shape)
        return self.matvec_accumulate(x, out)

    def to_csr(self) -> sp.csr_matrix:
        """Assemble the stencil (tests; defeats the point in production)."""
        rows, cols, data = [], [], []
        for o, v in zip(self.offsets, self.values):
            idx = np.flatnonzero(v)
            rows.append(idx)
            cols.append(idx + o)
            data.append(v[idx])
        return sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.shape,
        ).tocsr()

    # ----------------------------------------------------------- sweep plan
    @property
    def sweep_plan(self) -> SweepPlan:
        """The multicolor sweep schedule (:class:`SweepPlan`), built once.

        Verifies the multicolor contract on the actual coefficients: every
        off-diagonal offset of a color couples to exactly *one* other
        color (constant target group over its nonzero rows) and never to
        its own — the property that makes the color-block sweeps
        triangular without factorization.
        """
        if self._sweep_plan is None:
            nc = self.n_groups
            rows = np.argsort(self.groups, kind="stable").astype(np.int64, copy=False)
            gp = np.zeros(nc + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.groups, minlength=nc), out=gp[1:])
            lower, upper = [], []  # per color: sorted (target, offset, d)
            for c in range(nc):
                rc = rows[gp[c] : gp[c + 1]]
                lower.append([])
                upper.append([])
                for d, o in enumerate(self.offsets):
                    if o == 0:
                        continue
                    nz = self.values[d, rc] != 0.0
                    if not nz.any():
                        continue
                    # Out-of-range columns carry zeros (see __init__), so
                    # every nonzero coupling's column is in range.
                    targets = self.groups[rc[nz] + o]
                    target = int(targets[0])
                    require(
                        bool(np.all(targets == target)),
                        f"offset {o} of color {c} crosses color groups; "
                        "not a multicolor stencil",
                    )
                    require(
                        target != c,
                        f"offset {o} couples color {c} to itself; "
                        "not a multicolor stencil",
                    )
                    (lower if target < c else upper)[c].append((target, o, d))
                lower[c].sort()
                upper[c].sort()

            def half(entries):
                ep = np.zeros(nc + 1, dtype=np.int64)
                np.cumsum([len(es) for es in entries], out=ep[1:])
                eoff = np.array([o for es in entries for _, o, _ in es], dtype=np.int64)
                sizes = np.diff(gp) * np.diff(ep)
                ecb = np.zeros(nc, dtype=np.int64)
                np.cumsum(sizes[:-1], out=ecb[1:])
                ecoef = np.empty(int(sizes.sum()))
                for c, es in enumerate(entries):
                    rc = rows[gp[c] : gp[c + 1]]
                    cm = ecoef[ecb[c] : ecb[c] + sizes[c]].reshape(rc.size, len(es))
                    for e, (_, _, d) in enumerate(es):
                        cm[:, e] = self.values[d, rc]
                return ep, eoff, ecb, ecoef

            self._sweep_plan = SweepPlan(
                gp=gp,
                rows=rows,
                diag=np.ascontiguousarray(self.diag[rows]),
                lower=half(lower),
                upper=half(upper),
                couplings=sum(
                    len({t for t, _, _ in es}) for es in lower + upper
                ),
            )
        return self._sweep_plan


@dataclass
class StencilSSOR:
    """m-step multicolor SSOR applied straight off the stencil.

    The natural-ordering twin of :class:`repro.multicolor.sor.MStepSSOR`:
    the same Horner recurrence over the same Conrad–Wallach merged double
    sweep (Algorithm 2), with the per-color block products realized as
    gather-multiply-accumulates over the operator's
    :attr:`~StencilOperator.sweep_plan` instead of permuted CSR rows.
    Per color and offset the gathered terms accumulate in the same
    ascending permuted-column order as the CSR rows, so on
    a stencil whose coefficients bitwise match the assembled matrix the
    application is bitwise identical to ``unpermute ∘ MStepSSOR.apply ∘
    permute``.  Counters charge identically (per column for blocks).
    """

    operator: StencilOperator
    coefficients: np.ndarray
    counter: OperationCounter = field(default_factory=OperationCounter)
    #: ``None`` (the default) shares the operator's pool: every sweep
    #: bound to one operator reuses the same ~n-sized gather/solve
    #: buffers, so a session's interval probe and its cell applicators
    #: pay for them once.  Sweeps never nest and these buffers live for
    #: one apply, so sharing is safe; pass a private pool only for
    #: concurrent applies against one operator.
    workspace: WorkspacePool | None = field(default=None, repr=False)

    #: ``(n, k)`` blocks are per-column bitwise identical to vectors.
    block_capable = True

    def __post_init__(self) -> None:
        # Contiguous: the compiled walker reads the α's through a pointer.
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=float)
        require(self.coefficients.ndim == 1, "coefficients must be a vector")
        require(self.coefficients.size >= 1, "need at least one step (m ≥ 1)")
        if self.workspace is None:
            self.workspace = self.operator.workspace

    @property
    def m(self) -> int:
        return int(self.coefficients.size)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` in natural ordering; ``(n,)`` or ``(n, k)``.

        Runs the fused native sweep when the compiled kernel is
        available, else its numpy twin (:func:`repro.kernels.sweep
        .sweep_numpy`) — the two walk the same
        :attr:`StencilOperator.sweep_plan` and are bitwise identical
        (same per-row accumulation order and subtraction association;
        ``-ffp-contract=off`` keeps the C chain unfused).  The returned
        array is a pooled buffer, valid until the next ``apply`` of any
        sweep sharing this pool (by default every sweep bound to the same
        operator) — copy it if it must outlive that.
        """
        op = self.operator
        native = op._native_plan
        return apply_sweep(
            self, op.sweep_plan, None if native is None else native[0],
            self.coefficients, r,
        )
