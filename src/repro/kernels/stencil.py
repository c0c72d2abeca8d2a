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
* exposes the per-color sweep structure (gather columns + coefficients per
  ``(color, offset)`` pair) that :class:`StencilSSOR` runs Algorithm 2's
  Conrad–Wallach merged double sweep on, directly in natural ordering — no
  permutation, no ``ColorBlockTriangularSolver`` factors, no CSR.

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
from repro.kernels.workspace import WorkspacePool
from repro.util import OperationCounter, require

__all__ = ["StencilOperator", "StencilSSOR"]


@dataclass(frozen=True)
class _GroupTable:
    """Sweep structure of one color: rows, diagonal, lower/upper couplings.

    ``lower``/``upper`` hold ``(target_group, offset, cols, coeffs)``
    tuples sorted by ``(target_group, offset)`` — for each row of the
    color that is ascending permuted-column order, the order the merged
    CSR block rows of :class:`~repro.multicolor.blocked.BlockedMatrix`
    accumulate in, which keeps the sweeps bitwise comparable.  ``cols``
    are clipped into range; out-of-range positions carry a zero
    coefficient, so their gathered garbage contributes exactly ``±0.0``.
    """

    rows: np.ndarray
    diag: np.ndarray
    lower: tuple
    upper: tuple
    lower_count: int
    upper_count: int


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
        self._tables = None
        self._plan = None
        self._native = False  # resolved lazily: None or the kernel pack
        self._sweep_plan = False  # resolved lazily: None or (native, arrays)

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
        """Bytes held by the diagonals and (if built) the sweep tables."""
        total = self.values.nbytes + self.groups.nbytes
        if self._tables is not None:
            for t in self._tables:
                total += t.rows.nbytes + t.diag.nbytes
                for _, _, cols, coeffs in t.lower + t.upper:
                    total += cols.nbytes + coeffs.nbytes
        if self._sweep_plan not in (False, None):
            total += sum(a.nbytes for a in self._sweep_plan[1])
        return total

    # --------------------------------------------------------------- matvec
    @property
    def _matvec_plan(self):
        """Per-diagonal apply recipes: scalar-dominated or full-vector.

        A regular-mesh diagonal is one constant almost everywhere — the
        exceptions are boundary tapering and grid-row wrap masks, ``O(√n)``
        of ``n`` entries.  Classifying each diagonal once lets the hot
        product multiply by a *scalar* (reading only ``x``, not the
        ``(n,)`` value row) and patch the exceptions by a tiny gather —
        elementwise identical to the full ``v·x`` product, entry for
        entry, so the bitwise contract is untouched.
        """
        if self._plan is None:
            n = self.n
            plan = []
            for o, v in zip(self.offsets, self.values):
                s = -o if o < 0 else 0
                e = n - o if o > 0 else n
                window = v[s:e]
                uniq, counts = np.unique(window, return_counts=True)
                c = float(uniq[np.argmax(counts)]) if uniq.size else 0.0
                exc = s + np.flatnonzero(window != c)
                if exc.size <= max(32, (e - s) // 8):
                    plan.append((o, s, e, c, exc, v[exc].copy(), None))
                else:
                    plan.append((o, s, e, None, None, None, v))
            self._plan = tuple(plan)
        return self._plan

    @property
    def _native_plan(self):
        """The compiled kernel pack and its inputs, if the kernel loaded.

        ``(native, offsets, constant)``: every product can run compiled
        off the value rows, read in place; ``constant`` is the recipe of
        the faster constant-diagonal vector kernel, or ``None`` (see
        :meth:`_constant_recipe`).  ``None`` overall keeps the numpy
        shifted-slice path, which is always correct.
        """
        if self._native is False:
            native = load_native()
            self._native = None if native is None else (
                native,
                np.asarray(self.offsets, dtype=np.int64),
                self._constant_recipe(),
            )
        return self._native

    def _constant_recipe(self):
        """``(constants, special rows, their values)`` or ``None``.

        Set when every diagonal is scalar-dominated (the matvec plan
        chose the constant path for all of them) and the special rows —
        boundary margins where a diagonal leaves the window, plus every
        row where a diagonal deviates from its constant — are a small
        fraction of ``n``.  The plate's alternating u/v couplings and
        ulp-scattered self-couplings never qualify.
        """
        plan = self._matvec_plan
        if any(p[6] is not None for p in plan):
            return None
        n = self.n
        lo = -self.offsets[0] if self.offsets[0] < 0 else 0
        hi = max(n - self.offsets[-1] if self.offsets[-1] > 0 else n, lo)
        margins = [np.arange(0, lo), np.arange(hi, n)]
        srows = np.unique(np.concatenate(margins + [p[4] for p in plan]))
        if srows.size > max(64, n // 4):
            return None
        return (
            np.array([p[3] for p in plan], dtype=np.float64),
            np.ascontiguousarray(srows, dtype=np.int64),
            np.ascontiguousarray(self.values[:, srows]),
        )

    def _apply_native(self, x: np.ndarray, out: np.ndarray, zero: bool):
        """The compiled product, when the kernel loaded and layout allows.

        C-contiguous blocks take the value-row block kernel; vectors the
        constant kernel where the stencil has one, else the value-row
        vector kernel; column-major blocks go column by column.
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
        native, offs, constant = plan
        if x.flags.c_contiguous and out.flags.c_contiguous:
            if x.ndim == 1 and constant is not None:
                cs, srows, svals = constant
                stash = self.workspace.get("nat_stash", (srows.size,))
                native.apply_constant(
                    self.n, offs, cs, srows, svals, stash, x, out, not zero
                )
            else:
                native.apply_values(offs, self.values, x, out, not zero)
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
        plan = self._matvec_plan
        for cs in range(0, n, rows):
            ce = min(cs + rows, n)
            if zero:
                out[cs:ce] = 0.0
            for o, s, e, c, exc, exc_vals, v in plan:
                ls, le = max(cs, s), min(ce, e)
                if ls >= le:
                    continue
                t = tmp[: le - ls]
                if v is None:
                    np.multiply(x[ls + o : le + o], c, out=t)
                    if exc.size:
                        i0, i1 = np.searchsorted(exc, (ls, le))
                        if i1 > i0:
                            p = exc[i0:i1]
                            w = exc_vals[i0:i1]
                            t[p - ls] = (w if one_d else w[:, None]) * x[p + o]
                else:
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

    # --------------------------------------------------------- sweep tables
    @property
    def sweep_tables(self) -> tuple[_GroupTable, ...]:
        """Per-color gather structure for the multicolor SSOR sweeps.

        Built once, lazily.  Verifies the multicolor contract on the
        actual coefficients: every off-diagonal offset of a color couples
        to exactly *one* other color (constant target group over its
        nonzero rows) and never to its own — the property that makes the
        color-block sweeps triangular without factorization.
        """
        if self._tables is None:
            n = self.n
            idx_dtype = np.int32 if n < 2**31 else np.int64
            tables = []
            for c in range(self.n_groups):
                rows = np.flatnonzero(self.groups == c)
                lower, upper = [], []
                for o, v in zip(self.offsets, self.values):
                    if o == 0:
                        continue
                    coeffs = np.ascontiguousarray(v[rows])
                    nz = coeffs != 0.0
                    if not nz.any():
                        continue
                    cols = np.clip(rows + o, 0, n - 1)
                    targets = self.groups[cols][nz]
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
                    entry = (target, o, cols.astype(idx_dtype), coeffs)
                    (lower if target < c else upper).append(entry)
                lower.sort(key=lambda t: (t[0], t[1]))
                upper.sort(key=lambda t: (t[0], t[1]))
                tables.append(
                    _GroupTable(
                        rows=rows.astype(idx_dtype),
                        diag=np.ascontiguousarray(self.diag[rows]),
                        lower=tuple(lower),
                        upper=tuple(upper),
                        lower_count=len({t[0] for t in lower}),
                        upper_count=len({t[0] for t in upper}),
                    )
                )
            self._tables = tuple(tables)
        return self._tables

    @property
    def sweep_plan(self):
        """Flattened sweep schedule for the fused native kernel, or ``None``.

        The schedule concatenates the per-color tables into the flat
        arrays the C entry points walk: row-range pointers ``gp`` into
        the scheduled ``rows``/``diag``, and per half (lower/upper)
        entry-range pointers, column offsets, and a row-major ``(rows,
        entries)`` coefficient matrix per color (entries in the same
        ``(target, offset)`` order as the tables, so the in-kernel
        accumulation is bitwise the numpy ``block_sum``).  ``None`` when
        the compiled kernel is unavailable (``REPRO_NO_NATIVE``, no
        ``cc``) — callers then keep the chunked-numpy sweep.
        """
        if self._sweep_plan is False:
            self._sweep_plan = None
            native = load_native()
            if native is not None and self.n_groups > 0:
                tables = self.sweep_tables
                sizes = [t.rows.size for t in tables]
                gp = np.concatenate(
                    ([0], np.cumsum(sizes, dtype=np.int64))
                ).astype(np.int64)
                rows = np.concatenate([t.rows for t in tables]).astype(np.int64)
                diag = np.ascontiguousarray(
                    np.concatenate([t.diag for t in tables])
                )

                def half(side):
                    ep = np.zeros(self.n_groups + 1, dtype=np.int64)
                    bases = np.zeros(self.n_groups, dtype=np.int64)
                    offs, mats, base = [], [], 0
                    for c, t in enumerate(tables):
                        entries = getattr(t, side)
                        ep[c + 1] = ep[c] + len(entries)
                        bases[c] = base
                        offs.extend(int(e[1]) for e in entries)
                        if entries:
                            mat = np.ascontiguousarray(
                                np.stack([e[3] for e in entries], axis=1)
                            )
                        else:
                            mat = np.zeros((t.rows.size, 0))
                        mats.append(mat)
                        base += mat.size
                    coef = (
                        np.ascontiguousarray(
                            np.concatenate([m.ravel() for m in mats])
                        )
                        if base
                        else np.zeros(0)
                    )
                    return ep, np.array(offs, dtype=np.int64), bases, coef

                lp, loff, lcb, lcoef = half("lower")
                up, uoff, ucb, ucoef = half("upper")
                self._sweep_plan = (
                    native,
                    (gp, rows, diag, lp, loff, lcb, lcoef, up, uoff, ucb, ucoef),
                )
        return self._sweep_plan


@dataclass
class StencilSSOR:
    """m-step multicolor SSOR applied straight off the stencil.

    The natural-ordering twin of :class:`repro.multicolor.sor.MStepSSOR`:
    the same Horner recurrence over the same Conrad–Wallach merged double
    sweep (Algorithm 2), with the per-color block products realized as
    gather-multiply-accumulate off the stencil diagonals instead of merged
    CSR block rows.  Per color and offset the gathered terms accumulate in
    the same ascending permuted-column order as the merged CSR rows, so on
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
    #: The numpy sweep's expanded block divisors, which must outlive an
    #: apply: this sweep's own, so another sweep's apply on the shared
    #: ``workspace`` cannot overwrite them.
    _divisors: WorkspacePool = field(
        default_factory=WorkspacePool, init=False, repr=False
    )

    #: ``(n, k)`` blocks are per-column bitwise identical to vectors.
    block_capable = True

    def __post_init__(self) -> None:
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
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
        available, else the chunked-numpy sweep — the two are bitwise
        identical (same per-row accumulation order and subtraction
        association; ``-ffp-contract=off`` keeps the C chain unfused).
        The returned array is a pooled buffer, valid until the next
        ``apply`` of any sweep sharing this pool (by default every sweep
        bound to the same operator) — copy it if it must outlive that.
        """
        pool = self.workspace
        r = np.asarray(r, dtype=float)
        rt_pooled = pool.peek("rt")
        if rt_pooled is not None and np.may_share_memory(r, rt_pooled):
            r = r.copy()
        plan = self.operator.sweep_plan
        if plan is not None:
            return self._apply_native(r, plan)
        return self._apply_numpy(r)

    def _charge(self, multiplies: int, solves: int, ncols: int) -> None:
        self.counter.precond_applications += ncols
        self.counter.precond_steps += self.m * ncols
        self.counter.extra["block_multiplies"] = (
            self.counter.extra.get("block_multiplies", 0) + multiplies * ncols
        )
        self.counter.extra["diag_solves"] = (
            self.counter.extra.get("diag_solves", 0) + solves * ncols
        )

    def _apply_native(self, r: np.ndarray, plan) -> np.ndarray:
        """One fused C call for the whole m-step schedule."""
        native, arrays = plan
        op = self.operator
        tables = op.sweep_tables
        n, nc, m = op.n, op.n_groups, self.m
        pool = self.workspace
        r = np.ascontiguousarray(r)
        # Zeroed per apply: the gathers also read zero-coefficient positions
        # (clipped margins, grid-row wraps) that this apply may not have
        # solved yet, and 0·x is ±0 only for finite x — a fresh buffer's
        # garbage or an earlier apply's NaN would otherwise poison the sum.
        rt = pool.zeros("rt", r.shape)
        if r.ndim == 1:
            y = pool.get("ssor_y", (n,))
            native.ssor_vector(n, m, nc, arrays, self.coefficients, r, rt, y)
        else:
            k = int(r.shape[1])
            y = pool.get("ssor_y_b", (n, k))
            native.ssor_block(n, k, m, nc, arrays, self.coefficients, r, rt, y)
        # Identical charges to the numpy loop, in closed form.
        per_step = sum(t.lower_count for t in tables)
        per_step += sum(tables[c].upper_count for c in range(nc - 2, 0, -1))
        if nc >= 2:
            per_step += tables[0].upper_count
        solves = m * (nc + max(nc - 2, 0)) + (1 if nc >= 2 else 0)
        self._charge(m * per_step, solves, 1 if r.ndim == 1 else int(r.shape[1]))
        return rt

    def _apply_numpy(self, r: np.ndarray) -> np.ndarray:
        """Chunked-numpy sweep; the always-available bitwise twin."""
        op = self.operator
        tables = op.sweep_tables
        nc = op.n_groups
        m = self.m
        alphas = self.coefficients
        pool = self.workspace

        cache = self.__dict__.get("_apply_buffers")
        if cache is None or cache[0] != r.shape:
            tail = r.shape[1:]
            group_shapes = [(t.rows.shape[0],) + tail for t in tables]
            cache = (
                r.shape,
                pool.get("ar", r.shape),
                pool.get_list("y", group_shapes),
                pool.get_list("x", group_shapes),
                pool.get_list("z", group_shapes),
                pool.get_list("g", group_shapes),
                pool.get_list("arg", group_shapes),
                (
                    [t.diag for t in tables]
                    if r.ndim == 1
                    else self._divisors.broadcast_list(
                        "div", [t.diag for t in tables], tail
                    )
                ),
            )
            self.__dict__["_apply_buffers"] = cache
        _, ar, y, xs, zs, gs, args, divisors = cache
        rt = pool.zeros("rt", r.shape)  # zeroed: see _apply_native
        one_d = r.ndim == 1
        multiplies = 0
        solves = 0

        def block_sum(entries, buf: np.ndarray, gbuf: np.ndarray) -> np.ndarray:
            # Σ_j B_cj x_j as gather·coeff accumulations, one per coupled
            # (color, offset); per row the terms land in ascending
            # permuted-column order, matching the merged CSR block rows.
            buf.fill(0.0)
            for _, _, cols, coeffs in entries:
                np.take(rt, cols, axis=0, out=gbuf)
                gbuf *= coeffs if one_d else coeffs[:, None]
                buf += gbuf
            return buf

        def solve_into(c: int, x: np.ndarray, yc) -> None:
            # zc ← (α·r_c − y_c − x) / D_c, then scatter into rt —
            # the same subtraction order as MStepSSOR.solve_into.
            t = tables[c]
            zc = zs[c]
            np.take(ar, t.rows, axis=0, out=args[c])
            if yc is None:
                np.subtract(args[c], x, out=zc)
            else:
                np.subtract(args[c], yc, out=zc)
                zc -= x
            zc /= divisors[c]
            rt[t.rows] = zc

        for s in range(1, m + 1):
            np.multiply(r, alphas[m - s], out=ar)
            first = s == 1
            for c in range(nc):
                x = block_sum(tables[c].lower, xs[c], gs[c])
                multiplies += tables[c].lower_count
                solve_into(c, x, None if first else y[c])
                solves += 1
                y[c], xs[c] = xs[c], y[c]
            for c in range(nc - 2, 0, -1):
                x = block_sum(tables[c].upper, xs[c], gs[c])
                multiplies += tables[c].upper_count
                solve_into(c, x, y[c])
                solves += 1
                y[c], xs[c] = xs[c], y[c]
            if nc >= 2:
                y[nc - 1].fill(0.0)
            if nc >= 2:
                x = block_sum(tables[0].upper, xs[0], gs[0])
                multiplies += tables[0].upper_count
                if s == m:
                    solve_into(0, x, None)
                    solves += 1
                else:
                    y[0], xs[0] = xs[0], y[0]

        self._charge(multiplies, solves, 1 if one_d else int(r.shape[1]))
        return rt
