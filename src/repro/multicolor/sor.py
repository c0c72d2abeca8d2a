"""Multicolor SOR sweeps and the m-step SSOR application (Algorithm 2).

The SSOR iteration under a multicolor ordering is a forward followed by a
backward multicolor SOR sweep.  The Conrad–Wallach (1979) technique stores
the partial neighbor sums computed in each half sweep in an auxiliary vector
``y`` so the double sweep costs only one sweep's worth of off-diagonal block
multiplies — ``nc·(nc−1)`` of them per preconditioner step, exactly as the
paper claims ("only as expensive as one Multicolor SOR iteration").

:class:`MStepSSOR` applies

```
M_m⁻¹ r = (α₀ I + α₁ G + … + α_{m−1} G^{m−1}) P⁻¹ r        (2.6)
```

for the SSOR splitting (ω = 1) via the Horner recurrence
``r̃ ← G r̃ + P⁻¹ (α_{m−s} r)``, ``s = 1…m``, each step realized as the
Conrad–Wallach double sweep with right-hand side ``α_{m−s}·r``.  The
published loop bounds are OCR-damaged in the scan; the version here is the
mathematically forced one (see DESIGN.md §6.1):

* backward sweeps run over the interior colors ``nc−2 … 1`` — the last
  color's backward solve has identical inputs to its forward solve, and the
  first color's backward solve would be overwritten unread by the next
  forward sweep;
* after each backward sweep the first color's *upper* neighbor sum is
  computed and saved (it feeds the next forward sweep's first solve), and
  the last color's saved sum is reset to the empty upper sum;
* after the final step the first color receives its closing solve with
  coefficient α₀ — the paper's explicit step (3)
  ``D₁ r̃₁ = −Σ_{j≥2} B₁ⱼ r̃ⱼ + y + α₀ r₁``.

``apply_reference`` implements the same operator transparently (full
forward + backward sweeps per step) and the test-suite proves the two paths
agree to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels._native import load_native
from repro.kernels.ops import bind_matvec_accumulate, matvec_accumulate
from repro.kernels.workspace import WorkspacePool
from repro.multicolor.blocked import BlockedMatrix
from repro.util import OperationCounter, inf_norm, require

__all__ = [
    "sor_forward_sweep",
    "sor_backward_sweep",
    "ssor_iteration",
    "multicolor_sor_solve",
    "MStepSSOR",
]


def _group_views(blocked: BlockedMatrix, x: np.ndarray) -> list[np.ndarray]:
    return [x[s] for s in blocked.group_slices]


def _block_sum(
    pairs, x_groups: list[np.ndarray], n: int, negate: bool = False
) -> np.ndarray:
    """``±Σ B_cj x_j`` over a cached ``(j, block)`` list (length-``n`` rows).

    The shared accumulation primitive of every sweep; seeding the
    accumulator with the first product (instead of zeros) saves one
    vector pass per call in the hot loops.
    """
    if not pairs:
        return np.zeros(n)
    j0, b0 = pairs[0]
    acc = b0 @ x_groups[j0]
    for j, block in pairs[1:]:
        acc += block @ x_groups[j]
    if negate:
        np.negative(acc, out=acc)
    return acc


def sor_forward_sweep(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One forward multicolor SOR sweep, updating ``x`` in place.

    For each color ``c`` in increasing order:
    ``x_c ← (1−ω)·x_c + ω·D_c⁻¹(b_c − Σ_{j≠c} B_cj x_j)`` with the lower
    colors already holding their new values.
    """
    xg = _group_views(blocked, x)
    bg = _group_views(blocked, b)
    nc = blocked.n_groups
    offdiag = blocked.offdiag_block_list
    for c in range(nc):
        acc = _block_sum(offdiag[c], xg, blocked.diagonals[c].shape[0])
        update = (bg[c] - acc) / blocked.diagonals[c]
        if omega == 1.0:
            xg[c][:] = update
        else:
            xg[c][:] = (1.0 - omega) * xg[c] + omega * update
        if counter is not None:
            counter.extra["block_multiplies"] = (
                counter.extra.get("block_multiplies", 0) + len(blocked.blocks[c])
            )
            counter.extra["diag_solves"] = counter.extra.get("diag_solves", 0) + 1


def sor_backward_sweep(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One backward multicolor SOR sweep (colors in decreasing order)."""
    xg = _group_views(blocked, x)
    bg = _group_views(blocked, b)
    nc = blocked.n_groups
    offdiag = blocked.offdiag_block_list
    for c in reversed(range(nc)):
        acc = _block_sum(offdiag[c], xg, blocked.diagonals[c].shape[0])
        update = (bg[c] - acc) / blocked.diagonals[c]
        if omega == 1.0:
            xg[c][:] = update
        else:
            xg[c][:] = (1.0 - omega) * xg[c] + omega * update
        if counter is not None:
            counter.extra["block_multiplies"] = (
                counter.extra.get("block_multiplies", 0) + len(blocked.blocks[c])
            )
            counter.extra["diag_solves"] = counter.extra.get("diag_solves", 0) + 1


def ssor_iteration(
    blocked: BlockedMatrix,
    x: np.ndarray,
    b: np.ndarray,
    omega: float = 1.0,
    counter: OperationCounter | None = None,
) -> None:
    """One (naive) SSOR iteration: forward then backward sweep, in place.

    This is the transparent double sweep — 2·nc·(nc−1) block multiplies —
    used as the reference against which the Conrad–Wallach path is verified.
    """
    sor_forward_sweep(blocked, x, b, omega, counter)
    sor_backward_sweep(blocked, x, b, omega, counter)


def multicolor_sor_solve(
    blocked: BlockedMatrix,
    b: np.ndarray,
    omega: float = 1.0,
    tol: float = 1e-10,
    maxiter: int = 10_000,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Solve ``K x = b`` by multicolor SOR (Adams–Ortega 1982).

    Returns ``(x, iterations, converged)``; convergence is declared when the
    sweep changes no component by more than ``tol`` in absolute value.  SOR
    converges for SPD matrices whenever ``0 < ω < 2``.
    """
    require(0.0 < omega < 2.0, "SOR requires 0 < ω < 2 for SPD convergence")
    x = np.zeros_like(b, dtype=float) if x0 is None else np.array(x0, dtype=float)
    for iteration in range(1, maxiter + 1):
        previous = x.copy()
        sor_forward_sweep(blocked, x, b, omega)
        if inf_norm(x - previous) < tol:
            return x, iteration, True
    return x, maxiter, False


@dataclass
class MStepSSOR:
    """m-step (optionally parametrized) multicolor SSOR application.

    Parameters
    ----------
    blocked:
        The blocked color system.
    coefficients:
        ``(α₀, …, α_{m−1})`` of (2.6).  All ones reproduces the
        unparametrized m-step preconditioner (2.2).
    """

    blocked: BlockedMatrix
    coefficients: np.ndarray
    counter: OperationCounter = field(default_factory=OperationCounter)
    workspace: WorkspacePool = field(default_factory=WorkspacePool, repr=False)

    #: ``(n, k)`` block applications are per-column bitwise identical to
    #: single-vector ones (see :func:`repro.core.pcg.block_pcg`).
    block_capable = True

    def __post_init__(self) -> None:
        # Contiguous: the compiled walker reads the α's through a pointer.
        self.coefficients = np.ascontiguousarray(self.coefficients, dtype=float)
        require(self.coefficients.ndim == 1, "coefficients must be a vector")
        require(self.coefficients.size >= 1, "need at least one step (m ≥ 1)")

    @property
    def m(self) -> int:
        return int(self.coefficients.size)

    # ------------------------------------------------------- fast application
    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` via the Conrad–Wallach merged sweeps (Algorithm 2).

        Accepts a vector ``(n,)`` or an ``(n, k)`` block of right-hand
        sides (one batched pass, per-column bit-identical to single
        applications); counters are charged **per column**, so a block
        application books exactly what ``k`` solo applications would.
        One compiled call runs the whole schedule off the system's
        :attr:`~repro.multicolor.blocked.BlockedMatrix.sweep_plan` when
        the kernel pack loads; otherwise the merged block rows run in
        Python (:meth:`_sweep_numpy`), with the same bits.  Either way the
        buffers are pooled, so a PCG solve's steady state allocates
        nothing here.  The returned array is a pooled buffer, valid until
        the next application on this object — copy it if it must outlive
        that.
        """
        return self.apply_schedule(self.coefficients, r)

    def apply_schedule(self, coefficients: np.ndarray, r: np.ndarray) -> np.ndarray:
        """:meth:`apply` with a per-call α schedule instead of the bound one.

        ``coefficients`` is ``(m,)`` — one schedule for every right-hand
        side — or ``(m, k)`` for an ``(n, k)`` block ``r`` whose columns
        carry *different* schedules of the same length (the batched
        Table-2 cells of :meth:`repro.machines.cyber.CyberMachine
        .solve_schedule`).  The α's enter only through the per-step
        ``α·r`` product, column by column, so each column's arithmetic is
        bit-identical to a single-vector application with its own
        schedule.
        """
        alphas = np.ascontiguousarray(coefficients, dtype=float)
        r = np.asarray(r, dtype=float)
        blocked = self.blocked
        # The compiled walker indexes r, rt and the α's unchecked.
        require(
            r.ndim in (1, 2) and r.shape[0] == blocked.n,
            "r must be (n,) or (n, k)",
        )
        require(
            alphas.ndim in (1, 2) and alphas.shape[0] >= 1,
            "coefficients must be (m,) or (m, k) with m ≥ 1",
        )
        if alphas.ndim == 2:
            require(
                r.ndim == 2 and r.shape[1] == alphas.shape[1],
                "per-column coefficients need an (n, k) block with "
                "matching column count",
            )
        rt_pooled = self.workspace.peek("rt")
        if rt_pooled is not None and np.may_share_memory(r, rt_pooled):
            # The caller fed us our own pooled result; overwriting it below
            # would silently destroy the input.
            r = r.copy()
        native = load_native()
        if native is None:
            rt = self._sweep_numpy(alphas, r)
        else:
            rt = self._sweep_native(native, alphas, np.ascontiguousarray(r))
        m = int(alphas.shape[0])
        ncols = 1 if r.ndim == 1 else int(r.shape[1])
        self.counter.charge_sweep(
            m, ncols, blocked.n_groups, blocked.n_offdiagonal_blocks
        )
        return rt

    def _sweep_native(self, native, alphas: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One compiled call (``csr_ssor``) for the whole m-step schedule.

        The result ``rt`` and the scratch ``y`` (each row's last lower or
        upper sum) are pooled and memoized per input shape with their
        data pointers; no zero-fill is needed, since every entry the walker
        reads was written earlier in the same call.
        """
        cache = self.__dict__.get("_native_buffers")
        if cache is None or cache[0] != r.shape:
            rt = self.workspace.get("rt", r.shape)
            y = self.workspace.get("sweep_y", r.shape)
            cache = (r.shape, rt, native.pointer(rt), native.pointer(y))
            self.__dict__["_native_buffers"] = cache
        _, rt, prt, py = cache
        k = 1 if r.ndim == 1 else int(r.shape[1])
        ka = 1 if alphas.ndim == 1 else k
        ptr = native.pointer
        native.bind_sweep(self.blocked.sweep_plan)(
            k, int(alphas.shape[0]), ka, ptr(alphas), ptr(r), prt, py
        )
        return rt

    def _bound_sweep_ops(self):
        """Per-color products over the *merged* block rows, for
        :meth:`_sweep_numpy`.

        ``(lower_ops, upper_ops)``: ``lower_ops[c]`` is an
        ``accumulate(x, out)`` closure for the whole lower block row
        (``None`` when empty), acting on the contiguous color prefix — one
        compiled scipy call per color per sweep instead of one per block,
        bit-identical by construction (see
        :attr:`~repro.multicolor.blocked.BlockedMatrix.lower_merged`).
        The guards are bound once
        (:func:`~repro.kernels.ops.bind_matvec_accumulate`).  Built
        lazily, cached for the applicator's lifetime.
        """
        cached = self.__dict__.get("_sweep_kernels")
        if cached is None:
            def bind(merged):
                return tuple(
                    None
                    if block is None
                    else (
                        bind_matvec_accumulate(block)
                        or (lambda x, out, b=block: matvec_accumulate(b, x, out))
                    )
                    for block in merged
                )

            cached = (
                bind(self.blocked.lower_merged),
                bind(self.blocked.upper_merged),
            )
            self.__dict__["_sweep_kernels"] = cached
        return cached

    def _sweep_numpy(self, alphas: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The compiled walker's twin: the merged sweep in Python.

        Per color, one scipy product of the merged block row on the
        contiguous color prefix or suffix, and the solve
        ``((α·r − y) − x) / D_c``.  It runs where the kernel pack does not
        load (``REPRO_NO_NATIVE``, no compiler), bitwise the same.
        """
        blocked = self.blocked
        nc = blocked.n_groups
        m = int(alphas.shape[0])
        lower_ops, upper_ops = self._bound_sweep_ops()
        slices = blocked.group_slices
        diagonals = blocked.diagonals
        pool = self.workspace

        # Buffer bundle, memoized per input shape: the result rt, the α·r
        # scratch, and the per-color y/x auxiliaries.  None needs a
        # zero-fill — every element is written before it is read (the first
        # Horner step skips the then-empty upper sums outright, and every
        # later read sees a buffer block_sum fully rewrote) — and memoizing
        # skips the per-apply pool lookups.
        cache = self.__dict__.get("_apply_buffers")
        if cache is None or cache[0] != r.shape:
            tail = r.shape[1:]
            group_shapes = [(d.shape[0],) + tail for d in diagonals]
            cache = (
                r.shape,
                pool.get("rt", r.shape),
                pool.get("ar", r.shape),
                pool.get_list("y", group_shapes),
                pool.get_list("x", group_shapes),
                diagonals if r.ndim == 1 else pool.broadcast_list("div", diagonals, tail),
            )
            self.__dict__["_apply_buffers"] = cache
        _, rt, ar, y, xs, divisors = cache
        xg = _group_views(blocked, rt)
        arg = _group_views(blocked, ar)

        def lower_sum(c: int, buf: np.ndarray) -> np.ndarray:
            # Σ_{j<c} B_cj x_j as one merged product on the color prefix.
            buf.fill(0.0)
            op = lower_ops[c]
            if op is not None:
                op(rt[: slices[c].start], buf)
            return buf

        def upper_sum(c: int, buf: np.ndarray) -> np.ndarray:
            # Σ_{j>c} B_cj x_j as one merged product on the color suffix.
            buf.fill(0.0)
            op = upper_ops[c]
            if op is not None:
                op(rt[slices[c].stop :], buf)
            return buf

        def solve_into(c: int, x: np.ndarray, yc) -> None:
            # zc ← (α·r_c − y_c − x) / D_c, reading α·r from the per-step
            # batched product.
            zc = xg[c]
            if yc is None:
                np.subtract(arg[c], x, out=zc)
            else:
                np.subtract(arg[c], yc, out=zc)
                zc -= x
            zc /= divisors[c]

        for s in range(1, m + 1):
            # One batched α_{m−s}·r for the whole step; a (k,) row of
            # per-column α's broadcasts across the block.
            np.multiply(r, alphas[m - s], out=ar)
            first = s == 1
            # Forward sweep c = 0 … nc−1; y[c] holds the upper sum from the
            # previous backward pass (none yet on the first step), x
            # accumulates the lower sum.
            for c in range(nc):
                x = lower_sum(c, xs[c])
                solve_into(c, x, None if first else y[c])
                y[c], xs[c] = xs[c], y[c]
            # Backward sweep over interior colors nc−2 … 1; y[c] holds the
            # lower sum from the forward pass.
            for c in range(nc - 2, 0, -1):
                x = upper_sum(c, xs[c])
                solve_into(c, x, y[c])
                y[c], xs[c] = xs[c], y[c]
            if nc >= 2:
                # The last color's upper sum is empty; reset for the next
                # forward.  Then the first color's upper sum with this
                # step's final values closes the step (coefficient α₀) on
                # the last step — the paper's explicit step (3) — and
                # otherwise feeds the next forward sweep's first solve.
                y[nc - 1].fill(0.0)
                x = upper_sum(0, xs[0])
                if s == m:
                    solve_into(0, x, None)
                else:
                    y[0], xs[0] = xs[0], y[0]
        return rt

    # -------------------------------------------------- reference application
    def apply_reference(self, r: np.ndarray) -> np.ndarray:
        """``M_m⁻¹ r`` via explicit Horner steps with full SSOR double sweeps.

        ``r̃ ← G r̃ + P⁻¹(α_{m−s} r)`` where one stationary step on
        ``K z = α r`` *is* the forward+backward sweep pair.  Used by tests to
        pin down :meth:`apply`; twice the block multiplies, same result.
        """
        r = np.asarray(r, dtype=float)
        rt = np.zeros_like(r)
        m = self.m
        for s in range(1, m + 1):
            ssor_iteration(self.blocked, rt, self.coefficients[m - s] * r)
        return rt

    def as_dense_operator(self) -> np.ndarray:
        """Materialize ``M_m⁻¹`` by applying it to unit vectors (tests only)."""
        n = self.blocked.n
        out = np.empty((n, n))
        eye = np.eye(n)
        for col in range(n):
            out[:, col] = self.apply(eye[:, col])
        return out
