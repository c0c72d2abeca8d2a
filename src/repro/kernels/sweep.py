"""Algorithm 2's merged m-step sweep, written once for both sweep plans.

The Conrad–Wallach (1979) merged double sweep over the multicolor blocks
of Adams & Ortega (1982) is a fixed list of color passes
(:func:`mstep_passes`, the compiled pack's ``mstep_pass``).  Two plans
carry the couplings those passes walk: the stencil's constant-offset
gathers in natural order (:class:`~repro.kernels.stencil.SweepPlan`) and
the permuted CSR rows (:class:`~repro.multicolor.blocked.CSRSweepPlan`).
:func:`apply_sweep` is the apply front of both
:class:`~repro.multicolor.sor.MStepSSOR` and
:class:`~repro.kernels.stencil.StencilSSOR`: it runs the plan's compiled
walker (``plan.entry``) or, without the kernel pack, its numpy twin
(:func:`sweep_numpy`), bitwise the same, and books the counters.  The
walkers take at most ``BLOCK_WIDTH`` (8) columns; the front runs a
wider block through them as contiguous groups of that many.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools

from repro.kernels._native import BLOCK_WIDTH, pointer
from repro.util import require

__all__ = ["Pass", "mstep_passes", "sweep_numpy", "apply_sweep"]


class Pass(NamedTuple):
    """One color pass of the schedule (the compiled ``struct pass``)."""

    s: int  # Horner step 1 … m, which reads α_{m−s}
    c: int  # the color
    upper: bool  # sums over the upper block row, else the lower one
    use_y: bool  # the solve subtracts the color's stashed sum y
    do_solve: bool  # the color's rows are solved
    store_y: bool  # this pass's sums become the color's y
    zero_y: bool  # that y is then zeroed: the last color has no upper sum


@functools.cache
def mstep_passes(nc: int, m: int) -> tuple[Pass, ...]:
    """The m-step schedule over ``nc`` colors, pass by pass.

    Per step a forward pass over every color (lower sums), a backward
    pass over colors ``nc − 2 … 1`` (upper sums), then color 0's upper
    sum: its closing solve on the last step (coefficient α₀, the paper's
    step (3)), else stashed for the next forward pass.  That is
    ``2·nc − 1`` passes per step, one if ``nc = 1``: the sequence of the
    compiled ``mstep_pass(nc, m, i)``, ``i = 0, 1, …``.
    """
    passes: list[Pass] = []
    for s in range(1, m + 1):
        passes += (
            Pass(s, c, False, s > 1, True, True, nc >= 2 and c == nc - 1)
            for c in range(nc)
        )
        passes += (
            Pass(s, c, True, c != 0, c != 0 or s == m, c != 0 or s != m, False)
            for c in range(nc - 2, -1, -1)
        )
    return tuple(passes)


def sweep_numpy(plan, alphas: np.ndarray, r: np.ndarray, rt: np.ndarray,
                y: np.ndarray, pool) -> None:
    """The compiled walker ``plan.entry`` in numpy, pass by pass.

    Each pass lands its color's sums on a zeroed accumulator in plan
    order, then solves ``((α·r − y) − acc) / d``, the C row body's
    association.  The CSR plan's sums are scipy's ``csr_matvec``/
    ``csr_matvecs`` run straight off the plan half (absolute row pointers
    into its columns and values) over the color's contiguous rows, which
    are solved in place: every column they read is a row of another color
    solved earlier in this apply.  The stencil plan's sums gather ``rt``
    at constant offsets for the color's scattered ``rows``, clipped into
    ``[0, n)``, where the stored coefficient is exactly 0.0; ``rt`` is
    zeroed first, since a clipped or grid-row-wrap gather may read a row
    not yet solved and 0·x is ±0 only for finite x.  The compiled stencil
    walker pipelines its passes over blocks of rows; every gather still
    reads the value this pass-by-pass order gives it.

    α·r is formed once per step, an ``(m, k)`` schedule's row broadcast
    across the block.  Each color's stashed sum ``y`` and its next
    accumulator are swapped instead of copied.  A block divides by its
    diagonal spread across the columns (a contiguous divisor is ~2×
    faster than a broadcast one, with the same quotients), copied per
    apply because the pool may be shared.
    """
    gp = plan.gp.tolist()
    spans = list(zip(gp, gp[1:]))
    n, m, one_d = gp[-1], int(alphas.shape[0]), r.ndim == 1

    def lanes(a: np.ndarray) -> list[np.ndarray]:  # one view per color
        return [a[qa:qb] for qa, qb in spans]

    ar = pool.get("sweep_ar", r.shape)
    div = plan.diag
    if not one_d:
        div = pool.get("sweep_div", r.shape)
        np.copyto(div, plan.diag[:, None])
    ars, divs = lanes(ar), lanes(div)
    ys, accs = lanes(y), lanes(pool.get("sweep_sum", r.shape))
    if plan.entry == "csr_ssor":
        rows = None
        rts = lanes(rt)
        halves = [
            ([ptr[qa : qb + 1] for qa, qb in spans], col, val)
            for ptr, col, val in (plan.lower, plan.upper)
        ]

        def sums(p: Pass, acc: np.ndarray) -> None:
            ptrs, col, val = halves[p.upper]
            acc.fill(0.0)
            if one_d:
                _sparsetools.csr_matvec(len(acc), n, ptrs[p.c], col, val, rt, acc)
            else:
                _sparsetools.csr_matvecs(
                    len(acc), n, acc.shape[1], ptrs[p.c], col, val, rt, acc
                )
    else:
        rows = lanes(plan.rows)
        rt.fill(0.0)
        most = max((qb - qa for qa, qb in spans), default=0)
        cols = pool.get("sweep_cols", (most,), np.int64)
        gather = pool.get("sweep_gather", (most,) + r.shape[1:])
        halves = [plan.lower, plan.upper]

        def sums(p: Pass, acc: np.ndarray) -> None:
            ep, eoff, ecb, ecoef = halves[p.upper]
            c, rc = p.c, rows[p.c]
            e0, ne = ep[c], ep[c + 1] - ep[c]
            cm = ecoef[ecb[c] : ecb[c] + rc.size * ne].reshape(rc.size, ne)
            g, col = gather[: rc.size], cols[: rc.size]
            acc.fill(0.0)
            for e in range(ne):
                np.add(rc, eoff[e0 + e], out=col)
                np.take(rt, col, axis=0, out=g, mode="clip")
                g *= cm[:, e] if one_d else cm[:, e, None]
                acc += g

    step = 0
    for p in mstep_passes(len(spans), m):
        if p.s != step:
            step = p.s
            np.multiply(r, alphas[m - step], out=ar)
        c = p.c
        acc = accs[c]
        sums(p, acc)
        if p.do_solve:
            if rows is None:
                z, arc = rts[c], ars[c]
            else:  # the gathers are done: their scratch takes the solve
                z = arc = np.take(ar, rows[c], axis=0, out=gather[: acc.shape[0]])
            if p.use_y:
                np.subtract(arc, ys[c], out=z)
                z -= acc
            else:
                np.subtract(arc, acc, out=z)
            z /= divs[c]
            if rows is not None:
                rt[rows[c]] = z
        if p.store_y:
            ys[c], accs[c] = acc, ys[c]
        if p.zero_y:
            ys[c].fill(0.0)


def apply_sweep(sweep, plan, native, alphas, r) -> np.ndarray:
    """``M_m⁻¹ r`` for ``sweep``, an m-step sweep over ``plan``.

    ``alphas`` is ``(m,)``, or ``(m, k)`` for an ``(n, k)`` block ``r``
    whose columns carry their own schedules; ``native`` is the kernel pack
    or ``None``.  The operands are checked before any pointer reaches the
    compiled walker, which indexes them unchecked, and an ``r`` that
    aliases the pooled result is copied first.  Then the compiled walker
    or :func:`sweep_numpy` runs, and ``sweep.counter`` is charged per
    column.  The result is the pooled ``rt`` of ``sweep.workspace``; it
    and the scratch ``y`` are memoized per shape with their pointers, for
    as long as the pool keeps their storage.

    A block wider than ``BLOCK_WIDTH`` meets the compiled walker as
    contiguous copies of at most that many columns (and of their α
    columns), each applied as above; the groups' results land in the
    pooled ``sweep_wide``, since each group's own ``rt`` is the head of
    the storage the next group overwrites.
    """
    alphas = np.ascontiguousarray(alphas, dtype=float)
    r = np.asarray(r, dtype=float)
    gp = plan.gp
    require(
        r.ndim in (1, 2) and r.shape[0] == gp[-1], "r must be (n,) or (n, k)"
    )
    require(
        alphas.ndim in (1, 2) and alphas.shape[0] >= 1,
        "coefficients must be (m,) or (m, k) with m ≥ 1",
    )
    k = 1 if r.ndim == 1 else int(r.shape[1])
    if alphas.ndim == 2:
        require(
            r.ndim == 2 and alphas.shape[1] == k,
            "per-column coefficients need an (n, k) block with "
            "matching column count",
        )
    pool = sweep.workspace
    flat_rt, flat_y = pool.peek("rt"), pool.peek("sweep_y")
    if flat_rt is not None and np.may_share_memory(r, flat_rt):
        # The caller fed the sweep its own pooled result; overwriting it
        # would destroy the input.
        r = r.copy()
    if native is not None and k > BLOCK_WIDTH:
        wide = pool.get("sweep_wide", r.shape)
        if np.may_share_memory(r, wide):
            r = r.copy()
        for j0 in range(0, k, BLOCK_WIDTH):
            cols = slice(j0, j0 + BLOCK_WIDTH)
            wide[:, cols] = apply_sweep(
                sweep, plan, native, alphas if alphas.ndim == 1 else alphas[:, cols],
                np.ascontiguousarray(r[:, cols]),
            )
        return wide
    memo = sweep.__dict__.get("_sweep_operands")
    if (
        memo is None
        or memo[0] != r.shape
        or memo[1] is not flat_rt
        or memo[2] is not flat_y
    ):
        rt, y = pool.get("rt", r.shape), pool.get("sweep_y", r.shape)
        memo = (
            r.shape, pool.peek("rt"), pool.peek("sweep_y"), rt, y,
            pointer(rt), pointer(y),
        )
        sweep.__dict__["_sweep_operands"] = memo
    _, _, _, rt, y, prt, py = memo
    m = int(alphas.shape[0])
    if native is None:
        sweep_numpy(plan, alphas, r, rt, y, pool)
    else:
        r = np.ascontiguousarray(r)
        native.bind_sweep(plan)(
            k, m, 1 if alphas.ndim == 1 else k, pointer(alphas), pointer(r),
            prt, py,
        )
    sweep.counter.charge_sweep(m, k, gp.size - 1, plan.couplings)
    return rt
