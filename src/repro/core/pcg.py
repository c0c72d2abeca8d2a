"""The preconditioned conjugate gradient driver (Algorithm 1).

This is the paper's Algorithm 1 verbatim (after Chandra 1978):

```
choose u⁰;  r⁰ = f − K u⁰;  solve M r̃⁰ = r⁰;  p⁰ = r̃⁰
for k = 0, 1, …:
    (1) α = (r̃ᵏ, rᵏ) / (pᵏ, K pᵏ)
    (2) u^{k+1} = uᵏ + α pᵏ
    (3) if ‖u^{k+1} − uᵏ‖_∞ < ε: stop
    (4) r^{k+1} = rᵏ − α K pᵏ
    (5) solve M r̃^{k+1} = r^{k+1}
    (6) β = (r̃^{k+1}, r^{k+1}) / (r̃ᵏ, rᵏ)
    (7) p^{k+1} = r̃^{k+1} + β pᵏ
```

Two global inner products per iteration — the quantity whose cost on vector
machines and processor arrays motivates the whole paper — plus one matrix
product and one preconditioner application.  ``M = I`` (no preconditioner)
gives standard conjugate gradients.

The driver is ordering- and storage-agnostic: ``k`` may be any object with
``@`` (scipy sparse, ndarray, LinearOperator) and the preconditioner any
object with ``apply(r) → r̃``.

:func:`block_pcg` is the one loop: up to ``BLOCK_WIDTH`` (8) independent
Algorithm-1 iterations advance in lockstep over C-ordered ``(n, a)``
blocks of the ``a`` still-active columns, which stay resident for the
whole solve; a wider block runs as consecutive lockstep groups of at most
8 columns.  The matrix product and the preconditioner run through the
``(n, k)`` kernel paths, and every inner product is the fixed-order dot
of :func:`repro.util.column_dots`, fused with the vector updates
(:func:`repro.kernels.ops.bind_cg_updates`).  Columns retire individually
as they converge; each column's iterate, iteration count, histories and
operation counters are bitwise those of the column solved alone.
:func:`pcg` is its one-column case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.core.convergence import DeltaInfNorm, StoppingRule
from repro.core.mstep import IdentityPreconditioner
from repro.kernels import (
    BLOCK_WIDTH,
    matvec_accumulate,
    matvec_into,
    supports_matvec_block,
    supports_matvec_into,
)
from repro.kernels.ops import bind_cg_updates
from repro.util import OperationCounter, column_dots, require

__all__ = ["PCGResult", "BlockPCGResult", "pcg", "cg", "block_pcg"]


@dataclass
class PCGResult:
    """Outcome of a PCG solve.

    Attributes
    ----------
    u:
        Final iterate (in the ordering of the inputs).
    iterations:
        Number of completed iterations (the paper's ``I``): the iteration
        at which the convergence test first passed.
    converged:
        Whether the stopping rule fired before ``maxiter``.
    delta_history:
        ``‖u^{k+1} − uᵏ‖_∞`` per iteration (drives the paper's test).
    residual_history:
        ``‖rᵏ‖₂`` per iteration if residual tracking was requested (costs an
        extra reduction per iteration on a real machine, hence optional).
    counter:
        Operation counts for this solve; see :func:`pcg` for the exact
        per-iteration charging contract.
    """

    u: np.ndarray
    iterations: int
    converged: bool
    delta_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    counter: OperationCounter = field(default_factory=OperationCounter)
    stop_rule: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "converged" if self.converged else "NOT converged"
        return f"PCGResult({tag} in {self.iterations} iterations, {self.stop_rule})"


def pcg(
    k,
    f: np.ndarray,
    preconditioner=None,
    u0: np.ndarray | None = None,
    stopping: StoppingRule | None = None,
    eps: float = 1e-6,
    maxiter: int | None = None,
    track_residual: bool = False,
    callback=None,
) -> PCGResult:
    """Solve SPD ``K u = f`` by Algorithm 1: column 0 of a one-column
    :func:`block_pcg`.

    **Counter contract.**  ``result.counter`` charges, per completed
    iteration: one ``matvecs`` (the single ``K p`` product), one or two
    ``inner_products`` (``(p, Kp)`` always; ``(r̃, r)`` only when steps
    4–7 run, i.e. not on the final converged iteration), and one to three
    ``axpys`` (the ``u``, ``r`` and ``p`` updates, the latter two skipped
    once the stopping rule fires).  Startup adds one ``matvecs``
    (``r⁰ = f − K u⁰``) and one ``inner_products`` (ρ₀).  Preconditioner
    work is tallied on the preconditioner's own lifetime counter; the
    slice belonging to *this solve* is merged into ``result.counter`` as
    ``precond_applications``/``precond_steps`` plus any
    preconditioner-specific ``extra`` keys (``p_solves``,
    ``block_multiplies``, …).

    Parameters
    ----------
    k:
        The operator ``K`` (anything supporting ``k @ x``).
    f:
        Right-hand side.
    preconditioner:
        Object with ``apply(r) → M⁻¹r``; ``None`` means ``M = I`` (plain CG).
    u0:
        Starting guess (default zero).
    stopping:
        A :class:`StoppingRule`; default is the paper's
        ``‖Δu‖_∞ < eps``.
    eps:
        Tolerance for the default rule (ignored when ``stopping`` given).
    maxiter:
        Iteration cap; default ``5·n + 100``.
    track_residual:
        Also record ``‖rᵏ‖₂`` each iteration.
    callback:
        Optional ``callback(iteration, u, delta_norm)`` hook.
    """
    f = np.asarray(f, dtype=float)
    require(f.ndim == 1, "pcg needs an (n,) right-hand side")
    hook = None
    if callback is not None:
        def hook(iteration, _column, u, delta_norm):
            callback(iteration, u, delta_norm)
    return block_pcg(
        k, f[:, None], preconditioner=preconditioner, u0=u0,
        stopping=stopping, eps=eps, maxiter=maxiter,
        track_residual=track_residual, callback=hook,
    ).column(0)


def cg(k, f, **kwargs) -> PCGResult:
    """Standard conjugate gradients — Algorithm 1 with ``M = I``.

    The :class:`PCGResult` counter contract of :func:`pcg` applies
    unchanged (``M = I`` still charges one ``precond_applications`` per
    application — the copy is a real vector operation on the machines).
    For many right-hand sides at once see :func:`block_pcg`.
    """
    kwargs.pop("preconditioner", None)
    return pcg(k, f, preconditioner=None, **kwargs)


@dataclass
class BlockPCGResult:
    """Outcome of a :func:`block_pcg` solve over an ``(n, k)`` block.

    Per-column state mirrors :class:`PCGResult` exactly — ``column(j)``
    materializes the j-th column's record, bitwise identical (iterate,
    histories, counter) to the one an independent ``pcg(k, F[:, j])``
    would return.

    Attributes
    ----------
    u:
        Final iterates, one column per right-hand side (``(n, k)``).
    iterations:
        Per-column completed-iteration counts (``(k,)`` ints).
    converged:
        Per-column convergence flags (``(k,)`` bools).
    delta_histories / residual_histories:
        Per-column ``‖Δu‖∞`` (and optional ``‖r‖₂``) traces.
    counters:
        Per-column :class:`~repro.util.OperationCounter`\\ s, charged as if
        each column had been solved alone.
    """

    u: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    delta_histories: list[list[float]]
    residual_histories: list[list[float]]
    counters: list[OperationCounter]
    stop_rule: str = ""

    @property
    def k(self) -> int:
        """Number of right-hand-side columns in the block."""
        return int(self.u.shape[1])

    @property
    def all_converged(self) -> bool:
        """Whether every column's stopping rule fired before ``maxiter``."""
        return bool(np.all(self.converged))

    def column(self, j: int) -> PCGResult:
        """The j-th column's solve as a standalone :class:`PCGResult`."""
        return PCGResult(
            u=np.ascontiguousarray(self.u[:, j]),
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            delta_history=list(self.delta_histories[j]),
            residual_history=list(self.residual_histories[j]),
            counter=self.counters[j],
            stop_rule=self.stop_rule,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        done = int(np.count_nonzero(self.converged))
        return (
            f"BlockPCGResult({done}/{self.k} columns converged, "
            f"iterations {self.iterations.min()}–{self.iterations.max()})"
        )


# How a column's last iteration ended; its counters follow from this and
# its iteration count alone.
_BREAKDOWN, _DELTA, _RESIDUAL, _MAXITER = range(4)
# Vector updates (u, r, p) the last iteration ran, by how it ended.
_LAST_AXPYS = {_BREAKDOWN: 0, _DELTA: 1, _RESIDUAL: 2}

#: Elements per chunk of the in-place column compaction: each chunk's
#: gather is the only temporary, so retiring columns allocates no block.
_COMPACT_ELEMS = 1 << 16


class _Width(NamedTuple):
    """What :func:`block_pcg` iterates with while ``a`` columns are active."""

    R: np.ndarray  # (n, a) residuals
    denom: np.ndarray  # (a,) (p, Kp), written by axpy
    delta: np.ndarray  # (a,) ‖Δu‖∞, written by axpy
    product: Callable  # K·P into KP
    precondition: Callable  # M⁻¹R, returning the preconditioner's buffer
    axpy: Callable  # see repro.kernels.ops.bind_cg_updates
    xpay: Callable
    r_cols: list  # column views of R, for the stopping rule
    u_cols: list | None  # column views of U, for the callback
    histories: list  # each active column's ‖Δu‖∞ history
    f_norms: list  # each active column's ‖f‖₂


def _column_counter(iterations: int, stop: int) -> OperationCounter:
    """One column's Algorithm-1 charges, from how its solve ended.

    Startup: one product (``r⁰``) and one dot (ρ₀).  A full iteration:
    one product, two dots and three vector updates.  The last iteration
    is full when ``maxiter`` ended it; otherwise it ran the product and
    ``(p, Kp)`` only, plus the updates that precede the stopping test.
    """
    full = iterations if stop == _MAXITER else iterations - 1
    partial = stop != _MAXITER
    return OperationCounter(
        matvecs=1 + iterations,
        inner_products=1 + 2 * full + int(partial),
        axpys=3 * full + (_LAST_AXPYS[stop] if partial else 0),
    )


def _charge_precond(counters, applications, before: dict, after: dict) -> None:
    """Share the solve's preconditioner-counter delta over its columns.

    Column ``j`` gets ``delta · applications[j] / Σ applications``: exact
    for the package's preconditioners, which charge every column of an
    application the same structural amount, and the whole delta for a
    single column.
    """
    total = sum(applications)
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if not delta or key in ("inner_products", "matvecs", "axpys"):
            continue
        for counter, apps in zip(counters, applications):
            share = delta * apps // total
            if key == "precond_applications":
                counter.precond_applications += share
            elif key == "precond_steps":
                counter.precond_steps += share
            elif share:
                counter.extra[key] = counter.extra.get(key, 0) + share


def _compact(flat: np.ndarray, n: int, width: int, keep: list[int]) -> None:
    """Columns ``keep`` of the ``(n, width)`` block at the head of ``flat``
    become the ``(n, len(keep))`` block there, in order, in place.

    Row chunks move front to back: a chunk's destination ends where its
    source does or earlier, so no later source is overwritten, and the
    gather copies the chunk before it lands.
    """
    old = flat[: n * width].reshape(n, width)
    new = flat[: n * len(keep)].reshape(n, len(keep))
    rows = max(1, _COMPACT_ELEMS // width)
    for i0 in range(0, n, rows):
        new[i0 : i0 + rows] = old[i0 : i0 + rows, keep]


def block_pcg(
    k,
    F: np.ndarray,
    preconditioner=None,
    u0: np.ndarray | None = None,
    stopping: StoppingRule | None = None,
    eps: float = 1e-6,
    maxiter: int | None = None,
    track_residual: bool = False,
    callback=None,
) -> BlockPCGResult:
    """Solve SPD ``K U = F`` for every column of an ``(n, k)`` block.

    Up to ``BLOCK_WIDTH`` (8) columns advance in one lockstep; a wider
    block runs as consecutive lockstep groups of at most 8 columns, joined
    into one result.  The columns are independent chains, so the grouping
    changes no bit, and each group's kernels stream only its own columns
    (the compiled kernels take at most 8).  Within a lockstep, all its
    Algorithm-1 iterations advance together.  ``U``, ``R``,
    ``P`` and ``K·P`` stay resident as C-ordered ``(n, a)`` blocks over
    the ``a`` active columns: per outer iteration ``K`` multiplies ``P``
    in **one** batched product written straight into ``K·P``, the
    preconditioner reads ``R`` in place in one ``(n, a)`` pass, and two
    fused passes (:func:`repro.kernels.ops.bind_cg_updates`) compute the
    per-column α, β, ρ and ``‖Δu‖∞`` as ``(a,)`` vectors together with the
    vector updates.  A column whose stopping rule fires *retires*: its
    iterate is written to the result and the survivors are compacted
    (at most ``k`` times per solve).  A one-column block runs the vector
    kernels on its contiguous column.  Operation counters follow, once
    at the end, from each column's iteration count and how it stopped
    (the contract of :func:`pcg`); the preconditioner's own counter
    delta is shared out by each column's number of applications.

    Every batched kernel is per-column bit-identical to its single-vector
    form, and every inner product is the fixed-order dot of
    :func:`repro.util.column_dots`, so each column's iterate, iteration
    count, histories and operation counters are **bitwise identical** to
    the column solved alone.  Operators or preconditioners without a
    block-safe path fall back to per-column application of the exact
    single-vector kernels — slower, still bitwise.

    Parameters mirror :func:`pcg`; differences:

    F:
        Right-hand-side block, shape ``(n, k)`` (any memory order).
    preconditioner:
        As in :func:`pcg`.  One that sets ``takes_columns`` is called as
        ``apply(r, columns=cols)``, ``cols`` listing the block columns
        ``r`` holds, as indices into ``F`` (one index for an ``(n,)``
        residual) — all a per-column
        α schedule needs (:class:`repro.machines.cells.SchedulePreconditioner`).
        It must not write to ``r``; its result is read before the next
        application.
    u0:
        Starting block (default zero), shape ``(n, k)`` or a single
        ``(n,)`` guess broadcast to every column.
    stopping:
        One rule instance shared by all columns (the stock rules are
        stateless); per-column decisions are made independently.  A rule
        without ``needs_residual`` may see ``r`` already updated.
    callback:
        Optional ``callback(iteration, column, u, delta_norm)`` hook,
        invoked per active column per iteration; ``column`` indexes ``F``
        and ``u`` is a live view of the column's iterate.
    """
    F = np.asarray(F, dtype=float)
    require(F.ndim == 2, "block_pcg needs an (n, k) right-hand-side block")
    n, ncols = F.shape
    require(k.shape == (n, n), "operator/right-hand-side shape mismatch")
    rule = stopping or DeltaInfNorm(eps=eps)
    if ncols == 0:
        # An empty block is a legal no-op (the sharded path meets it when a
        # workload degenerates): zero columns solved, nothing touched.
        return BlockPCGResult(
            u=np.zeros((n, 0)),
            iterations=np.zeros(0, dtype=int),
            converged=np.zeros(0, dtype=bool),
            delta_histories=[],
            residual_histories=[],
            counters=[],
            stop_rule=rule.describe(),
        )
    m = preconditioner if preconditioner is not None else IdentityPreconditioner()
    maxiter = maxiter if maxiter is not None else 5 * n + 100
    u0 = None if u0 is None else np.asarray(u0, dtype=float)
    parts = [
        _lockstep(
            k, F[:, j0 : j0 + BLOCK_WIDTH], m,
            u0 if u0 is None or u0.ndim == 1 else u0[:, j0 : j0 + BLOCK_WIDTH],
            rule, maxiter, track_residual, callback, base=j0,
        )
        for j0 in range(0, ncols, BLOCK_WIDTH)
    ]
    if len(parts) == 1:
        return parts[0]
    return BlockPCGResult(
        u=np.concatenate([part.u for part in parts], axis=1),
        iterations=np.concatenate([part.iterations for part in parts]),
        converged=np.concatenate([part.converged for part in parts]),
        delta_histories=[h for part in parts for h in part.delta_histories],
        residual_histories=[h for part in parts for h in part.residual_histories],
        counters=[c for part in parts for c in part.counters],
        stop_rule=rule.describe(),
    )


def _lockstep(
    k, F, m, u0, rule, maxiter, track_residual, callback, base
) -> BlockPCGResult:
    """:func:`block_pcg` on one group of at most ``BLOCK_WIDTH`` columns,
    columns ``base …`` of the caller's block (the indices the
    preconditioner and the callback see)."""
    n, ncols = F.shape
    block_matvec = supports_matvec_block(k)
    block_precond = bool(getattr(m, "block_capable", False))
    takes_columns = bool(getattr(m, "takes_columns", False))
    precond_before = m.counter.as_dict() if hasattr(m, "counter") else None
    needs_residual = rule.needs_residual

    # Resident state: each block is the head of one flat buffer, so the
    # survivors of a retirement compact in place and every data pointer
    # stays put; the (k,) scalars shrink to their heads the same way.
    flats = [np.empty(n * ncols) for _ in range(4)]
    rho_all, denom_all, delta_all = np.empty(ncols), np.empty(ncols), np.empty(ncols)
    U, R, P, KP = (f[: n * ncols].reshape(n, ncols) for f in flats)

    def product(x: np.ndarray, out: np.ndarray):
        """``out ← K·x`` over an ``(n, a)`` block, as a bound callable."""
        a = x.shape[1]
        if a == 1:
            x1, out1 = x[:, 0], out[:, 0]
            if supports_matvec_into(k, x1, out1):
                return lambda: matvec_into(k, x1, out1)
            return lambda: np.copyto(out1, k @ x1)
        if block_matvec:
            if sp.issparse(k):
                # One compiled product at 2–8 columns, scipy's
                # csr_matvecs in place otherwise: the same bits.
                return lambda: matvec_into(k, x, out)

            def batched():
                out.fill(0.0)
                matvec_accumulate(k, x, out)
            return batched

        def per_column():
            column, column_out = np.empty(n), np.empty(n)
            for i in range(a):
                np.copyto(column, x[:, i])
                if supports_matvec_into(k, column, column_out):
                    out[:, i] = matvec_into(k, column, column_out)
                else:
                    out[:, i] = k @ column
        return per_column

    def precondition(r: np.ndarray, cols: list[int]):
        """``M⁻¹`` on the residual block of columns ``cols``, as a bound
        callable: one batched pass, or the vector form on one column."""
        cols = [base + j for j in cols]
        if len(cols) == 1:
            r1 = r[:, 0]
            if takes_columns:
                return lambda: m.apply(r1, columns=cols)
            return lambda: m.apply(r1)
        if block_precond:
            if takes_columns:
                return lambda: m.apply(r, columns=cols)
            return lambda: m.apply(r)

        def per_column():
            out = np.empty(r.shape)
            for i, j in enumerate(cols):
                r1 = np.ascontiguousarray(r[:, i])
                out[:, i] = m.apply(r1, columns=[j]) if takes_columns else m.apply(r1)
            return out
        return per_column

    # Startup: r⁰ = f − K u⁰ (with the zero start K u⁰ is exactly zero, so
    # r⁰ = f bitwise), r̃⁰ = M⁻¹r⁰, p⁰ = r̃⁰, ρ₀ = (r̃⁰, r⁰).
    cols = list(range(ncols))
    R[...] = F
    f_norms = np.sqrt(column_dots(R, R)).tolist()
    if u0 is None:
        U.fill(0.0)
    else:
        U[...] = u0 if u0.ndim == 2 else u0[:, None]
        product(U, KP)()
        R -= KP
    rt = np.reshape(precondition(R, cols)(), (n, ncols))
    P[...] = rt
    rho_all[:] = column_dots(rt, R)

    delta_histories: list[list[float]] = [[] for _ in range(ncols)]
    residual_histories: list[list[float]] = [[] for _ in range(ncols)]
    if track_residual:
        for hist, value in zip(residual_histories, np.sqrt(column_dots(R, R)).tolist()):
            hist.append(value)
    iterations = np.zeros(ncols, dtype=int)
    converged = np.zeros(ncols, dtype=bool)
    stops = [_MAXITER] * ncols
    u_out: np.ndarray | None = None

    def bind() -> _Width:
        """Views, bound kernels and per-column handles for the active set."""
        a = len(cols)
        U, R, P, KP = (f[: n * a].reshape(n, a) for f in flats)
        denom, delta = denom_all[:a], delta_all[:a]
        axpy, xpay = bind_cg_updates(U, R, P, KP, rho_all[:a], denom, delta)
        return _Width(
            R, denom, delta, product(P, KP), precondition(R, cols), axpy, xpay,
            [R[:, i] for i in range(a)],
            [U[:, i] for i in range(a)] if callback is not None else None,
            [delta_histories[j] for j in cols],
            [f_norms[j] for j in cols],
        )

    def retire(done: dict[int, int], iteration: int) -> None:
        """Write the ``done`` columns (position → how they stopped) out and
        compact the survivors."""
        nonlocal u_out, cols
        a = len(cols)
        for i, stop in done.items():
            j = cols[i]
            iterations[j] = iteration
            stops[j] = stop
            converged[j] = rho_all[i] == 0.0 if stop == _BREAKDOWN else stop != _MAXITER
        if u_out is None and len(done) == a:
            u_out = flats[0][: n * a].reshape(n, a)  # never compacted: in order
            cols = []
            return
        if u_out is None:
            u_out = np.empty((n, ncols))
        U = flats[0][: n * a].reshape(n, a)
        for i in done:
            u_out[:, cols[i]] = U[:, i]
        keep = [i for i in range(a) if i not in done]
        if keep:
            for flat in flats:
                _compact(flat, n, a, keep)
            rho_all[: len(keep)] = rho_all[keep]
        cols = [cols[i] for i in keep]

    w = bind()
    last = 0
    for iteration in range(1, maxiter + 1):
        last = iteration
        w.product()
        if w.axpy():
            # (p, Kp) <= 0: exact convergence (p = 0) or loss of positive
            # definiteness.  Those columns stop here, untouched.
            retire({i: _BREAKDOWN for i, d in enumerate(w.denom) if d <= 0.0}, iteration)
            if not cols:
                break
            w = bind()
            w.axpy()
        done: dict[int, int] = {}
        deltas = w.delta.tolist()
        for i, delta_norm in enumerate(deltas):
            w.histories[i].append(delta_norm)
            if callback is not None:
                callback(iteration, base + cols[i], w.u_cols[i], delta_norm)
            if not needs_residual and rule.converged(delta_norm, w.r_cols[i], w.f_norms[i]):
                done[i] = _DELTA  # steps (4)–(7) skipped, as in Algorithm 1
        if track_residual:
            for i, value in enumerate(np.sqrt(column_dots(w.R, w.R)).tolist()):
                if i not in done:
                    residual_histories[cols[i]].append(value)
        if needs_residual:
            for i, delta_norm in enumerate(deltas):
                if rule.converged(delta_norm, w.r_cols[i], w.f_norms[i]):
                    done[i] = _RESIDUAL
        if done:
            retire(done, iteration)
            if not cols:
                break
            w = bind()
        w.xpay(w.precondition())

    if cols:  # still iterating when maxiter ran out
        retire(dict.fromkeys(range(len(cols)), _MAXITER), last)

    counters = [_column_counter(int(iterations[j]), stops[j]) for j in range(ncols)]
    if precond_before is not None:
        applications = [
            1 + int(iterations[j]) - (stops[j] != _MAXITER) for j in range(ncols)
        ]
        _charge_precond(counters, applications, precond_before, m.counter.as_dict())
    return BlockPCGResult(
        u=u_out,
        iterations=iterations,
        converged=converged,
        delta_histories=delta_histories,
        residual_histories=residual_histories,
        counters=counters,
        stop_rule=rule.describe(),
    )
