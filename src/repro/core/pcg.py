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
object with ``apply(r) → r̃``.  The CYBER simulator's per-cell ``solve``
and the SPMD engine re-implement this same loop on their own kernels;
tests pin their iterates to this reference.

:func:`block_pcg` is the multi-right-hand-side form: ``k`` independent
Algorithm-1 iterations advance in lockstep over an ``(n, k)`` block, the
matrix product and the preconditioner application batched through the
``(n, k)`` kernel paths while every per-column scalar (α, β, ρ, ‖Δu‖∞)
is tracked vectorwise.  Columns retire individually as they converge;
iterates, iteration counts and operation counters are *bitwise identical*
to ``k`` separate :func:`pcg` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import DeltaInfNorm, StoppingRule
from repro.core.mstep import IdentityPreconditioner
from repro.kernels import (
    matvec_accumulate,
    matvec_into,
    supports_matvec_block,
    supports_matvec_into,
    xpay_into,
)
from repro.util import OperationCounter, inf_norm, inner, require

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
    """Solve SPD ``K u = f`` by Algorithm 1.

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
    ``block_multiplies``, …).  :func:`block_pcg` reproduces these counts
    column for column — the two are bitwise-reconcilable.

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
    n = f.shape[0]
    require(k.shape == (n, n), "operator/right-hand-side shape mismatch")
    rule = stopping or DeltaInfNorm(eps=eps)
    m = preconditioner if preconditioner is not None else IdentityPreconditioner()
    maxiter = maxiter if maxiter is not None else 5 * n + 100
    counter = OperationCounter()

    # Snapshot the preconditioner's lifetime counter so only *this solve's*
    # work is merged into the result (preconditioners are reusable objects).
    precond_before = m.counter.as_dict() if hasattr(m, "counter") else None

    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    r = np.asarray(f - k @ u, dtype=float)
    counter.matvecs += 1
    rt = m.apply(r)
    p = np.array(rt, dtype=float)
    rho = inner(rt, r)
    counter.inner_products += 1
    f_norm = float(np.linalg.norm(f))

    # Steady-state workspaces: K·p and the α·p / α·Kp products are written
    # into preallocated buffers so the loop allocates nothing per iteration
    # (see repro.kernels.ops; the arithmetic is bit-identical to the
    # out-of-place spelling).
    kp = np.empty(n)
    step = np.empty(n)
    fast_matvec = supports_matvec_into(k, p, kp)

    delta_history: list[float] = []
    residual_history: list[float] = []
    if track_residual:
        residual_history.append(float(np.linalg.norm(r)))

    converged = False
    iterations = 0
    for iteration in range(1, maxiter + 1):
        if fast_matvec:
            matvec_into(k, p, kp)
        else:
            kp = np.asarray(k @ p, dtype=float)
        counter.matvecs += 1
        denom = inner(p, kp)
        counter.inner_products += 1
        if denom <= 0.0:
            # Exact convergence (p = 0) or loss of positive definiteness.
            iterations = iteration
            converged = rho == 0.0
            break
        alpha = rho / denom

        np.multiply(p, alpha, out=step)  # step = α·p
        u += step
        counter.axpys += 1
        delta_norm = inf_norm(step)
        delta_history.append(delta_norm)
        iterations = iteration
        if callback is not None:
            callback(iteration, u, delta_norm)

        if not rule.needs_residual and rule.converged(delta_norm, r, f_norm):
            converged = True
            break  # steps (4)–(7) skipped, as in Algorithm 1

        np.multiply(kp, alpha, out=step)  # step reused as scratch: α·Kp
        r -= step
        counter.axpys += 1
        if track_residual:
            residual_history.append(float(np.linalg.norm(r)))
        if rule.needs_residual and rule.converged(delta_norm, r, f_norm):
            converged = True
            break

        rt = m.apply(r)
        rho_new = inner(rt, r)
        counter.inner_products += 1
        beta = rho_new / rho
        rho = rho_new
        xpay_into(rt, beta, p)  # p = r̃ + β·p
        counter.axpys += 1

    if precond_before is not None:
        after = m.counter.as_dict()
        counter.precond_applications += (
            after["precond_applications"] - precond_before["precond_applications"]
        )
        counter.precond_steps += (
            after["precond_steps"] - precond_before["precond_steps"]
        )
        for key, value in after.items():
            if key in precond_before and key not in (
                "inner_products",
                "matvecs",
                "precond_applications",
                "precond_steps",
                "axpys",
            ):
                delta = value - precond_before[key]
                if delta:
                    counter.extra[key] = counter.extra.get(key, 0) + delta
            elif key not in precond_before:
                counter.extra[key] = counter.extra.get(key, 0) + value
    return PCGResult(
        u=u,
        iterations=iterations,
        converged=converged,
        delta_history=delta_history,
        residual_history=residual_history,
        counter=counter,
        stop_rule=rule.describe(),
    )


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


def _merge_precond_delta(
    counters: list[OperationCounter], before: dict, after: dict, share: int
) -> None:
    """Split a preconditioner-counter delta evenly over ``share`` columns.

    Every batched application charges each column the identical structural
    amounts (the block kernels scale their counters by the column count),
    so the per-column slice is exactly ``delta / share`` — the same merge
    :func:`pcg` performs for a single column.
    """
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if not delta:
            continue
        per_column = delta // share
        for counter in counters:
            if key == "precond_applications":
                counter.precond_applications += per_column
            elif key == "precond_steps":
                counter.precond_steps += per_column
            elif key not in ("inner_products", "matvecs", "axpys"):
                counter.extra[key] = counter.extra.get(key, 0) + per_column


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

    All ``k`` Algorithm-1 iterations advance in lockstep: per outer
    iteration the still-active columns' direction vectors are stacked and
    multiplied by ``K`` in **one** batched product, and the preconditioner
    is applied to the whole active residual block in one ``(n, k)`` pass
    (the batched color-block sweeps of :mod:`repro.kernels`).  Per-column
    scalars — α, β, ρ, ``‖Δu‖∞`` — are tracked vectorwise, and a column
    whose stopping rule fires *retires*: its iterate freezes while the
    remaining columns keep iterating on a narrower block.

    Because every batched kernel is per-column bit-identical to its
    single-vector form (same accumulation order — see
    :func:`repro.kernels.ops.supports_matvec_block`), the iterates,
    iteration counts, histories and operation counters are **bitwise
    identical** to ``k`` independent :func:`pcg` runs; the test-suite pins
    this.  Operators or preconditioners without a block-safe path fall
    back to per-column application of the exact single-vector kernels —
    slower, still bitwise.

    Parameters mirror :func:`pcg`; differences:

    F:
        Right-hand-side block, shape ``(n, k)`` (any memory order — a
        contiguous working copy is taken per column).
    preconditioner:
        As in :func:`pcg`.  One that sets ``takes_columns`` is called as
        ``apply(r, columns=cols)``, ``cols`` listing the block columns
        ``r`` holds (one index for an ``(n,)`` residual) — all a per-column
        α schedule needs (:class:`repro.machines.cells.SchedulePreconditioner`).
    u0:
        Starting block (default zero), shape ``(n, k)`` or a single
        ``(n,)`` guess broadcast to every column.
    stopping:
        One rule instance shared by all columns (the stock rules are
        stateless); per-column decisions are made independently.
    callback:
        Optional ``callback(iteration, column, u, delta_norm)`` hook,
        invoked per active column per iteration.
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

    block_matvec = supports_matvec_block(k)
    block_precond = bool(getattr(m, "block_capable", False))
    takes_columns = bool(getattr(m, "takes_columns", False))
    has_counter = hasattr(m, "counter")

    # Per-column state: contiguous (n,) vectors, exactly what pcg() holds.
    f_cols = [np.ascontiguousarray(F[:, j]) for j in range(ncols)]
    if u0 is None:
        u = [np.zeros(n) for _ in range(ncols)]
    else:
        u0 = np.asarray(u0, dtype=float)
        u = [
            np.array(u0 if u0.ndim == 1 else u0[:, j], dtype=float)
            for j in range(ncols)
        ]
    counters = [OperationCounter() for _ in range(ncols)]
    f_norms = [float(np.linalg.norm(f)) for f in f_cols]
    delta_histories: list[list[float]] = [[] for _ in range(ncols)]
    residual_histories: list[list[float]] = [[] for _ in range(ncols)]
    iterations = np.zeros(ncols, dtype=int)
    converged = np.zeros(ncols, dtype=bool)
    rho = np.zeros(ncols)

    # r⁰ = f − K u⁰ (one charged product per column, as in pcg; with the
    # zero start K u⁰ is exactly zero, so r⁰ = f bitwise).
    r: list[np.ndarray] = []
    kp_buf = np.empty(n)
    step = np.empty(n)
    for j in range(ncols):
        if u0 is None:
            r.append(f_cols[j].copy())
        else:
            if supports_matvec_into(k, u[j], kp_buf):
                matvec_into(k, u[j], kp_buf)
                r.append(f_cols[j] - kp_buf)
            else:
                r.append(np.asarray(f_cols[j] - k @ u[j], dtype=float))
        counters[j].matvecs += 1

    # Per-width scratch blocks, reused across iterations: the active set
    # only shrinks as columns retire, so a handful of widths ever appear
    # and the steady-state loop stacks into preallocated storage instead
    # of allocating two (n, active) blocks per iteration.
    stack_bufs: dict[int, np.ndarray] = {}
    kp_bufs: dict[int, np.ndarray] = {}

    def _stack_buf(bufs: dict[int, np.ndarray], width: int) -> np.ndarray:
        buf = bufs.get(width)
        if buf is None:
            buf = bufs.setdefault(width, np.empty((n, width)))
        return buf

    def apply_precond(cols: list[int]) -> list[np.ndarray]:
        """``M⁻¹`` on the active columns — one batched pass when possible."""
        before = m.counter.as_dict() if has_counter else None
        if len(cols) > 1 and block_precond:
            r_block = _stack_buf(stack_bufs, len(cols))
            np.stack([r[j] for j in cols], axis=1, out=r_block)
            rt_block = np.asarray(
                m.apply(r_block, columns=cols) if takes_columns else m.apply(r_block),
                dtype=float,
            )
            out = [np.ascontiguousarray(rt_block[:, i]) for i in range(len(cols))]
        else:
            out = [
                np.array(
                    m.apply(r[j], columns=[j]) if takes_columns else m.apply(r[j]),
                    dtype=float,
                )
                for j in cols
            ]
        if before is not None:
            _merge_precond_delta(
                [counters[j] for j in cols], before, m.counter.as_dict(),
                share=len(cols),
            )
        return out

    rt = apply_precond(list(range(ncols)))
    p = [np.array(x, dtype=float) for x in rt]
    for i, j in enumerate(range(ncols)):
        rho[j] = inner(rt[i], r[j])
        counters[j].inner_products += 1
        if track_residual:
            residual_histories[j].append(float(np.linalg.norm(r[j])))

    active = list(range(ncols))
    for iteration in range(1, maxiter + 1):
        if not active:
            break
        # ---- K p over the active block: one batched product -------------
        if len(active) > 1 and block_matvec:
            p_block = _stack_buf(stack_bufs, len(active))
            np.stack([p[j] for j in active], axis=1, out=p_block)
            kp_block = _stack_buf(kp_bufs, len(active))
            kp_block.fill(0.0)
            matvec_accumulate(k, p_block, kp_block)
            kp = [np.ascontiguousarray(kp_block[:, i]) for i in range(len(active))]
        else:
            kp = []
            for j in active:
                if supports_matvec_into(k, p[j], kp_buf):
                    matvec_into(k, p[j], kp_buf)
                    # A lone active column reads its K·p before the next
                    # product overwrites the buffer: no copy needed.
                    kp.append(kp_buf if len(active) == 1 else kp_buf.copy())
                else:
                    kp.append(np.asarray(k @ p[j], dtype=float))
        survivors: list[int] = []
        for j, kpj in zip(active, kp):
            counters[j].matvecs += 1
            denom = inner(p[j], kpj)
            counters[j].inner_products += 1
            if denom <= 0.0:
                iterations[j] = iteration
                converged[j] = rho[j] == 0.0
                continue
            alpha = rho[j] / denom

            np.multiply(p[j], alpha, out=step)  # step = α·p
            u[j] += step
            counters[j].axpys += 1
            delta_norm = inf_norm(step)
            delta_histories[j].append(delta_norm)
            iterations[j] = iteration
            if callback is not None:
                callback(iteration, j, u[j], delta_norm)

            if not rule.needs_residual and rule.converged(
                delta_norm, r[j], f_norms[j]
            ):
                converged[j] = True
                continue  # column retires; steps (4)–(7) skipped

            np.multiply(kpj, alpha, out=step)  # scratch: α·Kp
            r[j] -= step
            counters[j].axpys += 1
            if track_residual:
                residual_histories[j].append(float(np.linalg.norm(r[j])))
            if rule.needs_residual and rule.converged(
                delta_norm, r[j], f_norms[j]
            ):
                converged[j] = True
                continue
            survivors.append(j)

        if survivors:
            rt = apply_precond(survivors)
            for i, j in enumerate(survivors):
                rho_new = inner(rt[i], r[j])
                counters[j].inner_products += 1
                beta = rho_new / rho[j]
                rho[j] = rho_new
                xpay_into(rt[i], beta, p[j])  # p = r̃ + β·p
                counters[j].axpys += 1
        active = survivors

    return BlockPCGResult(
        u=np.stack(u, axis=1),
        iterations=iterations,
        converged=converged,
        delta_histories=delta_histories,
        residual_histories=residual_histories,
        counters=counters,
        stop_rule=rule.describe(),
    )
