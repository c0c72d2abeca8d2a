"""Sharded machine-simulator schedules: Table-2/3 cells across workers.

The batched ``solve_schedule`` passes of the machine simulators
(:meth:`~repro.machines.cyber.CyberMachine.solve_schedule`,
:meth:`~repro.machines.fem_machine.FiniteElementMachine.solve_schedule`)
carry a standing
contract: every cell's result — iterations, charged clocks, op breakdowns,
communication/message ledgers, iterates — is bitwise identical to a
per-cell ``solve``, because the cells never interact numerically (the
batching is per-column-bitwise).  That same contract makes the schedule
shardable: any partition of the cells, run through ``solve_schedule`` on
any machine instance laid out from the same problem, reproduces the exact
per-cell records.  Here the partitions run on worker processes, one
contiguous chunk of cells per worker.

Workers receive a picklable :class:`ScheduleShard` — the *problem* plus
machine parameters, never a live machine — lay the machine out once, cache
it by token, and run their cell chunk; the parent reassembles results in
schedule order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.executor import effective_workers, run_tasks
from repro.parallel.shards import matrix_token
from repro.util import require

__all__ = ["MACHINE_KINDS", "ScheduleShard", "sharded_schedule"]

MACHINE_KINDS = ("cyber", "fem")


@dataclass(frozen=True)
class ScheduleShard:
    """One worker's slice of a machine schedule (self-contained, picklable)."""

    token: str  # worker machine-cache key
    problem: object  # a picklable model problem (ProblemSpec products are)
    kind: str  # "cyber" | "fem"
    cells: tuple  # ((m, coefficients), ...) for this shard
    indices: tuple[int, ...]  # positions of those cells in the full schedule
    eps: float = 1e-6
    maxiter: int | None = None
    n_procs: int = 1  # fem layout
    timing: object | None = None  # machine timing model (None → kind default)
    reduction: str = "software"  # fem reduction network
    backend: str | None = None  # cyber/fem kernel backend


# Per-worker-process machine cache: token → machine instance (LRU,
# oldest-entry eviction — same discipline as the shard compile cache).
_MACHINES: dict[str, object] = {}
_MACHINES_CAP = 16


def _build_machine(shard: ScheduleShard):
    if shard.kind == "cyber":
        from repro.machines.cyber import CyberMachine
        from repro.machines.timing import CYBER_203

        return CyberMachine(
            shard.problem,
            shard.timing if shard.timing is not None else CYBER_203,
        )
    from repro.machines.fem_machine import FiniteElementMachine

    kwargs = {} if shard.timing is None else {"timing": shard.timing}
    return FiniteElementMachine(
        shard.problem, shard.n_procs, reduction=shard.reduction, **kwargs
    )


def run_schedule_shard(shard: ScheduleShard):
    """Worker entry point: one cell chunk through ``solve_schedule``."""
    machine = _MACHINES.get(shard.token)
    if machine is None:
        machine = _build_machine(shard)
        while len(_MACHINES) >= _MACHINES_CAP:  # evict oldest, never all
            _MACHINES.pop(next(iter(_MACHINES)))
        _MACHINES[shard.token] = machine
    else:
        _MACHINES[shard.token] = _MACHINES.pop(shard.token)  # refresh LRU
    results = machine.solve_schedule(
        list(shard.cells), eps=shard.eps, maxiter=shard.maxiter,
        backend=shard.backend,
    )
    return list(zip(shard.indices, results))


def _chunk(cells, workers: int) -> list[tuple[int, ...]]:
    """Contiguous, balanced index chunks: one per worker."""
    n = len(cells)
    shards = effective_workers(workers, n)
    bounds = np.linspace(0, n, shards + 1).astype(int)
    return [
        tuple(range(bounds[i], bounds[i + 1]))
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]


def sharded_schedule(
    problem,
    cells,
    machine: str = "cyber",
    *,
    workers: int = 1,
    eps: float = 1e-6,
    maxiter: int | None = None,
    n_procs: int = 1,
    timing=None,
    reduction: str = "software",
    backend: str | None = None,
) -> list:
    """Fan a ``solve_schedule`` cell list across worker processes.

    ``cells`` is the usual ``(m, coefficients)`` sequence; results come
    back in schedule order as the machine's own result records
    (:class:`~repro.machines.cyber.CyberResult` or
    :class:`~repro.machines.fem_machine.FEMResult`), bitwise identical per cell
    to a single-process ``solve_schedule`` over the full list — the
    clocks/op-ledger reconciliation contract those passes already pin.

    Each worker runs its contiguous chunk of cells as one lockstep pass,
    which splits a chunk wider than :data:`repro.kernels.BLOCK_WIDTH`
    into lockstep groups.  ``workers=1`` builds one machine inline and
    runs the ordinary pass.  The problem object must be picklable (every
    :class:`~repro.pipeline.ProblemSpec` product is).
    """
    require(machine in MACHINE_KINDS, f"machine must be one of {MACHINE_KINDS}")
    cells = [(int(m), coeffs) for m, coeffs in cells]
    if not cells:
        return []
    token = (
        f"{matrix_token(problem)}:{machine}:{n_procs}:{reduction}:"
        f"{backend!r}:{timing!r}"
    )
    chunks = _chunk(cells, workers)
    shards = [
        ScheduleShard(
            token=token,
            problem=problem,
            kind=machine,
            cells=tuple(cells[i] for i in indices),
            indices=indices,
            eps=eps,
            maxiter=maxiter,
            n_procs=n_procs,
            timing=timing,
            reduction=reduction,
            backend=backend,
        )
        for indices in chunks
    ]
    pairs = run_tasks(run_schedule_shard, shards, workers)
    results: list = [None] * len(cells)
    for chunk_pairs in pairs:
        for index, result in chunk_pairs:
            results[index] = result
    return results
