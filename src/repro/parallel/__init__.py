"""Real parallelism: worker-process execution of shardable solver work.

Everything below this package actually runs on multiple local cores —
unlike :mod:`repro.machines`, which *simulates* 1983 parallel hardware on
one process.  Two work units are shardable today, both riding on standing
bitwise contracts:

* :func:`sharded_block_pcg` — an ``(n, k)`` right-hand-side block's
  column groups, each group a :func:`~repro.core.pcg.block_pcg` lockstep
  in its own worker (columns are independent, so this is embarrassingly
  parallel); reassembled results are bitwise identical to the
  single-process block path.
* :func:`sharded_schedule` — Table-2/3 schedule cells of the machine
  simulators' ``solve_schedule`` passes, whose per-cell records
  (iterations, clocks, op and message ledgers, iterates) are partition-
  invariant by contract.

Workers receive picklable specs (:class:`ShardSpec`,
:class:`ApplicatorRecipe`, :class:`ScheduleShard`) and rebuild compiled
state through the same constructors the serial paths use — live
applicators and machines are never pickled.  The value-carrying arrays
(the operator, permuted CSR or matrix-free stencil alike, and the
right-hand-side and output blocks) move through named shared-memory
segments owned by the :class:`~repro.parallel.shm.SegmentRegistry`, with
workers mapping read-only views — see :mod:`repro.parallel.shm` — so the
steady-state dispatch ships only handles, column indices and the recipe.
``workers=1`` everywhere means "inline, no processes": the serial code
path, exactly.
"""

from repro.parallel.block import (
    build_shard_specs,
    column_groups,
    sharded_block_pcg,
)
from repro.parallel.executor import (
    available_workers,
    effective_workers,
    run_tasks,
    shutdown_pools,
)
from repro.parallel.schedule import MACHINE_KINDS, ScheduleShard, sharded_schedule
from repro.parallel.shards import (
    ApplicatorRecipe,
    ShardResult,
    ShardSpec,
    operator_handle,
    run_shard,
    shard_token,
    warm_shard,
)
from repro.parallel.shm import (
    ArrayView,
    CSRHandle,
    SegmentRegistry,
    StencilHandle,
    registry,
    release_all_segments,
)

__all__ = [
    "build_shard_specs",
    "column_groups",
    "sharded_block_pcg",
    "available_workers",
    "effective_workers",
    "run_tasks",
    "shutdown_pools",
    "MACHINE_KINDS",
    "ScheduleShard",
    "sharded_schedule",
    "ApplicatorRecipe",
    "ShardResult",
    "ShardSpec",
    "operator_handle",
    "run_shard",
    "shard_token",
    "warm_shard",
    "ArrayView",
    "CSRHandle",
    "SegmentRegistry",
    "StencilHandle",
    "registry",
    "release_all_segments",
]
