"""Sharded multi-RHS PCG: column groups of one block across worker processes.

The :func:`repro.core.pcg.block_pcg` lockstep is embarrassingly parallel
over right-hand-side columns — no column ever reads another column's state
— so an ``(n, k)`` block splits into column groups that solve concurrently
on separate processes.  This is the first layer of the reproduction where
wall-clock actually scales with local cores, the way the paper's machines
scaled with processors; the numerics do **not** change:

* each group runs the ordinary ``block_pcg`` on its slice (per-column
  bitwise identical to a solo :func:`~repro.core.pcg.pcg` by the block
  path's standing contract), rebuilt from a picklable
  :class:`~repro.parallel.shards.ShardSpec` — never a pickled live
  applicator — over the operator and blocks the parent published to
  shared memory (:mod:`repro.parallel.shm`);
* reassembly is pure placement — the workers write their iterate columns
  into the shared output block, and iteration counts, histories and
  per-column operation counters land exactly where a single-process
  ``block_pcg`` over the full block would have put them, bitwise.

``workers=1`` (or one group, or ``k ≤ 1``) never spawns a process and is
literally the serial call.
"""

from __future__ import annotations

import numpy as np

from repro.core.pcg import BlockPCGResult, block_pcg
from repro.parallel import shm
from repro.parallel.executor import effective_workers, run_tasks
from repro.parallel.shards import (
    ApplicatorRecipe,
    ShardSpec,
    matrix_token,
    operator_handle,
    run_shard,
    shard_token,
)
from repro.util import require

__all__ = ["column_groups", "build_shard_specs", "sharded_block_pcg"]


def column_groups(
    n_columns: int, workers: int, group: int | None = None
) -> list[np.ndarray]:
    """Contiguous column-index groups for an ``(n, k)`` block.

    ``group`` is the column count per shard; by default the block is split
    evenly across ``workers`` (never more groups than columns — ``W > k``
    degrades gracefully to one column per shard).
    """
    require(n_columns >= 0, "column count must be non-negative")
    if n_columns == 0:
        return []
    if group is None:
        shards = effective_workers(workers, n_columns)
        group = -(-n_columns // shards)  # ceil
    require(group >= 1, "group (columns per shard) must be at least 1")
    return [
        np.arange(start, min(start + group, n_columns))
        for start in range(0, n_columns, group)
    ]


def build_shard_specs(
    k,
    F: np.ndarray,
    recipe: ApplicatorRecipe,
    groups: list[np.ndarray],
    *,
    u0: np.ndarray | None = None,
    stopping=None,
    eps: float = 1e-6,
    maxiter: int | None = None,
    track_residual: bool = False,
) -> tuple[list[ShardSpec], shm.ArrayView]:
    """The dispatchable :class:`ShardSpec` list for one sharded block solve.

    The operator — permuted CSR or matrix-free stencil — is published to
    the segment registry once per operator token
    (:func:`~repro.parallel.shards.operator_handle`), and the ``(n, k)``
    blocks into that token's reusable slots, so a steady-state dispatch
    re-publishes only the right-hand-side values (one memcpy).  A single
    ``(n,)`` guess ``u0`` is published broadcast to the block's width.
    The specs carry segment handles plus column indices.  Returns
    ``(specs, out_view)`` where ``out_view`` is the shared output block's
    :class:`~repro.parallel.shm.ArrayView`.
    """
    F = np.asarray(F, dtype=float)
    n, ncols = F.shape
    reg = shm.registry()
    mtoken = matrix_token(k)
    u0_view = None
    if u0 is not None:
        u0 = np.asarray(u0, dtype=float)
        u0 = u0 if u0.ndim == 2 else np.broadcast_to(u0[:, None], (n, ncols))
        u0_view = reg.publish_block(mtoken, "u0", u0)
    f_view = reg.publish_block(mtoken, "rhs", F)
    out_view = reg.alloc_block(mtoken, "out", (n, ncols))
    token, handle = shard_token(k, recipe), operator_handle(k)
    specs = [
        ShardSpec(
            token=token, matrix=handle, recipe=recipe, columns=cols,
            F=f_view, out=out_view, u0=u0_view, eps=eps, maxiter=maxiter,
            track_residual=track_residual, stopping=stopping,
        )
        for cols in groups
    ]
    return specs, out_view


def sharded_block_pcg(
    k,
    F: np.ndarray,
    preconditioner=None,
    *,
    workers: int = 1,
    group: int | None = None,
    recipe: ApplicatorRecipe | None = None,
    u0: np.ndarray | None = None,
    stopping=None,
    eps: float = 1e-6,
    maxiter: int | None = None,
    track_residual: bool = False,
) -> BlockPCGResult:
    """Solve ``K U = F`` with the RHS block sharded across worker processes.

    Parameters mirror :func:`~repro.core.pcg.block_pcg`; the sharding knobs:

    workers:
        Worker processes to fan the column groups across.  ``1`` runs the
        plain serial ``block_pcg`` (no processes, no pickling).
    group:
        Columns per shard (default: an even split over ``workers``).
        ``group=1`` degenerates to one independent per-column ``pcg``-
        equivalent solve per shard; ``workers > k`` clamps to ``k``.
    recipe:
        The :class:`~repro.parallel.shards.ApplicatorRecipe` workers
        rebuild the preconditioner from.  Required whenever work actually
        leaves the process (live applicators are never pickled); when
        executing inline the recipe is compiled locally instead, so either
        a recipe or a live ``preconditioner`` works there.  Passing *both*
        is an error — ambiguity about which object defines the numerics is
        exactly what this layer must not have.

    The operator and the blocks reach the workers through shared memory
    (:func:`build_shard_specs`); the workers compute on the very bytes
    the parent published.  Every column of the result — iterate,
    iteration count, histories, operation counter — is bitwise identical
    to the single-process ``block_pcg`` over the full block (and hence to
    ``k`` solo ``pcg`` runs), for any ``workers``/``group`` partition;
    the tests pin all of W ∈ {1, 2, 4}.
    """
    F = np.asarray(F, dtype=float)
    require(F.ndim == 2, "sharded_block_pcg needs an (n, k) right-hand-side block")
    require(
        preconditioner is None or recipe is None,
        "pass either a live preconditioner or a recipe, not both",
    )
    ncols = F.shape[1]
    groups = column_groups(ncols, workers, group)
    workers = effective_workers(workers, max(len(groups), 1))

    if workers == 1 or len(groups) <= 1:
        if preconditioner is None and recipe is not None:
            preconditioner = recipe.build(k.tocsr() if hasattr(k, "tocsr") else k)
        return block_pcg(
            k, F, preconditioner=preconditioner, u0=u0, stopping=stopping,
            eps=eps, maxiter=maxiter, track_residual=track_residual,
        )

    require(
        recipe is not None or preconditioner is None,
        "sharded execution rebuilds the applicator per worker: pass a "
        "recipe (ApplicatorRecipe), not a live preconditioner",
    )
    recipe = recipe if recipe is not None else ApplicatorRecipe()
    specs, out_view = build_shard_specs(
        k, F, recipe, groups, u0=u0, stopping=stopping, eps=eps,
        maxiter=maxiter, track_residual=track_residual,
    )
    shards = run_tasks(run_shard, specs, workers)

    # Pure placement: every shard's columns land at their global indices.
    # The workers already placed their iterate columns into the shared
    # output block — one contiguous copy out.
    u = np.ascontiguousarray(shm.registry().resolve(out_view))
    iterations = np.zeros(ncols, dtype=int)
    converged = np.zeros(ncols, dtype=bool)
    delta_histories: list[list[float]] = [[] for _ in range(ncols)]
    residual_histories: list[list[float]] = [[] for _ in range(ncols)]
    counters = [None] * ncols
    stop_rule = shards[0].stop_rule if shards else ""
    for shard in shards:
        for local, j in enumerate(shard.columns):
            iterations[j] = shard.iterations[local]
            converged[j] = shard.converged[local]
            delta_histories[j] = shard.delta_histories[local]
            residual_histories[j] = shard.residual_histories[local]
            counters[j] = shard.counters[local]
    return BlockPCGResult(
        u=u,
        iterations=iterations,
        converged=converged,
        delta_histories=delta_histories,
        residual_histories=residual_histories,
        counters=counters,
        stop_rule=stop_rule,
    )
