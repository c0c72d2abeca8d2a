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
  applicator;
* reassembly is pure placement — iterates, iteration counts, histories
  and per-column operation counters land exactly where a single-process
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
    use_shm: bool | None = None,
) -> tuple[list[ShardSpec], object]:
    """The dispatchable :class:`ShardSpec` list for one sharded block solve.

    On the zero-copy path (``use_shm`` true, the default when
    :func:`repro.parallel.shm.shm_enabled`) the operator's CSR arrays and
    the ``(n, k)`` blocks are published to the segment registry — cached
    per operator token, so a steady-state dispatch re-publishes only the
    right-hand-side values (one memcpy) — and the specs carry segment
    handles plus column indices.  Returns ``(specs, out_view)`` where
    ``out_view`` is the shared output block's
    :class:`~repro.parallel.shm.ArrayView` (``None`` on the pickled
    fallback, where each spec carries its own ``(n, g)`` slice and the
    iterates ride back through the result pickle).

    The operator itself travels by :func:`~repro.parallel.shards.
    operator_handle` — a matrix-free
    :class:`~repro.kernels.stencil.StencilOperator` as its tiny
    :class:`~repro.parallel.shards.StencilDescription` on either
    transport, while its right-hand-side and output blocks still ride
    shared memory when enabled.
    """
    F = np.asarray(F, dtype=float)
    n, ncols = F.shape
    if u0 is not None:
        u0 = np.asarray(u0, dtype=float)
    use_shm = shm.shm_enabled() if use_shm is None else use_shm
    common = dict(
        token=shard_token(k, recipe), matrix=operator_handle(k, use_shm),
        recipe=recipe, eps=eps, maxiter=maxiter,
        track_residual=track_residual, stopping=stopping,
    )

    if use_shm:
        reg = shm.registry()
        mtoken = matrix_token(k)
        f_view = reg.publish_block(mtoken, "rhs", F)
        u0_common = None
        if u0 is not None and u0.ndim == 2:
            u0_common = reg.publish_block(mtoken, "u0", u0)
        elif u0 is not None:
            u0_common = u0  # a single (n,) guess is cheap enough to pickle
        out_view = reg.alloc_block(mtoken, "out", (n, ncols))
        specs = [
            ShardSpec(
                columns=cols, F=f_view, u0=u0_common, out=out_view, **common,
            )
            for cols in groups
        ]
        return specs, out_view

    specs = []
    for cols in groups:
        u0_slice = None
        if u0 is not None:
            u0_slice = u0 if u0.ndim == 1 else np.ascontiguousarray(u0[:, cols])
        specs.append(
            ShardSpec(
                columns=cols, F=np.ascontiguousarray(F[:, cols]), u0=u0_slice,
                **common,
            )
        )
    return specs, None


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
    use_shm: bool | None = None,
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
    use_shm:
        Force the transport: ``True`` the zero-copy shared-memory plan
        (operator and blocks mapped once, workers view them in place,
        iterates returned through a shared output block), ``False`` the
        pickled :class:`~repro.parallel.shards.CSRPayload` fallback.
        Default: shared memory unless ``REPRO_NO_SHM`` is set.  The two
        transports are bitwise identical — the views *are* the bytes.

    Every column of the result — iterate, iteration count, histories,
    operation counter — is bitwise identical to the single-process
    ``block_pcg`` over the full block (and hence to ``k`` solo ``pcg``
    runs), for any ``workers``/``group`` partition and either transport;
    the tests pin all of W ∈ {1, 2, 4}.
    """
    F = np.asarray(F, dtype=float)
    require(F.ndim == 2, "sharded_block_pcg needs an (n, k) right-hand-side block")
    require(
        preconditioner is None or recipe is None,
        "pass either a live preconditioner or a recipe, not both",
    )
    n, ncols = F.shape
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
    recipe = recipe if recipe is not None else ApplicatorRecipe(kind="none")
    specs, out_view = build_shard_specs(
        k, F, recipe, groups, u0=u0, stopping=stopping, eps=eps,
        maxiter=maxiter, track_residual=track_residual, use_shm=use_shm,
    )
    shards = run_tasks(run_shard, specs, workers)

    # Pure placement: every shard's columns land at their global indices.
    # On the zero-copy path the workers already placed their iterate
    # columns into the shared output block — one contiguous copy out.
    if out_view is not None:
        u = np.ascontiguousarray(shm.registry().resolve(out_view))
    else:
        u = np.empty((n, ncols))
    iterations = np.zeros(ncols, dtype=int)
    converged = np.zeros(ncols, dtype=bool)
    delta_histories: list[list[float]] = [[] for _ in range(ncols)]
    residual_histories: list[list[float]] = [[] for _ in range(ncols)]
    counters = [None] * ncols
    stop_rule = shards[0].stop_rule if shards else ""
    for shard in shards:
        for local, j in enumerate(shard.columns):
            if shard.u is not None:
                u[:, j] = shard.u[:, local]
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
