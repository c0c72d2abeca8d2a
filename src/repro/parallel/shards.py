"""Picklable work units for the sharded block-PCG path.

Worker dispatch never pickles live solver objects — compiled applicators
hold factorized kernels, workspace pools and lifetime counters that are
both expensive and wrong to ship.  Instead a :class:`ShardSpec` carries a
handle to the operator the parent published to shared memory (the
multicolor-permuted CSR, or the matrix-free stencil — see
:mod:`repro.parallel.shm`) plus an :class:`ApplicatorRecipe`, and the
worker rebuilds the applicator through the exact constructors the serial
path uses (:class:`~repro.multicolor.sor.MStepSSOR` or
:class:`~repro.kernels.stencil.StencilSSOR`).  Because the rebuild runs
the identical code on the identical bytes, every shard's
:func:`~repro.core.pcg.block_pcg` lockstep is per-column bitwise
identical to the single-process solve.

The right-hand-side and output blocks travel the same way, so a
steady-state dispatch ships only handles, column indices and the recipe.

Workers cache their compiled state by the spec's ``token`` (one entry per
operator/recipe pair) with least-recently-used eviction, so repeated
solves against the same compiled session — the steady state of every
benchmark and service loop — pay neither transfer nor refactorization,
and a burst of one-off tokens can never evict a hot session's entry.
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass, field

import numpy as np

from repro.parallel import shm
from repro.util import OperationCounter, require

__all__ = [
    "ApplicatorRecipe",
    "ShardSpec",
    "ShardResult",
    "operator_handle",
    "run_shard",
    "warm_shard",
    "shard_token",
]


@dataclass(frozen=True)
class ApplicatorRecipe:
    """How to rebuild a preconditioner from the shard's operator.

    ``coefficients``
        The cell's m-step αᵢ, or ``None`` for plain CG.  The sweep follows
        from the operator: a matrix-free stencil gets the
        :class:`~repro.kernels.stencil.StencilSSOR` sweep (its color
        groups ride on the operator), an assembled one the Conrad–Wallach
        merged multicolor sweep :class:`~repro.multicolor.sor.MStepSSOR`.
    ``group_sizes``, ``labels``
        Rows per color of the *permuted* assembled operator, in order, and
        the colors' names: the rebuilt ordering is the identity
        permutation, so the worker's block view extracts byte-identical
        sub-blocks.  Unused on a stencil.
    """

    coefficients: np.ndarray | None = None
    group_sizes: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()

    def build(self, k):
        """The applicator the serial path would use, rebuilt in-process."""
        if self.coefficients is None:
            return None
        coefficients = np.asarray(self.coefficients, dtype=float)
        if not hasattr(k, "tocsr"):
            from repro.kernels.stencil import StencilSSOR

            return StencilSSOR(k, coefficients)
        from repro.multicolor.blocked import BlockedMatrix
        from repro.multicolor.ordering import MulticolorOrdering
        from repro.multicolor.sor import MStepSSOR

        require(
            sum(self.group_sizes) == k.shape[0],
            "an assembled operator's sweep needs its permuted color-group sizes",
        )
        groups = np.repeat(np.arange(len(self.group_sizes)), self.group_sizes)
        ordering = MulticolorOrdering.from_groups(groups, self.labels)
        blocked = BlockedMatrix.from_matrix(k, ordering, validate=False)
        return MStepSSOR(blocked, coefficients)

    def fingerprint(self) -> str:
        """Content hash of every field, used in worker compile-cache tokens."""
        coefficients = (
            None if self.coefficients is None
            else np.asarray(self.coefficients, dtype=float).tobytes()
        )
        content = repr((coefficients, self.group_sizes, self.labels))
        return hashlib.blake2b(content.encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One column group's solve, self-contained and picklable.

    ``matrix`` is the operator's :class:`~repro.parallel.shm.CSRHandle`
    or :class:`~repro.parallel.shm.StencilHandle`; ``F``/``u0``/``out``
    are :class:`~repro.parallel.shm.ArrayView` handles over the *full*
    ``(n, k)`` blocks — the worker slices its own contiguous column range
    out of the mapped segment without copying, and writes its iterate
    columns into ``out``, so nothing wide is pickled in either direction.
    Warm-up specs (:func:`warm_shard`) carry no blocks.
    """

    token: str  # worker compile-cache key (operator + recipe)
    matrix: shm.CSRHandle | shm.StencilHandle
    recipe: ApplicatorRecipe
    columns: np.ndarray  # global column indices of this group
    F: shm.ArrayView | None = None
    out: shm.ArrayView | None = None
    u0: shm.ArrayView | None = None
    eps: float = 1e-6
    maxiter: int | None = None
    track_residual: bool = False
    stopping: object | None = None  # a picklable StoppingRule, or None


@dataclass
class ShardResult:
    """One shard's :class:`~repro.core.pcg.BlockPCGResult`, flattened; the
    iterates went back through the spec's shared output block."""

    columns: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    delta_histories: list[list[float]]
    residual_histories: list[list[float]]
    counters: list[OperationCounter] = field(default_factory=list)
    stop_rule: str = ""


# Per-worker-process compiled state: token → (operator, applicator),
# least-recently-used first.  Bounded by _COMPILED_CAP with oldest-entry
# eviction — a hot token is refreshed on every hit, so no burst of one-off
# tokens can evict a live session's compiled state (the old clear()-on-65
# behavior nuked the whole cache, steady-state entries included).
_COMPILED: dict[str, tuple] = {}
_COMPILED_CAP = 64


def matrix_token(k) -> str:
    """A stable per-object token for ``k`` (new object → new token).

    Stashed on the matrix itself so every dispatch against one compiled
    operator reuses the workers' compile caches; objects that refuse
    attributes simply get a fresh token (correct, merely uncached).
    """
    token = getattr(k, "_repro_shard_token", None)
    if token is None:
        token = uuid.uuid4().hex
        try:
            k._repro_shard_token = token
        except AttributeError:
            try:  # frozen dataclasses (model problems) still carry a __dict__
                object.__setattr__(k, "_repro_shard_token", token)
            except AttributeError:
                pass
    return token


def shard_token(k, recipe: ApplicatorRecipe) -> str:
    """The worker compile-cache key for one (operator, recipe) pair."""
    return f"{matrix_token(k)}:{recipe.fingerprint()}"


def operator_handle(k) -> shm.CSRHandle | shm.StencilHandle:
    """How the operator ``k`` travels to the workers: published once to
    the segment registry under its :func:`matrix_token` (later calls hit
    the registry's cache), whether assembled or matrix-free."""
    return shm.registry().publish_operator(matrix_token(k), k)


def compiled_shard_state(spec: ShardSpec):
    """The shard's (operator, applicator), rebuilt once per worker process."""
    state = _COMPILED.get(spec.token)
    if state is not None:
        _COMPILED[spec.token] = _COMPILED.pop(spec.token)  # refresh LRU
        return state
    k = shm.attach_operator(spec.matrix)
    state = (k, spec.recipe.build(k))
    while len(_COMPILED) >= _COMPILED_CAP:  # evict oldest, never everything
        _COMPILED.pop(next(iter(_COMPILED)))
    _COMPILED[spec.token] = state
    return state


def _column_range(view: shm.ArrayView, columns: np.ndarray, writable=False):
    """The mapped block's ``[:, columns]``, a zero-copy slice when the
    columns are a range (what :func:`~repro.parallel.column_groups`
    produces)."""
    block = shm.attach_view(view, writable=writable)
    lo, hi = int(columns[0]), int(columns[-1]) + 1
    if hi - lo == columns.size:
        return block[:, lo:hi]
    return block[:, columns]


def run_shard(spec: ShardSpec) -> ShardResult:
    """Worker entry point: one column group through ``block_pcg``."""
    from repro.core.pcg import block_pcg

    k, preconditioner = compiled_shard_state(spec)
    columns = np.asarray(spec.columns)
    result = block_pcg(
        k,
        _column_range(spec.F, columns),
        preconditioner=preconditioner,
        u0=None if spec.u0 is None else _column_range(spec.u0, columns),
        stopping=spec.stopping,
        eps=spec.eps,
        maxiter=spec.maxiter,
        track_residual=spec.track_residual,
    )
    _column_range(spec.out, columns, writable=True)[...] = result.u
    return ShardResult(
        columns=columns,
        iterations=result.iterations,
        converged=result.converged,
        delta_histories=result.delta_histories,
        residual_histories=result.residual_histories,
        counters=result.counters,
        stop_rule=result.stop_rule,
    )


def warm_shard(spec: ShardSpec) -> str:
    """Worker entry point for pool pre-warming: compile, solve nothing.

    Dispatched by :meth:`repro.pipeline.SolverSession.prewarm_sharding`
    so steady-state solves find the worker's operator attachment and
    factorized applicator already cached under the spec's token.
    """
    compiled_shard_state(spec)
    return spec.token
