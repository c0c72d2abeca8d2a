"""Picklable work units for the sharded block-PCG path.

Worker dispatch never pickles live solver objects — compiled applicators
hold factorized kernels, workspace pools and lifetime counters that are
both expensive and wrong to ship.  Instead a :class:`ShardSpec` carries a
lightweight *handle* to the (already multicolor-permuted) operator plus an
:class:`ApplicatorRecipe` — the ``(kind, coefficients)`` description of a
compiled session cell — and the worker rebuilds the applicator through the
exact constructors the serial path uses
(:class:`~repro.multicolor.sor.MStepSSOR` or
:class:`~repro.kernels.stencil.StencilSSOR`).  Because the rebuild runs
the identical code on the identical matrix data, every shard's
:func:`~repro.core.pcg.block_pcg` lockstep is per-column bitwise identical
to the single-process solve.

The handle is normally a :class:`~repro.parallel.shm.CSRHandle` — segment
names + dtypes/shapes/offsets into :mod:`multiprocessing.shared_memory`,
from which the worker rebuilds **zero-copy read-only views** of the very
bytes the parent published (see :mod:`repro.parallel.shm`); the
right-hand-side block and the output block travel the same way, so the
steady-state dispatch ships only column indices and the recipe.  A
:class:`CSRPayload` (the flat pickled arrays) remains as the
``REPRO_NO_SHM`` fallback — same numerics, heavier pipe.

Workers cache their compiled state by the spec's ``token`` (one entry per
operator/recipe pair) with least-recently-used eviction, so repeated
solves against the same compiled session — the steady state of every
benchmark and service loop — pay neither transfer nor refactorization,
and a burst of one-off tokens can never evict a hot session's entry.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.parallel import shm
from repro.util import OperationCounter, require

__all__ = [
    "CSRPayload",
    "StencilDescription",
    "stencil_description",
    "ApplicatorRecipe",
    "ShardSpec",
    "ShardResult",
    "operator_handle",
    "run_shard",
    "warm_shard",
    "shard_token",
]


@dataclass(frozen=True)
class CSRPayload:
    """A scipy CSR matrix flattened to plain arrays (cheap, always picklable)."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_matrix(cls, k) -> "CSRPayload":
        k = k.tocsr()
        return cls(
            data=k.data, indices=k.indices, indptr=k.indptr,
            shape=(int(k.shape[0]), int(k.shape[1])),
        )

    def to_matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )


@dataclass(frozen=True)
class StencilDescription:
    """A :class:`~repro.kernels.stencil.StencilOperator` compressed to its
    diagonal description — the stencil path's shard handle.

    A regular-mesh diagonal is periodic with a tiny period almost
    everywhere — one constant on a scalar grid, an alternating pair on a
    dof-interleaved plate — so instead of shm segments (or megabytes of
    CSR) the dispatch ships, per diagonal, the dominant pattern (period
    1, 2 or 4 over the absolute row index) plus the few exception rows
    where the stored value deviates — or the dense diagonal itself, when
    coordinate ulps scatter the entries beyond any short period — and
    the color-group map packed to one byte per unknown.  :meth:`to_operator` rebuilds a **bitwise
    equal** operator worker-side (tile the pattern + exception scatter,
    then the constructor's own out-of-range zeroing), so the
    serial/sharded bitwise contract carries over to the matrix-free path
    with no CSR payloads at all.
    """

    offsets: tuple[int, ...]
    n: int
    patterns: tuple[np.ndarray, ...]  # per diagonal: dominant periodic values
    exc_idx: tuple[np.ndarray, ...]  # per diagonal: deviating rows (in-window)
    exc_vals: tuple[np.ndarray, ...]
    groups: np.ndarray  # (n,) packed color map
    labels: tuple[str, ...]

    def to_operator(self):
        """Rebuild the operator; values are bitwise the originals."""
        from repro.kernels.stencil import StencilOperator

        values = np.empty((len(self.offsets), self.n))
        for d, (pat, idx, vals) in enumerate(
            zip(self.patterns, self.exc_idx, self.exc_vals)
        ):
            if pat.size == 0:  # dense diagonal: vals is the full row
                values[d] = vals
                continue
            if pat.size == 1:
                values[d].fill(pat[0])
            else:
                reps = -(-self.n // pat.size)
                values[d] = np.tile(pat, reps)[: self.n]
            values[d][idx] = vals
        return StencilOperator(
            offsets=self.offsets,
            values=values,
            groups=self.groups.astype(np.int64),
            group_labels=self.labels,
            copy=False,
        )


def _dominant_pattern(v: np.ndarray, s: int, e: int):
    """The periodic pattern covering most of ``v[s:e]``, plus exceptions.

    Tries periods 1, 2 and 4 over the *absolute* row index (so the
    rebuild tiles from row 0) and keeps the shortest one whose exception
    list stops shrinking substantially — a scalar grid compresses to one
    constant, a 2-dof plate diagonal to its alternating pair.
    """
    window = v[s:e]
    best = (np.zeros(1), s + np.flatnonzero(window != 0.0))
    best_count = best[1].size + 1
    for p in (1, 2, 4):
        if window.size < 2 * p:
            break
        pattern = np.empty(p)
        for r in range(p):
            cls = window[(r - s) % p :: p]
            uniq, counts = np.unique(cls, return_counts=True)
            pattern[r] = uniq[np.argmax(counts)] if uniq.size else 0.0
        idx = s + np.flatnonzero(window != np.tile(pattern, -(-e // p))[s:e])
        if idx.size < best_count // 2:  # doubling the period must pay
            best, best_count = (pattern, idx), idx.size
    pattern, idx = best
    if idx.size * 3 > window.size * 2:
        # Ulp-scattered diagonal (mesh-coordinate ulps propagate into the
        # entries): exceptions would cost more than the row itself — ship
        # the diagonal dense.  Marked by an empty pattern.
        return np.zeros(0), np.zeros(0, dtype=np.int64), v.copy()
    return pattern, idx, v[idx].copy()


def stencil_description(op) -> StencilDescription:
    """Compress ``op`` to its picklable handle (cached on the operator).

    Exceptions are collected over each diagonal's in-window rows only;
    out-of-window rows rebuild as the pattern and are re-zeroed by the
    ``StencilOperator`` constructor, exactly as the original was.
    """
    cached = getattr(op, "_repro_shard_description", None)
    if cached is not None:
        return cached
    n = op.n
    patterns, exc_idx, exc_vals = [], [], []
    for o, v in zip(op.offsets, op.values):
        s = -o if o < 0 else 0
        e = n - o if o > 0 else n
        pattern, idx, vals = _dominant_pattern(v, s, e)
        patterns.append(pattern)
        exc_idx.append(idx.astype(np.int32) if n < 2**31 else idx)
        exc_vals.append(vals)
    packed = (
        op.groups.astype(np.int8) if op.n_groups <= 127 else op.groups
    )
    desc = StencilDescription(
        offsets=tuple(op.offsets),
        n=n,
        patterns=tuple(patterns),
        exc_idx=tuple(exc_idx),
        exc_vals=tuple(exc_vals),
        groups=packed,
        labels=tuple(op.group_labels),
    )
    try:
        op._repro_shard_description = desc
    except AttributeError:
        pass
    return desc


@dataclass(frozen=True)
class ApplicatorRecipe:
    """How to rebuild a preconditioner from the shard's operator.

    ``kind``
        ``"none"`` (plain CG), ``"sweep"`` (Conrad–Wallach merged
        multicolor sweep — needs the ``groups`` map and ``labels`` to
        reconstruct the :class:`~repro.multicolor.blocked.BlockedMatrix`
        view), or ``"stencil"`` (the matrix-free
        :class:`~repro.kernels.stencil.StencilSSOR` sweep, straight off
        the worker-side rebuilt :class:`StencilDescription` operator —
        its color groups ride on the operator itself).
    ``groups``
        Color group of every row of the *permuted* operator (i.e. already
        sorted), so the rebuilt ordering is the identity permutation and
        the worker's block view extracts byte-identical sub-blocks.
    """

    kind: str = "none"
    coefficients: np.ndarray | None = None
    groups: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        require(self.kind in ("none", "sweep", "stencil"),
                "recipe kind must be 'none', 'sweep' or 'stencil'")
        if self.kind != "none":
            require(self.coefficients is not None,
                    f"a {self.kind!r} recipe needs its coefficient schedule")
        if self.kind == "sweep":
            require(self.groups is not None,
                    "a 'sweep' recipe needs the permuted color-group map")

    def build(self, k):
        """The applicator the serial path would use, rebuilt in-process."""
        if self.kind == "none":
            return None
        coefficients = np.asarray(self.coefficients, dtype=float)
        if self.kind == "stencil":
            from repro.kernels.stencil import StencilSSOR

            return StencilSSOR(k, coefficients)
        from repro.multicolor.blocked import BlockedMatrix
        from repro.multicolor.ordering import MulticolorOrdering
        from repro.multicolor.sor import MStepSSOR

        ordering = MulticolorOrdering.from_groups(self.groups, self.labels)
        blocked = BlockedMatrix.from_matrix(k, ordering, validate=False)
        return MStepSSOR(blocked, coefficients)

    def fingerprint(self) -> str:
        """Content hash used in worker compile-cache tokens."""
        parts = [self.kind]
        if self.coefficients is not None:
            parts.append(np.asarray(self.coefficients, dtype=float).tobytes().hex())
        if self.groups is not None:
            parts.append(np.asarray(self.groups).tobytes().hex()[:64])
        return "|".join(parts)


@dataclass(frozen=True)
class ShardSpec:
    """One column group's solve, self-contained and picklable.

    On the zero-copy path ``matrix`` is a
    :class:`~repro.parallel.shm.CSRHandle` and ``F``/``u0``/``out`` are
    :class:`~repro.parallel.shm.ArrayView` handles over the *full*
    ``(n, k)`` blocks — the worker slices its own contiguous column range
    out of the mapped segment without copying, and writes its iterate
    columns into ``out`` so nothing wide is pickled in either direction.
    On the pickled fallback ``matrix`` is a :class:`CSRPayload`, ``F`` the
    ``(n, g)`` slice itself, and ``out`` is ``None`` (the iterates ride
    back in :attr:`ShardResult.u`).
    """

    token: str  # worker compile-cache key (operator + recipe)
    matrix: object  # an operator_handle: CSRHandle, CSRPayload or StencilDescription
    recipe: ApplicatorRecipe
    columns: np.ndarray  # global column indices of this group
    F: object  # ArrayView over the full block, or the (n, g) slice itself
    u0: object | None = None  # ArrayView, (n, g)/(n,) ndarray, or None
    out: object | None = None  # ArrayView of the shared (n, k) output block
    eps: float = 1e-6
    maxiter: int | None = None
    track_residual: bool = False
    stopping: object | None = None  # a picklable StoppingRule, or None


@dataclass
class ShardResult:
    """One shard's :class:`~repro.core.pcg.BlockPCGResult`, flattened.

    ``u`` is ``None`` when the iterates went back through the spec's
    shared output block instead of the pipe.
    """

    columns: np.ndarray
    u: np.ndarray | None
    iterations: np.ndarray
    converged: np.ndarray
    delta_histories: list[list[float]]
    residual_histories: list[list[float]]
    counters: list[OperationCounter] = field(default_factory=list)
    stop_rule: str = ""


# Per-worker-process compiled state: token → (csr matrix, applicator),
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


def operator_handle(k, use_shm: bool):
    """How the operator ``k`` travels to the workers.

    A matrix-free :class:`~repro.kernels.stencil.StencilOperator` (no
    ``tocsr``) ships as its tiny :class:`StencilDescription` on either
    transport.  An assembled operator is published once to the segment
    registry under its :func:`matrix_token` when ``use_shm`` (a
    :class:`~repro.parallel.shm.CSRHandle`; later calls hit the
    registry's cache), and flattened into a pickled :class:`CSRPayload`
    otherwise.
    """
    if not hasattr(k, "tocsr"):
        return stencil_description(k)
    if use_shm:
        return shm.registry().publish_operator(matrix_token(k), k)
    return CSRPayload.from_matrix(k)


def compiled_shard_state(spec: ShardSpec):
    """The shard's (operator, applicator), rebuilt once per worker process."""
    state = _COMPILED.get(spec.token)
    if state is not None:
        _COMPILED[spec.token] = _COMPILED.pop(spec.token)  # refresh LRU
        return state
    if isinstance(spec.matrix, CSRPayload):
        k = spec.matrix.to_matrix()
    elif isinstance(spec.matrix, StencilDescription):
        k = spec.matrix.to_operator()  # bitwise rebuild, no shm segments
    else:  # CSRHandle → zero-copy read-only views over the mapped segment
        k = shm.attach_csr(spec.matrix)
    state = (k, spec.recipe.build(k))
    while len(_COMPILED) >= _COMPILED_CAP:  # evict oldest, never everything
        _COMPILED.pop(next(iter(_COMPILED)))
    _COMPILED[spec.token] = state
    return state


def _column_range(block: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``block[:, columns]`` as a zero-copy slice when columns are a range."""
    columns = np.asarray(columns)
    lo, hi = int(columns[0]), int(columns[-1]) + 1
    if hi - lo == columns.size:  # contiguous (what column_groups produces)
        return block[:, lo:hi]
    return block[:, columns]


def run_shard(spec: ShardSpec) -> ShardResult:
    """Worker entry point: one column group through ``block_pcg``."""
    from repro.core.pcg import block_pcg

    k, preconditioner = compiled_shard_state(spec)
    columns = np.asarray(spec.columns)
    F = spec.F
    if isinstance(F, shm.ArrayView):
        F = _column_range(shm.attach_view(F), columns)
    u0 = spec.u0
    if isinstance(u0, shm.ArrayView):
        u0 = _column_range(shm.attach_view(u0), columns)
    result = block_pcg(
        k,
        F,
        preconditioner=preconditioner,
        u0=u0,
        stopping=spec.stopping,
        eps=spec.eps,
        maxiter=spec.maxiter,
        track_residual=spec.track_residual,
    )
    u = result.u
    if spec.out is not None:
        # Iterates go back through the shared output block, not the pipe.
        _column_range(shm.attach_view(spec.out, writable=True), columns)[...] = u
        u = None
    return ShardResult(
        columns=columns,
        u=u,
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
