"""Shared-memory transport: how every sharded solve ships its arrays.

Every value-carrying array a shard needs — its operator, the
right-hand-side block and the output block — moves through named
:mod:`multiprocessing.shared_memory` segments, so the per-task cost the
paper's model ``T_m = (A + m·B)·N_m`` charges for every word moved stays
at about a kilobyte per task, whatever the operator's size:

* the **parent** owns every segment through one :class:`SegmentRegistry`
  (create → write once → unlink at release), grouping segments by the
  operator's token so a compiled session's publications live exactly as
  long as its compiled state.  :meth:`SegmentRegistry.publish_operator`
  packs either operator representation into one aligned segment: the
  permuted CSR's ``data``/``indices``/``indptr`` (a :class:`CSRHandle`),
  or a matrix-free stencil's ``values``/``groups``/``offsets`` (a
  :class:`StencilHandle`);
* **workers** map *zero-copy read-only views* —
  ``np.ndarray(..., buffer=shm.buf)`` over the mapped bytes — and
  :func:`attach_operator` builds the operator from them: a
  ``csr_matrix`` wrapping the views without copying, or a
  :class:`~repro.kernels.stencil.StencilOperator` over a private copy of
  the diagonals (its constructor zeroes out-of-range rows in place, so it
  must not write to the segment).  Either way the operator a shard
  computes with holds the very bytes the parent published, which makes
  the serial/sharded bitwise contract hold by construction;
* results return through a shared **output block**: each shard writes its
  columns into the ``(n, k)`` out-segment at their global offsets, so the
  iterates are never pickled back either.

What crosses the pipe per task is a :class:`~repro.parallel.shards.
ShardSpec` holding segment *names + dtypes/shapes/offsets*, the column
indices and the applicator recipe — about 1.1 KB
(``benchmarks/perf_report.py`` records the number).

Lifetime rules (the part shared memory makes easy to get wrong):

* every create is registered in the module registry and released by
  token (:meth:`SegmentRegistry.release`), by
  :func:`repro.parallel.executor.shutdown_pools`, and by ``atexit`` — a
  crashed run leaves nothing in ``/dev/shm`` (abnormal termination is
  covered by the stdlib resource tracker, which still knows about every
  parent-side segment);
* worker-side attachments are cached by name (a steady-state worker
  attaches each segment once) and never touch the resource tracker:
  every multiprocessing child shares the parent's tracker process, where
  the creator's registration already lives — see
  :func:`_attach_segment` for why unregistering there would be the
  bpo-38119 double-cleanup in reverse;
* the registry is fork-aware: a forked worker inheriting the parent's
  registry (worker processes run ``atexit`` handlers too) must never
  unlink the parent's segments, so every destructive operation no-ops
  off-owner-pid.
"""

from __future__ import annotations

import atexit
import os
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import scipy.sparse as sp

from repro.util import require

__all__ = [
    "ArrayView",
    "CSRHandle",
    "StencilHandle",
    "SegmentRegistry",
    "registry",
    "attach_view",
    "attach_operator",
    "detach_all",
    "release_all_segments",
]

#: Byte alignment of packed arrays inside one segment (cache-line sized).
_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArrayView:
    """One ndarray inside a named segment: everything a worker needs to map it."""

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int = 0
    order: str = "C"


@dataclass(frozen=True)
class CSRHandle:
    """A CSR operator's three arrays packed into one segment."""

    shape: tuple[int, int]
    data: ArrayView
    indices: ArrayView
    indptr: ArrayView


@dataclass(frozen=True)
class StencilHandle:
    """A :class:`~repro.kernels.stencil.StencilOperator`'s ``(d, n)``
    diagonals, ``(n,)`` color map and ``(d,)`` offsets in one segment."""

    n: int
    labels: tuple[str, ...]
    values: ArrayView
    groups: ArrayView
    offsets: ArrayView


# --------------------------------------------------------------------- parent
class SegmentRegistry:
    """Parent-side owner of every shared-memory segment this process created.

    Segments are grouped by an owner *token* (the sharded paths use
    :func:`~repro.parallel.shards.matrix_token` of the published
    operator), so one :meth:`release` tears down everything a compiled
    session published.  Operator publications are cached per token with
    oldest-entry eviction; right-hand-side / output blocks reuse their
    segment in place while the capacity suffices, so a steady-state
    dispatch performs one block memcpy and zero segment creations.
    """

    def __init__(self, max_operators: int = 8):
        self._pid = os.getpid()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._operators: dict[str, CSRHandle | StencilHandle] = {}
        self._blocks: dict[tuple[str, str], ArrayView] = {}
        self._token_segments: dict[str, list[str]] = {}
        self._max_operators = max_operators

    # A forked child inherits this registry's bookkeeping; it owns none of
    # the segments, and must never unlink (or double-close) them.
    def _owned(self) -> bool:
        return os.getpid() == self._pid

    def _create(self, nbytes: int, token: str) -> shared_memory.SharedMemory:
        seg = shared_memory.SharedMemory(
            name=f"repro_{uuid.uuid4().hex[:16]}", create=True,
            size=max(int(nbytes), 1),
        )
        self._segments[seg.name] = seg
        self._token_segments.setdefault(token, []).append(seg.name)
        return seg

    def _drop_segment(self, name: str) -> None:
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        try:
            seg.close()
        except BufferError:  # a live view still maps it; unlink regardless
            pass
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def resolve(self, view: ArrayView) -> np.ndarray:
        """This process's own mapping of a view it published (no re-attach)."""
        seg = self._segments[view.segment]
        return np.ndarray(
            view.shape, dtype=np.dtype(view.dtype), buffer=seg.buf,
            offset=view.offset, order=view.order,
        )

    def publish_operator(self, token: str, k) -> CSRHandle | StencilHandle:
        """Map an operator's arrays into one segment, once per token.

        An assembled operator (anything with ``tocsr``) publishes its CSR
        ``data``/``indices``/``indptr``; a matrix-free
        :class:`~repro.kernels.stencil.StencilOperator` its ``values``,
        ``groups`` and ``offsets``.  Returns the cached handle on every
        later call for the same token — the steady state of a compiled
        session ships no operator bytes at all.  The cache keeps the most
        recent ``max_operators`` tokens; the oldest publication is
        released (closed *and* unlinked) when a new one would exceed the
        bound.
        """
        handle = self._operators.get(token)
        if handle is not None:
            self._operators[token] = self._operators.pop(token)  # keep hot
            return handle
        if hasattr(k, "tocsr"):
            k = k.tocsr()
            views = self._publish_arrays(
                token, data=k.data, indices=k.indices, indptr=k.indptr
            )
            handle = CSRHandle(shape=(int(k.shape[0]), int(k.shape[1])), **views)
        else:
            views = self._publish_arrays(
                token, values=k.values, groups=k.groups,
                offsets=np.asarray(k.offsets, dtype=np.int64),
            )
            handle = StencilHandle(n=k.n, labels=tuple(k.group_labels), **views)
        self._operators[token] = handle
        while len(self._operators) > self._max_operators:
            self.release(next(iter(self._operators)))
        return handle

    def _publish_arrays(self, token: str, **arrays) -> dict[str, ArrayView]:
        """Copy ``arrays`` into one new segment, each at an aligned offset."""
        arrays = {label: np.ascontiguousarray(a) for label, a in arrays.items()}
        total = sum(_aligned(a.nbytes) for a in arrays.values())
        seg = self._create(total, token)
        views: dict[str, ArrayView] = {}
        offset = 0
        for label, arr in arrays.items():
            np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=offset
            )[...] = arr
            views[label] = ArrayView(
                seg.name, str(arr.dtype), tuple(arr.shape), offset
            )
            offset = _aligned(offset + arr.nbytes)
        return views

    def _block_segment(
        self, token: str, label: str, nbytes: int
    ) -> shared_memory.SharedMemory:
        existing = self._blocks.get((token, label))
        if existing is not None:
            seg = self._segments.get(existing.segment)
            if seg is not None and seg.size >= nbytes:
                return seg
            # Outgrown: retire the old segment for this slot.
            if seg is not None:
                self._token_segments.get(token, []).remove(seg.name)
                self._drop_segment(seg.name)
            del self._blocks[(token, label)]
        return self._create(nbytes, token)

    def publish_block(
        self, token: str, label: str, array: np.ndarray
    ) -> ArrayView:
        """Write an ``(n, k)`` float block into the token's ``label`` slot.

        Stored Fortran-ordered so a shard's contiguous column range is a
        contiguous (hence zero-copy sliceable) byte range.  The slot's
        segment is reused in place while its capacity suffices; only the
        block's values are (re)written — one memcpy per dispatch.
        """
        arr = np.asarray(array, dtype=float)
        require(arr.ndim == 2, "published blocks are (n, k) two-dimensional")
        seg = self._block_segment(token, label, arr.nbytes)
        view = ArrayView(seg.name, "float64", tuple(arr.shape), 0, "F")
        self._blocks[(token, label)] = view
        self.resolve(view)[...] = arr
        return view

    def alloc_block(
        self, token: str, label: str, shape: tuple[int, int]
    ) -> ArrayView:
        """Like :meth:`publish_block` but uninitialized (output blocks)."""
        nbytes = int(np.dtype(float).itemsize * shape[0] * shape[1])
        seg = self._block_segment(token, label, nbytes)
        view = ArrayView(seg.name, "float64", (int(shape[0]), int(shape[1])), 0, "F")
        self._blocks[(token, label)] = view
        return view

    def release(self, token: str) -> None:
        """Close and unlink every segment published under ``token``."""
        if not self._owned():
            return
        self._operators.pop(token, None)
        for key in [k for k in self._blocks if k[0] == token]:
            del self._blocks[key]
        for name in self._token_segments.pop(token, []):
            self._drop_segment(name)

    def release_all(self) -> None:
        """Tear everything down (tests; also registered at exit)."""
        if not self._owned():
            # Forked child: forget the parent's bookkeeping, touch nothing.
            self._segments.clear()
            self._operators.clear()
            self._blocks.clear()
            self._token_segments.clear()
            return
        for name in list(self._segments):
            self._drop_segment(name)
        self._operators.clear()
        self._blocks.clear()
        self._token_segments.clear()

    def live_segments(self) -> list[str]:
        """Names of currently owned segments (test hook)."""
        return list(self._segments)


_REGISTRY = SegmentRegistry()


def registry() -> SegmentRegistry:
    """The process-wide parent-side registry."""
    return _REGISTRY


def release_all_segments() -> None:
    """Unlink every registry segment (wired into ``shutdown_pools``/atexit)."""
    _REGISTRY.release_all()


atexit.register(release_all_segments)


# --------------------------------------------------------------------- worker
# Per-process attachment cache: segment name → mapped SharedMemory.  A
# steady-state worker attaches each named segment exactly once; entries are
# evicted oldest-first, but never while a live numpy view still exports the
# buffer (close() would raise BufferError — such entries stay resident).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CAP = 256


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Resource-tracker discipline: every multiprocessing child — fork,
    # spawn and forkserver alike — shares the *parent's* tracker process
    # (``spawn_main`` hands children the tracker fd), so the registration
    # this attach performs on 3.8–3.12 is a set no-op there and must NOT
    # be undone: an unregister would strip the creator's crash-cleanup
    # entry and make the parent's later ``unlink`` a tracker KeyError.
    # 3.13+ skips the redundant registration outright via ``track=False``.
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED[name] = _ATTACHED.pop(name)  # keep hot
        return seg
    try:
        seg = shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pre-3.13: no track parameter
        seg = shared_memory.SharedMemory(name=name, create=False)
    while len(_ATTACHED) >= _ATTACH_CAP:
        old_name = next(iter(_ATTACHED))
        old = _ATTACHED.pop(old_name)
        try:
            old.close()
        except BufferError:  # still viewed — keep it resident
            _ATTACHED[old_name] = old
            break
    _ATTACHED[name] = seg
    return seg


def attach_view(view: ArrayView, writable: bool = False) -> np.ndarray:
    """A zero-copy ndarray over a published segment (read-only by default)."""
    seg = _attach_segment(view.segment)
    arr = np.ndarray(
        view.shape, dtype=np.dtype(view.dtype), buffer=seg.buf,
        offset=view.offset, order=view.order,
    )
    if not writable:
        arr.flags.writeable = False
    return arr


def attach_operator(handle: CSRHandle | StencilHandle):
    """The published operator, rebuilt over the mapped segment bytes.

    A :class:`CSRHandle` becomes a ``csr_matrix`` wrapping zero-copy
    read-only views.  A :class:`StencilHandle` becomes a
    :class:`~repro.kernels.stencil.StencilOperator` built with
    ``copy=True``: the constructor zeroes out-of-range rows in place, so
    it works on a private copy of the diagonals (the one ``(d, n)`` array
    any stencil worker holds) and never writes to the shared segment.
    Either way the values are the parent's bytes, so the serial/sharded
    bitwise contract holds by construction.
    """
    if isinstance(handle, StencilHandle):
        from repro.kernels.stencil import StencilOperator

        return StencilOperator(
            offsets=attach_view(handle.offsets),
            values=attach_view(handle.values),
            groups=attach_view(handle.groups),
            group_labels=handle.labels,
            copy=True,
        )
    return sp.csr_matrix(
        (
            attach_view(handle.data),
            attach_view(handle.indices),
            attach_view(handle.indptr),
        ),
        shape=handle.shape,
        copy=False,
    )


def detach_all() -> None:
    """Close every cached attachment (test hook; skips live-view segments)."""
    for name in list(_ATTACHED):
        seg = _ATTACHED.pop(name)
        try:
            seg.close()
        except BufferError:
            _ATTACHED[name] = seg
