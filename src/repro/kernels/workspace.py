"""Per-object workspace pools.

An m-step PCG solve applies the preconditioner thousands of times with
identically shaped vectors; a :class:`WorkspacePool` hands each call the
same named buffers so the steady state allocates nothing.  Each name owns
one flat buffer that grows to the largest size ever requested; a request
gets a C-contiguous view of its head.  Consumers whose width alternates —
the machine schedules' per-m groups switch between ``(n,)`` and
``(n, k)`` every iteration — therefore reallocate nothing once the widest
shape has been seen, and the pool never holds more than one buffer per
name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """Named scratch buffers, grown on demand (not thread-safe, like numpy)."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}  # name → flat storage
        self._views: dict[str, np.ndarray] = {}  # name → last view handed out

    def _allocate(self, size: int, dtype) -> np.ndarray:
        """A fresh flat buffer: the pool's only allocation."""
        return np.empty(size, dtype=dtype)

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A C-contiguous buffer named ``name`` of exactly ``shape``.

        Contents are arbitrary.  Consecutive requests of one shape return
        the same array object; a request of another shape returns a view
        of the same storage, grown first if it is too small.
        """
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        dtype = np.dtype(dtype)
        view = self._views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.dtype != dtype or flat.size < size:
            flat = self._allocate(size, dtype)
            self._buffers[name] = flat
        view = flat[:size].reshape(shape)
        self._views[name] = view
        return view

    def peek(self, name: str) -> np.ndarray | None:
        """The storage pooled under ``name``, if any (no allocation).

        Lets a consumer detect that an *input* aliases one of its own
        pooled buffers (e.g. an apply fed its previous pooled result) and
        defensively copy before overwriting it: every view :meth:`get`
        hands out shares memory with it.
        """
        return self._buffers.get(name)

    def clear(self) -> None:
        self._buffers.clear()
        self._views.clear()

    @property
    def allocated_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())
