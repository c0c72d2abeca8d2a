"""Per-object workspace pools.

An m-step PCG solve applies the preconditioner thousands of times with
identically shaped vectors; a :class:`WorkspacePool` hands each call the
same named buffers so the steady state allocates nothing.  Buffers are
reallocated transparently when the requested shape changes (e.g. a
batched ``(n, k)`` application after vector ones).
"""

from __future__ import annotations

import numpy as np

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """Named, shape-checked scratch buffers (not thread-safe, like numpy)."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A buffer named ``name`` of exactly ``shape`` (contents arbitrary)."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every call."""
        buf = self.get(name, shape, dtype)
        buf.fill(0.0)
        return buf

    def get_list(self, name: str, shapes, dtype=np.float64) -> list[np.ndarray]:
        """One buffer per entry of ``shapes``, named ``name0``, ``name1``, …

        The per-color auxiliary vectors of the multicolor sweeps (one ``y``
        and one scratch accumulator per color) pool through this; callers
        may freely swap the returned list's elements between roles — the
        buffers stay owned by the pool either way.
        """
        return [self.get(f"{name}{i}", s, dtype) for i, s in enumerate(shapes)]

    def peek(self, name: str) -> np.ndarray | None:
        """The buffer currently pooled under ``name``, if any (no allocation).

        Lets a consumer detect that an *input* aliases one of its own
        pooled buffers (e.g. an apply fed its previous pooled result) and
        defensively copy before overwriting it.
        """
        return self._buffers.get(name)

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def allocated_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())
