"""Worker-process management for the sharded execution layer.

One process pool per (worker count, start method), created lazily and
kept alive for the lifetime of the interpreter, and a dispatch runs on
the smallest live pool with enough slots: the expensive part of real
parallelism is not ``fork``/``spawn`` itself but re-paying it (and the
workers' compiled-state caches — see :mod:`repro.parallel.shards`) on
every call.  ``workers <= 1`` never touches ``multiprocessing`` at all:
tasks run inline in the calling process, so the degenerate configuration
is exactly the serial code path and is safe on any platform (and under
any test harness).

The functions dispatched here must be module-level (picklable by
reference); their arguments are the picklable spec dataclasses of
:mod:`repro.parallel.shards` (lightweight shared-memory handles, see
:mod:`repro.parallel.shm`) and :mod:`repro.parallel.schedule`.

``REPRO_START_METHOD`` (``fork``/``spawn``/``forkserver``) overrides the
platform's default start method — the shared-memory transport attaches
segments by name, so it is start-method agnostic, and the tests pin the
``spawn`` path explicitly.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro.util import require

__all__ = ["available_workers", "effective_workers", "run_tasks", "shutdown_pools"]

_POOLS: dict[tuple[int, str | None], ProcessPoolExecutor] = {}


def available_workers() -> int:
    """Usable local cores (the executor never refuses a larger request —
    oversubscription is legal, merely pointless)."""
    return os.cpu_count() or 1


def effective_workers(workers: int, n_tasks: int) -> int:
    """Workers actually worth starting: never more than there are tasks."""
    require(workers >= 1, "workers must be at least 1")
    return max(1, min(int(workers), int(n_tasks)))


def _pool(workers: int) -> ProcessPoolExecutor:
    """A live pool of at least ``workers`` processes, started if none is.

    A dispatch clamped to fewer tasks than a pool has slots runs on that
    pool: a warm-up sized for the requested worker count
    (:meth:`~repro.pipeline.SolverSession.prewarm_sharding`) then serves
    a solve with fewer column groups, instead of a second, cold pool.
    """
    method = os.environ.get("REPRO_START_METHOD") or None
    fits = [size for size, how in _POOLS if how == method and size >= workers]
    key = (min(fits) if fits else workers, method)
    pool = _POOLS.get(key)
    if pool is None:
        # Workers must inherit the parent's resource tracker: a child that
        # first sees a shared-memory segment *after* forking from a parent
        # with no tracker yet would start its own, whose registrations the
        # parent's unlink can never balance (spurious leaked-segment
        # warnings at shutdown).  sharded_schedule publishes no segments
        # at all, so it can start a pool before any segment exists: start
        # the tracker explicitly.
        try:
            from multiprocessing.resource_tracker import ensure_running

            ensure_running()
        except ImportError:  # pragma: no cover - tracker API moved/absent
            pass
        context = multiprocessing.get_context(method) if method else None
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOLS[key] = pool
    return pool


def _describe(spec) -> str:
    """A failing task's identity for the error message (token + work unit)."""
    parts = [type(spec).__name__]
    token = getattr(spec, "token", None)
    if token is not None:
        parts.append(f"token={token}")
    columns = getattr(spec, "columns", None)
    if columns is not None:
        parts.append(f"columns={[int(c) for c in columns]}")
    indices = getattr(spec, "indices", None)
    if indices is not None:
        parts.append(f"cells={[int(i) for i in indices]}")
    return " ".join(parts)


def run_tasks(fn, specs, workers: int) -> list:
    """``[fn(spec) for spec in specs]``, fanned across worker processes.

    Results come back in task order.  ``workers <= 1`` (after clamping to
    the task count) executes inline — no processes, no pickling — which is
    what makes ``W = 1`` sharding bitwise-trivially identical to the
    serial path.

    Each spec is submitted as its own task (the chunksize-1 discipline:
    shards are few and heavy, so batching tasks per pipe write buys
    nothing and costs scheduling freedom), and a worker failure re-raises
    here wrapped with the failing spec's token and columns/cells — a
    crashed shard is diagnosable, not an anonymous pool traceback.
    """
    specs = list(specs)
    if not specs:
        return []
    workers = effective_workers(workers, len(specs))
    if workers == 1:
        return [fn(spec) for spec in specs]
    futures = [_pool(workers).submit(fn, spec) for spec in specs]
    results = []
    for future, spec in zip(futures, specs):
        try:
            results.append(future.result())
        except Exception as exc:
            for pending in futures:
                pending.cancel()
            raise RuntimeError(
                f"shard task failed ({_describe(spec)}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return results


def shutdown_pools() -> None:
    """Tear down every live pool and every published shared-memory segment
    (tests; also registered at exit — nothing leaks even on a crashed run)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
    from repro.parallel.shm import release_all_segments

    release_all_segments()


atexit.register(shutdown_pools)
