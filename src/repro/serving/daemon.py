"""The ``repro serve`` daemon: compiled sessions held hot, requests batched.

Every CLI invocation pays the compile-once cost —
coloring, permutation, factorized color-block kernels — that
:class:`~repro.pipeline.session.SolverSession` exists to amortize.  This
module keeps that state resident in a long-lived process and coalesces
concurrent work into the batched numerics the block layer already ships:

* :class:`SessionCache` — a capacity-bounded LRU of **compiled** sessions
  keyed by :attr:`~repro.serving.protocol.SolveRequest.system_key`.  A hit
  serves with zero compile work; eviction closes the session, releasing
  any shared-memory publications it owns.
* :class:`MicroBatcher` — requests for the *same* compiled system that
  land within ``batch_window`` seconds (or until ``max_batch`` of them
  are waiting) ride **one** ``(n, k)``
  :meth:`~repro.pipeline.session.SolverSession.solve_cell_block`
  lockstep; per-column results split back to their callers.  Block-PCG's
  per-column contract makes every batched answer bitwise identical to an
  unbatched solve — batching is a pure throughput move, never a numerics
  change (the same dynamic-batching economics inference servers run on).
* :class:`ReproServer` — the asyncio front end: newline-delimited JSON
  over TCP (:mod:`repro.serving.protocol`), one reader task per
  connection, solves executed on a single dedicated worker thread so the
  event loop never blocks and cached sessions are never touched
  concurrently.  ``stats`` exposes hits/misses/evictions, the batch-width
  histogram, and live shared-memory segment counts; ``shutdown`` drains
  in-flight batches, closes every cached session, and tears down worker
  pools (:func:`repro.parallel.shutdown_pools`) so a clean exit leaks
  nothing.

:func:`start_server_thread` runs the whole daemon inside the calling
process (tests, benchmarks); ``python -m repro serve`` runs it as a
process of its own.
"""

from __future__ import annotations

import asyncio
import collections
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.driver import cell_label
from repro.parallel import shm, shutdown_pools
from repro.pipeline import SolverPlan, SolverSession, build_scenario, scenario
from repro.pipeline.problems import synthetic_load_block
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    SolveRequest,
    decode_line,
    encode_line,
    error_response,
    parse_solve_request,
)

__all__ = [
    "ReproServer",
    "ServerHandle",
    "ServerStats",
    "SessionCache",
    "SessionEntry",
    "MicroBatcher",
    "start_server_thread",
]


@dataclass
class ServerStats:
    """Counter block behind the ``stats`` op (one instance per daemon)."""

    started_unix: float = field(default_factory=time.time)
    requests: collections.Counter = field(default_factory=collections.Counter)
    errors: int = 0
    solves: int = 0  # right-hand-side columns served
    batches: int = 0  # block_pcg lockstep passes those columns rode in
    batch_widths: collections.Counter = field(default_factory=collections.Counter)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    queue_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Lockstep passes per operator representation ("csr"/"stencil") —
    #: mirrors :attr:`repro.pipeline.SessionStats.operator_backend`.
    operator_backends: collections.Counter = field(
        default_factory=collections.Counter
    )

    def as_dict(self) -> dict:
        return {
            "uptime_s": time.time() - self.started_unix,
            "requests": dict(self.requests),
            "errors": self.errors,
            "solves": self.solves,
            "batches": self.batches,
            "batch_width_hist": {
                str(w): c for w, c in sorted(self.batch_widths.items())
            },
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "queue_seconds": self.queue_seconds,
            "solve_seconds": self.solve_seconds,
            "operator_backends": dict(self.operator_backends),
        }


@dataclass
class SessionEntry:
    """One cached compiled system: the session plus its resolved cell."""

    key: tuple
    session: SolverSession
    m: int
    parametrized: bool
    n: int

    @property
    def label(self) -> str:
        return cell_label(self.m, self.parametrized)


class SessionCache:
    """Capacity-bounded LRU of compiled sessions, keyed by system key.

    ``get`` compiles on miss (the *entire* cold cost: scenario build,
    coloring, interval iff parametrized, applicator factorization) and
    evicts least-recently-used entries beyond ``capacity``, closing each
    evicted session so its shared-memory publications are released the
    moment it leaves the cache.  All access happens on the daemon's
    single solve thread, so no locking is needed; the class itself is
    also usable directly (the unit tests do).
    """

    def __init__(self, capacity: int = 8, stats: ServerStats | None = None,
                 auto_width: int = 8):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = stats if stats is not None else ServerStats()
        #: Block width ``m = "auto"`` is priced at — the batcher's
        #: ``max_batch``, since that is the width hot requests ride at.
        self.auto_width = auto_width
        self._entries: OrderedDict[tuple, SessionEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        return list(self._entries)

    def get(self, request: SolveRequest) -> tuple[SessionEntry, bool]:
        """The compiled entry for the request's system (``(entry, hit)``)."""
        key = request.system_key
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry, True
        self.stats.misses += 1
        entry = self._build(key, request)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.session.close()
            self.stats.evictions += 1
        return entry, False

    def _build(self, key: tuple, request: SolveRequest) -> SessionEntry:
        spec = scenario(request.scenario)  # unknown name raises here
        params = {}
        if request.rows is not None:
            if spec.size_param is None:
                raise ProtocolError(
                    f"scenario {request.scenario!r} has no size parameter; "
                    "omit 'rows'"
                )
            params[spec.size_param] = request.rows
        if not spec.supports_backend(request.backend):
            raise ProtocolError(
                f"scenario {request.scenario!r} does not support backend "
                f"{request.backend!r}; supported: {', '.join(spec.backends)}"
            )
        if request.backend == "stencil":
            # Matrix-free systems: serve off the stencil, never assemble.
            params["assemble"] = False
        problem = build_scenario(request.scenario, **params)
        m, parametrized = request.m, request.parametrized
        blocked = interval = None
        if m == "auto":
            # Priced once per cached system, at the batcher's width (the
            # width hot traffic rides at), on an m = 0 probe of the
            # request's problem and backend.
            probe = SolverSession(
                problem,
                plan=SolverPlan.single(0, eps=request.eps, backend=request.backend),
            )
            m, parametrized = probe.auto_m(self.auto_width)[0].m, True
            # The served session reuses the probe's interval and, on the
            # assembled backends, the blocked system it was measured on.
            interval = probe.interval
            if request.backend != "stencil":
                blocked = probe.blocked
        plan = SolverPlan.single(
            m,
            parametrized,
            eps=request.eps,
            backend=request.backend,
            block_rhs=self.auto_width,
        )
        session = SolverSession(
            problem, plan=plan, blocked=blocked, interval=interval
        ).compile()
        return SessionEntry(
            key=key, session=session, m=m, parametrized=parametrized,
            n=int(np.asarray(problem.f).shape[0]),
        )

    def close_all(self) -> None:
        """Close every cached session (shutdown path; idempotent)."""
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            entry.session.close()


class _PendingBatch:
    __slots__ = ("items", "handle")

    def __init__(self):
        self.items: list[tuple[SolveRequest, asyncio.Future, float]] = []
        self.handle: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Coalesce same-system solve requests into one block lockstep.

    The first request for a system key opens a batch and arms a
    ``window``-second timer; later requests for the same key join it.  A
    full batch (``max_batch`` columns) flushes immediately; ``window <=
    0`` or ``max_batch == 1`` degenerates to solve-per-request (the
    benchmark's "hot serial" regime).  Flushing hands the batch to the
    daemon's solve thread: one
    :meth:`~repro.pipeline.session.SolverSession.solve_cell_block` over
    the stacked ``(n, k)`` right-hand sides, then per-column results are
    delivered to each waiter's future.  A waiter that disappeared
    mid-batch (cancelled future, dropped connection) is simply skipped —
    the other columns are unaffected, which the tests pin.
    """

    def __init__(
        self,
        cache: SessionCache,
        stats: ServerStats,
        window: float = 0.005,
        max_batch: int = 8,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.cache = cache
        self.stats = stats
        self.window = window
        self.max_batch = max_batch
        self._pending: dict[tuple, _PendingBatch] = {}
        self._inflight: set[asyncio.Task] = set()
        # One worker thread: sessions are compiled and solved on it
        # exclusively, so cache and kernel workspaces need no locks.
        self._loop: asyncio.AbstractEventLoop | None = None
        import concurrent.futures

        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )

    def submit(self, request: SolveRequest) -> asyncio.Future:
        """Enqueue one request; the future resolves to its response dict."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        future: asyncio.Future = loop.create_future()
        key = request.system_key
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch()
            self._pending[key] = batch
            if self.window > 0 and self.max_batch > 1:
                batch.handle = loop.call_later(self.window, self._flush, key)
        batch.items.append((request, future, time.perf_counter()))
        if len(batch.items) >= self.max_batch or self.window <= 0:
            self._flush(key)
        return future

    def _flush(self, key: tuple) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:  # already flushed by the size trigger
            return
        if batch.handle is not None:
            batch.handle.cancel()
        task = asyncio.get_running_loop().create_task(self._run(batch.items))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run(self, items) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _, _ in items]
        enqueued = [t for _, _, t in items]
        try:
            responses = await loop.run_in_executor(
                self._executor, self._solve_batch, requests, enqueued
            )
        except (ProtocolError, KeyError) as exc:
            # Requests in one batch share a system key, so a bad system
            # (unknown scenario, bad backend) fails them all alike.
            self.stats.errors += len(items)
            message = str(exc.args[0]) if exc.args else str(exc)
            for _, future, _ in items:
                if not future.done():
                    future.set_result(error_response(message))
            return
        except Exception as exc:
            self.stats.errors += len(items)
            message = f"{type(exc).__name__}: {exc}"
            for _, future, _ in items:
                if not future.done():
                    future.set_result(error_response(message))
            return
        for (_, future, _), response in zip(items, responses):
            if not future.done():  # cancelled waiters forfeit their column
                future.set_result(response)

    # ------------------------------------------------------ solve thread
    def _solve_batch(self, requests, enqueued) -> list[dict]:
        """Runs on the dedicated solve thread: one lockstep for the batch.

        A request whose right-hand side fails validation (wrong length)
        gets its own error response; the other columns of the batch solve
        normally — one bad request never poisons its co-batched peers.
        """
        t_start = time.perf_counter()
        entry, hit = self.cache.get(requests[0])
        responses: list[dict | None] = [None] * len(requests)
        columns, solvable = [], []
        for i, request in enumerate(requests):
            try:
                columns.append(self._resolve_rhs(entry, request))
                solvable.append(i)
            except ProtocolError as exc:
                self.stats.errors += 1
                responses[i] = error_response(str(exc))
        if solvable:
            F = np.stack(columns, axis=1)
            block = entry.session.solve_cell_block(
                entry.m, entry.parametrized, F=F
            )
            solve_s = time.perf_counter() - t_start
            k = len(solvable)
            self.stats.solves += k
            self.stats.batches += 1
            self.stats.batch_widths[k] += 1
            self.stats.solve_seconds += solve_s
            self.stats.operator_backends[
                entry.session.stats.operator_backend
            ] += 1
            for j, i in enumerate(solvable):
                queue_s = t_start - enqueued[i]
                self.stats.queue_seconds += queue_s
                responses[i] = {
                    "ok": True,
                    "op": "solve",
                    "u": np.asarray(block.u[:, j], dtype=float).tolist(),
                    "iterations": int(block.iterations[j]),
                    "converged": bool(block.result.converged[j]),
                    "m": entry.label,
                    "scenario": requests[i].scenario,
                    "batch_width": k,
                    "cache_hit": hit,
                    "queue_s": queue_s,
                    "solve_s": solve_s,
                }
        return responses

    @staticmethod
    def _resolve_rhs(entry: SessionEntry, request: SolveRequest) -> np.ndarray:
        if request.rhs is not None:
            rhs = np.asarray(request.rhs, dtype=float)
            if rhs.shape != (entry.n,):
                raise ProtocolError(
                    f"'rhs' must have length n = {entry.n} for this system, "
                    f"got {rhs.shape[0]}"
                )
            return rhs
        j = request.load_case
        # Column j of the deterministic synthetic load family (column 0
        # is the scenario's own assembled load) — the construction is
        # seeded, so clients can rebuild the identical vector locally.
        return np.ascontiguousarray(
            synthetic_load_block(entry.session.problem, j + 1)[:, j]
        )

    async def drain(self) -> None:
        """Flush every pending batch and await all in-flight solves."""
        for key in list(self._pending):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def shutdown_executor(self) -> None:
        self._executor.shutdown(wait=True)


class ReproServer:
    """The asyncio front end binding cache + batcher to a TCP endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.005,
        max_batch: int = 8,
        capacity: int = 8,
    ):
        self.host = host
        self.port = port  # 0 → ephemeral; replaced by the bound port
        self.stats = ServerStats()
        self.cache = SessionCache(
            capacity=capacity, stats=self.stats, auto_width=max_batch
        )
        self.batcher = MicroBatcher(
            self.cache, self.stats, window=batch_window, max_batch=max_batch
        )
        self._server: asyncio.AbstractServer | None = None
        self._closing = asyncio.Event()
        self._closed = asyncio.Event()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._closing.wait()
            await self._shutdown()

    def request_shutdown(self) -> None:
        self._closing.set()

    async def _shutdown(self) -> None:
        """Drain, close sessions, tear down pools — the no-leak exit."""
        self._server.close()
        await self._server.wait_closed()
        await self.batcher.drain()
        self.batcher.shutdown_executor()
        self.cache.close_all()
        shutdown_pools()
        self._closed.set()

    def live_shm_segments(self) -> int:
        return len(shm.registry().live_segments())

    # ----------------------------------------------------------- connection
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closing.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(error_response(
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; any batch columns it owned are skipped
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            payload = decode_line(line)
            op = payload.get("op", "solve")
            if op not in OPS:
                raise ProtocolError(
                    f"unknown op {op!r}; expected one of {', '.join(OPS)}"
                )
            self.stats.requests[op] += 1
            if op == "ping":
                return {"ok": True, "op": "ping", "pid": os.getpid()}
            if op == "stats":
                return {
                    "ok": True,
                    "op": "stats",
                    "stats": self.stats.as_dict(),
                    "cache": {
                        "size": len(self.cache),
                        "capacity": self.cache.capacity,
                    },
                    "batcher": {
                        "window_s": self.batcher.window,
                        "max_batch": self.batcher.max_batch,
                    },
                    "live_shm_segments": self.live_shm_segments(),
                }
            if op == "shutdown":
                self.request_shutdown()
                return {"ok": True, "op": "shutdown", "shutting_down": True}
            request = parse_solve_request(payload)
            return await self.batcher.submit(request)
        except ProtocolError as exc:
            self.stats.errors += 1
            return error_response(str(exc))
        except KeyError as exc:  # unknown scenario from the registry
            self.stats.errors += 1
            return error_response(str(exc.args[0]) if exc.args else str(exc))
        except Exception as exc:  # keep serving: one bad request ≠ dead daemon
            self.stats.errors += 1
            return error_response(f"{type(exc).__name__}: {exc}")


async def _serve_main(server: ReproServer, ready=None, banner: bool = True):
    await server.start()
    if banner:
        print(
            f"repro serve listening on {server.host}:{server.port} "
            f"(batch window {server.batcher.window * 1e3:g} ms, "
            f"max batch {server.batcher.max_batch}, "
            f"cache capacity {server.cache.capacity})",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        loop = asyncio.get_running_loop()
        import signal

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
    except Exception:
        pass
    await server.serve_until_shutdown()
    if banner:
        leftovers = server.live_shm_segments()
        print(
            f"repro serve: shutdown clean "
            f"({server.stats.solves} solves in {server.stats.batches} "
            f"batches, {leftovers} live shm segments)",
            flush=True,
        )
        if leftovers:
            raise SystemExit(
                f"repro serve: {leftovers} shared-memory segments leaked"
            )


class ServerHandle:
    """A daemon running inside this process, on its own thread + loop.

    The handle the tests and the serving benchmark drive: ``host``/
    ``port`` to connect to, :meth:`stop` for a graceful shutdown (sends
    the ``shutdown`` op, then joins the thread).  Context-manager use
    stops the server on exit.
    """

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        if self.thread.is_alive():
            from repro.serving.client import ServeClient

            try:
                with ServeClient(self.host, self.port, timeout=timeout) as client:
                    client.shutdown()
            except OSError:
                self.server.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - watchdog path
            raise RuntimeError("repro serve thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    batch_window: float = 0.005,
    max_batch: int = 8,
    capacity: int = 8,
) -> ServerHandle:
    """Start a daemon on a background thread; returns once it is bound."""
    server = ReproServer(
        host=host, port=port, batch_window=batch_window,
        max_batch=max_batch, capacity=capacity,
    )
    ready = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        async def main():
            await _serve_main(server, ready=ready, banner=False)

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced via stop()
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(30.0)
    if failure:
        raise RuntimeError(f"repro serve failed to start: {failure[0]!r}")
    if not ready.is_set():
        raise RuntimeError("repro serve did not become ready in time")
    return ServerHandle(server, thread)


def run_daemon(
    host: str = "127.0.0.1",
    port: int = 7083,
    batch_window: float = 0.005,
    max_batch: int = 8,
    capacity: int = 8,
) -> int:
    """Run a daemon in the foreground until shutdown (the CLI's engine)."""
    server = ReproServer(
        host=host, port=port, batch_window=batch_window,
        max_batch=max_batch, capacity=capacity,
    )
    asyncio.run(_serve_main(server, banner=True))
    return 0
