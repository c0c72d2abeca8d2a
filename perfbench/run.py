"""End-to-end and per-layer benchmark of the m-step PCG stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve-plate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload batch-stencil --seed 1 --seconds 2 --trace 1 --smoke

Workloads (``common.CONFIGS`` holds their sizes):

* ``serve-plate`` — ``python -m repro serve`` with its defaults, fed by a
  seeded open loop of Poisson arrivals over two connections.  Hot
  requests solve plate a=41 at m=3 (unparametrized) for a seeded
  ``load_case``; one request in 20 asks for a plate a ∈ 12..19 at 3P,
  cycling through a seeded order of those eight sizes, so with seven free
  cache slots every such request misses and compiles on the solve thread.
  70% of the window runs at the nominal rate (``latency_*``), the rest is
  a closed loop on both connections (``throughput_rhs_per_s``).
* ``batch-stencil`` — matrix-free plate a=100 at 3P on the stencil
  backend, blocks of k=8 solved back to back, one ``solve_cell_block``
  each.
* ``batch-sharded`` — assembled plate a=41 at m=3, blocks of k=16 sharded
  over two worker processes after ``prewarm_sharding``.

Every run starts the program fresh ``SETUP_LAUNCHES`` times and reports the
median spawn-to-ready time as ``setup_s``; the last launch serves the
measured window.  After the window, outside any timing, every answer is
checked: converged, true relative residual against a K the generator
assembles itself, iteration counts and iterates bitwise equal to an
in-process serial ``solve_cell_block`` (every serve-plate reply; seeded
columns of the batch blocks), and every compiled interval identical.

The cores of the 2-vCPU host this was tuned on change speed by ±20% over
seconds to minutes, for the program and any other code alike.  A probe
process (``probe.py``) times a fixed loop beside the program, and every
reported time is scaled by the probe's slowdown over the interval it was
measured in (each request and block by its own, rates and ``setup_s`` by
their phase's): the metrics read as seconds on a host running the probe
loop in ``PROBE_REFERENCE_S``.  The unscaled values are printed beside
them.  Open-loop rates are in the same reference terms.

``--trace 1`` measures the workload twice, untraced then traced, with half
of ``--seconds`` each, prints the tracing overhead, and reports the
per-layer metrics from the spans the traced program wrote (see
``tracing.py``).  For serve-plate its untraced pass also climbs a fixed
ladder of rates after the nominal phase, giving ``serving.slo_rps``: the
rate at which the tail crosses ``slo_limit_s``, interpolated between
rungs.
``--smoke`` runs tiny sizes of the same paths.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

import common

os.environ.update(common.THREAD_ENV)  # before numpy loads its BLAS

import argparse  # noqa: E402
import asyncio  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import select  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    RESIDUAL_TOL,
    ROOT,
    SETUP_LAUNCHES,
    WORKLOADS,
    config,
    program_env,
    proc_peak_rss_mb,
)

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rhs_per_s": "rhs/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "serving.overhead_s": "s",
    "serving.queue_s": "s",
    "serving.batch_width": "count",
    "serving.hit_ratio": "ratio",
    "serving.miss_s": "s",
    "serving.slo_rps": "req/s",
    "pipeline.build_s": "s",
    "pipeline.color_s": "s",
    "pipeline.interval_s": "s",
    "pipeline.factor_s": "s",
    "core.iterations_per_rhs": "count",
    "core.lockstep_efficiency": "ratio",
    "core.loop_self_s": "s",
    "multicolor.sweep_s": "s",
    "multicolor.sweep_cols": "count",
    "kernels.csr_matvec_s": "s",
    "kernels.csr_matvec_bytes": "B",
    "kernels.stencil_sweep_s": "s",
    "kernels.stencil_sweep_bytes": "B",
    "kernels.stencil_matvec_s": "s",
    "kernels.stencil_matvec_bytes": "B",
    "parallel.prewarm_s": "s",
    "parallel.dispatch_bytes": "B",
    "parallel.worker_busy_share": "ratio",
    "parallel.wait_s": "s",
    "generator.lag_s": "s",
    "host.calibration_s": "s",
    "host.probe_factor": "ratio",
    "trace.overhead_share": "ratio",
    **{f"{layer}.self_s_per_rhs": "s" for layer in (
        "serving", "pipeline", "core", "multicolor", "kernels", "parallel"
    )},
}

#: Traced self times must add back up to the program's own end-to-end
#: clock within this share.
TRACE_CHECK_TOL = 0.03

#: The probe loop's median CPU time on the host the baselines were taken
#: on (a 2-vCPU Xeon VM).  Reported times are scaled to a host running the
#: loop in this time; see ``probe.py``.
PROBE_REFERENCE_S = 0.0013

_PROCS: list[subprocess.Popen] = []


# --------------------------------------------------------------- utilities
def log(*parts) -> None:
    print(*parts, flush=True)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With fewer than 21 samples
    that percentile would not be above the median, so it is the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 100.0, 0
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def p99(values) -> float:
    xs = sorted(values)
    return xs[int(0.99 * (len(xs) - 1))] if xs else 0.0


def calibrate() -> float:
    """A fixed pure-Python loop: how fast the host runs right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return perf_counter() - t0


def start(cmd: list[str], **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), **kwargs)
    _PROCS.append(proc)
    return proc


def stop_all() -> None:
    """Kill whatever the run started and did not stop, and reap it."""
    for proc in _PROCS:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"program gave no answer within {timeout:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"program exited with code {proc.wait()}")
    return line


def finish(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    code = proc.wait(timeout)
    if code != 0:
        raise RuntimeError(f"program exited with code {code}")


def warm_native() -> bool:
    """Compile (or find) the native kernel cache before anything is timed."""
    code = (
        "from repro.kernels._native import load_native; "
        "print(int(load_native() is not None))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=program_env(),
        capture_output=True, text=True, timeout=600, check=True,
    )
    return out.stdout.strip() == "1"


def fingerprint(native: bool) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_NO_NATIVE": os.environ.get("REPRO_NO_NATIVE", ""),
        "native_kernels": native,
        "threads": {k: os.environ[k] for k in common.THREAD_ENV},
    }


class HostProbe:
    """The ``probe.py`` process running beside one measured pass."""

    def __init__(self):
        self.proc = start([sys.executable, str(BENCH_DIR / "probe.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._fd = self.proc.stdout.fileno()
        os.set_blocking(self._fd, False)
        self._pending = b""
        self.samples: list[tuple[float, float]] = []

    def _read(self) -> None:
        while True:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._pending += chunk
        *lines, self._pending = self._pending.split(b"\n")
        for line in lines:
            t, cpu = line.split()
            self.samples.append((float(t), float(cpu)))

    def live_factor(self, window_s: float = 2.0) -> float:
        """The host factor over the last ``window_s`` seconds, right now."""
        self._read()
        now = perf_counter()
        return self.factor(now - window_s, now)

    def stop(self) -> None:
        self.proc.stdin.close()
        os.set_blocking(self._fd, True)
        self._read()  # blocking now: reads to the probe's exit
        finish(self.proc)

    def factor(self, t0: float, t1: float, pad: float = 0.0) -> float:
        """How much slower than the reference the host ran over ``[t0, t1]``.

        ``pad`` widens the interval on both sides, so a single request or
        block still sees some forty samples.
        """
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, t0 - pad)
        hi = bisect.bisect_right(times, t1 + pad)
        xs = [cpu for _, cpu in self.samples[lo:hi]]
        if len(xs) < 5:  # too short an interval: use the whole pass
            xs = [cpu for _, cpu in self.samples]
        return median(xs) / PROBE_REFERENCE_S

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of ``(start, end)`` spans, each scaled by its own host
        factor: what they would have taken on the reference host."""
        return [(t1 - t0) / self.factor(t0, t1, pad=1.0) for t0, t1 in spans]


class Checks:
    """Correctness bookkeeping of one run: answers and determinism."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.worst_residual = 0.0

    def answer(self, ok: bool, residual: float | None, why: str) -> None:
        self.attempted += 1
        if residual is not None:
            self.worst_residual = max(self.worst_residual, residual)
        if not ok or residual is None or not residual <= RESIDUAL_TOL:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"failed answer: {why} residual={residual}")

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def residual(K, f, u) -> float:
    import numpy as np

    return float(np.linalg.norm(f - K @ u) / np.linalg.norm(f))


class Reference:
    """In-process systems of the generator: assembled K, loads, serial solves."""

    def __init__(self):
        self._systems: dict = {}

    def system(self, rows: int, m: int, parametrized: bool, eps: float,
               backend: str | None):
        key = (rows, m, parametrized, eps, backend)
        if key not in self._systems:
            from repro.pipeline import SolverPlan, SolverSession, build_scenario

            assembled = build_scenario("plate", nrows=rows)
            program = (
                build_scenario("plate", nrows=rows, assemble=False)
                if backend == "stencil" else assembled
            )
            plan = SolverPlan.single(m, parametrized, eps=eps, backend=backend)
            session = SolverSession(program, plan=plan)
            self._systems[key] = (assembled, session, {})
        return self._systems[key]

    def loads(self, system, width: int):
        from repro.pipeline.problems import synthetic_load_block

        assembled, _, cache = system
        if cache.get("width", 0) < width:
            cache["loads"] = synthetic_load_block(assembled, width)
            cache["width"] = width
        return cache["loads"]


# -------------------------------------------------------------- serve-plate
class RequestMix:
    """The seeded request sequence of serve-plate, drawn in sending order."""

    def __init__(self, cfg: dict, seed: int):
        import numpy as np

        self.cfg = cfg
        self.rng = np.random.default_rng([seed, 0])
        self.cycle = [int(r) for r in self.rng.permutation(cfg["miss_rows"])]
        self.issued = 0
        self.misses = 0
        self.slot = 0

    def hot(self, load_case: int) -> dict:
        cfg = self.cfg
        return {"op": "solve", "scenario": "plate", "rows": cfg["hot_rows"],
                "m": cfg["m"], "parametrized": False, "eps": cfg["eps"],
                "load_case": load_case}

    def next(self) -> dict:
        every = self.cfg["miss_every"]
        if self.issued % every == 0:
            self.slot = int(self.rng.integers(every))
        position = self.issued % every
        self.issued += 1
        if position == self.slot:
            rows = self.cycle[self.misses % len(self.cycle)]
            self.misses += 1
            return {"op": "solve", "scenario": "plate", "rows": rows,
                    "m": self.cfg["m"], "parametrized": True,
                    "eps": self.cfg["eps"],
                    "load_case": int(self.rng.integers(4))}
        return self.hot(int(self.rng.integers(self.cfg["load_cases"])))


def encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def launch_daemon(traced: bool, spans_path, errlog, hot: dict):
    """Start the daemon and time it until the hot system has answered."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(spans_path)]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    t0 = perf_counter()
    proc = start(cmd, stdout=subprocess.PIPE, stderr=errlog, text=True)
    banner = read_line(proc, 60)
    port = int(re.search(r"listening on [^:]+:(\d+)", banner).group(1))
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        stream.write(encode(hot))
        stream.flush()
        reply = json.loads(stream.readline())
        setup = perf_counter() - t0
        stream.close()
    if not reply.get("ok"):
        raise RuntimeError(f"set-up request failed: {reply.get('error')}")
    return proc, port, setup


def shutdown_daemon(port: int, proc: subprocess.Popen) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        stream.write(encode({"op": "shutdown"}))
        stream.flush()
        stream.readline()
        stream.close()
    finish(proc)


async def _call(conn, obj: dict) -> dict:
    reader, writer = conn
    writer.write(encode(obj))
    await writer.drain()
    return json.loads(await reader.readline())


async def open_loop(conns, items) -> list[tuple]:
    """Send ``(due, request)`` items at their due times over the connections.

    A request that comes due while every connection is busy waits in the
    generator; its latency still counts from when it was due.  Records are
    ``(due, lag, sent, replied, request, raw reply)``; ``lag`` is how late
    the generator itself queued the request.
    """
    queue: asyncio.Queue = asyncio.Queue()
    records: list[tuple] = []

    async def connection(reader, writer):
        while True:
            item = await queue.get()
            if item is None:
                return
            due, lag, request = item
            sent = perf_counter()
            writer.write(encode(request))
            await writer.drain()
            line = await reader.readline()
            records.append((due, lag, sent, perf_counter(), request, line))

    tasks = [asyncio.create_task(connection(r, w)) for r, w in conns]
    for due, request in items:
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((due, perf_counter() - due, request))
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    return records


async def closed_loop(conns, mix: RequestMix, seconds: float) -> tuple[float, list]:
    records: list[tuple] = []
    t0 = perf_counter()
    end = t0 + seconds

    async def connection(reader, writer):
        while perf_counter() < end:
            request = mix.next()
            sent = perf_counter()
            writer.write(encode(request))
            await writer.drain()
            line = await reader.readline()
            records.append((sent, 0.0, sent, perf_counter(), request, line))

    await asyncio.gather(*(connection(r, w) for r, w in conns))
    return t0, records


async def serve_traffic(port: int, cfg: dict, mix: RequestMix, seed: int,
                        seconds: float, probe: HostProbe, ladder: bool) -> dict:
    import numpy as np

    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        for _ in range(cfg["connections"])
    ]
    try:
        stats0 = (await _call(conns[0], {"op": "stats"}))["stats"]
        t_start = perf_counter()
        rates = [cfg["nominal_rate"]]
        spans = [0.7 * seconds]
        if ladder:
            rates += cfg["ladder"]
            spans = [0.3 * seconds] + [0.45 * seconds / len(cfg["ladder"])] * len(cfg["ladder"])
        steps = []
        for index, (rate, span) in enumerate(zip(rates, spans)):
            rng = np.random.default_rng([seed, 1, index])
            # Rates are in reference-host terms: on a host h times slower
            # the gaps stretch by h, so the daemon runs at the same load.
            h = probe.live_factor()
            gaps = rng.exponential(h / rate, size=int(2 * rate * span / h) + 20)
            offsets = np.cumsum(gaps)
            offsets = offsets[offsets < span]
            base = perf_counter() + 0.005
            items = [(base + float(t), mix.next()) for t in offsets]
            steps.append((rate, h, await open_loop(conns, items)))
        closed_t0, closed = await closed_loop(conns, mix, seconds - sum(spans))
        stats1 = (await _call(conns[0], {"op": "stats"}))["stats"]
    finally:
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return {"t_start": t_start, "steps": steps, "closed_t0": closed_t0,
            "closed": closed, "stats0": stats0, "stats1": stats1}


def check_serve_replies(records, cfg: dict, ref: Reference, checks: Checks):
    """Check every reply against serial solves the generator runs itself.

    Runs after the window.  Returns the parsed replies and the interval of
    each parametrized system, as the generator computed it.
    """
    import numpy as np

    replies = [json.loads(rec[5]) if rec[5] else {"ok": False} for rec in records]
    wanted: dict = {}
    for rec in records:
        request = rec[4]
        wanted.setdefault((request["rows"], request["parametrized"]), set()).add(
            request["load_case"])
    expected, intervals = {}, {}
    for (rows, parametrized), cases in wanted.items():
        system = ref.system(rows, cfg["m"], parametrized, cfg["eps"], None)
        assembled, session, _ = system
        loads = ref.loads(system, max(cases) + 1)
        order = sorted(cases)
        block = session.solve_cell_block(cfg["m"], parametrized, F=loads[:, order])
        for j, case in enumerate(order):
            expected[(rows, parametrized, case)] = (
                block.u[:, j], int(block.iterations[j]), assembled.k, loads[:, case])
        if parametrized:
            intervals[rows] = [float(v).hex() for v in session.interval]
    for rec, reply in zip(records, replies):
        request = rec[4]
        key = (request["rows"], request["parametrized"], request["load_case"])
        u_ref, its_ref, K, f = expected[key]
        if not reply.get("ok"):
            checks.answer(False, None, f"{key}: {reply.get('error')}")
            continue
        u = np.asarray(reply["u"], dtype=float)
        checks.answer(bool(reply["converged"]), residual(K, f, u), str(key))
        checks.require(reply["iterations"] == its_ref,
                       f"iterations differ from the in-process solve at {key}")
        checks.require(np.array_equal(u, u_ref),
                       f"reply not bitwise equal to the in-process solve at {key}")
    return replies, intervals


def serve_pass(cfg: dict, seed: int, seconds: float, traced: bool, launches: int,
               ref: Reference, checks: Checks, tag: str, ladder: bool) -> dict:
    mix = RequestMix(cfg, seed)
    hot = mix.hot(0)
    spans_path = OUT_DIR / f"spans-serve-plate-{tag}.json"
    errlog_path = OUT_DIR / f"serve-plate-{tag}.log"
    setups = []
    probe = HostProbe()
    with open(errlog_path, "w") as errlog:
        t_setup = perf_counter()
        for i in range(launches):
            proc, port, setup = launch_daemon(traced, spans_path, errlog, hot)
            setups.append(setup)
            if i < launches - 1:
                shutdown_daemon(port, proc)
        h_setup = (t_setup, perf_counter())
        traffic = asyncio.run(serve_traffic(port, cfg, mix, seed, seconds, probe,
                                            ladder))
        peak_rss = proc_peak_rss_mb(proc.pid)
        shutdown_daemon(port, proc)
    probe.stop()

    records = [rec for _, _, recs in traffic["steps"] for rec in recs] + traffic["closed"]
    replies, intervals = check_serve_replies(records, cfg, ref, checks)

    # ---- end-to-end metrics ----------------------------------------------
    def latencies(recs, replies_):
        return [
            (rec[3] - rec[0]) if reply.get("ok") else float("inf")
            for rec, reply in zip(recs, replies_)
        ]

    def span_of(recs) -> tuple[float, float]:
        return min(rec[0] for rec in recs), max(rec[3] for rec in recs)

    limit = cfg["slo_limit_s"]
    offset = 0
    step_rows = []
    for rate, h_send, recs in traffic["steps"]:
        step_replies = replies[offset:offset + len(recs)]
        offset += len(recs)
        lat = latencies(recs, step_replies)
        value, pct, n = tail(lat)
        waits = [rec[2] - rec[0] for rec in sorted(recs)]
        third = max(len(waits) // 3, 1)
        # A backlog that grew by more than the latency limit over the step.
        growing = median(waits[-third:]) - median(waits[:third]) > limit
        lag = p99([rec[1] for rec in recs])
        h = probe.factor(*span_of(recs))
        step_rows.append({"rate": rate, "tail": value, "pct": pct, "n": n, "h": h,
                          "h_send": h_send,
                          "p50": median(lat), "growing": growing, "lag_p99": lag,
                          "steady": not growing and lag <= 0.05,
                          "recs": recs, "replies": step_replies})
    closed_replies = replies[offset:]
    nominal = step_rows[0]
    closed = traffic["closed"]
    ok_closed = [rec for rec, reply in zip(closed, closed_replies) if reply.get("ok")]
    closed_end = max(rec[3] for rec in closed)
    throughput = len(ok_closed) / (closed_end - traffic["closed_t0"])
    h_closed = probe.factor(traffic["closed_t0"], closed_end)

    # The highest reference rate whose tail, scaled by the rung's host
    # factor, stays within the limit: interpolated between the last rung
    # that meets it and the first that misses it.
    slo = step_rows[-1]["rate"]
    for i, row in enumerate(step_rows):
        tail_s = row["tail"] / row["h"]
        if tail_s <= limit and row["steady"]:
            continue
        if i == 0:
            slo = row["rate"] * min(1.0, limit / tail_s)
        else:
            prev = step_rows[i - 1]
            prev_tail = prev["tail"] / prev["h"]
            share = (limit - prev_tail) / (tail_s - prev_tail) if tail_s > prev_tail else 0.0
            slo = prev["rate"] + (row["rate"] - prev["rate"]) * min(max(share, 0.0), 1.0)
        break

    # Latencies of answered requests; failed ones count in ok_share.
    answered = [rec for rec, reply in zip(nominal["recs"], nominal["replies"])
                if reply.get("ok")]
    nominal_lat = [rec[3] - rec[0] for rec in answered]
    scaled = probe.scaled([(rec[0], rec[3]) for rec in answered])
    raw = {
        "setup_s": median(setups),
        "latency_p50_s": median(nominal_lat),
        "latency_tail_s": tail(nominal_lat)[0],
        "throughput_rhs_per_s": throughput,
        "peak_rss_mb": peak_rss,
    }
    e2e = {
        "setup_s": raw["setup_s"] / probe.factor(*h_setup),
        "latency_p50_s": median(scaled),
        "latency_tail_s": tail(scaled)[0],
        "throughput_rhs_per_s": throughput * h_closed,
        "peak_rss_mb": peak_rss,
    }
    notes = [
        f"setup launches (s): {' '.join(f'{s:.4f}' for s in setups)}",
        f"latency_tail_s is p{nominal['pct']:.1f} of {nominal['n']} requests "
        f"at {nominal['rate']:g} req/s",
    ]
    for row in step_rows:
        notes.append(
            f"rate {row['rate']:g} req/s (sent at {row['rate'] / row['h_send']:.3g}, "
            f"host factor {row['h']:.3f}): {row['n']} requests, "
            f"p50 {row['p50']:.4f} s, tail p{row['pct']:.1f} {row['tail']:.4f} s, "
            f"lag p99 {row['lag_p99']:.4f} s, backlog "
            f"{'growing' if row['growing'] else 'steady'}")
    notes.append(f"closed loop: {len(closed)} requests on {cfg['connections']} "
                 f"connections (host factor {h_closed:.3f})")
    notes.append(f"intervals: {dict(sorted(intervals.items()))}")

    out = {"e2e": e2e, "raw": raw, "notes": notes, "slo_rps": slo if ladder else None}
    if traced:
        out.update(serve_layers(traffic, replies, step_rows, spans_path))
        compiled = {tuple(iv) for iv in out["intervals"]}
        checks.require(compiled <= {tuple(iv) for iv in intervals.values()},
                       "the daemon compiled intervals the generator did not")
        out["layers"]["host.probe_factor"] = probe.factor(traffic["t_start"], closed_end)
    return out


def serve_layers(traffic, replies, step_rows, spans_path) -> dict:
    import tracing

    nominal = step_rows[0]
    overhead, queue = [], []
    for rec, reply in zip(nominal["recs"], nominal["replies"]):
        if reply.get("ok"):
            overhead.append(rec[3] - rec[2] - reply["queue_s"] - reply["solve_s"])
            queue.append(reply["queue_s"])
    miss = [r["solve_s"] for r in replies if r.get("ok") and not r["cache_hit"]]
    s0, s1 = traffic["stats0"], traffic["stats1"]
    solves = s1["solves"] - s0["solves"]
    batches = s1["batches"] - s0["batches"]
    lookups = (s1["hits"] - s0["hits"]) + (s1["misses"] - s0["misses"])
    lags = [rec[1] for row in step_rows for rec in row["recs"]]
    its = [r["iterations"] for r in replies if r.get("ok")]

    trace = tracing.load(spans_path)
    layers, self_by_layer = span_layers(trace, traffic["t_start"], ("serving.batch",), solves)
    layers.update({
        "serving.overhead_s": median(overhead),
        "serving.queue_s": median(queue),
        "serving.batch_width": solves / batches if batches else 0.0,
        "serving.hit_ratio": (s1["hits"] - s0["hits"]) / lookups if lookups else 0.0,
        "serving.miss_s": median(miss),
        "core.iterations_per_rhs": mean(its),
        "generator.lag_s": p99(lags),
    })
    blocks = trace["values"].get("core.block", [])
    layers["core.lockstep_efficiency"] = (
        sum(b[1] for b in blocks) / sum(b[0] * b[2] for b in blocks) if blocks else 0.0
    )
    # The daemon's own clock of its solve thread: what the spans must add up to.
    clock = s1["solve_seconds"] - s0["solve_seconds"]
    return {"layers": layers, "self": self_by_layer, "clock": clock,
            "intervals": trace["values"].get("pipeline.intervals", [])}


def span_layers(trace: dict, since: float, roots: tuple, rhs: int) -> tuple[dict, dict]:
    """Per-layer metrics every workload reads off its span file, and the
    self seconds of each layer under the roots that start after ``since``."""
    import tracing

    spans, values = trace["spans"], trace["values"]
    per_layer, per_name = tracing.self_times(spans, roots, since)

    def per_call(name):
        return mean(tracing.durations(spans, name, since))

    def per_setup(name):
        return median(tracing.durations(spans, name))

    blocks = values.get("core.block", [])
    steps = sum(b[2] for b in blocks)
    layers = {
        "pipeline.build_s": per_setup("pipeline.build"),
        "pipeline.color_s": per_setup("pipeline.color"),
        "pipeline.interval_s": per_setup("pipeline.interval"),
        "pipeline.factor_s": per_setup("pipeline.factor"),
        "core.loop_self_s": per_name.get("core.block_pcg", 0.0) / steps if steps else 0.0,
        "multicolor.sweep_s": per_call("multicolor.sweep"),
        "multicolor.sweep_cols": mean(values.get("multicolor.sweep_cols", [])),
        "kernels.csr_matvec_s": per_call("kernels.csr_matvec"),
        "kernels.csr_matvec_bytes": mean(values.get("kernels.csr_matvec_bytes", [])),
        "kernels.stencil_sweep_s": per_call("kernels.stencil_sweep"),
        "kernels.stencil_sweep_bytes": mean(values.get("kernels.stencil_sweep_bytes", [])),
        "kernels.stencil_matvec_s": per_call("kernels.stencil_matvec"),
        "kernels.stencil_matvec_bytes": mean(values.get("kernels.stencil_matvec_bytes", [])),
        "parallel.prewarm_s": per_setup("parallel.prewarm"),
        "parallel.dispatch_bytes": mean(values.get("parallel.dispatch_bytes", [])),
    }
    for layer in tracing.LAYERS:
        layers[f"{layer}.self_s_per_rhs"] = per_layer.get(layer, 0.0) / rhs if rhs else 0.0
    return layers, per_layer


# ---------------------------------------------------------- batch workloads
def batch_pass(workload: str, cfg: dict, smoke: bool, seed: int, seconds: float,
               traced: bool, launches: int, ref: Reference, checks: Checks,
               tag: str) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    blocks = [
        sorted(int(c) for c in rng.choice(cfg["load_cases"], cfg["k"], replace=False))
        for _ in range(cfg["pool"])
    ]
    spans_path = OUT_DIR / f"spans-{workload}-{tag}.json"
    out_path = OUT_DIR / f"blocks-{workload}-{tag}.npz"
    cmd = [sys.executable, str(BENCH_DIR / "runner.py"), workload,
           "1" if smoke else "0", str(spans_path) if traced else ""]
    setups, intervals = [], []
    probe = HostProbe()
    with open(OUT_DIR / f"{workload}-{tag}.log", "w") as errlog:
        t_setup = perf_counter()
        for i in range(launches):
            t0 = perf_counter()
            proc = start(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=errlog, text=True)
            ready = json.loads(read_line(proc, 120))
            setups.append(perf_counter() - t0)
            intervals.append(ready["interval"])
            if i < launches - 1:
                proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                proc.stdin.flush()
                finish(proc)
        h_setup = (t_setup, perf_counter())
        proc.stdin.write(json.dumps({"cmd": "run", "seconds": seconds,
                                     "blocks": blocks, "out": str(out_path)}) + "\n")
        proc.stdin.flush()
        result = json.loads(read_line(proc, seconds + 150))
        proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
        proc.stdin.flush()
        finish(proc)
    probe.stop()

    # ---- checks, outside the timed window --------------------------------
    system = ref.system(cfg["rows"], cfg["m"], cfg["parametrized"], cfg["eps"],
                        cfg["backend"])
    assembled, session, _ = system
    loads = ref.loads(system, cfg["load_cases"])
    K = assembled.k
    with np.load(out_path) as saved:
        solved = {j: saved[f"arr_{i}"] for i, j in enumerate(result["solved_blocks"])}
    for i, its in enumerate(result["iterations"]):
        j = i % len(blocks)
        U = solved[j]
        for c, case in enumerate(blocks[j]):
            checks.answer(result["converged"][i][c], residual(K, loads[:, case], U[:, c]),
                          f"block {j} case {case}")
    checks.require(result["mismatches"] == 0,
                   f"{result['mismatches']} repeated blocks did not solve bitwise alike")
    if cfg["parametrized"]:
        reference = [float(v).hex() for v in session.interval]
        checks.require(all(iv == reference for iv in intervals),
                       f"compiled intervals {intervals} differ from {reference}")
    else:
        checks.require(all(iv is None for iv in intervals), "unexpected interval")
    # Seeded columns re-solved serially in process: bitwise, same iterations.
    # Blocks cycle from 0, so solve number j was pool block j's first.
    for _ in range(2):
        j = result["solved_blocks"][int(rng.integers(len(result["solved_blocks"])))]
        c = int(rng.integers(cfg["k"]))
        case = blocks[j][c]
        col = session.solve_cell_block(cfg["m"], cfg["parametrized"],
                                       F=loads[:, [case]])
        checks.require(np.array_equal(col.u[:, 0], solved[j][:, c]),
                       f"block {j} column {c} not bitwise equal to a serial solve")
        checks.require(int(col.iterations[0]) == result["iterations"][j][c],
                       f"block {j} column {c} iterations differ from a serial solve")

    lat = result["latencies"]
    value, pct, n = tail(lat)
    rhs = sum(len(its) for its in result["iterations"])
    throughput = rhs / result["window_s"]
    raw = {
        "setup_s": median(setups),
        "latency_p50_s": median(lat),
        "latency_tail_s": value,
        "throughput_rhs_per_s": throughput,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    h_window = probe.factor(result["t_window"], result["t_window"] + result["window_s"])
    scaled = probe.scaled([(t0, t0 + t) for t0, t in zip(result["starts"], lat)])
    e2e = {
        "setup_s": raw["setup_s"] / probe.factor(*h_setup),
        "latency_p50_s": median(scaled),
        "latency_tail_s": tail(scaled)[0],
        "throughput_rhs_per_s": throughput * h_window,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = [
        f"setup launches (s): {' '.join(f'{s:.4f}' for s in setups)}",
        f"{len(lat)} blocks of k={cfg['k']} in {result['window_s']:.2f} s "
        f"(host factor {h_window:.3f}); latency_tail_s is p{pct:.1f} of {n} blocks",
        f"intervals: {intervals[0]}",
    ]
    out = {"e2e": e2e, "raw": raw, "notes": notes}
    if traced:
        import tracing

        trace = tracing.load(spans_path)
        layers, self_by_layer = span_layers(
            trace, result["t_window"], ("pipeline.solve",), rhs)
        all_its = [i for its in result["iterations"] for i in its]
        layers["core.iterations_per_rhs"] = mean(all_its)
        layers["core.lockstep_efficiency"] = sum(all_its) / sum(
            len(its) * max(its) for its in result["iterations"])
        layers["parallel.worker_busy_share"] = result["worker_busy_share"]
        solves = trace["values"].get("parallel.solve", [])
        layers["parallel.wait_s"] = mean([wall - max(cpu) for wall, cpu in solves])
        layers["host.probe_factor"] = h_window
        # The runner's own clock around each solve_cell_block call.
        out.update(layers=layers, self=self_by_layer, clock=sum(lat),
                   intervals=trace["values"].get("pipeline.intervals", []))
    return out


# -------------------------------------------------------------------- main
def run_pass(args, seconds: float, traced: bool, launches: int, ref: Reference,
             checks: Checks) -> dict:
    cfg = config(args.workload, args.smoke)
    tag = f"{args.seed}-{'traced' if traced else 'plain'}"
    if args.workload == "serve-plate":
        return serve_pass(cfg, args.seed, seconds, traced, launches, ref, checks, tag,
                          ladder=bool(args.trace) and not traced)
    return batch_pass(args.workload, cfg, args.smoke, args.seed, seconds, traced,
                      launches, ref, checks, tag)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same paths (seconds per workload)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    common.use_source_tree()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        native = warm_native()
        host = fingerprint(native)
        calib_start = calibrate()
        ref, checks = Reference(), Checks()
        if args.trace:
            half = args.seconds / 2
            plain = run_pass(args, half, False, 1, ref, checks)
            traced = run_pass(args, half, True, 1, ref, checks)
            measured = traced
        else:
            measured = run_pass(args, args.seconds, False, SETUP_LAUNCHES, ref, checks)
        calib_end = calibrate()
    finally:
        stop_all()

    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' smoke' if args.smoke else ''}")
    log("host: " + json.dumps(host, sort_keys=True))
    log(f"host.calibration_s start={calib_start:.4f} end={calib_end:.4f}")
    for note in measured["notes"]:
        log("  " + note)
    e2e = dict(measured["e2e"])
    e2e["ok_share"] = 1.0 - checks.failed / max(checks.attempted, 1)
    if args.trace:
        accounted, clock = sum(measured["self"].values()), measured["clock"]
        checks.require(abs(accounted - clock) <= TRACE_CHECK_TOL * clock,
                       "traced self times do not add up to the program's clock")
    log(f"failed_share {checks.failed}/{checks.attempted} = "
        f"{checks.failed / max(checks.attempted, 1):.4f} "
        f"(worst relative residual {checks.worst_residual:.3e}, tolerance {RESIDUAL_TOL:g})")
    for problem in checks.problems:
        log("CHECK FAILED: " + problem)

    if args.trace:
        layers = dict(measured["layers"])
        base = plain["e2e"]
        for name in measured["e2e"]:
            log(f"traced {name} {e2e[name]:.6g} vs untraced {base[name]:.6g} "
                f"(tracing overhead {e2e[name] - base[name]:+.6g} {END_TO_END[name]})")
        layers["trace.overhead_share"] = (
            e2e["latency_p50_s"] - base["latency_p50_s"]) / base["latency_p50_s"]
        layers["host.calibration_s"] = (calib_start + calib_end) / 2
        if plain.get("slo_rps") is not None:  # measured untraced
            layers["serving.slo_rps"] = plain["slo_rps"]
        for name in PER_LAYER:
            layers.setdefault(name, 0.0)
        total = accounted or 1.0
        for layer, seconds in sorted(measured["self"].items()):
            log(f"self time {layer}: {seconds:.4f} s ({100 * seconds / total:.1f}%)")
        log(f"trace_check accounted={accounted:.6f} clock={clock:.6f} "
            f"share={abs(accounted - clock) / clock:.4f} tolerance={TRACE_CHECK_TOL}")
        log(f"traced intervals: {measured['intervals']}")
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw = measured["raw"]
        for name, item in metrics.items():
            extra = f" (measured {raw[name]:.6g})" if name in raw else ""
            log(f"{name} {item['value']:.6g} {item['unit']}{extra}")
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
