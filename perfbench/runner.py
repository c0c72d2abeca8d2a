"""Program-side process of the batch workloads: compile once, solve blocks.

``run.py`` starts this script fresh for every setup sample.  It talks over
stdin/stdout, one JSON object per line:

* after set-up it prints ``{"ready": true, "interval": ...}``;
* ``{"cmd": "run", "seconds": S, "blocks": [[case, ...], ...], "out": path}``
  solves the blocks back to back, cycling through them, until ``S``
  seconds have passed, saves each distinct block's iterates to ``path``
  and prints the per-block latencies, iteration counts and peak memory;
* ``{"cmd": "quit"}`` shuts the worker pool down and exits, writing the
  spans first when a span file was named on the command line.

Usage: ``runner.py WORKLOAD SMOKE(0|1) [SPANS_PATH]``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from common import config, proc_cpu_s, proc_peak_rss_mb, use_source_tree, worker_pids


def send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_blocks(session, cfg: dict, cmd: dict, tracer) -> dict:
    import numpy as np

    from repro.pipeline.problems import synthetic_load_block

    loads = synthetic_load_block(session.problem, cfg["load_cases"])
    pool = [np.ascontiguousarray(loads[:, cases]) for cases in cmd["blocks"]]
    m, parametrized, sharding = cfg["m"], cfg["parametrized"], cfg["sharding"]
    pids = worker_pids()
    cpu0 = [proc_cpu_s(pid) for pid in pids]

    starts, latencies, iterations, converged = [], [], [], []
    first: dict[int, tuple] = {}
    mismatches = 0
    t_window = perf_counter()
    deadline = t_window + cmd["seconds"]
    i = 0
    while True:
        j = i % len(pool)
        if tracer is not None:
            tracer.tag = i
        t0 = perf_counter()
        starts.append(t0)
        block = session.solve_cell_block(m, parametrized, F=pool[j], sharding=sharding)
        latencies.append(perf_counter() - t0)
        its = [int(v) for v in block.iterations]
        iterations.append(its)
        converged.append([bool(v) for v in block.result.converged])
        if j not in first:
            first[j] = (np.array(block.u), its)
        elif its != first[j][1] or not np.array_equal(block.u, first[j][0]):
            mismatches += 1  # the same block must solve bitwise the same
        i += 1
        if perf_counter() >= deadline:
            break
    window = perf_counter() - t_window

    busy = [proc_cpu_s(pid) - c for pid, c in zip(pids, cpu0)]
    np.savez(cmd["out"], *[first[j][0] for j in sorted(first)])
    rss = proc_peak_rss_mb(os.getpid()) + sum(proc_peak_rss_mb(p) for p in pids)
    return {
        "t_window": t_window,
        "window_s": window,
        "starts": starts,
        "latencies": latencies,
        "iterations": iterations,
        "converged": converged,
        "solved_blocks": sorted(first),
        "mismatches": mismatches,
        "peak_rss_mb": rss,
        "worker_busy_share": (sum(busy) / (len(pids) * window)) if pids else 0.0,
    }


def main() -> int:
    workload, smoke = sys.argv[1], sys.argv[2] == "1"
    spans_path = sys.argv[3] if len(sys.argv) > 3 and sys.argv[3] else None
    use_source_tree()
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro import pipeline
    from repro.parallel import shutdown_pools
    from repro.pipeline import SolverPlan, SolverSession

    cfg = config(workload, smoke)
    params = {"nrows": cfg["rows"]}
    if cfg["backend"] == "stencil":
        params["assemble"] = False  # matrix-free: no K is ever assembled
    problem = pipeline.build_scenario("plate", **params)
    plan = SolverPlan.single(
        cfg["m"], cfg["parametrized"], eps=cfg["eps"], backend=cfg["backend"],
        block_rhs=cfg["k"],
    )
    session = SolverSession(problem, plan=plan).compile()
    if cfg["sharding"]:
        session.prewarm_sharding(cfg["sharding"])
    interval = (
        [float(v).hex() for v in session.interval] if cfg["parametrized"] else None
    )
    send({"ready": True, "interval": interval})

    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "quit":
                break
            send(run_blocks(session, cfg, cmd, tracer))
    finally:
        session.close()
        shutdown_pools()
        if tracer is not None:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
