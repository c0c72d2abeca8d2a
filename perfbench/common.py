"""Workload definitions and process plumbing shared by the generator and runners.

The generator (``run.py``) and the program-side processes it launches
(``runner.py`` for the batch workloads, ``serve_traced.py`` or
``python -m repro serve`` for serve-plate) import this module, so both
sides agree on sizes, seeds and the environment without passing it around.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Run outputs (span files, solved blocks) live under the checkout's build
#: directory, never next to the benchmark's sources.
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: One BLAS/OpenMP thread for the program and the generator alike: the host
#: has two cores, and sharded workers must not oversubscribe them.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: An answer passes when its true relative residual ‖f − Ku‖₂/‖f‖₂,
#: against a K assembled in the generator, is at most this.
RESIDUAL_TOL = 1e-4

#: Program launches per run whose spawn-to-ready time is timed; ``setup_s``
#: is their median.  The last launch serves the measured traffic.
SETUP_LAUNCHES = 3

WORKLOADS = ("serve-plate", "batch-stencil", "batch-sharded")

#: Full-size configurations.  No timed path computes an ARPACK interval:
#: hot systems are unparametrized or matrix-free (power iteration), and
#: parametrized misses stay at dense-eigh sizes (n ≤ 684 < 700).
CONFIGS = {
    "serve-plate": {
        "hot_rows": 41,
        "miss_rows": list(range(12, 20)),
        "m": 3,
        "eps": 1e-6,
        "load_cases": 32,
        "miss_every": 20,
        "nominal_rate": 3.0,
        "ladder": [14.0, 19.0, 24.0],
        "slo_limit_s": 0.25,
        "connections": 2,
    },
    "batch-stencil": {
        "rows": 100,
        "m": 3,
        "parametrized": True,
        "backend": "stencil",
        "eps": 1e-6,
        "k": 8,
        "pool": 4,
        "load_cases": 64,
        "sharding": None,
    },
    "batch-sharded": {
        "rows": 41,
        "m": 3,
        "parametrized": False,
        "backend": None,
        "eps": 1e-6,
        "k": 16,
        "pool": 8,
        "load_cases": 64,
        "sharding": 2,
    },
}

#: Tiny sizes for the smoke pass: same code paths, seconds per workload.
SMOKE_CONFIGS = {
    "serve-plate": dict(
        CONFIGS["serve-plate"], hot_rows=12, miss_rows=list(range(4, 12)),
        load_cases=8, nominal_rate=20.0, ladder=[30.0, 40.0],
    ),
    "batch-stencil": dict(CONFIGS["batch-stencil"], rows=16, k=4, pool=2,
                          load_cases=16),
    "batch-sharded": dict(CONFIGS["batch-sharded"], rows=12, k=4, pool=2,
                          load_cases=16),
}


def config(workload: str, smoke: bool) -> dict:
    return dict((SMOKE_CONFIGS if smoke else CONFIGS)[workload])


def program_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` (no install needed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # After the ")" closing the command name: state, ppid, ..., then utime
    # and stime at offsets 11 and 12 (fields 14 and 15 of proc(5)).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def worker_pids() -> list[int]:
    """Process ids of the live ``repro.parallel`` worker pools."""
    from repro.parallel import executor

    return sorted(
        pid for pool in executor._POOLS.values() for pid in (pool._processes or {})
    )
