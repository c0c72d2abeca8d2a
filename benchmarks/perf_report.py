#!/usr/bin/env python
"""Machine-readable perf harness for the kernel backend layer.

Times the solver stack's hot primitives on the plate problem —
``apply_p_inv`` (the SSOR triangular application), the m-step
preconditioner application (kernel path and Conrad–Wallach sweep), a full
PCG solve, and the end-to-end Table-2 m-schedule sweep — for both kernel
backends — plus the cold parametrized session a first request pays, and
writes ``BENCH_kernels.json`` at the repo root.  That file is the
perf-trajectory baseline: future changes rerun this script and diff.

Usage (no pytest required)::

    python benchmarks/perf_report.py                 # default meshes 20,41
    python benchmarks/perf_report.py --meshes 11,20 --repeats 3
    python benchmarks/perf_report.py --out /tmp/bench.json

``--check BASELINE.json`` is the perf-regression gate (CI runs it against
the committed ``BENCH_kernels.json``): it re-measures with the baseline's
own configuration, writes the fresh report to ``BENCH_kernels.fresh.json``
at the repo root (override with ``--out``), and exits nonzero
if any recorded backend speedup falls below ``--check-tolerance`` times
its baseline value, if the Table-2 iteration counts drift (a silent
numerics change), or if the absolute speedup targets are missed::

    python benchmarks/perf_report.py --check BENCH_kernels.json

Speedups are reference÷vectorized ratios measured in the same process, so
they are stable across machines in a way absolute seconds are not — the
tolerance only has to absorb scheduler noise.  The two sides of every
ratio are timed interleaved, ``--repeats`` pairs (default 7) with the order
alternating, and a row records the median of the per-pair ratios with its
interquartile range (``speedup_iqr``): host drift between pairs then moves
both sides alike instead of one.  The report's ``host`` block fingerprints
the machine (CPU model and count, ``REPRO_NO_NATIVE``, the native pack's
source hash, the BLAS thread settings); ``--check`` says when it compares
across fingerprints.

The benchmark-fixture variant of the same measurements lives in
``benchmarks/bench_perf_suite.py`` (pytest marker ``perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro import plate_problem  # noqa: E402
from repro.core.mstep import MStepPreconditioner  # noqa: E402
from repro.core.pcg import block_pcg  # noqa: E402
from repro.core.polynomial import neumann_coefficients  # noqa: E402
from repro.core.splittings import SSORSplitting  # noqa: E402
from repro.driver import (  # noqa: E402
    TABLE2_SCHEDULE,
    TABLE3_SCHEDULE,
    build_blocked_system,
    cell_label,
    mstep_coefficients,
    solve_mstep_ssor,
    ssor_interval,
)
from repro.kernels import REFERENCE, VECTORIZED  # noqa: E402
from repro.multicolor import MStepSSOR  # noqa: E402

#: Acceptance thresholds recorded alongside the measurements.
TARGET_APPLY_P_INV_SPEEDUP = 5.0
TARGET_TABLE2_SPEEDUP = 2.0
#: The batched lockstep CYBER sweep must beat the cell-at-a-time pass by
#: at least this factor (measured ~1.9× at a = 20).
TARGET_CYBER_BATCHED_SPEEDUP = 1.3
#: block_pcg over BLOCK_WIDTH simultaneous right-hand sides must beat
#: per-column pcg by at least this factor (ISSUE 4: ≥1.3× at k ≥ 4).
TARGET_BLOCK_PCG_SPEEDUP = 1.3
#: The batched FEM Table-3 lockstep must beat per-cell solves likewise.
TARGET_FEM_SCHEDULE_SPEEDUP = 1.3
#: Sharding a wide RHS block over SHARD_WORKERS processes must beat the
#: serial block lockstep by this factor (ISSUE 5: ≥1.5× at k ≥ 8, W = 4).
#: Real-parallel speedups need real cores, so the absolute target is
#: enforced only on hosts with at least SHARDED_MIN_CORES of them; the
#: measurement itself is recorded (and iteration-drift-checked) everywhere.
TARGET_SHARDED_BLOCK_PCG_SPEEDUP = 1.5
SHARDED_MIN_CORES = 4
#: The fused matrix-free stencil product must beat the assembled CSR
#: matvec outright at the largest common size (ISSUE 8: ≥2× at g = 256,
#: where both representations still fit comfortably).
TARGET_STENCIL_MATVEC_SPEEDUP = 2.0
#: The matrix-free solve must hold at least this peak-allocation
#: advantage over the assembled pipeline, end to end (build + compile +
#: solve) at the same size — the whole point of never forming CSR.
#: Measured ~1.9× at g = 256 (tracemalloc peaks are deterministic);
#: 1.5 leaves headroom for allocator-layout jitter across platforms.
TARGET_STENCIL_SOLVE_MEMORY_RATIO = 1.5
#: The fused native multicolor sweep must at least match the merged CSR
#: sweep per application (measured ~1.3× vector, ~1.4–1.5× block on the
#: reference host) — the matrix-free path no longer trades speed for
#: memory.
TARGET_STENCIL_SWEEP_SPEEDUP = 1.0
#: The plate's compiled matrix-free product — off the per-row values,
#: since no plate diagonal is one dominant constant — must at least match
#: the assembled CSR product on a k = 8 block (the chunked-numpy path it
#: replaced ran ~0.26×); the k = 1 row is recorded, not gated.
TARGET_STENCIL_PLATE_APPLY_SPEEDUP = 1.0
STENCIL_PLATE_ROWS = 100  # plate a for the plate-product rows (n = 19,800)
#: The compiled CSR block product (``csr_product``, the K·P of every
#: assembled block solve of 2–8 columns) must beat scipy's
#: ``csr_matvecs`` into a zeroed block, its bitwise reference, by at least
#: this factor on the permuted plate system (measured ~3×).
TARGET_CSR_PRODUCT_SPEEDUP = 2.0
CSR_PRODUCT_ROWS = 41  # plate a for the csr_product row (n = 3,280)
CSR_PRODUCT_WIDTH = 8  # RHS width of the csr_product row
#: A fresh parametrized session — build, compile, one solve — may cost at
#: most twice the unparametrized one (``speedup`` is m = 3 time ÷ 3P
#: time): the spectral interval must stay a minor compile phase, not the
#: cold solve's dominant cost.
TARGET_COLD_SOLVE_SPEEDUP = 0.5
COLD_SOLVE_ROWS = 41  # plate a for the cold-solve row (n = 3,280)
STENCIL_PLATE_WIDTHS = (1, 8)  # RHS widths of the plate-product rows; the last is gated
STENCIL_GRID = 256  # Poisson n_grid for the stencil rows (n = 65,536 = 20× a=41)
STENCIL_M = 2  # preconditioner steps for the stencil sweep/solve rows
STENCIL_BLOCK_WIDTHS = (4, 8)  # RHS widths for the block-sweep rows

M_APPLY = 4  # the m used for preconditioner-application timings
M_PCG = 3  # the m used for full-solve timings
BLOCK_WIDTH = 6  # right-hand sides in the block-PCG benchmark
FEM_PROCS = 4  # processor count for the FEM-schedule benchmark
SHARD_WIDTH = 16  # right-hand sides in the sharded block-PCG benchmark (k ≥ 8)
SHARD_WORKERS = 4  # worker-process pool for the sharded benchmark
#: Columns per shard.  The 2-D shard grid decouples this from the pool
#: size: 8-wide groups halve the per-apply fixed costs a narrow lockstep
#: pays (the compiled CSR kernels lose ~2× throughput at width 4), which
#: is what keeps the single-core dispatch-overhead ratio near 1.0 while
#: multi-core hosts still fan the groups out across the pool.
SHARD_GROUP = 8


def _time_call(fn, repeats: int, min_seconds: float = 0.02) -> float:
    """Best-of-``repeats`` per-call seconds, inner-looped for short calls."""
    fn()  # warm caches (factorizations, workspaces)
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-9)
    inner = max(1, int(min_seconds / once))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _time_pair(name_a: str, fa, name_b: str, fb, pairs: int,
               min_seconds: float = 0.02) -> dict:
    """The two sides of a ratio, timed interleaved.

    Each pair times ``fa`` and ``fb`` back to back, inner-looped for short
    calls, the order alternating from pair to pair (A B, B A, …), so host
    drift lands on both sides of a pair alike.  Returns the row fields
    ``{name_a}_s`` and ``{name_b}_s`` (median per-call seconds),
    ``speedup`` (the median of the per-pair ``a/b`` ratios, which the
    gates read) and ``speedup_iqr`` (its quartiles).
    """
    loops = []
    for fn in (fa, fb):
        fn()  # warm caches (factorizations, workspaces)
        t0 = time.perf_counter()
        fn()
        once = max(time.perf_counter() - t0, 1e-9)
        loops.append(max(1, int(min_seconds / once)))
    times: tuple[list, list] = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            fn = (fa, fb)[side]
            t0 = time.perf_counter()
            for _ in range(loops[side]):
                fn()
            times[side].append((time.perf_counter() - t0) / loops[side])
    ratios = [a / b for a, b in zip(*times)]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {
        f"{name_a}_s": float(np.median(times[0])),
        f"{name_b}_s": float(np.median(times[1])),
        "speedup": float(median),
        "speedup_iqr": [float(q1), float(q3)],
    }


def host_fingerprint() -> dict:
    """What a ratio depends on beyond the code: the CPU, the core count,
    whether the compiled kernels run (and which ones), the BLAS threads."""
    from repro.kernels._native import source_hash

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpu_model": model,
        "repro_no_native": os.environ.get("REPRO_NO_NATIVE", ""),
        "native_source_hash": source_hash(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE", ""),
    }


def fingerprint_differences(baseline: dict, report: dict) -> list[str]:
    """The host fingerprint fields on which two reports differ."""
    base, fresh = baseline.get("host", {}), report.get("host", {})
    return [
        f"{key}: {base.get(key)!r} → {fresh.get(key)!r}"
        for key in sorted(set(base) | set(fresh))
        if base.get(key) != fresh.get(key)
    ]


def _peak_mb(fn) -> float:
    """Peak incremental allocation (MiB) of one ``fn()``, via tracemalloc.

    Only allocations made *during* the call count — pre-existing state
    (compiled sessions, cached factors) is the caller's to include or
    exclude by choosing what ``fn`` rebuilds.  Recorded per benchmark row
    so the report tracks memory next to time.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def bench_apply_p_inv(blocked, repeats: int) -> dict:
    """SSOR ``P⁻¹r`` per backend: color-block sweeps vs spsolve_triangular."""
    r = np.random.default_rng(0).normal(size=blocked.n)
    ref, vec = (
        SSORSplitting(blocked.permuted, backend=b) for b in (REFERENCE, VECTORIZED)
    )
    out = _time_pair(
        REFERENCE, lambda: ref.apply_p_inv(r),
        VECTORIZED, lambda: vec.apply_p_inv(r), repeats,
    )
    fast = SSORSplitting(blocked.permuted, backend=VECTORIZED)
    out["peak_mb"] = _peak_mb(lambda: fast.apply_p_inv(r))
    return out


def bench_mstep_apply(blocked, repeats: int) -> dict:
    """m-step application: kernel Horner per backend + the merged sweep."""
    coeffs = neumann_coefficients(M_APPLY)
    r = np.random.default_rng(1).normal(size=blocked.n)
    ref, vec = (
        MStepPreconditioner(SSORSplitting(blocked.permuted, backend=b), coeffs)
        for b in (REFERENCE, VECTORIZED)
    )
    out = _time_pair(
        REFERENCE, lambda: ref.apply(r), VECTORIZED, lambda: vec.apply(r), repeats
    )
    sweep = MStepSSOR(blocked, coeffs)
    out["sweep_s"] = _time_call(lambda: sweep.apply(r), repeats)
    out["peak_mb"] = _peak_mb(lambda: sweep.apply(r))
    return out


def splitting_solve(problem, blocked, coefficients, backend: str, eps: float):
    """One m-step PCG solve on the kernel-dispatched splitting realization.

    The load is permuted into the blocked system, preconditioned by
    :class:`MStepPreconditioner` over ``SSORSplitting(blocked.permuted,
    backend=backend)`` (``coefficients`` ``None``: plain CG), solved by a
    one-column :func:`block_pcg` and unpermuted — the per-backend work the
    kernel gates time.  Returns the column's
    :class:`~repro.core.pcg.PCGResult` and the natural-order iterate.
    """
    ordering = blocked.ordering
    F = np.ascontiguousarray(ordering.permute_vector(problem.f[:, None]))
    preconditioner = None
    if coefficients is not None:
        preconditioner = MStepPreconditioner(
            SSORSplitting(blocked.permuted, backend=backend), coefficients
        )
    result = block_pcg(blocked.permuted, F, preconditioner=preconditioner, eps=eps)
    return result.column(0), ordering.unpermute_vector(result.u)[:, 0]


def bench_pcg(problem, blocked, repeats: int, eps: float) -> dict:
    """Full m-step PCG solve per backend (splitting realization) + sweep."""
    def run(backend):
        result, u = splitting_solve(
            problem, blocked, neumann_coefficients(M_PCG), backend, eps
        )
        assert result.converged
        return u

    out = _time_pair(
        REFERENCE, lambda: run(REFERENCE), VECTORIZED, lambda: run(VECTORIZED),
        repeats,
    )

    def run_sweep():
        solve = solve_mstep_ssor(problem, M_PCG, blocked=blocked, eps=eps)
        assert solve.result.converged

    out["sweep_s"] = _time_call(run_sweep, repeats)
    out["peak_mb"] = _peak_mb(run_sweep)
    return out


def bench_table2_sweep(problem, blocked, repeats: int, eps: float) -> dict:
    """The full Table-2 m-schedule, end to end, per backend."""
    interval = ssor_interval(blocked)
    # Iteration counts recorded per backend: the perf gate diffs them
    # against the baseline, so drift in *either* backend's numerics is
    # caught (a shared dict would let the last-measured backend mask it).
    iterations: dict[str, dict[str, int]] = {}

    def run_schedule(backend: str) -> None:
        cells = iterations.setdefault(backend, {})
        for m, parametrized in TABLE2_SCHEDULE:
            coefficients = (
                mstep_coefficients(m, parametrized, interval) if m else None
            )
            result, _ = splitting_solve(
                problem, blocked, coefficients, backend, eps
            )
            assert result.converged
            cells[cell_label(m, parametrized)] = result.iterations

    out = _time_pair(
        REFERENCE, lambda: run_schedule(REFERENCE),
        VECTORIZED, lambda: run_schedule(VECTORIZED), repeats,
    )
    out["peak_mb"] = _peak_mb(lambda: run_schedule(VECTORIZED))
    out["iterations"] = iterations
    out["cells"] = len(TABLE2_SCHEDULE)
    return out


def bench_cyber_schedule(problem, repeats: int, eps: float) -> dict:
    """The CYBER Table-2 sweep: cell-at-a-time vs one batched pass.

    Both passes share one compiled :class:`SolverSession` (same machine
    layout, same cached kernels); the recorded ``speedup`` is the wall-time
    win of :meth:`CyberMachine.solve_schedule` (one ``block_pcg`` call,
    its 13 cells in lockstep groups of 8 and 5) over 13 one-cell passes
    (per-cell ``solve`` calls, each a one-column ``block_pcg``).
    Iteration counts are recorded per mode — the gate flags any drift
    between them (they are bitwise identical by contract) or against the
    baseline.
    """
    from repro.pipeline import SolverPlan, SolverSession

    session = SolverSession(problem, plan=SolverPlan.table2(eps=eps))
    machine = session.cyber()
    iterations: dict[str, dict[str, int]] = {}

    def run_schedule(batched: bool, key: str) -> None:
        cells = iterations.setdefault(key, {})
        results = (
            session.run_cyber_schedule()
            if batched
            else [machine.solve(m, c, eps=eps) for m, c in session.schedule_cells()]
        )
        for res in results:
            assert res.converged
            cells[res.label] = res.iterations

    out = _time_pair(
        "percolumn", lambda: run_schedule(False, "percolumn"),
        "batched", lambda: run_schedule(True, "batched"), repeats,
    )
    if iterations["batched"] != iterations["percolumn"]:
        raise AssertionError(
            "batched and per-column CYBER sweeps disagree on iterations"
        )
    out["peak_mb"] = _peak_mb(lambda: run_schedule(True, "batched"))
    out["iterations"] = iterations
    out["cells"] = len(TABLE2_SCHEDULE)
    return out


def bench_block_pcg(problem, blocked, repeats: int, eps: float) -> dict:
    """Multi-RHS block-PCG vs per-column solves on one compiled session.

    ``BLOCK_WIDTH`` load cases (the scenario's own plus seeded synthetic
    ones) through one :func:`repro.core.pcg.block_pcg` lockstep versus
    one :meth:`SolverSession.solve_cell` per column — same compiled
    caches either way, so the recorded ``speedup`` is the pure win of the
    batched ``(n, k)`` numerics.  Per-column iteration counts are
    recorded for both modes; they are bitwise identical by contract and
    the gate flags any drift.
    """
    from repro.pipeline import SolverPlan, SolverSession, synthetic_load_block

    session = SolverSession(
        problem,
        plan=SolverPlan.single(M_PCG, eps=eps, block_rhs=BLOCK_WIDTH),
        blocked=blocked,
    )
    session.compile()
    F = synthetic_load_block(problem, BLOCK_WIDTH)
    iterations: dict[str, dict[str, int]] = {}

    def run_percolumn() -> None:
        cells = iterations.setdefault("percolumn", {})
        for j in range(BLOCK_WIDTH):
            solve = session.solve_cell(M_PCG, f=F[:, j])
            assert solve.result.converged
            cells[str(j)] = solve.iterations

    def run_block() -> None:
        cells = iterations.setdefault("block", {})
        block = session.solve_cell_block(M_PCG, F=F)
        assert block.result.all_converged
        for j in range(BLOCK_WIDTH):
            cells[str(j)] = int(block.iterations[j])

    out = _time_pair("percolumn", run_percolumn, "block", run_block, repeats)
    if iterations["block"] != iterations["percolumn"]:
        raise AssertionError(
            "block and per-column PCG disagree on iteration counts"
        )
    out["peak_mb"] = _peak_mb(run_block)
    out["iterations"] = iterations
    out["width"] = BLOCK_WIDTH
    return out


def bench_sharded_block_pcg(
    problem, blocked, repeats: int, eps: float, steady: bool = True
) -> dict:
    """Sharded vs serial block-PCG on one compiled session.

    A ``SHARD_WIDTH``-wide load block through
    :meth:`SolverSession.solve_cell_block` serially (one ``block_pcg``
    call, which runs the 16 columns as two lockstep groups of 8, one after
    the other) versus sharded over ``SHARD_WORKERS`` worker processes in
    ``SHARD_GROUP``-column groups (:func:`repro.parallel.sharded_block_pcg`):
    the same two groups, run side by side.

    ``steady`` (the default) measures the service-loop steady state: the
    session pre-publishes the operator's shared-memory segments and
    pre-warms the pool (:meth:`SolverSession.prewarm_sharding`), then one
    full warm-up dispatch — the one that pays segment attachment and
    first-touch page faults — runs *excluded from timing*, so the
    recorded ``speedup`` is the recurring dispatch + parallel compute
    against serial compute.  ``steady=False`` (``--sharded-cold``) skips
    both and folds the one-time costs into the measurement.

    The row also records the bytes one dispatch pickles onto the worker
    pipe (``dispatch_bytes_shm``: every spec's segment handles, column
    indices and recipe), independent of timing noise.  Per-column
    iteration counts are bitwise identical by contract; the benchmark
    itself asserts it and the gate flags any drift.  The absolute ≥1.5× target is enforced only on hosts with at
    least ``SHARDED_MIN_CORES`` cores (``requires_cores`` in the row) — a
    single-core box can only measure dispatch overhead, not parallelism.
    """
    import pickle

    from repro.parallel import build_shard_specs, column_groups
    from repro.parallel.shards import matrix_token
    from repro.pipeline import SolverPlan, SolverSession, synthetic_load_block

    session = SolverSession(
        problem,
        plan=SolverPlan.single(M_PCG, eps=eps, block_rhs=SHARD_WIDTH),
        blocked=blocked,
    )
    session.compile()
    F = synthetic_load_block(problem, SHARD_WIDTH)
    sharding = (SHARD_WORKERS, SHARD_GROUP)
    if steady:
        session.prewarm_sharding(sharding)
        # One full warm-up dispatch, excluded from the timed repeats:
        # first-touch costs (segment publication, worker attachment, page
        # faults) are one-time, not steady-state.
        session.solve_cell_block(M_PCG, F=F, sharding=sharding)
    iterations: dict[str, dict[str, int]] = {}

    def run_serial() -> None:
        block = session.solve_cell_block(M_PCG, F=F)
        assert block.result.all_converged
        iterations["serial"] = {
            str(j): int(block.iterations[j]) for j in range(SHARD_WIDTH)
        }

    def run_sharded() -> None:
        block = session.solve_cell_block(M_PCG, F=F, sharding=sharding)
        assert block.result.all_converged
        iterations["sharded"] = {
            str(j): int(block.iterations[j]) for j in range(SHARD_WIDTH)
        }

    out = _time_pair("serial", run_serial, "sharded", run_sharded, repeats)
    if iterations["sharded"] != iterations["serial"]:
        raise AssertionError(
            "sharded and serial block-PCG disagree on iteration counts"
        )
    out["peak_mb"] = _peak_mb(run_sharded)  # parent-process allocations only
    out["mode"] = "steady" if steady else "cold"
    # Bytes each dispatch actually pickles onto the worker pipe: segment
    # handles, column indices and the recipe, never the operator or the
    # block values.
    k = blocked.permuted
    f_mc = np.ascontiguousarray(
        blocked.ordering.permute_vector(np.asarray(F, dtype=float))
    )
    groups = column_groups(SHARD_WIDTH, SHARD_WORKERS, SHARD_GROUP)
    recipe = session._shard_recipe(M_PCG, False)
    specs, _ = build_shard_specs(k, f_mc, recipe, groups, eps=eps)
    out["dispatch_bytes_shm"] = sum(len(pickle.dumps(s)) for s in specs)
    out["iterations"] = iterations
    out["width"] = SHARD_WIDTH
    out["workers"] = SHARD_WORKERS
    out["group"] = SHARD_GROUP
    out["requires_cores"] = SHARDED_MIN_CORES
    session._shm_tokens.add(matrix_token(k))
    session.close()
    return out


def bench_fem_schedule(problem, blocked, repeats: int, eps: float) -> dict:
    """The FEM Table-3 schedule: per-cell solves vs one batched pass.

    Both modes share one machine layout, blocked system and merged sweep;
    a per-cell ``solve`` is a one-cell pass.  The batched pass
    (:meth:`FiniteElementMachine.solve_schedule`, its 10 cells in lockstep
    groups of 8 and 2) stacks active cells into ``(n, k)`` blocks and
    sweeps each group's preconditioned cells in one zero-padded
    ``apply_schedule`` call, bitwise identical to per-cell ``solve`` calls
    in iterations, clocks and ledgers (the gate flags iteration drift).
    """
    from repro.machines import FiniteElementMachine

    interval = ssor_interval(blocked)
    machine = FiniteElementMachine(problem, FEM_PROCS, blocked=blocked)
    cells = [
        (m, mstep_coefficients(m, parametrized, interval) if m >= 1 else None)
        for m, parametrized in TABLE3_SCHEDULE
    ]
    iterations: dict[str, dict[str, int]] = {}

    def run_percell() -> None:
        results = [machine.solve(m, coeffs, eps=eps) for m, coeffs in cells]
        iterations["percell"] = {r.label: r.iterations for r in results}
        assert all(r.converged for r in results)

    def run_batched() -> None:
        results = machine.solve_schedule(cells, eps=eps)
        iterations["batched"] = {r.label: r.iterations for r in results}
        assert all(r.converged for r in results)

    out = _time_pair("percell", run_percell, "batched", run_batched, repeats)
    if iterations["batched"] != iterations["percell"]:
        raise AssertionError(
            "batched and per-cell FEM schedules disagree on iterations"
        )
    out["peak_mb"] = _peak_mb(run_batched)
    out["iterations"] = iterations
    out["cells"] = len(TABLE3_SCHEDULE)
    return out


def bench_stencil_apply(repeats: int) -> dict:
    """Fused matrix-free ``K·x`` vs the assembled CSR matvec.

    Both products are bitwise identical (the benchmark asserts it before
    timing); the recorded ``speedup`` is pure kernel speed, gated
    absolutely at ``TARGET_STENCIL_MATVEC_SPEEDUP``.  The row also
    records each representation's operator footprint.
    """
    from repro.fem.matrixfree import stencil_operator
    from repro.pipeline import build_scenario

    problem = build_scenario("poisson", n_grid=STENCIL_GRID)
    op = stencil_operator(problem)
    k = problem.k
    x = np.random.default_rng(8).normal(size=op.n)
    buf = np.empty(op.n)
    op.matvec_into(x, buf)
    if not np.array_equal(k @ x, buf):
        raise AssertionError("stencil K·x is not bitwise equal to the CSR matvec")
    out = _time_pair(
        "csr", lambda: k @ x, "stencil", lambda: op.matvec_into(x, buf), repeats
    )
    out["n"] = op.n
    out["csr_mb"] = (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes) / 2**20
    out["stencil_mb"] = op.memory_bytes() / 2**20
    out["peak_mb"] = _peak_mb(lambda: op.matvec_into(x, buf))
    return out


def bench_stencil_plate_apply(repeats: int) -> dict:
    """The plate's compiled matrix-free ``K·X`` vs the assembled CSR product.

    Every plate diagonal either alternates between its u/v couplings or
    carries ulp-scattered self-couplings, so the plate's product runs off
    the per-row values rather than the dominant constants
    ``stencil_apply`` measures on Poisson.  One row per width in
    ``STENCIL_PLATE_WIDTHS``, each asserted bitwise equal to the CSR
    product before timing; the widest is gated absolutely at
    ``TARGET_STENCIL_PLATE_APPLY_SPEEDUP``.
    """
    from repro.fem.matrixfree import stencil_operator

    problem = plate_problem(STENCIL_PLATE_ROWS)
    op = stencil_operator(problem)
    k = problem.k
    rows: dict[str, dict] = {}
    for width in STENCIL_PLATE_WIDTHS:
        shape = (op.n,) if width == 1 else (op.n, width)
        x = np.random.default_rng(20 + width).normal(size=shape)
        buf = np.empty(shape)
        op.matvec_into(x, buf)
        if not np.array_equal(k @ x, buf):
            raise AssertionError(
                f"plate stencil K·x (k={width}) is not bitwise equal to the "
                "CSR product"
            )
        row = _time_pair(
            "csr", lambda: k @ x, "stencil", lambda: op.matvec_into(x, buf),
            repeats,
        )
        row["n"] = op.n
        row["peak_mb"] = _peak_mb(lambda: op.matvec_into(x, buf))
        rows[f"k={width}"] = row
    return rows


def bench_csr_product(repeats: int) -> dict:
    """The compiled CSR block product vs scipy's ``csr_matvecs``.

    ``K·X`` on the permuted plate system (the operator of every assembled
    block solve) over ``CSR_PRODUCT_WIDTH`` columns:
    :func:`repro.kernels.ops.matvec_into`, which runs the pack's
    ``csr_product``, against scipy's ``csr_matvecs`` into a zeroed block.
    The two are asserted bitwise equal before timing; the ratio is gated
    absolutely at ``TARGET_CSR_PRODUCT_SPEEDUP``.
    """
    from scipy.sparse import _sparsetools

    from repro.kernels.ops import matvec_into

    k = build_blocked_system(plate_problem(CSR_PRODUCT_ROWS)).permuted
    n, width = k.shape[0], CSR_PRODUCT_WIDTH
    x = np.random.default_rng(41).normal(size=(n, width))
    compiled, reference = np.empty((n, width)), np.empty((n, width))

    def run_scipy() -> None:
        reference.fill(0.0)
        _sparsetools.csr_matvecs(
            n, n, width, k.indptr, k.indices, k.data, x.ravel(),
            reference.ravel(),
        )

    def run_compiled() -> None:
        matvec_into(k, x, compiled)

    run_scipy()
    run_compiled()
    if compiled.tobytes() != reference.tobytes():
        raise AssertionError(
            "the compiled CSR block product is not bitwise scipy's csr_matvecs"
        )
    out = _time_pair("scipy", run_scipy, "compiled", run_compiled, repeats)
    out["n"] = n
    out["nnz"] = int(k.nnz)
    out["width"] = width
    return out


def bench_stencil_sweep(repeats: int) -> dict:
    """Multicolor m-step SSOR: fused native sweep vs the merged CSR sweep.

    Gated absolutely at ``TARGET_STENCIL_SWEEP_SPEEDUP``: since the whole
    m-step schedule moved into one native kernel walking the color plan
    in-kernel, the matrix-free sweep must at least match ``MStepSSOR``
    per application — the solve row below still carries the memory
    headline.
    """
    from repro.driver import mstep_coefficients
    from repro.fem.matrixfree import stencil_operator
    from repro.kernels.stencil import StencilSSOR
    from repro.pipeline import build_scenario

    problem = build_scenario("poisson", n_grid=STENCIL_GRID)
    blocked = build_blocked_system(problem)
    coeffs = mstep_coefficients(STENCIL_M, False, None)
    csr_sweep = MStepSSOR(blocked, coeffs)
    st_sweep = StencilSSOR(stencil_operator(problem), coeffs)
    r = np.random.default_rng(9).normal(size=blocked.n)
    out = _time_pair(
        "csr", lambda: csr_sweep.apply(r), "stencil", lambda: st_sweep.apply(r),
        repeats,
    )
    out["m"] = STENCIL_M
    out["peak_mb"] = _peak_mb(lambda: st_sweep.apply(r))
    return out


def bench_stencil_block_sweep(repeats: int) -> dict:
    """The fused native *block* sweep vs the merged CSR block sweep.

    One row per RHS width in ``STENCIL_BLOCK_WIDTHS``; every row is gated
    absolutely at ``TARGET_STENCIL_SWEEP_SPEEDUP``, same bar as the
    vector sweep.
    """
    from repro.driver import mstep_coefficients
    from repro.fem.matrixfree import stencil_operator
    from repro.kernels.stencil import StencilSSOR
    from repro.pipeline import build_scenario

    problem = build_scenario("poisson", n_grid=STENCIL_GRID)
    blocked = build_blocked_system(problem)
    coeffs = mstep_coefficients(STENCIL_M, False, None)
    csr_sweep = MStepSSOR(blocked, coeffs)
    st_sweep = StencilSSOR(stencil_operator(problem), coeffs)
    rows: dict[str, dict] = {}
    for k in STENCIL_BLOCK_WIDTHS:
        R = np.ascontiguousarray(
            np.random.default_rng(10 + k).normal(size=(blocked.n, k))
        )
        row = _time_pair(
            "csr", lambda: csr_sweep.apply(R), "stencil", lambda: st_sweep.apply(R),
            repeats,
        )
        row["m"] = STENCIL_M
        row["peak_mb"] = _peak_mb(lambda: st_sweep.apply(R))
        rows[f"k={k}"] = row
    return rows


def bench_stencil_solve(repeats: int, eps: float) -> dict:
    """End-to-end solve, assembled pipeline vs matrix-free stencil.

    Each call rebuilds the problem, compiles a fresh session and solves
    one cell — exactly what a cold request pays.  The recorded
    ``speedup`` is the **peak-allocation ratio** (assembled / stencil),
    gated absolutely at ``TARGET_STENCIL_SOLVE_MEMORY_RATIO``: the
    matrix-free path must make the memory the assembled path spends on
    CSR + multicolor factors simply not exist.  Wall time is recorded
    alongside (``solve_speedup``, informational).
    """
    from repro.pipeline import SolverPlan, SolverSession, build_scenario

    iterations: dict[str, int] = {}

    def run_csr() -> None:
        problem = build_scenario("poisson", n_grid=STENCIL_GRID)
        session = SolverSession(problem, plan=SolverPlan.single(STENCIL_M, eps=eps))
        solve = session.solve_cell(STENCIL_M)
        assert solve.result.converged
        iterations["csr"] = solve.iterations

    def run_stencil() -> None:
        problem = build_scenario("poisson", n_grid=STENCIL_GRID, assemble=False)
        session = SolverSession(
            problem, plan=SolverPlan.single(STENCIL_M, eps=eps, backend="stencil")
        )
        solve = session.solve_cell(STENCIL_M)
        assert solve.result.converged
        iterations["stencil"] = solve.iterations

    timed = _time_pair("csr", run_csr, "stencil", run_stencil, repeats)
    out = {
        "csr_s": timed["csr_s"],
        "stencil_s": timed["stencil_s"],
        "csr_peak_mb": _peak_mb(run_csr),
        "stencil_peak_mb": _peak_mb(run_stencil),
    }
    out["speedup"] = out["csr_peak_mb"] / out["stencil_peak_mb"]
    out["solve_speedup"] = timed["speedup"]
    out["peak_mb"] = out["stencil_peak_mb"]
    out["iterations"] = iterations
    out["m"] = STENCIL_M
    return out


def bench_cold_solve(repeats: int, eps: float) -> dict:
    """What a cold request waits for: a fresh plate session built,
    compiled and solved once, unparametrized m = 3 vs 3P.

    The recorded ``speedup`` is the m = 3 time over the 3P time, gated
    absolutely at ``TARGET_COLD_SOLVE_SPEEDUP``; the iteration counts
    double as a drift check on the interval the 3P fit stands on.
    """
    from repro.pipeline import SolverPlan, SolverSession

    iterations: dict[str, int] = {}

    def run(parametrized: bool) -> None:
        plan = SolverPlan.single(M_PCG, parametrized, eps=eps)
        session = SolverSession(plate_problem(COLD_SOLVE_ROWS), plan=plan)
        solve = session.solve_cell(M_PCG, parametrized)
        assert solve.result.converged
        iterations[solve.label] = solve.iterations

    out = _time_pair(
        "plain", lambda: run(False), "parametrized", lambda: run(True), repeats
    )
    out["iterations"] = iterations
    out["m"] = M_PCG
    return out


def build_report(
    meshes=(20, 41),
    repeats: int = 7,
    eps: float = 1e-6,
    table2_mesh: int | None = None,
    sharded_steady: bool = True,
) -> dict:
    """Run every measurement and assemble the JSON-ready report dict."""
    meshes = list(meshes)
    if table2_mesh is None:
        table2_mesh = meshes[0]
    if table2_mesh not in meshes:
        raise ValueError(
            f"table2_mesh {table2_mesh} must be one of the benchmarked meshes {meshes}"
        )
    results: dict = {
        "apply_p_inv": {},
        "mstep_apply": {},
        "pcg": {},
        "table2_sweep": {},
        "cyber_schedule": {},
        "block_pcg": {},
        "sharded_block_pcg": {},
        "fem_schedule": {},
        "stencil_apply": {},
        "stencil_plate_apply": {},
        "stencil_sweep": {},
        "stencil_block_sweep": {},
        "stencil_solve": {},
        "cold_solve": {},
        "csr_product": {},
    }
    for a in meshes:
        problem = plate_problem(a)
        blocked = build_blocked_system(problem)
        key = f"a={a}"
        results["apply_p_inv"][key] = bench_apply_p_inv(blocked, repeats)
        results["mstep_apply"][key] = bench_mstep_apply(blocked, repeats)
        results["pcg"][key] = bench_pcg(problem, blocked, repeats, eps)
        if a == table2_mesh:
            results["table2_sweep"][key] = bench_table2_sweep(
                problem, blocked, repeats, eps
            )
            results["cyber_schedule"][key] = bench_cyber_schedule(
                problem, repeats, eps
            )
            results["block_pcg"][key] = bench_block_pcg(
                problem, blocked, repeats, eps
            )
            results["fem_schedule"][key] = bench_fem_schedule(
                problem, blocked, repeats, eps
            )
        if a == max(meshes):
            # Sharding pays off when each shard carries real compute, so
            # the parallel benchmark runs on the largest mesh.
            results["sharded_block_pcg"][key] = bench_sharded_block_pcg(
                problem, blocked, repeats, eps, steady=sharded_steady
            )

    gkey = f"g={STENCIL_GRID}"
    results["stencil_apply"][gkey] = bench_stencil_apply(repeats)
    results["stencil_plate_apply"] = bench_stencil_plate_apply(repeats)
    results["stencil_sweep"][gkey] = bench_stencil_sweep(repeats)
    results["stencil_block_sweep"] = bench_stencil_block_sweep(repeats)
    results["stencil_solve"][gkey] = bench_stencil_solve(repeats, eps)
    ckey = f"a={COLD_SOLVE_ROWS}"
    results["cold_solve"][ckey] = bench_cold_solve(repeats, eps)
    pkey = f"a={CSR_PRODUCT_ROWS}"
    results["csr_product"][pkey] = bench_csr_product(repeats)

    host = host_fingerprint()
    config = {
        "meshes": meshes,
        "repeats": repeats,
        "eps": eps,
        "m_apply": M_APPLY,
        "m_pcg": M_PCG,
        "table2_mesh": table2_mesh,
        "sharded_mode": "steady" if sharded_steady else "cold",
        "stencil_grid": STENCIL_GRID,
        "stencil_plate_rows": STENCIL_PLATE_ROWS,
        "stencil_m": STENCIL_M,
        "cold_solve_rows": COLD_SOLVE_ROWS,
        "csr_product_rows": CSR_PRODUCT_ROWS,
        "csr_product_width": CSR_PRODUCT_WIDTH,
    }
    return {
        "bench": "kernels",
        "created_unix": time.time(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "host": host,
        "config": config,
        "results": results,
        "targets": compute_targets(results, host, config),
    }


def compute_targets(results: dict, host: dict, config: dict) -> dict:
    """A report's ``targets`` block, read off its own rows.

    Each gated ratio beside its bar (``<name>_min``), whether the sharded
    bar is enforced on this host, and ``met``: every enforced ratio at or
    above its bar.  Fresh reports and the committed baseline both carry
    exactly this block.
    """
    largest = f"a={max(config['meshes'])}"
    table2 = f"a={config['table2_mesh']}"
    grid = f"g={config['stencil_grid']}"
    gated = {
        "apply_p_inv_speedup": (
            TARGET_APPLY_P_INV_SPEEDUP, results["apply_p_inv"][largest]),
        "table2_speedup": (TARGET_TABLE2_SPEEDUP, results["table2_sweep"][table2]),
        "cyber_batched_speedup": (
            TARGET_CYBER_BATCHED_SPEEDUP, results["cyber_schedule"][table2]),
        "block_pcg_speedup": (TARGET_BLOCK_PCG_SPEEDUP, results["block_pcg"][table2]),
        "sharded_block_pcg_speedup": (
            TARGET_SHARDED_BLOCK_PCG_SPEEDUP, results["sharded_block_pcg"][largest]),
        "fem_schedule_speedup": (
            TARGET_FEM_SCHEDULE_SPEEDUP, results["fem_schedule"][table2]),
        "stencil_matvec_speedup": (
            TARGET_STENCIL_MATVEC_SPEEDUP, results["stencil_apply"][grid]),
        "stencil_plate_apply_speedup": (
            TARGET_STENCIL_PLATE_APPLY_SPEEDUP,
            results["stencil_plate_apply"][f"k={STENCIL_PLATE_WIDTHS[-1]}"]),
        "stencil_sweep_speedup": (
            TARGET_STENCIL_SWEEP_SPEEDUP, results["stencil_sweep"][grid]),
        "stencil_block_sweep_speedup": (
            TARGET_STENCIL_SWEEP_SPEEDUP,
            min(results["stencil_block_sweep"].values(), key=lambda row: row["speedup"])),
        "stencil_solve_memory_ratio": (
            TARGET_STENCIL_SOLVE_MEMORY_RATIO, results["stencil_solve"][grid]),
        "cold_solve_speedup": (
            TARGET_COLD_SOLVE_SPEEDUP,
            results["cold_solve"][f"a={config['cold_solve_rows']}"]),
        "csr_product_speedup": (
            TARGET_CSR_PRODUCT_SPEEDUP,
            results["csr_product"][f"a={config['csr_product_rows']}"]),
    }
    enforced = host["cpu_count"] >= SHARDED_MIN_CORES
    targets = {"sharded_block_pcg_enforced": enforced}
    met = True
    for name, (bar, row) in gated.items():
        targets[f"{name}_min"] = bar
        targets[name] = row["speedup"]
        if enforced or name != "sharded_block_pcg_speedup":
            met = met and row["speedup"] >= bar
    targets["met"] = bool(met)
    return targets


def render(report: dict) -> str:
    host = report["host"]
    lines = [
        "kernel perf report (seconds per call: medians of interleaved pairs; "
        "speedup: median per-pair ratio [interquartile range])",
        f"host: {host.get('cpu_model')} × {host.get('cpu_count')}, "
        f"REPRO_NO_NATIVE={host.get('repro_no_native')!r}, native pack "
        f"{host.get('native_source_hash')}",
        "",
    ]
    for section, by_mesh in report["results"].items():
        for key, row in by_mesh.items():
            iqr = row.get("speedup_iqr")
            cells = ", ".join(
                f"{name}={value:.3e}" if name.endswith("_s")
                else f"{name}={value:.2f}"
                + (f" [{iqr[0]:.2f}–{iqr[1]:.2f}]" if iqr else "")
                if name == "speedup"
                else f"{name}={value:.1f}" if name.endswith("peak_mb")
                else ""
                for name, value in row.items()
                if name.endswith("_s") or name == "speedup"
                or name.endswith("peak_mb")
            ).strip(", ")
            lines.append(f"  {section:<14s} {key:<6s} {cells}")
    t = report["targets"]
    lines += [
        "",
        f"  targets: apply_p_inv ≥{t['apply_p_inv_speedup_min']:.0f}× "
        f"(measured {t['apply_p_inv_speedup']:.1f}×), "
        f"table2 ≥{t['table2_speedup_min']:.0f}× "
        f"(measured {t['table2_speedup']:.1f}×), "
        f"batched cyber sweep ≥{t['cyber_batched_speedup_min']:.1f}× "
        f"(measured {t['cyber_batched_speedup']:.1f}×), "
        f"block pcg ≥{t['block_pcg_speedup_min']:.1f}× "
        f"(measured {t['block_pcg_speedup']:.1f}×), "
        f"sharded block pcg ≥{t['sharded_block_pcg_speedup_min']:.1f}× "
        f"(measured {t['sharded_block_pcg_speedup']:.2f}×"
        + (
            ""
            if t["sharded_block_pcg_enforced"]
            else ", recorded only — host has too few cores"
        )
        + "), "
        f"fem schedule ≥{t['fem_schedule_speedup_min']:.1f}× "
        f"(measured {t['fem_schedule_speedup']:.1f}×), "
        f"stencil matvec ≥{t['stencil_matvec_speedup_min']:.0f}× "
        f"(measured {t['stencil_matvec_speedup']:.1f}×), "
        f"plate stencil matvec ≥{t['stencil_plate_apply_speedup_min']:.1f}× "
        f"(measured {t['stencil_plate_apply_speedup']:.2f}× at "
        f"k={STENCIL_PLATE_WIDTHS[-1]}), "
        f"stencil sweep ≥{t['stencil_sweep_speedup_min']:.1f}× "
        f"(measured {t['stencil_sweep_speedup']:.2f}× vector, "
        f"{t['stencil_block_sweep_speedup']:.2f}× block), "
        f"stencil solve memory ≥{t['stencil_solve_memory_ratio_min']:.1f}× "
        f"(measured {t['stencil_solve_memory_ratio']:.1f}×), "
        f"cold 3P solve ≥{t['cold_solve_speedup_min']:.1f}× the m=3 one "
        f"(measured {t['cold_solve_speedup']:.2f}×), "
        f"csr block product ≥{t['csr_product_speedup_min']:.1f}× scipy "
        f"(measured {t['csr_product_speedup']:.2f}× at "
        f"k={CSR_PRODUCT_WIDTH}) — "
        + ("MET" if t["met"] else "NOT MET"),
    ]
    return "\n".join(lines)


def check_against_baseline(
    baseline: dict, report: dict, tolerance: float
) -> list[str]:
    """Regression verdicts: every baseline speedup must survive × tolerance.

    Also flags Table-2 iteration-count drift (the gate doubles as a cheap
    silent-numerics-change detector) and the absolute speedup targets.
    """
    failures: list[str] = []
    fresh_cores = report.get("host", {}).get("cpu_count", os.cpu_count() or 1)
    for section, by_mesh in baseline.get("results", {}).items():
        for key, row in by_mesh.items():
            base_speedup = row.get("speedup")
            if base_speedup is None:
                continue
            fresh_row = report["results"].get(section, {}).get(key)
            if fresh_row is None:
                failures.append(f"{section}[{key}]: missing from the fresh report")
                continue
            fresh_speedup = fresh_row["speedup"]
            floor = tolerance * base_speedup
            # Rows whose speedup needs real cores (the sharded benchmarks
            # carry requires_cores) are regression-checked only on hosts
            # that actually have them; iteration drift is checked always.
            requires_cores = row.get("requires_cores", 1)
            if fresh_speedup < floor and fresh_cores >= requires_cores:
                failures.append(
                    f"{section}[{key}]: speedup {fresh_speedup:.2f}× < "
                    f"{floor:.2f}× (= {tolerance:g} × baseline "
                    f"{base_speedup:.2f}×)"
                )
            base_iters = row.get("iterations")
            if base_iters is not None and fresh_row.get("iterations") != base_iters:
                failures.append(
                    f"{section}[{key}]: iteration counts drifted from the "
                    "baseline — numerics changed, not just speed"
                )
    if not report["targets"]["met"]:
        t = report["targets"]
        failures.append(
            "absolute targets missed: apply_p_inv "
            f"{t['apply_p_inv_speedup']:.1f}× (need "
            f"≥{t['apply_p_inv_speedup_min']:g}×), table2 "
            f"{t['table2_speedup']:.1f}× (need ≥{t['table2_speedup_min']:g}×), "
            f"batched cyber sweep {t['cyber_batched_speedup']:.1f}× "
            f"(need ≥{t['cyber_batched_speedup_min']:g}×), "
            f"block pcg {t['block_pcg_speedup']:.1f}× "
            f"(need ≥{t['block_pcg_speedup_min']:g}×), "
            f"sharded block pcg {t['sharded_block_pcg_speedup']:.2f}× "
            f"(need ≥{t['sharded_block_pcg_speedup_min']:g}× when enforced; "
            f"enforced={t['sharded_block_pcg_enforced']}), "
            f"fem schedule {t['fem_schedule_speedup']:.1f}× "
            f"(need ≥{t['fem_schedule_speedup_min']:g}×), "
            f"stencil matvec {t['stencil_matvec_speedup']:.1f}× "
            f"(need ≥{t['stencil_matvec_speedup_min']:g}×), "
            f"plate stencil matvec {t['stencil_plate_apply_speedup']:.2f}× "
            f"(need ≥{t['stencil_plate_apply_speedup_min']:g}×), "
            f"stencil sweep {t['stencil_sweep_speedup']:.2f}× vector / "
            f"{t['stencil_block_sweep_speedup']:.2f}× block "
            f"(need ≥{t['stencil_sweep_speedup_min']:g}×), "
            f"stencil solve memory {t['stencil_solve_memory_ratio']:.1f}× "
            f"(need ≥{t['stencil_solve_memory_ratio_min']:g}×), "
            f"cold 3P solve {t['cold_solve_speedup']:.2f}× the m=3 one "
            f"(need ≥{t['cold_solve_speedup_min']:g}×), "
            f"csr block product {t['csr_product_speedup']:.2f}× scipy "
            f"(need ≥{t['csr_product_speedup_min']:g}×)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--meshes", default=None,
        help="comma-separated plate sizes a (default 20,41; in --check mode "
        "the baseline's own meshes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="interleaved pairs per ratio (default 7; in --check mode the "
        "baseline's own)",
    )
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument(
        "--table2-mesh", type=int, default=None,
        help="mesh for the end-to-end Table-2 sweep (default: smallest mesh)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="regression-gate mode: re-measure with BASELINE's config and "
        "fail if any recorded speedup regresses beyond the tolerance",
    )
    parser.add_argument(
        "--sharded-cold", action="store_true",
        help="measure the sharded block-PCG benchmark cold (no pool "
        "pre-warm, no excluded warm-up dispatch) instead of the default "
        "steady-state mode",
    )
    parser.add_argument(
        "--check-tolerance", type=float, default=0.5,
        help="a fresh speedup may not fall below this fraction of its "
        "baseline value (default 0.5)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default BENCH_kernels.json at the repo "
        "root, or BENCH_kernels.fresh.json in --check mode)",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.check is not None:
        baseline_path = Path(args.check)
        if not baseline_path.exists():
            parser.error(f"--check baseline {baseline_path} does not exist")
        baseline = json.loads(baseline_path.read_text())
        base_config = baseline.get("config", {})
        if args.meshes is None and "meshes" in base_config:
            args.meshes = ",".join(str(a) for a in base_config["meshes"])
        if args.repeats is None:
            args.repeats = base_config.get("repeats", 7)
        if args.eps is None:
            args.eps = base_config.get("eps", 1e-6)
        if args.table2_mesh is None:
            table2_mesh = base_config.get("table2_mesh")
            if table2_mesh is not None and str(table2_mesh) in (
                args.meshes or ""
            ).split(","):
                args.table2_mesh = table2_mesh

    if args.meshes is None:
        args.meshes = "20,41"
    if args.repeats is None:
        args.repeats = 7
    if args.eps is None:
        args.eps = 1e-6
    try:
        meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--meshes must be comma-separated integers, got {args.meshes!r}")
    if not meshes:
        parser.error("--meshes needs at least one plate size")
    if args.table2_mesh is not None and args.table2_mesh not in meshes:
        parser.error(
            f"--table2-mesh {args.table2_mesh} must be one of --meshes {meshes}"
        )
    if args.out is None:
        name = "BENCH_kernels.fresh.json" if args.check else "BENCH_kernels.json"
        args.out = str(REPO_ROOT / name)

    report = build_report(
        meshes=meshes, repeats=args.repeats, eps=args.eps,
        table2_mesh=args.table2_mesh,
        sharded_steady=not args.sharded_cold,
    )
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(render(report))
    print(f"\n[written to {out_path}]")

    if baseline is not None:
        failures = check_against_baseline(baseline, report, args.check_tolerance)
        print()
        differences = fingerprint_differences(baseline, report)
        if differences:
            print("NOTE: the baseline was recorded on a different host fingerprint;")
            print("      the ratios compare across machines or kernel builds:")
            for line in differences:
                print(f"  - {line}")
            print()
        if failures:
            print("PERF GATE: FAIL")
            for line in failures:
                print(f"  - {line}")
            return 1
        print(
            "PERF GATE: PASS — no speedup below "
            f"{args.check_tolerance:g}× its baseline, iteration counts "
            "unchanged, targets met"
        )
        return 0
    return 0 if report["targets"]["met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
