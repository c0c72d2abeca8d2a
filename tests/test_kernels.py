"""The kernel backend layer: equivalence, structure detection, invariants.

The contract of :mod:`repro.kernels`: every ``"vectorized"`` fast path is
*provably* the same operator as the ``"reference"`` (paper-faithful,
row-sequential) formulation — agreement to ≤1e−12 on every splitting and
every (m, parametrized) cell of the Table-2/3 schedules — and the
instrumentation (operation counters, iteration counts, delta histories)
is invariant to the backend choice.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro import plate_problem
from repro.core import neumann_coefficients
from repro.core.ichol import ICPreconditioner
from repro.core.mstep import MStepPreconditioner
from repro.core.pcg import pcg
from repro.core.splittings import (
    JacobiSplitting,
    RichardsonSplitting,
    SORSplitting,
    SSORSplitting,
)
from repro.driver import (
    TABLE2_SCHEDULE,
    TABLE3_SCHEDULE,
    build_blocked_system,
    mstep_coefficients,
    ssor_interval,
)
from repro.kernels import (
    BACKENDS,
    REFERENCE,
    VECTORIZED,
    ColorBlockTriangularSolver,
    FactorizedTriangularSolver,
    ReferenceTriangularSolver,
    WorkspacePool,
    detect_color_slices,
    make_triangular_solver,
    ops,
    resolve_backend,
    resolve_solver_backend,
)
from repro.multicolor import MStepSSOR

TOL = 1e-12

#: Every distinct (m, parametrized) cell of the paper's two schedules.
SCHEDULE_CELLS = sorted(
    {cell for cell in TABLE2_SCHEDULE + TABLE3_SCHEDULE if cell[0] >= 1}
)


@pytest.fixture(scope="module")
def problem():
    return plate_problem(6)


@pytest.fixture(scope="module")
def blocked(problem):
    return build_blocked_system(problem)


@pytest.fixture(scope="module")
def interval(blocked):
    return ssor_interval(blocked)


def rng_vector(n, seed=0):
    return np.random.default_rng(seed).normal(size=n)


def splitting_solve(problem, blocked, m, parametrized=False, interval=None,
                    backend=None, eps=1e-8):
    """Algorithm 1 on the blocked system, preconditioned by the m-step
    Horner over the SSOR splitting (triangular solves on ``backend``).

    Returns the :class:`~repro.core.pcg.PCGResult` and the natural-order
    iterate.
    """
    coeffs = mstep_coefficients(m, parametrized, interval)
    result = pcg(
        blocked.permuted,
        blocked.ordering.permute_vector(problem.f),
        preconditioner=MStepPreconditioner(
            SSORSplitting(blocked.permuted, backend=backend), coeffs
        ),
        eps=eps,
    )
    return result, blocked.ordering.unpermute_vector(result.u)


# --------------------------------------------------------------------------
class TestBackendDispatch:
    def test_default_is_vectorized(self):
        assert resolve_backend(None) == VECTORIZED
        assert resolve_solver_backend(None) == VECTORIZED
        assert SSORSplitting(sp.identity(3, format="csr") * 2.0).backend == VECTORIZED

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")


# --------------------------------------------------------------------------
class TestStructureDetection:
    def test_detects_color_blocks_of_the_plate(self, blocked):
        splitting = SSORSplitting(blocked.permuted)
        slices = detect_color_slices(splitting._dl, lower=True)
        assert slices == blocked.group_slices
        slices_u = detect_color_slices(splitting._du, lower=False)
        assert slices_u == blocked.group_slices

    def test_natural_ordering_has_no_block_structure(self, problem):
        lower = sp.tril(problem.k, 0).tocsr()
        assert detect_color_slices(lower, lower=True, max_groups=4) is None

    def test_solver_factory_picks_paths(self, problem, blocked):
        splitting = SSORSplitting(blocked.permuted)
        fast = make_triangular_solver(splitting._dl, lower=True)
        assert isinstance(fast, ColorBlockTriangularSolver)
        assert fast.n_groups == blocked.n_groups

        natural = sp.tril(problem.k, 0).tocsr()
        fallback = make_triangular_solver(natural, lower=True, max_groups=4)
        assert isinstance(fallback, FactorizedTriangularSolver)

        pinned = make_triangular_solver(splitting._dl, lower=True, backend=REFERENCE)
        assert isinstance(pinned, ReferenceTriangularSolver)

    def test_diagonal_matrix_is_one_block(self):
        t = sp.diags([2.0, 3.0, 4.0]).tocsr()
        assert detect_color_slices(t, lower=True) == (slice(0, 3),)

    def test_all_solvers_agree_on_triangular_solve(self, blocked):
        splitting = SSORSplitting(blocked.permuted)
        r = rng_vector(blocked.n, seed=3)
        expected = spsolve_triangular(splitting._dl, r, lower=True)
        for solver in (
            ColorBlockTriangularSolver(splitting._dl, blocked.group_slices, lower=True),
            FactorizedTriangularSolver(splitting._dl, lower=True),
            ReferenceTriangularSolver(splitting._dl, lower=True),
        ):
            assert solver.solve(r) == pytest.approx(expected, rel=TOL, abs=TOL)

    def test_multi_rhs_matches_columnwise(self, blocked):
        splitting = SSORSplitting(blocked.permuted)
        solver = ColorBlockTriangularSolver(
            splitting._du, blocked.group_slices, lower=False
        )
        block = np.random.default_rng(4).normal(size=(blocked.n, 3))
        batched = solver.solve(block)
        for col in range(3):
            assert batched[:, col] == pytest.approx(
                solver.solve(block[:, col]), rel=TOL, abs=TOL
            )


# --------------------------------------------------------------------------
SPLITTING_FACTORIES = [
    lambda k, backend: JacobiSplitting(k, backend=backend),
    lambda k, backend: RichardsonSplitting(k, backend=backend),
    lambda k, backend: SSORSplitting(k, backend=backend),
    lambda k, backend: SSORSplitting(k, omega=1.4, backend=backend),
    lambda k, backend: SORSplitting(k, backend=backend),
]


class TestSplittingBackendEquivalence:
    @pytest.mark.parametrize("factory", SPLITTING_FACTORIES)
    @pytest.mark.parametrize("ordering", ["multicolor", "natural"])
    def test_apply_p_inv_matches_reference(self, factory, ordering, problem, blocked):
        k = blocked.permuted if ordering == "multicolor" else problem.k
        fast = factory(k, VECTORIZED)
        pin = factory(k, REFERENCE)
        r = rng_vector(k.shape[0], seed=5)
        scale = np.max(np.abs(pin.apply_p_inv(r)))
        assert np.max(
            np.abs(fast.apply_p_inv(r) - pin.apply_p_inv(r))
        ) <= TOL * max(scale, 1.0)

    @pytest.mark.parametrize("factory", SPLITTING_FACTORIES)
    def test_batched_apply_matches_columnwise(self, factory, blocked):
        splitting = factory(blocked.permuted, VECTORIZED)
        block = np.random.default_rng(7).normal(size=(blocked.n, 4))
        batched = splitting.apply_p_inv(block)
        for col in range(block.shape[1]):
            single = splitting.apply_p_inv(block[:, col])
            assert np.max(np.abs(batched[:, col] - single)) <= TOL


# --------------------------------------------------------------------------
class TestScheduleBackendEquivalence:
    """The ISSUE's required sweep: every Table-2/3 cell, both backends."""

    @pytest.mark.parametrize("m,parametrized", SCHEDULE_CELLS)
    def test_mstep_apply_equivalent(self, m, parametrized, blocked, interval):
        coeffs = mstep_coefficients(m, parametrized, interval)
        r = rng_vector(blocked.n, seed=8)
        results = {}
        for backend in BACKENDS:
            precond = MStepPreconditioner(
                SSORSplitting(blocked.permuted, backend=backend), coeffs
            )
            results[backend] = precond.apply(r).copy()
        # ≤1e−12 relative to the Horner evaluation's intrinsic scale: the
        # recurrence sums m terms with coefficients αᵢ, so roundoff between
        # two exact formulations is bounded by Σ|αᵢ|·‖result‖·O(ε).
        scale = max(np.max(np.abs(results[REFERENCE])), 1.0) * max(
            float(np.sum(np.abs(coeffs))), 1.0
        )
        assert np.max(
            np.abs(results[VECTORIZED] - results[REFERENCE])
        ) <= TOL * scale

    @pytest.mark.parametrize("m,parametrized", SCHEDULE_CELLS[:4])
    def test_kernel_path_matches_multicolor_sweep(
        self, m, parametrized, blocked, interval
    ):
        # Cross-implementation: the Conrad–Wallach sweep and the kernel
        # Horner differ in summation order, so the tolerance is looser.
        coeffs = mstep_coefficients(m, parametrized, interval)
        r = rng_vector(blocked.n, seed=9)
        sweep = MStepSSOR(blocked, coeffs).apply(r)
        kernel = MStepPreconditioner(
            SSORSplitting(blocked.permuted), coeffs
        ).apply(r)
        assert kernel == pytest.approx(sweep, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m,parametrized", SCHEDULE_CELLS)
    def test_full_solve_equivalent(self, m, parametrized, problem, blocked, interval):
        solves = {
            backend: splitting_solve(
                problem, blocked, m, parametrized, interval, backend=backend
            )
            for backend in BACKENDS
        }
        (fast, fast_u), (pin, pin_u) = solves[VECTORIZED], solves[REFERENCE]
        assert fast.iterations == pin.iterations
        assert fast.converged and pin.converged
        assert np.max(np.abs(fast_u - pin_u)) <= 1e-10 * max(np.max(np.abs(pin_u)), 1.0)


# --------------------------------------------------------------------------
class TestCounterInvariance:
    """The fast path must not change what the instrumentation reports."""

    def test_solve_counters_identical_across_backends(self, problem, blocked, interval):
        counters = {}
        histories = {}
        for backend in BACKENDS:
            result, _ = splitting_solve(
                problem, blocked, 3, True, interval, backend=backend
            )
            counters[backend] = result.counter.as_dict()
            histories[backend] = result.delta_history
        assert counters[VECTORIZED] == counters[REFERENCE]
        assert len(histories[VECTORIZED]) == len(histories[REFERENCE])

    def test_mstep_apply_counts_match_reference_formula(self, blocked):
        m = 4
        precond = MStepPreconditioner(
            SSORSplitting(blocked.permuted), neumann_coefficients(m)
        )
        precond.apply(rng_vector(blocked.n))
        counts = precond.counter.as_dict()
        assert counts["precond_applications"] == 1
        assert counts["precond_steps"] == m
        assert counts["p_solves"] == m
        assert counts["inner_matvecs"] == m - 1

    def test_batched_apply_counts_per_column(self, blocked):
        m = 3
        precond = MStepPreconditioner(
            SSORSplitting(blocked.permuted), neumann_coefficients(m)
        )
        precond.apply(np.random.default_rng(10).normal(size=(blocked.n, 5)))
        counts = precond.counter.as_dict()
        assert counts["precond_applications"] == 5
        assert counts["precond_steps"] == m * 5
        assert counts["p_solves"] == m * 5

    def test_mstep_ssor_block_counts_are_hoisted(self, blocked):
        # The cached per-color block lists must reproduce what the generator
        # used to count sweep by sweep.
        for c in range(blocked.n_groups):
            assert len(blocked.lower_block_list[c]) == sum(
                1 for j in range(c) if j in blocked.blocks[c]
            )
            assert len(blocked.upper_block_list[c]) == sum(
                1 for j in range(c + 1, blocked.n_groups) if j in blocked.blocks[c]
            )

    def test_mstep_ssor_multiplies_unchanged(self, blocked):
        applicator = MStepSSOR(blocked, neumann_coefficients(3))
        applicator.apply(rng_vector(blocked.n, seed=11))
        counts = applicator.counter.as_dict()
        nc = blocked.n_groups
        lower = sum(len(row) for row in blocked.lower_block_list)
        upper = sum(len(blocked.upper_block_list[c]) for c in range(1, nc - 1))
        closing = len(blocked.upper_block_list[0])
        per_step = lower + upper + closing
        assert counts["block_multiplies"] == 3 * per_step
        assert counts["diag_solves"] == 3 * (nc + (nc - 2)) + 1


# --------------------------------------------------------------------------
class TestICPreconditionerKernels:
    def test_backends_agree(self, problem):
        fast = ICPreconditioner(problem.k, backend=VECTORIZED)
        pin = ICPreconditioner(problem.k, backend=REFERENCE)
        assert fast.shift == pin.shift
        r = rng_vector(problem.n, seed=12)
        got, want = fast.apply(r), pin.apply(r)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(np.max(np.abs(want)), 1.0)

    def test_color_ordered_ic_uses_color_sweep(self, blocked):
        precond = ICPreconditioner(blocked.permuted, backend=VECTORIZED)
        # IC(0) inherits tril(K)'s pattern, so the multicolor block
        # structure survives into the factor and the fast sweep applies.
        assert precond._lower_solver.kind == "color_block"


# --------------------------------------------------------------------------
class TestPCGInPlaceKernels:
    def test_pcg_matches_direct_solve(self, problem, blocked, interval):
        _, u = splitting_solve(problem, blocked, 2, eps=1e-10)
        residual = problem.k @ u - problem.f
        assert np.max(np.abs(residual)) <= 1e-6 * max(np.max(np.abs(problem.f)), 1.0)

    def test_plain_cg_counter_shape_unchanged(self, problem):
        result = pcg(problem.k, problem.f, eps=1e-8)
        assert result.converged
        counts = result.counter.as_dict()
        # One matvec per iteration plus the initial residual.
        assert counts["matvecs"] == result.iterations + 1
        assert len(result.delta_history) == result.iterations

    def test_pcg_with_dense_operator(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(12, 12))
        k = a @ a.T + 12 * np.eye(12)
        f = rng.normal(size=12)
        result = pcg(k, f, eps=1e-12)
        assert result.converged
        assert result.u == pytest.approx(np.linalg.solve(k, f), rel=1e-6, abs=1e-8)


# --------------------------------------------------------------------------
class TestOpsKernels:
    def test_axpy_bitwise(self):
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=100), rng.normal(size=100)
        assert np.array_equal(ops.axpy(0.37, x, y), y + 0.37 * x)

    def test_matvec_into_csr_matches_matmul(self, blocked):
        x = rng_vector(blocked.n, seed=17)
        out = np.empty(blocked.n)
        assert ops.supports_matvec_into(blocked.permuted, x, out)
        ops.matvec_into(blocked.permuted, x, out)
        assert np.array_equal(out, blocked.permuted @ x)

    def test_matvec_into_dense_and_fallback(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(7, 7))
        x = rng.normal(size=7)
        out = np.empty(7)
        ops.matvec_into(a, x, out)
        assert out == pytest.approx(a @ x)
        coo = sp.coo_matrix(a)
        assert not ops.supports_matvec_into(coo, x, out)
        ops.matvec_into(coo, x, out)
        assert out == pytest.approx(a @ x)

    def test_row_scale_matrix(self):
        x = np.arange(12.0).reshape(4, 3)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(ops.row_scale(x, v), x * v[:, None])

    def test_matvec_accumulate_vector(self, blocked):
        # Accumulation runs term-by-term into `out` (not (a@x) + out), so
        # agreement is to reassociation roundoff, not bitwise.
        x = rng_vector(blocked.n, seed=20)
        out = np.random.default_rng(21).normal(size=blocked.n)
        expected = out + blocked.permuted @ x
        ops.matvec_accumulate(blocked.permuted, x, out)
        assert out == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_matvec_accumulate_block(self, blocked):
        x = np.random.default_rng(22).normal(size=(blocked.n, 3))
        out = np.random.default_rng(23).normal(size=(blocked.n, 3))
        expected = out + blocked.permuted @ x
        ops.matvec_accumulate(blocked.permuted, x, out)
        assert out == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_matvec_accumulate_fallback(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(6, 6))
        coo = sp.coo_matrix(a)
        x = rng.normal(size=6)
        out = np.ones(6)
        ops.matvec_accumulate(coo, x, out)
        assert out == pytest.approx(1.0 + a @ x)


class TestWorkspacePool:
    def test_reuses_buffers(self):
        pool = WorkspacePool()
        a = pool.get("a", 10)
        assert pool.get("a", 10) is a
        b = pool.get("a", 20)
        assert b is not a and b.shape == (20,)
        assert pool.allocated_bytes == b.nbytes

    def test_mstep_apply_steady_state_reuses_return_buffer(self, blocked):
        precond = MStepPreconditioner(
            SSORSplitting(blocked.permuted), neumann_coefficients(3)
        )
        r = rng_vector(blocked.n, seed=19)
        first = precond.apply(r)
        second = precond.apply(r)
        assert second is first  # same workspace buffer, by design

    def test_widths_share_one_buffer_grown_to_the_widest(self):
        # A narrower request is a C-contiguous view of the storage a wider
        # one grew, so alternating widths allocate nothing once warm.
        pool = WorkspacePool()
        wide = pool.get("a", (10, 4))
        narrow = pool.get("a", (10, 2))
        vector = pool.get("a", 10)
        for view in (narrow, vector):
            assert view.flags.c_contiguous
            assert np.may_share_memory(view, wide)
            assert np.may_share_memory(view, pool.peek("a"))
        assert pool.allocated_bytes == wide.nbytes
        assert np.may_share_memory(pool.get("a", (10, 4)), wide)

    def test_warm_cyber_schedule_pass_reallocates_nothing(self, monkeypatch):
        # The CYBER schedule's per-m groups alternate block widths every
        # iteration; a second pass must find every pooled buffer in place,
        # and no block K·p may allocate an (n, a) temporary of its own.
        import tracemalloc

        from repro.machines.cyber import CyberMachine
        from repro.pipeline import SolverPlan, SolverSession

        session = SolverSession.from_scenario(
            "plate", plan=SolverPlan.table2(), nrows=41
        )
        session.run_cyber_schedule()
        allocations = []
        allocate = WorkspacePool._allocate

        def counted(self, size, dtype):
            allocations.append(size)
            return allocate(self, size, dtype)

        products = []  # (peak bytes allocated during the call, block bytes)
        accumulate = CyberMachine.matvec_accumulate

        def measured(self, x, out):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            accumulate(self, x, out)
            products.append((tracemalloc.get_traced_memory()[1] - base, out.nbytes))
            return out

        monkeypatch.setattr(WorkspacePool, "_allocate", counted)
        monkeypatch.setattr(CyberMachine, "matvec_accumulate", measured)
        tracemalloc.start()
        try:
            session.run_cyber_schedule()
        finally:
            tracemalloc.stop()
        assert allocations == []
        assert products  # the schedule's block K·p ran through the machine
        # The by-diagonals product multiplies each diagonal into one
        # pooled scratch.  What a call still allocates is numpy's own
        # iterator buffer for a broadcast multiply (at most one color's
        # rows, a sixth of the block here) plus views; a temporary per
        # diagonal would add another color's rows on top (≥ 0.34 of a
        # block at a = 41).
        assert all(peak < 0.25 * block for peak, block in products), max(
            peak / block for peak, block in products
        )


class TestMStepSSORAllocationFree:
    """The ROADMAP-noted gap: the sweep applicator's ``y`` auxiliaries (and
    result vector) are pooled, so the pcg() steady state allocates nothing
    at the preconditioner boundary."""

    def test_apply_returns_pooled_buffer(self, blocked):
        applicator = MStepSSOR(blocked, neumann_coefficients(3))
        r = rng_vector(blocked.n, seed=28)
        first = applicator.apply(r)
        bytes_after_warmup = applicator.workspace.allocated_bytes
        second = applicator.apply(r)
        assert second is first
        assert applicator.workspace.allocated_bytes == bytes_after_warmup

    def test_apply_of_own_pooled_output(self, blocked):
        # Feeding the pooled result back in must not zero the input.
        applicator = MStepSSOR(blocked, neumann_coefficients(2))
        r = rng_vector(blocked.n, seed=31)
        expected = applicator.apply_reference(applicator.apply_reference(r))
        composed = applicator.apply(applicator.apply(r))
        assert composed == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_zero_steady_state_allocations(self):
        import gc
        import tracemalloc

        # Large enough that any per-apply vector allocation (≥ n·8 bytes)
        # towers over the few hundred bytes of transient Python objects.
        problem = plate_problem(24)
        blocked = build_blocked_system(problem)
        applicator = MStepSSOR(blocked, neumann_coefficients(3))
        r = rng_vector(blocked.n, seed=29)
        applicator.apply(r)
        applicator.apply(r)  # warm every pooled buffer

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(5):
                applicator.apply(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Peak transient memory stays below a single full-length vector:
        # no group vector, accumulator or result was freshly allocated.
        assert peak - base < blocked.n * 8


# --------------------------------------------------------------------------
class TestPerfReportCLI:
    def test_build_report_tiny_mesh(self, tmp_path):
        import importlib.util
        import json
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "perf_report.py"
        spec = importlib.util.spec_from_file_location("perf_report", path)
        perf_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perf_report)

        out = tmp_path / "bench.json"
        rc = perf_report.main(["--meshes", "5", "--repeats", "1",
                               "--eps", "1e-5", "--out", str(out)])
        assert rc in (0, 1)  # tiny meshes need not hit the speedup targets
        report = json.loads(out.read_text())
        assert report["bench"] == "kernels"
        assert "a=5" in report["results"]["apply_p_inv"]
        assert "a=5" in report["results"]["table2_sweep"]
        assert report["results"]["table2_sweep"]["a=5"]["cells"] == len(TABLE2_SCHEDULE)
        for row in report["results"]["apply_p_inv"].values():
            assert row["vectorized_s"] > 0 and row["reference_s"] > 0

    @staticmethod
    def _perf_report():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "perf_report.py"
        spec = importlib.util.spec_from_file_location("perf_report", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_ratio_sides_are_timed_interleaved(self):
        """Each pair times both sides back to back, the order alternating,
        and the row carries the median per-pair ratio with its quartiles."""
        order = []
        row = self._perf_report()._time_pair(
            "a", lambda: order.append("a"), "b", lambda: order.append("b"),
            4, min_seconds=0.0,
        )
        assert set(row) == {"a_s", "b_s", "speedup", "speedup_iqr"}
        assert order[4:] == ["a", "b", "b", "a", "a", "b", "b", "a"]
        low, high = row["speedup_iqr"]
        assert low <= row["speedup"] <= high

    def test_check_names_a_changed_host_fingerprint(self):
        perf_report = self._perf_report()
        host = perf_report.host_fingerprint()
        assert {"cpu_count", "cpu_model", "repro_no_native",
                "native_source_hash"} <= set(host)
        other = dict(host, cpu_count=host["cpu_count"] + 2)
        assert perf_report.fingerprint_differences(
            {"host": host}, {"host": other}
        ) == [f"cpu_count: {host['cpu_count']!r} → {host['cpu_count'] + 2!r}"]
        assert perf_report.fingerprint_differences({"host": host}, {"host": host}) == []
