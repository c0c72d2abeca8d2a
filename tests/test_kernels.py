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
        import importlib
        import tracemalloc

        from repro.pipeline import SolverPlan, SolverSession

        # The module, not the package's pcg function of the same name.
        pcg_mod = importlib.import_module("repro.core.pcg")

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
        product = pcg_mod.matvec_into

        def measured(k, x, out):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            product(k, x, out)
            if out.ndim == 2:
                products.append(
                    (tracemalloc.get_traced_memory()[1] - base, out.nbytes)
                )
            return out

        monkeypatch.setattr(WorkspacePool, "_allocate", counted)
        monkeypatch.setattr(pcg_mod, "matvec_into", measured)
        tracemalloc.start()
        try:
            session.run_cyber_schedule()
        finally:
            tracemalloc.stop()
        assert allocations == []
        assert products  # the schedule's block K·p ran where block_pcg calls it
        # The machine's CSR runs the compiled product or scipy's
        # csr_matvecs in place: a call allocates views and call overhead,
        # never an (n, a) temporary (a color's rows alone, a sixth of the
        # block, would already be ≥ 0.16 of it).
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
def _compiled_pack():
    from repro.kernels._native import load_native

    pack = load_native()
    if pack is None:
        pytest.skip("no compiled kernel in this environment")
    return pack


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _scipy_product(k, x):
    """``K·X`` by scipy's ``csr_matvecs`` into a zeroed block (``k @ x``)."""
    return k @ np.ascontiguousarray(x)


def _special_block(n, width, seed):
    """A random ``(n, width)`` block carrying NaN, ±inf and −0.0."""
    x = np.random.default_rng(seed).normal(size=(n, width))
    x[0, 0], x[1, -1], x[2, width // 2] = np.nan, np.inf, -np.inf
    x[3, :] = -0.0
    return x


@pytest.fixture(scope="module")
def product_systems():
    """The permuted plate, l-shape and Poisson systems (32-bit CSR)."""
    from repro.pipeline import build_scenario

    return {
        name: build_blocked_system(build_scenario(name, **kw)).permuted
        for name, kw in (
            ("plate", {"nrows": 10}),
            ("lshape", {"a": 10}),
            ("poisson", {"n_grid": 12}),
        )
    }


class TestCompiledCSRProduct:
    """``matvec_into`` runs a C-ordered float64 block of 2–8 columns off a
    32-bit float64 CSR through the pack's ``csr_product``; every column
    must be bitwise scipy's ``csr_matvecs``.  Everything else stays on
    scipy, with the same bits."""

    @pytest.mark.parametrize("name", ["plate", "lshape", "poisson"])
    @pytest.mark.parametrize("width", list(ops.PRODUCT_WIDTHS))
    def test_bitwise_scipy_with_special_values(self, product_systems, name, width):
        _compiled_pack()
        k = product_systems[name]
        x = _special_block(k.shape[0], width, seed=width)
        out = np.full(x.shape, 7.0)
        with np.errstate(invalid="ignore"):
            expected = _scipy_product(k, x)
            assert ops.matvec_into(k, x, out) is out
        assert id(k) in ops._PRODUCTS  # the compiled call ran
        assert _bits(out) == _bits(expected)

    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_unsorted_duplicate_entries_and_empty_rows(self, width):
        _compiled_pack()
        indptr = np.array([0, 3, 3, 6, 6, 8], dtype=np.int32)
        indices = np.array([4, 0, 4, 2, 1, 2, 3, 0], dtype=np.int32)
        data = np.array([1e16, 3.0, -1e16, 0.1, 0.2, 0.3, -0.0, 2.5])
        k = sp.csr_matrix((data, indices, indptr), shape=(5, 5))
        assert not k.has_sorted_indices and not k.has_canonical_format
        x = np.random.default_rng(width).normal(size=(5, width))
        out = np.empty_like(x)
        ops.matvec_into(k, x, out)
        assert id(k) in ops._PRODUCTS
        # Row 0 stores its 3.0 term between the ±1e16 ones, so summed in
        # stored order (as scipy does) it is mostly rounded away; a sorted
        # or duplicate-merged sum would keep it.
        assert _bits(out) == _bits(_scipy_product(k, x))
        assert not out[1].any() and not out[3].any()  # empty rows: +0.0

    def _refuse_binding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the compiled product ran")

        monkeypatch.setattr(ops, "_bound_product", refuse)

    @pytest.mark.parametrize("case", [
        "vector", "one-column", "nine", "sixteen", "fortran", "strided",
        "float32",
    ])
    def test_other_operands_take_scipy(self, product_systems, case, monkeypatch):
        k = product_systems["plate"]
        n = k.shape[0]
        rng = np.random.default_rng(4)
        shape = {"vector": (n,), "one-column": (n, 1), "nine": (n, 9),
                 "sixteen": (n, 16)}.get(case, (n, 4))
        x = rng.normal(size=shape)
        out = np.empty(shape)
        if case == "fortran":
            x = np.asfortranarray(x)
        elif case == "strided":
            x = rng.normal(size=(n, 8))[:, ::2]
            out = np.empty((n, 8))[:, ::2]
        elif case == "float32":
            k = k.astype(np.float32)
        expected = k @ np.asarray(x)
        self._refuse_binding(monkeypatch)
        ops.matvec_into(k, x, out)
        assert _bits(out) == _bits(expected)

    @pytest.mark.parametrize(
        "x_rows, x_cols, out_cols", [(-5, None, None), (-5, 4, 4), (0, 4, 5)]
    )
    def test_mismatched_operands_raise(self, product_systems, x_rows, x_cols, out_cols):
        """The compiled kernels trust their dimensions: a short x or a
        wrong-width out must raise, not read past an array's end."""
        k = product_systems["plate"]
        n = k.shape[0]
        x = np.ones((n + x_rows,) if x_cols is None else (n + x_rows, x_cols))
        out = np.empty((n,) if out_cols is None else (n, out_cols))
        for product in (ops.matvec_into, ops.matvec_accumulate):
            with pytest.raises(ValueError):
                product(k, x, out)

    def test_int64_indices_take_scipy(self, product_systems):
        _compiled_pack()
        k = product_systems["poisson"].copy()
        k.indices, k.indptr = k.indices.astype(np.int64), k.indptr.astype(np.int64)
        x = np.random.default_rng(5).normal(size=(k.shape[0], 4))
        out = np.empty_like(x)
        ops.matvec_into(k, x, out)
        assert id(k) not in ops._PRODUCTS
        assert _bits(out) == _bits(_scipy_product(k, x))

    def test_read_only_shared_memory_matrix(self, product_systems):
        _compiled_pack()
        from repro.parallel.shm import SegmentRegistry, attach_operator

        source = product_systems["lshape"]
        registry = SegmentRegistry()
        try:
            shared = attach_operator(registry.publish_operator("product", source))
            assert not shared.data.flags.writeable
            x = _special_block(source.shape[0], 6, seed=6)
            out = np.empty_like(x)
            with np.errstate(invalid="ignore"):
                ops.matvec_into(shared, x, out)
                expected = _scipy_product(source, x)
            assert id(shared) in ops._PRODUCTS
            assert _bits(out) == _bits(expected)
            del shared  # its binding goes with it, before the segments do
        finally:
            registry.release_all()

    def test_reassigned_arrays_rebind(self, product_systems):
        _compiled_pack()
        k = product_systems["plate"].copy()
        x = np.random.default_rng(7).normal(size=(k.shape[0], 3))
        out = np.empty_like(x)
        ops.matvec_into(k, x, out)
        k.data = k.data * 3.0  # a new array: the old pointer must not stay
        ops.matvec_into(k, x, out)
        assert ops._PRODUCTS[id(k)][1][2] is k.data
        assert _bits(out) == _bits(_scipy_product(k, x))

    def test_binding_leaves_the_matrix_picklable_and_dies_with_it(
        self, product_systems
    ):
        import gc
        import pickle

        _compiled_pack()
        k = product_systems["poisson"].copy()
        x = np.random.default_rng(8).normal(size=(k.shape[0], 2))
        ops.matvec_into(k, x, np.empty_like(x))
        clone = pickle.loads(pickle.dumps(k))
        assert _bits(clone @ x) == _bits(k @ x)
        key = id(k)
        del k
        gc.collect()
        assert key not in ops._PRODUCTS

    def test_fallback_refuses_the_compiled_call(self, product_systems, monkeypatch):
        """With the pack gone, a product bound earlier must not run."""
        _compiled_pack()
        k = product_systems["plate"]
        x = np.random.default_rng(9).normal(size=(k.shape[0], 8))
        out = np.empty_like(x)
        ops.matvec_into(k, x, out)

        def refuse(*args):
            raise AssertionError("the compiled product ran on the fallback path")

        ref, arrays, _ = ops._PRODUCTS[id(k)]
        monkeypatch.setitem(ops._PRODUCTS, id(k), (ref, arrays, refuse))
        monkeypatch.setattr(ops, "load_native", lambda: None)
        ops.matvec_into(k, x, out)
        assert _bits(out) == _bits(_scipy_product(k, x))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "fallback"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 20])
    def test_block_pcg_matches_per_column_pcg(
        self, product_systems, width, compiled, monkeypatch
    ):
        from repro.core.pcg import block_pcg
        from repro.kernels import _native

        if compiled:
            _compiled_pack()
        else:
            monkeypatch.setattr(_native, "_CACHE", [None])
        blocked_k = product_systems["plate"]
        F = np.random.default_rng(width).normal(size=(blocked_k.shape[0], width))
        coeffs = neumann_coefficients(3)
        block = block_pcg(
            blocked_k, F, preconditioner=MStepPreconditioner(
                SSORSplitting(blocked_k), coeffs
            ), eps=1e-8,
        )
        for j in range(width):
            solo = pcg(
                blocked_k, np.ascontiguousarray(F[:, j]),
                preconditioner=MStepPreconditioner(SSORSplitting(blocked_k), coeffs),
                eps=1e-8,
            )
            column = block.column(j)
            assert column.iterations == solo.iterations
            assert _bits(column.u) == _bits(solo.u)
            assert _bits(column.delta_history) == _bits(solo.delta_history)
            assert column.counter.as_dict() == solo.counter.as_dict()

    def test_block_pcg_products_go_through_the_module_names(
        self, product_systems, monkeypatch
    ):
        """A tracer rebinds ``repro.core.pcg.matvec_into``; the batched
        CSR product must reach it."""
        import importlib

        pcg_mod = importlib.import_module("repro.core.pcg")
        widths = []

        def counted(a, x, out):
            widths.append(1 if x.ndim == 1 else x.shape[1])
            return ops.matvec_into(a, x, out)

        monkeypatch.setattr(pcg_mod, "matvec_into", counted)
        k = product_systems["poisson"]
        F = np.random.default_rng(10).normal(size=(k.shape[0], 4))
        pcg_mod.block_pcg(k, F, eps=1e-8)
        assert widths and widths[0] == 4


class TestNativeBuild:
    def test_every_flag_set_keeps_multiply_add_unfused(self):
        from repro.kernels import _native

        assert _native._FLAG_SETS
        for flags in _native._FLAG_SETS:
            assert "-ffp-contract=off" in flags

    def test_wide_block_needs_no_stack_per_column(self, tmp_path, monkeypatch):
        """A block far wider than the kernels' column tiles, solved with a
        256 KiB stack: no kernel may size stack scratch by the width, and
        the result is the numpy fallback's, bitwise."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.kernels import _native
        from repro.pipeline import SolverPlan, SolverSession, build_scenario

        resource = pytest.importorskip("resource")
        _compiled_pack()  # built here, so the child only loads it
        script = (
            "import sys\nimport numpy as np\n"
            "from repro.pipeline import SolverPlan, SolverSession, build_scenario\n"
            "problem = build_scenario('poisson', n_grid=4)\n"
            "F = np.random.default_rng(5).normal(size=(problem.k.shape[0], 6000))\n"
            "session = SolverSession(problem, plan=SolverPlan.single(2, eps=1e-8))\n"
            "np.save(sys.argv[1], session.solve_cell_block(2, F=F).u)\n"
        )

        def small_stack():
            resource.setrlimit(resource.RLIMIT_STACK, (256 * 1024, 256 * 1024))

        src = Path(__file__).resolve().parent.parent / "src"
        out = tmp_path / "u.npy"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)], preexec_fn=small_stack,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

        monkeypatch.setattr(_native, "_CACHE", [None])  # the numpy fallback
        problem = build_scenario("poisson", n_grid=4)
        F = np.random.default_rng(5).normal(size=(problem.k.shape[0], 6000))
        session = SolverSession(problem, plan=SolverPlan.single(2, eps=1e-8))
        assert _bits(np.load(out)) == _bits(session.solve_cell_block(2, F=F).u)


#: Where each compiled entry point takes its column count (``None``: a
#: vector kernel).
_WIDTH_ARG = {
    "fixed_dots": 1, "cg_axpy": 1, "cg_xpay": 1, "stencil_values_b": 4,
    "stencil_apply_v": None, "stencil_ssor": 1, "csr_ssor": 1, "csr_product": 1,
}


class TestCompiledCallsStayNarrow:
    """``block_pcg`` runs a block wider than ``BLOCK_WIDTH`` as lockstep
    groups, and the sweep front and the dots split or hand over a direct
    wider call: no compiled entry point ever gets more than 8 columns."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """Every compiled call's ``(entry point, columns)`` from here on,
        through a pack whose entry points record them."""
        from repro.kernels import _native

        lib = _compiled_pack()._lib
        seen = []

        class Recording:
            def __getattr__(self, name):
                fn, at = getattr(lib, name), _WIDTH_ARG[name]

                def call(*args):
                    k = 1 if at is None else args[at]
                    seen.append((name, getattr(k, "value", k)))
                    return fn(*args)

                return call

        monkeypatch.setattr(_native, "_CACHE", [_native.NativeKernels(Recording())])
        return seen

    def test_solves_schedules_and_direct_applies(self, widths):
        from repro.fem.matrixfree import stencil_operator
        from repro.kernels import BLOCK_WIDTH, StencilSSOR
        from repro.pipeline import SolverPlan, SolverSession, build_scenario
        from repro.util import column_dots

        problem = build_scenario("plate", nrows=10)
        rng = np.random.default_rng(3)
        F = rng.normal(size=(problem.f.shape[0], 20))
        for backend in ("vectorized", "stencil"):
            plan = SolverPlan.single(3, backend=backend, eps=1e-6)
            SolverSession(problem, plan=plan).solve_cell_block(3, F=F)
        # 13 cells: groups of 8 + 5; 10 cells: 8 + 2.
        SolverSession(problem, plan=SolverPlan.table2(eps=1e-6)).run_cyber_schedule()
        SolverSession(problem, plan=SolverPlan.table3(eps=1e-6)).run_fem_schedule()
        blocked = build_blocked_system(problem)
        R = rng.normal(size=(blocked.n, 16))
        sweep = MStepSSOR(blocked, np.ones(3))
        sweep.apply(R)
        sweep.apply_schedule(rng.uniform(0.5, 1.5, size=(3, 16)), R)
        StencilSSOR(stencil_operator(problem), np.ones(2)).apply(R)
        column_dots(R, R)

        names = {name for name, _ in widths}
        assert names >= {
            "fixed_dots", "cg_axpy", "cg_xpay", "stencil_values_b",
            "stencil_ssor", "csr_ssor", "csr_product",
        }
        assert max(k for _, k in widths) == BLOCK_WIDTH
        assert [call for call in widths if call[1] > BLOCK_WIDTH] == []


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

    def test_committed_targets_are_read_off_its_rows(self):
        """The committed baseline's ``targets`` block is exactly what the
        report computes from its own rows, so no re-recorded row can leave
        a stale ratio or verdict behind."""
        import json
        from pathlib import Path

        perf_report = self._perf_report()
        baseline = json.loads(
            (Path(__file__).parent.parent / "BENCH_kernels.json").read_text()
        )
        assert baseline["targets"] == perf_report.compute_targets(
            baseline["results"], baseline["host"], baseline["config"]
        )
