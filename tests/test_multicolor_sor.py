"""Tests for multicolor SOR sweeps and the m-step SSOR of Algorithm 2.

The central correctness result: the Conrad–Wallach merged application
(`MStepSSOR.apply`) must agree with the transparent Horner reference
(`apply_reference`) and, as an operator, with the closed form
``M_m⁻¹ = (Σ αᵢ Gⁱ) P⁻¹`` computed densely from the SSOR splitting.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import plate_problem, poisson_problem
from repro.multicolor import (
    BlockedMatrix,
    MStepSSOR,
    MulticolorOrdering,
    multicolor_sor_solve,
    sor_backward_sweep,
    sor_forward_sweep,
    ssor_iteration,
)
from repro.util import OperationCounter, is_symmetric


def build_blocked(problem):
    ordering = MulticolorOrdering.from_groups(
        problem.group_of_unknown, problem.group_labels
    )
    return BlockedMatrix.from_matrix(problem.k, ordering)


@pytest.fixture(scope="module")
def plate_blocked():
    return build_blocked(plate_problem(6))


@pytest.fixture(scope="module")
def poisson_blocked():
    return build_blocked(poisson_problem(6))


def dense_ssor_factors(blocked):
    """Dense (D − L̃), D, (D − Ũ) of the block splitting, multicolor order."""
    a = blocked.permuted.toarray()
    d = np.diag(np.diag(a))
    lower = -np.tril(a, -1)
    upper = -np.triu(a, 1)
    return d - lower, d, d - upper


def dense_mstep_operator(blocked, coefficients):
    """Closed-form M_m⁻¹ = (Σ αᵢ Gⁱ) P⁻¹ with P the SSOR(ω=1) splitting."""
    dl, d, du = dense_ssor_factors(blocked)
    p = dl @ np.linalg.solve(d, du)
    p_inv = np.linalg.inv(p)
    g = np.eye(blocked.n) - p_inv @ blocked.permuted.toarray()
    out = np.zeros_like(p_inv)
    g_power = np.eye(blocked.n)
    for alpha in coefficients:
        out += alpha * g_power
        g_power = g_power @ g
    return out @ p_inv


class TestSweeps:
    def test_forward_sweep_is_block_gauss_seidel(self, plate_blocked):
        # One forward sweep from zero equals the lower-triangular solve
        # (D − L̃)⁻¹ b in the multicolor ordering.
        rng = np.random.default_rng(0)
        b = rng.normal(size=plate_blocked.n)
        x = np.zeros_like(b)
        sor_forward_sweep(plate_blocked, x, b)
        dl, _, _ = dense_ssor_factors(plate_blocked)
        assert x == pytest.approx(np.linalg.solve(dl, b), rel=1e-12, abs=1e-12)

    def test_backward_sweep_is_upper_solve(self, plate_blocked):
        rng = np.random.default_rng(1)
        b = rng.normal(size=plate_blocked.n)
        x = np.zeros_like(b)
        sor_backward_sweep(plate_blocked, x, b)
        _, _, du = dense_ssor_factors(plate_blocked)
        assert x == pytest.approx(np.linalg.solve(du, b), rel=1e-12, abs=1e-12)

    def test_ssor_iteration_matches_splitting_formula(self, plate_blocked):
        # x_new = G x + P⁻¹ b for P = (D−L̃) D⁻¹ (D−Ũ).
        rng = np.random.default_rng(2)
        b = rng.normal(size=plate_blocked.n)
        x = rng.normal(size=plate_blocked.n)
        expected_input = x.copy()
        ssor_iteration(plate_blocked, x, b)
        dl, d, du = dense_ssor_factors(plate_blocked)
        p = dl @ np.linalg.solve(d, du)
        g = np.eye(plate_blocked.n) - np.linalg.solve(p, plate_blocked.permuted.toarray())
        expected = g @ expected_input + np.linalg.solve(p, b)
        assert x == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_sweep_counter(self, plate_blocked):
        counter = OperationCounter()
        b = np.ones(plate_blocked.n)
        x = np.zeros_like(b)
        sor_forward_sweep(plate_blocked, x, b, counter=counter)
        assert counter.extra["block_multiplies"] == 30
        assert counter.extra["diag_solves"] == 6


class TestSORSolver:
    def test_solves_plate(self, plate_blocked):
        b = np.ones(plate_blocked.n)
        x, iters, converged = multicolor_sor_solve(
            plate_blocked, b, omega=1.0, tol=1e-12, maxiter=20_000
        )
        assert converged
        assert plate_blocked.matvec(x) == pytest.approx(b, abs=1e-8)

    def test_omega_validation(self, plate_blocked):
        with pytest.raises(ValueError):
            multicolor_sor_solve(plate_blocked, np.ones(plate_blocked.n), omega=2.5)

    def test_relaxation_changes_trajectory_not_fixpoint(self, poisson_blocked):
        b = np.ones(poisson_blocked.n)
        x1, _, c1 = multicolor_sor_solve(poisson_blocked, b, omega=1.0, tol=1e-12)
        x2, _, c2 = multicolor_sor_solve(poisson_blocked, b, omega=1.4, tol=1e-12)
        assert c1 and c2
        assert x1 == pytest.approx(x2, abs=1e-7)


class TestMStepSSOR:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_merged_equals_reference(self, plate_blocked, m):
        rng = np.random.default_rng(m)
        coeffs = rng.uniform(0.5, 2.0, size=m) * np.where(
            rng.random(m) < 0.3, -1.0, 1.0
        )
        applicator = MStepSSOR(plate_blocked, coeffs)
        r = rng.normal(size=plate_blocked.n)
        fast = applicator.apply(r)
        slow = applicator.apply_reference(r)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_closed_form_operator(self, plate_blocked, m):
        coeffs = np.arange(1.0, m + 1.0)  # arbitrary distinct coefficients
        applicator = MStepSSOR(plate_blocked, coeffs)
        dense = dense_mstep_operator(plate_blocked, coeffs)
        rng = np.random.default_rng(m + 10)
        r = rng.normal(size=plate_blocked.n)
        assert applicator.apply(r) == pytest.approx(dense @ r, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_poisson_two_colors(self, poisson_blocked, m):
        coeffs = np.ones(m)
        applicator = MStepSSOR(poisson_blocked, coeffs)
        rng = np.random.default_rng(m)
        r = rng.normal(size=poisson_blocked.n)
        fast = applicator.apply(r)
        slow = applicator.apply_reference(r)
        dense = dense_mstep_operator(poisson_blocked, coeffs)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-11)
        assert fast == pytest.approx(dense @ r, rel=1e-9, abs=1e-9)

    def test_preconditioner_is_symmetric_operator(self, plate_blocked):
        applicator = MStepSSOR(plate_blocked, np.ones(3))
        dense = applicator.as_dense_operator()
        assert is_symmetric(dense, tol=1e-9)

    def test_unparametrized_eigenvalues_in_unit_interval(self, poisson_blocked):
        # Eigenvalues of M_m⁻¹K are 1 − (1 − μ)^m ∈ (0, 1] for the SSOR
        # splitting with ω = 1 (μ = eig of P⁻¹K ∈ (0, 1]).
        m = 3
        applicator = MStepSSOR(poisson_blocked, np.ones(m))
        dense = applicator.as_dense_operator() @ poisson_blocked.permuted.toarray()
        eigs = np.linalg.eigvals(dense).real
        assert eigs.min() > 0
        assert eigs.max() <= 1.0 + 1e-10

    def test_block_multiply_count_is_one_sor_sweep_per_step(self, plate_blocked):
        # The Conrad–Wallach claim: each preconditioner step costs
        # nc·(nc−1) = 30 block multiplies, not the naive 60.
        for m in (1, 2, 5):
            applicator = MStepSSOR(plate_blocked, np.ones(m))
            applicator.apply(np.ones(plate_blocked.n))
            assert applicator.counter.extra["block_multiplies"] == 30 * m
            assert applicator.counter.precond_steps == m

    def test_single_group_degenerates_to_scaled_jacobi(self):
        # With one color the matrix must be diagonal and M⁻¹ r = α₀ D⁻¹ r.
        d = sp.diags([2.0, 4.0, 5.0]).tocsr()
        ordering = MulticolorOrdering.from_groups(np.zeros(3, dtype=np.int64))
        blocked = BlockedMatrix.from_matrix(d, ordering)
        applicator = MStepSSOR(blocked, np.array([3.0, 1.0]))
        r = np.array([2.0, 4.0, 10.0])
        assert applicator.apply(r) == pytest.approx(3.0 * r / np.array([2.0, 4.0, 5.0]))

    def test_rejects_empty_coefficients(self, plate_blocked):
        with pytest.raises(ValueError):
            MStepSSOR(plate_blocked, np.array([]))

    def test_per_column_schedule_bitwise_single_applies(self, plate_blocked):
        # An (m, k) schedule gives each column its own α's in one pass;
        # every column must be bitwise a single apply of its own schedule.
        rng = np.random.default_rng(40)
        coeffs = rng.uniform(0.5, 2.0, size=(3, 4))
        block = rng.normal(size=(plate_blocked.n, 4))
        sweep = MStepSSOR(plate_blocked, np.ones(1))
        batched = sweep.apply_schedule(coeffs, block).copy()
        for col in range(4):
            single = MStepSSOR(plate_blocked, coeffs[:, col]).apply(
                np.ascontiguousarray(block[:, col])
            )
            assert np.array_equal(batched[:, col], single)
        # A shared (m,) schedule on the block is apply() of the bound one.
        shared = sweep.apply_schedule(coeffs[:, 0], block).copy()
        assert np.array_equal(
            shared, MStepSSOR(plate_blocked, coeffs[:, 0]).apply(block)
        )

    def test_per_column_schedule_needs_a_matching_block(self, plate_blocked):
        sweep = MStepSSOR(plate_blocked, np.ones(2))
        with pytest.raises(ValueError, match="column count"):
            sweep.apply_schedule(np.ones((2, 3)), np.zeros(plate_blocked.n))
        with pytest.raises(ValueError, match="column count"):
            sweep.apply_schedule(
                np.ones((2, 3)), np.zeros((plate_blocked.n, 2))
            )

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_property_merged_equals_reference_poisson(self, m, seed):
        prob = poisson_problem(5)
        blocked = build_blocked(prob)
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-2.0, 2.0, size=m)
        applicator = MStepSSOR(blocked, coeffs)
        r = rng.normal(size=blocked.n)
        assert applicator.apply(r) == pytest.approx(
            applicator.apply_reference(r), rel=1e-10, abs=1e-10
        )


# --------------------------------------------------------------------------
# The compiled merged sweep (csr_ssor) against its Python twin.


def _sweep_systems():
    from repro.driver import build_blocked_system
    from repro.pipeline import build_scenario

    yield "plate", lambda: build_blocked_system(build_scenario("plate", nrows=8))
    yield "stretched-plate", lambda: build_blocked_system(
        build_scenario("stretched-plate", nrows=8)
    )
    yield "lshape", lambda: build_blocked_system(build_scenario("lshape"))
    yield "perforated", lambda: build_blocked_system(build_scenario("perforated"))
    for a in (12, 20):
        yield f"cyber-a{a}", lambda a=a: _cyber_blocked(a)
    # Two colors (no interior backward pass) and one color (no couplings,
    # one pass per step): the short schedules of mstep_passes.
    yield "poisson", lambda: build_blocked_system(build_scenario("poisson", n_grid=12))
    yield "diagonal", _diagonal_blocked


def _diagonal_blocked():
    """A diagonal SPD matrix: a single color, no off-diagonal block."""
    n = 40
    ordering = MulticolorOrdering.from_groups(np.zeros(n, dtype=np.int64))
    return BlockedMatrix.from_matrix(
        sp.diags(np.linspace(1.0, 3.0, n)).tocsr(), ordering
    )


def _cyber_blocked(a):
    """The CYBER's padded system, constrained couplings masked out."""
    from repro.machines import CyberMachine

    return CyberMachine(plate_problem(a))._sweep_kernel().blocked


SWEEP_SYSTEMS = dict(_sweep_systems())


def _native_or_skip():
    from repro.kernels._native import load_native

    native = load_native()
    if native is None:
        pytest.skip("no compiled kernel in this environment")
    return native


def _fallback(blocked, coefficients, monkeypatch):
    """An MStepSSOR whose applies take the numpy twin.

    The plan's compiled call raises from here on, so a fallback pin
    cannot pass by running the compiled walker twice.
    """
    import repro.multicolor.sor as sor_mod

    def refuse(*args):
        raise AssertionError("the compiled sweep ran on the fallback path")

    monkeypatch.setattr(sor_mod, "load_native", lambda: None)
    monkeypatch.setitem(blocked.sweep_plan.__dict__, "_call", refuse)
    return MStepSSOR(blocked, coefficients)


@pytest.mark.parametrize("nc", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_mstep_passes_is_the_compiled_schedule(nc, m):
    """The Python pass list is the C ``mstep_pass(nc, m, i)``, transcribed
    here from its index arithmetic."""
    from repro.kernels.sweep import mstep_passes

    per = 2 * nc - 1 if nc >= 2 else 1
    expected = []
    for i in range(m * per):
        s, j = i // per + 1, i % per
        if j < nc:
            expected.append((s, j, False, s > 1, True, True, nc >= 2 and j == nc - 1))
        else:
            c = 2 * nc - 2 - j
            expected.append((s, c, True, c != 0, c != 0 or s == m, c != 0 or s != m, False))
    assert [tuple(p) for p in mstep_passes(nc, m)] == expected


class TestCompiledSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
    def test_compiled_equals_python_sweep_bitwise(self, name, monkeypatch):
        """Results and counters of the one-call compiled sweep equal the
        numpy twin's bit for bit: vectors and blocks at the vector and
        generated (2, 3, 8) widths and the runtime-width body past 8
        (k = 9…16 and 23), under a shared (m,) and a per-column (m, k)
        schedule."""
        _native_or_skip()
        blocked = SWEEP_SYSTEMS[name]()
        rng = np.random.default_rng(7)
        coefficients = rng.uniform(0.5, 1.5, size=3)
        compiled = MStepSSOR(blocked, coefficients)
        results = []
        for k in (1, 2, 3, 8, *range(9, 17), 23):
            r = rng.normal(size=(blocked.n,) if k == 1 else (blocked.n, k))
            block = r.reshape(blocked.n, k)
            alphas = rng.uniform(0.5, 1.5, size=(3, k))
            applied = np.array(compiled.apply(r))
            scheduled = np.array(compiled.apply_schedule(alphas, block))
            results.append((r, block, alphas, applied, scheduled))
        python = _fallback(blocked, coefficients, monkeypatch)
        for r, block, alphas, applied, scheduled in results:
            assert np.array(python.apply(r)).tobytes() == applied.tobytes()
            again = np.array(python.apply_schedule(alphas, block))
            assert again.tobytes() == scheduled.tobytes()
        assert python.counter == compiled.counter

    @pytest.mark.parametrize("m", [1, 2, 4, 10])
    def test_every_step_count(self, m, monkeypatch):
        _native_or_skip()
        blocked = SWEEP_SYSTEMS["cyber-a12"]()
        coefficients = np.random.default_rng(m).uniform(0.5, 1.5, size=m)
        r = np.random.default_rng(3).normal(size=(blocked.n, 8))
        compiled = np.array(MStepSSOR(blocked, coefficients).apply(r))
        python = _fallback(blocked, coefficients, monkeypatch)
        assert np.array(python.apply(r)).tobytes() == compiled.tobytes()

    def test_one_native_call_and_no_scipy_product(self, monkeypatch):
        """A warm apply is one compiled call: no merged-block products."""
        import scipy.sparse._sparsetools as tools

        import repro.kernels.ops as ops

        native = _native_or_skip()
        blocked = SWEEP_SYSTEMS["plate"]()
        sweep = MStepSSOR(blocked, np.ones(3))
        plan = blocked.sweep_plan
        call = native.bind_sweep(plan)
        calls = []

        def counted(*args):
            calls.append(args)
            return call(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("a scipy CSR product ran")

        monkeypatch.setitem(plan.__dict__, "_call", counted)
        for module, name in [(ops, "_csr_matvec"), (ops, "_csr_matvecs"),
                             (tools, "csr_matvec"), (tools, "csr_matvecs")]:
            monkeypatch.setattr(module, name, refuse)
        for shape in [(blocked.n,), (blocked.n, 4)]:
            calls.clear()
            sweep.apply(np.ones(shape))
            assert len(calls) == 1, shape

    @pytest.mark.parametrize("path", ["native", "python"])
    def test_misshapen_operands_are_refused(self, path, monkeypatch):
        if path == "native":
            _native_or_skip()
        blocked = SWEEP_SYSTEMS["plate"]()
        sweep = (
            MStepSSOR(blocked, np.ones(2)) if path == "native"
            else _fallback(blocked, np.ones(2), monkeypatch)
        )
        n = blocked.n
        for r in (np.ones(n - 1), np.ones((n + 1, 2)), np.ones((n, 2, 2)), np.ones(())):
            with pytest.raises(ValueError):
                sweep.apply(r)
        for alphas in (np.ones((2, 3)), np.ones(0), np.ones((0, 2)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError):
                sweep.apply_schedule(alphas, np.ones((n, 2)))
        with pytest.raises(ValueError):
            sweep.apply_schedule(np.ones((2, 2)), np.ones(n))

    def test_nan_propagates_alike(self, monkeypatch):
        _native_or_skip()
        blocked = SWEEP_SYSTEMS["plate"]()
        r = np.random.default_rng(5).normal(size=(blocked.n, 2))
        r[blocked.n // 3, 1] = np.nan
        compiled = np.array(MStepSSOR(blocked, np.ones(3)).apply(r))
        python = _fallback(blocked, np.ones(3), monkeypatch)
        assert np.isnan(compiled[:, 1]).any() and not np.isnan(compiled[:, 0]).any()
        assert np.array(python.apply(r)).tobytes() == compiled.tobytes()

    def test_sweeps_of_any_m_share_one_plan(self):
        native = _native_or_skip()
        blocked = SWEEP_SYSTEMS["plate"]()
        r = np.ones(blocked.n)
        two, three = MStepSSOR(blocked, np.ones(2)), MStepSSOR(blocked, np.ones(3))
        two.apply(r)
        plan, call = blocked.sweep_plan, native.bind_sweep(blocked.sweep_plan)
        three.apply(r)
        assert blocked.sweep_plan is plan and native.bind_sweep(plan) is call

    def test_warm_block_apply_allocates_nothing(self):
        import gc
        import tracemalloc

        _native_or_skip()
        blocked = build_blocked(plate_problem(24))
        sweep = MStepSSOR(blocked, np.ones(3))
        R = np.random.default_rng(2).normal(size=(blocked.n, 8))
        alphas = np.ones((3, 8))
        for _ in range(2):
            sweep.apply(R)
            sweep.apply_schedule(alphas, R)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(5):
                sweep.apply(R)
                sweep.apply_schedule(alphas, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few hundred bytes of ctypes argument objects; any pooled
        # buffer rebuilt would be at least one column (n · 8 bytes).
        assert peak - base < blocked.n * 8


class TestZeroPaddedSchedule:
    """Cells of different m in one sweep, as the machine schedules run them.

    Each shorter α schedule is zero-padded at the top of the ``(m, k)``
    block.  A padded column solves only zeros until its own first step, and
    every sum it stashes for that step lands on a zero accumulator, so it
    is +0 and subtracts exactly: each column is bitwise its solo sweep of
    the unpadded schedule, on both the compiled walker and its numpy twin,
    signed zeros in ``r`` included.
    """

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize("name", ["plate", "cyber-a12"])
    @pytest.mark.parametrize("k", [2, 5, 8, 12])
    def test_each_column_is_its_solo_sweep(self, k, name, path, monkeypatch):
        blocked = SWEEP_SYSTEMS[name]()
        rng = np.random.default_rng(k)
        steps = [1 + (3 * j) % 5 for j in range(k)]  # m = 1 … 5, mixed
        schedules = [rng.uniform(-0.5, 1.5, size=m) for m in steps]
        alphas = np.zeros((max(steps), k))
        for j, schedule in enumerate(schedules):
            alphas[: schedule.size, j] = schedule
        r = rng.normal(size=(blocked.n, k))
        r[rng.random(r.shape) < 0.2] = 0.0
        r[rng.random(r.shape) < 0.1] = -0.0
        if path == "compiled":
            _native_or_skip()
            sweep = MStepSSOR(blocked, np.ones(1))
        else:
            sweep = _fallback(blocked, np.ones(1), monkeypatch)
        padded = np.array(sweep.apply_schedule(alphas, r))
        for j, schedule in enumerate(schedules):
            solo = sweep.apply_schedule(schedule, np.ascontiguousarray(r[:, j]))
            assert np.array_equal(padded[:, j].view(np.uint64), solo.view(np.uint64))
