"""Machine-simulator backend equivalence and block-width cost models.

The ISSUE-2 contract: the CYBER and FEM simulators route their
preconditioning through the kernel layer's cached color-block sweeps, with
a ``backend=`` knob mirroring :func:`repro.driver.solve_mstep_ssor` — and
the ``"vectorized"`` and ``"reference"`` paths produce *identical* results
(iterates to ≤1e−12, operation counters and modeled seconds exactly)
across every (m, parametrized) cell of the paper's Table-2/3 schedules.

Alongside: the batched ``(n, k)`` preconditioner path and its block-width
cost model — one pipeline startup (CYBER) or one per-phase setup and one
link record (FEM) per color-block operation, amortized over the block.
"""

import numpy as np
import pytest

from repro import plate_problem
from repro.driver import (
    TABLE2_SCHEDULE,
    TABLE3_SCHEDULE,
    build_blocked_system,
    mstep_coefficients,
    ssor_interval,
)
from repro.kernels import BACKENDS, REFERENCE, VECTORIZED
from repro.machines import CYBER_203, CyberMachine, FiniteElementMachine, Recording
from repro.multicolor.sor import MStepSSOR

TOL = 1e-12


@pytest.fixture(scope="module")
def cyber_plate():
    return plate_problem(8)


@pytest.fixture(scope="module")
def cyber_machine(cyber_plate):
    return CyberMachine(cyber_plate)


@pytest.fixture(scope="module")
def cyber_interval(cyber_plate):
    return ssor_interval(build_blocked_system(cyber_plate))


@pytest.fixture(scope="module")
def fem_plate():
    return plate_problem(6)


@pytest.fixture(scope="module")
def fem_blocked(fem_plate):
    return build_blocked_system(fem_plate)


@pytest.fixture(scope="module")
def fem_interval(fem_blocked):
    return ssor_interval(fem_blocked)


@pytest.fixture(scope="module")
def fem_machines(fem_plate, fem_blocked):
    return {p: FiniteElementMachine(fem_plate, p, blocked=fem_blocked) for p in (1, 5)}


# --------------------------------------------------------------------------
class TestCyberBackendEquivalence:
    """Every Table-2 cell: kernel-routed vs hand-rolled preconditioning."""

    @pytest.mark.parametrize("m,parametrized", TABLE2_SCHEDULE)
    def test_solve_equivalent(self, cyber_machine, cyber_interval, m, parametrized):
        coeffs = mstep_coefficients(m, parametrized, cyber_interval) if m else None
        results = {
            backend: cyber_machine.solve(m, coeffs, eps=1e-6, backend=backend)
            for backend in BACKENDS
        }
        fast, pin = results[VECTORIZED], results[REFERENCE]
        assert fast.iterations == pin.iterations
        assert fast.converged and pin.converged
        # The charge stream is structural, so the modeled clock and the
        # operation counters are *exactly* backend-invariant.
        assert fast.seconds == pin.seconds
        assert fast.preconditioner_seconds == pin.preconditioner_seconds
        assert fast.op_breakdown == pin.op_breakdown
        scale = max(float(np.max(np.abs(pin.u_natural))), 1.0)
        assert np.max(np.abs(fast.u_natural - pin.u_natural)) <= TOL * scale

    def test_reference_schedule_matches_per_cell_solves(
        self, cyber_machine, cyber_interval
    ):
        # The reference engine rides the same lockstep schedule: each
        # cell's Algorithm 2 runs the hand-rolled sweeps after the charge
        # replay, so every record is bitwise the per-cell reference solve.
        cells = [
            (m, mstep_coefficients(m, par, cyber_interval) if m else None)
            for m, par in TABLE2_SCHEDULE
        ]
        batched = cyber_machine.solve_schedule(cells, eps=1e-6, backend=REFERENCE)
        assert len(batched) == len(TABLE2_SCHEDULE)
        for (m, coeffs), b in zip(cells, batched):
            solo = cyber_machine.solve(m, coeffs, eps=1e-6, backend=REFERENCE)
            assert b.iterations == solo.iterations
            assert b.seconds == solo.seconds
            assert b.preconditioner_seconds == solo.preconditioner_seconds
            assert b.op_breakdown == solo.op_breakdown
            assert np.array_equal(b.u_natural, solo.u_natural)

    def test_kernel_path_routes_through_color_block_solver(self, cyber_machine):
        cyber_machine.solve(2, np.ones(2), eps=1e-4, backend=VECTORIZED)
        sweep = cyber_machine._sweep_kernel()
        assert isinstance(sweep, MStepSSOR)
        assert sweep.blocked.group_slices == cyber_machine.slices
        assert sweep.blocked.n_groups == cyber_machine.n_groups

    def test_rejects_unknown_backend(self, cyber_machine):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            cyber_machine.solve(1, np.ones(1), backend="fortran")


class TestCyberBlockedPreconditioning:
    """Batched (n, k) Algorithm 2 and its block-width charging."""

    @pytest.fixture(scope="class")
    def r_block(self, cyber_machine):
        rng = np.random.default_rng(7)
        block = rng.normal(size=(cyber_machine.n_padded, 4))
        block[~cyber_machine.free_mask] = 0.0
        return block

    def test_backends_agree_columnwise(self, cyber_machine, r_block):
        coeffs = np.array([1.0, 0.5, 2.0])
        fast = cyber_machine._sweep_kernel().apply_schedule(coeffs, r_block)
        for col in range(r_block.shape[1]):
            pin = cyber_machine._precondition_reference(
                coeffs, r_block[:, col].copy()
            )
            scale = max(float(np.max(np.abs(pin))), 1.0)
            assert np.max(np.abs(fast[:, col] - pin)) <= TOL * scale

    def test_block_matches_single_vector_applies(self, cyber_machine, r_block):
        # The per-column-α sweep of the schedules: an (m, k) coefficient
        # block against one single-vector sweep per column.
        coeffs = np.column_stack(
            [np.ones(2), [0.5, 2.0], [1.3, 0.1], [0.9, 1.1]]
        )
        sweep = cyber_machine._sweep_kernel()
        batched = sweep.apply_schedule(coeffs, r_block).copy()
        for col in range(r_block.shape[1]):
            single = sweep.apply_schedule(coeffs[:, col], r_block[:, col].copy())
            assert np.array_equal(batched[:, col], single)

    def test_block_width_amortizes_startup(self, cyber_machine, r_block):
        """One pipeline startup per color-block op, not per right-hand side."""
        m = 3
        width = r_block.shape[1]
        block = cyber_machine.preconditioner_block_seconds(m, width)
        cols = width * cyber_machine.preconditioner_block_seconds(m, 1)
        assert block < cols
        # The block pays exactly the per-op startups of ONE charge stream;
        # the element traffic itself is identical.
        recording = cyber_machine._charge_precondition(Recording(), m, width)
        t = cyber_machine.timing
        n_ops = sum(len(charges) for charges in recording.charges.values())
        expected_gap = (width - 1) * n_ops * t.startup_elements * t.element_time
        assert cols - block == pytest.approx(expected_gap, rel=1e-9)

    def test_block_timing_model(self):
        t = CYBER_203
        assert t.block_op_time(100, 1) == t.vector_op_time(100)
        assert t.block_op_time(100, 8) < 8 * t.vector_op_time(100)
        assert t.block_op_time(0, 4) == 0.0
        assert t.block_op_time(100, 0) == 0.0

    def test_rejects_bad_shapes(self, cyber_machine):
        # Per-column α's need an (n, k) block with one column per schedule.
        with pytest.raises(ValueError):
            cyber_machine._sweep_kernel().apply_schedule(
                np.ones((2, 3)), np.zeros(cyber_machine.n_padded)
            )


# --------------------------------------------------------------------------
class TestFEMBackendEquivalence:
    """Every Table-3 cell, one and five processors, both backends."""

    @pytest.mark.parametrize("m,parametrized", TABLE3_SCHEDULE)
    @pytest.mark.parametrize("n_procs", [1, 5])
    def test_solve_equivalent(
        self, fem_machines, fem_interval, m, parametrized, n_procs
    ):
        machine = fem_machines[n_procs]
        coeffs = mstep_coefficients(m, parametrized, fem_interval) if m else None
        results = {
            backend: machine.solve(m, coeffs, backend=backend)
            for backend in BACKENDS
        }
        fast, pin = results[VECTORIZED], results[REFERENCE]
        assert fast.iterations == pin.iterations
        assert fast.converged == pin.converged
        # The clock depends only on the iteration count and the static
        # partition, so the full cost decomposition is backend-invariant.
        assert fast.seconds == pin.seconds
        assert fast.compute_seconds == pin.compute_seconds
        assert fast.comm_seconds == pin.comm_seconds
        assert fast.reduction_seconds == pin.reduction_seconds
        assert fast.flag_seconds == pin.flag_seconds
        assert fast.total_records == pin.total_records
        assert fast.total_words == pin.total_words
        scale = max(float(np.max(np.abs(pin.u_natural))), 1.0)
        assert np.max(np.abs(fast.u_natural - pin.u_natural)) <= TOL * scale


class TestFEMBlockCostModel:
    def test_width_one_is_the_solve_path_cost(self, fem_machines):
        machine = fem_machines[5]
        m = 3
        assert machine.preconditioner_block_seconds(m, 1) == pytest.approx(
            m * machine.iteration_costs()[1]
        )

    @pytest.mark.parametrize("n_procs", [1, 5])
    def test_per_rhs_cost_falls_with_width(self, fem_machines, n_procs):
        machine = fem_machines[n_procs]
        per_rhs = [
            machine.preconditioner_block_seconds(2, w) / w for w in (1, 4, 16)
        ]
        assert per_rhs[0] > per_rhs[1] > per_rhs[2] > 0.0
        # Only the per-phase setup and per-record latency amortize; the flop
        # and word traffic scale with width, so the per-RHS cost stays above
        # the marginal (setup-free) cost of one more right-hand side.
        marginal = machine.preconditioner_block_seconds(
            2, 17
        ) - machine.preconditioner_block_seconds(2, 16)
        assert per_rhs[2] > marginal

    def test_width_validation(self, fem_machines):
        with pytest.raises(ValueError):
            fem_machines[1].preconditioner_block_seconds(0, 4)
        with pytest.raises(ValueError):
            fem_machines[1].preconditioner_block_seconds(2, 0)
