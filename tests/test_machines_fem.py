"""Tests for the Finite Element Machine simulator (§3.2, Table 3)."""

import numpy as np
import pytest

from repro import plate_problem, solve_mstep_ssor
from repro.driver import build_blocked_system, mstep_coefficients, ssor_interval
from repro.machines import FEM_1983, FiniteElementMachine, speedup_table
from repro.machines.comm import CommLog


@pytest.fixture(scope="module")
def plate():
    return plate_problem(6)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


@pytest.fixture(scope="module")
def interval(blocked):
    return ssor_interval(blocked)


@pytest.fixture(scope="module")
def machines(plate, blocked):
    return {p: FiniteElementMachine(plate, p, blocked=blocked) for p in (1, 2, 5)}


class TestNumericalInvariance:
    @pytest.mark.parametrize("m, par", [(0, False), (1, False), (3, True)])
    def test_iterations_independent_of_processor_count(
        self, machines, interval, m, par
    ):
        # Table 3's defining feature: the I column is identical for 1, 2 and
        # 5 processors.
        coeffs = mstep_coefficients(m, par, interval) if m else None
        iters = {machines[p].solve(m, coeffs).iterations for p in (1, 2, 5)}
        assert len(iters) == 1

    def test_solution_matches_reference(self, plate, machines, blocked):
        sim = machines[5].solve(2, np.ones(2), eps=1e-8)
        ref = solve_mstep_ssor(plate, 2, blocked=blocked, eps=1e-8)
        assert sim.iterations == ref.iterations
        assert sim.u_natural == pytest.approx(ref.u)

    def test_solution_solves_system(self, plate, machines):
        sim = machines[2].solve(3, np.ones(3), eps=1e-8)
        resid = np.max(np.abs(plate.f - plate.k @ sim.u_natural))
        assert resid < 1e-6


class TestTable3Shape:
    def test_speedups_in_paper_band(self, machines):
        res = {p: machines[p].solve(0) for p in (1, 2, 5)}
        su = speedup_table(res)
        assert su[1] == pytest.approx(1.0)
        assert 1.7 <= su[2] <= 2.0   # paper: 1.92
        assert 3.0 <= su[5] <= 3.9   # paper: 3.58

    def test_speedup_declines_with_m(self, machines, interval):
        # Observation (3): preconditioner communication dominates the
        # overhead, so speedup decreases as m grows.
        su_by_m = {}
        for m in (0, 2, 6):
            coeffs = mstep_coefficients(m, True, interval) if m else None
            res = {p: machines[p].solve(m, coeffs) for p in (1, 2, 5)}
            su_by_m[m] = speedup_table(res)
        assert su_by_m[0][2] > su_by_m[2][2] > su_by_m[6][2]
        assert su_by_m[0][5] > su_by_m[2][5] > su_by_m[6][5]

    def test_single_processor_minute_scale(self, machines):
        res = machines[1].solve(0)
        assert 30.0 < res.seconds < 120.0  # paper: 63.35 s

    def test_preconditioning_beats_cg_in_time(self, machines, interval):
        # 2P/3P beat m = 0 in wall time on every processor count (Table 3).
        for p in (1, 2, 5):
            base = machines[p].solve(0)
            coeffs = mstep_coefficients(3, True, interval)
            best = machines[p].solve(3, coeffs)
            assert best.seconds < base.seconds

    def test_preconditioner_comm_dominates_inner_product_comm(self, machines):
        # Observation (3): "for two and five processors the communications
        # for the preconditioner rather than for the inner products dominate
        # the overhead."  With the preconditioner on, border-exchange time
        # exceeds reduction time; with plain CG the reductions dominate.
        for p in (2, 5):
            cg_res = machines[p].solve(0)
            pcg_res = machines[p].solve(3, np.ones(3))
            assert cg_res.reduction_seconds > cg_res.comm_seconds
            assert pcg_res.comm_seconds > pcg_res.reduction_seconds
            # and PCG pays more overhead per iteration than CG:
            cg_overhead = (
                cg_res.comm_seconds + cg_res.reduction_seconds + cg_res.flag_seconds
            ) / cg_res.iterations
            pcg_overhead = (
                pcg_res.comm_seconds
                + pcg_res.reduction_seconds
                + pcg_res.flag_seconds
            ) / pcg_res.iterations
            assert pcg_overhead > cg_overhead


class TestAccounting:
    def test_no_comm_on_single_processor(self, machines):
        res = machines[1].solve(2, np.ones(2))
        assert res.comm_seconds == 0.0
        assert res.total_records == 0
        assert res.reduction_seconds == 0.0

    def test_records_scale_with_iterations_and_m(self, machines):
        short = machines[2].solve(0)
        long = machines[2].solve(4, np.ones(4))
        # Preconditioned runs take fewer iterations but many more records
        # per iteration (5 border exchanges per step).
        records_per_iter_short = short.total_records / short.iterations
        records_per_iter_long = long.total_records / long.iterations
        assert records_per_iter_long > records_per_iter_short

    def test_commlog_bookkeeping(self):
        log = CommLog(FEM_1983)
        t = log.add_record(0, 1, 10)
        assert t == pytest.approx(FEM_1983.record_time(10))
        assert log.add_record(0, 1, 0) == 0.0
        assert log.total_records == 1
        assert log.total_words == 10
        assert log.traffic_matrix(2)[0][1] == 10
        assert log.conservation_ok()

    def test_iteration_costs_model(self, machines):
        # A and B feed the (4.1)/(4.2) analysis; both positive, and B/A is
        # order one on this machine (Table 3's single-processor column).
        a, b = machines[1].iteration_costs()
        assert a > 0 and b > 0
        assert 0.4 < b / a < 2.5

    def test_reduction_mode_circuit_faster(self, plate, blocked):
        soft = FiniteElementMachine(plate, 5, blocked=blocked, reduction="software")
        circ = FiniteElementMachine(plate, 5, blocked=blocked, reduction="circuit")
        rs = soft.solve(0)
        rc = circ.solve(0)
        assert rc.seconds < rs.seconds
        assert rc.iterations == rs.iterations

    def test_invalid_reduction_mode(self, plate, blocked):
        with pytest.raises(ValueError):
            FiniteElementMachine(plate, 2, blocked=blocked, reduction="psychic")

    def test_speedup_table_needs_baseline(self, machines):
        res = {2: machines[2].solve(0)}
        with pytest.raises(ValueError):
            speedup_table(res)
