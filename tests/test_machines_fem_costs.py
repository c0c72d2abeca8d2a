"""Deeper tests of the Finite Element Machine cost model internals."""

import numpy as np
import pytest

from repro import plate_problem
from repro.driver import build_blocked_system
from repro.machines import FEM_1983, ArrayTimingModel, FiniteElementMachine


@pytest.fixture(scope="module")
def plate():
    return plate_problem(6)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


class TestIterationCosts:
    def test_a_scales_down_with_processors(self, plate, blocked):
        a1, _ = FiniteElementMachine(plate, 1, blocked=blocked).iteration_costs()
        a5, _ = FiniteElementMachine(plate, 5, blocked=blocked).iteration_costs()
        # Compute dominates on this machine: A shrinks with P (not ∝ 1/P —
        # reductions and exchanges grow).
        assert a5 < a1
        assert a5 > a1 / 5

    def test_b_includes_comm_only_for_multiproc(self, plate, blocked):
        m1 = FiniteElementMachine(plate, 1, blocked=blocked)
        m5 = FiniteElementMachine(plate, 5, blocked=blocked)
        _, b1 = m1.iteration_costs()
        _, b5 = m5.iteration_costs()
        # Per-step compute shrinks 5×, but the border exchanges keep B₅
        # well above B₁/5.
        assert b5 < b1
        assert b5 > b1 / 5

    def test_phase_fields_sum_to_total(self, plate, blocked):
        machine = FiniteElementMachine(plate, 5, blocked=blocked)
        res = machine.solve(3, np.ones(3))
        total = (
            res.compute_seconds
            + res.comm_seconds
            + res.reduction_seconds
            + res.flag_seconds
        )
        assert res.seconds == pytest.approx(total)

    def test_time_model_consistent_with_41(self, plate, blocked):
        # T ≈ startup + Σ phases: compare the solve's clock to (A + mB)·N
        # within the startup/final-iteration slack.
        machine = FiniteElementMachine(plate, 2, blocked=blocked)
        m = 2
        res = machine.solve(m, np.ones(m))
        a_cost, b_cost = machine.iteration_costs()
        predicted = (a_cost + m * b_cost) * res.iterations
        assert res.seconds == pytest.approx(predicted, rel=0.25)


class TestTimingModelVariants:
    def test_slower_links_hurt_multiproc_only(self, plate, blocked):
        slow_links = ArrayTimingModel(
            flop_time=FEM_1983.flop_time,
            record_latency=10 * FEM_1983.record_latency,
            word_time=10 * FEM_1983.word_time,
            flag_sync_time=FEM_1983.flag_sync_time,
            circuit_stage_time=FEM_1983.circuit_stage_time,
            ring_hop_time=FEM_1983.ring_hop_time,
            color_phase_overhead=FEM_1983.color_phase_overhead,
        )
        base_1 = FiniteElementMachine(plate, 1, blocked=blocked).solve(2, np.ones(2))
        slow_1 = FiniteElementMachine(
            plate, 1, timing=slow_links, blocked=blocked
        ).solve(2, np.ones(2))
        assert slow_1.seconds == pytest.approx(base_1.seconds)

        base_5 = FiniteElementMachine(plate, 5, blocked=blocked).solve(2, np.ones(2))
        slow_5 = FiniteElementMachine(
            plate, 5, timing=slow_links, blocked=blocked
        ).solve(2, np.ones(2))
        assert slow_5.seconds > base_5.seconds

    def test_faster_flops_shift_balance_to_comm(self, plate, blocked):
        fast_cpu = ArrayTimingModel(
            flop_time=FEM_1983.flop_time / 100,
            record_latency=FEM_1983.record_latency,
            word_time=FEM_1983.word_time,
            flag_sync_time=FEM_1983.flag_sync_time,
            circuit_stage_time=FEM_1983.circuit_stage_time,
            ring_hop_time=FEM_1983.ring_hop_time,
            color_phase_overhead=FEM_1983.color_phase_overhead,
        )
        machine = FiniteElementMachine(plate, 5, timing=fast_cpu, blocked=blocked)
        res = machine.solve(2, np.ones(2))
        overhead = res.comm_seconds + res.reduction_seconds + res.flag_seconds
        assert overhead > res.compute_seconds  # comm-bound once flops are free

    def test_records_independent_of_timing(self, plate, blocked):
        # Traffic is structural; the clock model must not change it.
        fast = ArrayTimingModel(flop_time=1e-9)
        a = FiniteElementMachine(plate, 5, blocked=blocked).solve(2, np.ones(2))
        b = FiniteElementMachine(plate, 5, timing=fast, blocked=blocked).solve(
            2, np.ones(2)
        )
        assert a.total_records == b.total_records
        assert a.total_words == b.total_words
