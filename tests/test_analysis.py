"""Tests for the Section-4 performance model, condition studies, reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    PerformanceModel,
    Table,
    condition_study,
    fit_iteration_model,
    format_table,
    inequality_42,
    optimal_m,
)
from repro.core import SSORSplitting, least_squares_coefficients
from repro.fem import plate_problem


class TestPerformanceModel:
    def test_predicted_time_formula(self):
        model = PerformanceModel(a=2.0, b=0.5)
        assert model.predicted_time(0, 100) == 200.0
        assert model.predicted_time(4, 25) == (2.0 + 4 * 0.5) * 25

    def test_b_over_a(self):
        assert PerformanceModel(a=4.0, b=1.0).b_over_a == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceModel(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=-0.1)
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=1.0).predicted_time(-1, 10)


class TestBlockWidthModel:
    """The block-width cost extension (PR 3): PerformanceModel priced from
    the machine's batched preconditioner agrees with the machine itself."""

    @pytest.fixture(scope="class")
    def machines(self):
        from repro.machines import FiniteElementMachine

        problem = plate_problem(6)
        return {p: FiniteElementMachine(problem, p) for p in (1, 2, 5)}

    @pytest.mark.parametrize("n_procs", [1, 2, 5])
    @pytest.mark.parametrize("width", [1, 4, 13])
    def test_predicted_block_time_matches_machine(self, machines, n_procs, width):
        # width 13 = the Table-2 schedule column count — the batched
        # multi-RHS sweep the session runs.
        machine = machines[n_procs]
        model = PerformanceModel.from_machine(machine)
        for m in (1, 2, 5):
            assert model.preconditioner_block_time(m, width) == pytest.approx(
                machine.preconditioner_block_seconds(m, width), rel=1e-12
            )

    def test_width_one_is_the_paper_model(self, machines):
        machine = machines[5]
        a, b = machine.iteration_costs()
        model = PerformanceModel.from_machine(machine)
        assert model.a == a and model.b == b
        assert model.step_cost(1) == b
        assert model.predicted_time(3, 20) == (a + 3 * b) * 20
        assert model.b_over_a_at(1) == model.b_over_a

    def test_per_rhs_cost_falls_with_width(self, machines):
        model = PerformanceModel.from_machine(machines[5])
        assert model.amortizes
        per_rhs = [model.step_cost(w) / w for w in (1, 4, 13)]
        assert per_rhs[0] > per_rhs[1] > per_rhs[2] > model.b_marginal

    def test_batched_decision_widens_the_threshold(self, machines):
        model = PerformanceModel.from_machine(machines[5])
        narrow = inequality_42(3, 20, 17, model)
        wide = inequality_42(3, 20, 17, model, width=13)
        assert wide.b_over_a < narrow.b_over_a
        assert wide.threshold == narrow.threshold  # iteration side unchanged
        assert wide.width == 13 and narrow.width == 1

    def test_unamortized_model_scales_linearly(self):
        model = PerformanceModel(a=2.0, b=0.5)  # no b_marginal given
        assert model.step_cost(4) == 4 * 0.5
        assert model.b_over_a_at(8) == model.b_over_a
        assert model.predicted_time(2, 10, width=3) == (2.0 * 3 + 2 * 1.5) * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=0.5, b_marginal=0.6)  # marginal > b
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=0.5, b_marginal=-0.1)
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=0.5).step_cost(0)
        with pytest.raises(ValueError):
            PerformanceModel(a=1.0, b=0.5).preconditioner_block_time(0, 4)


class TestInequality42:
    def test_condition_1_fewer_inner_loops(self):
        # 9·33 = 297 → m+1 with 10·29 = 290 < 297: condition (1) holds.
        model = PerformanceModel(a=1.0, b=1.0)
        decision = inequality_42(9, 33, 29, model)
        assert decision.condition_1
        assert decision.beneficial
        assert decision.threshold == float("inf")

    def test_condition_2_threshold(self):
        # The paper's a=41 case at m=9: N₉=33, N₁₀=31 →
        # threshold = (33−31)/(10·31 − 9·33) = 2/13 ≈ 0.154.
        model_cheap = PerformanceModel(a=1.0, b=0.10)
        model_dear = PerformanceModel(a=1.0, b=0.81)
        d_cheap = inequality_42(9, 33, 31, model_cheap)
        d_dear = inequality_42(9, 33, 31, model_dear)
        assert d_cheap.threshold == pytest.approx(2 / 13)
        assert d_cheap.beneficial
        assert not d_dear.beneficial
        left, right = d_dear.sides()
        assert left == pytest.approx(0.81)
        assert right == pytest.approx(2 / 13)

    def test_equal_inner_loops_edge(self):
        model = PerformanceModel(a=1.0, b=0.5)
        d = inequality_42(1, 20, 10, model)  # 2·10 − 1·20 = 0, N drops
        assert d.beneficial
        d2 = inequality_42(1, 10, 10, model)  # no iteration change: 2·10−10>0
        assert not d2.beneficial

    def test_validation(self):
        model = PerformanceModel(a=1.0, b=0.5)
        with pytest.raises(ValueError):
            inequality_42(-1, 5, 4, model)
        with pytest.raises(ValueError):
            inequality_42(2, 0, 4, model)

    @given(
        st.integers(1, 12),
        st.integers(2, 500),
        st.floats(0.01, 3.0),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=40)
    def test_property_decision_matches_time_model(self, m, n_m, drop, b_over_a):
        # (4.2) must agree with directly comparing T_{m+1} and T_m.
        n_m1 = max(1, int(n_m / (1.0 + drop)))
        model = PerformanceModel(a=1.0, b=b_over_a)
        decision = inequality_42(m, n_m, n_m1, model)
        t_m = model.predicted_time(m, n_m)
        t_m1 = model.predicted_time(m + 1, n_m1)
        if abs(t_m1 - t_m) > 1e-9 * t_m:
            assert decision.beneficial == (t_m1 < t_m)


class TestOptimalM:
    def test_scans_profile(self):
        counts = {0: 100, 1: 45, 2: 30, 3: 24, 4: 21}
        cheap = PerformanceModel(a=1.0, b=0.05)
        dear = PerformanceModel(a=1.0, b=2.0)
        assert optimal_m(counts, cheap) >= 2
        assert optimal_m(counts, dear) <= 1

    def test_single_entry(self):
        assert optimal_m({0: 10}, PerformanceModel(a=1.0, b=1.0)) == 0

    def test_fit_iteration_model(self):
        # Exact power law is recovered.
        counts = {m: int(round(100 * m**-0.5)) for m in (1, 2, 4, 8, 16)}
        c, p = fit_iteration_model(counts)
        assert c == pytest.approx(100, rel=0.05)
        assert p == pytest.approx(0.5, abs=0.05)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_iteration_model({1: 50})


class TestConditionStudy:
    @pytest.fixture(scope="class")
    def study(self):
        k = plate_problem(5).k
        return condition_study(SSORSplitting(k), m_max=6)

    def test_kappa_decreases(self, study):
        assert study.monotone_decreasing()

    def test_adams_bound(self, study):
        assert study.bound_satisfied()

    def test_preconditioning_beats_raw_kappa(self, study):
        assert study.kappas[1] < study.kappa_k

    def test_iteration_gain_reasonable(self, study):
        gain = study.expected_iteration_gain(4)
        assert 1.0 <= gain <= 2.0  # √(κ₁/κ₄) ≤ √4 = 2 by the bound

    def test_parametrized_study_improves(self):
        k = plate_problem(5).k
        splitting = SSORSplitting(k)
        from repro.core import full_splitting_spectrum

        eigs = full_splitting_spectrum(splitting)
        interval = (float(eigs.min()), float(eigs.max()))
        plain = condition_study(splitting, m_max=4)
        fitted = condition_study(
            splitting,
            m_max=4,
            coefficients_for=lambda m: least_squares_coefficients(m, interval),
        )
        for m in (2, 3, 4):
            assert fitted.kappas[m] <= plain.kappas[m] * 1.05

    def test_m_max_validation(self):
        k = plate_problem(4).k
        with pytest.raises(ValueError):
            condition_study(SSORSplitting(k), m_max=0)


class TestAsciiPlot:
    def test_markers_and_legend(self):
        from repro.analysis import ascii_plot

        xs = [0.0, 0.5, 1.0]
        out = ascii_plot("demo", xs, {"alpha": [0, 1, 0], "beta": [1, 0, 1]})
        assert "demo" in out
        assert "a = alpha" in out and "b = beta" in out
        assert "a" in out and "b" in out

    def test_constant_series_handled(self):
        from repro.analysis import ascii_plot

        out = ascii_plot("flat", [0, 1], {"c": [2.0, 2.0]})
        assert "flat" in out

    def test_validation(self):
        from repro.analysis import ascii_plot

        with pytest.raises(ValueError):
            ascii_plot("t", [0, 1], {})
        with pytest.raises(ValueError):
            ascii_plot("t", [0], {"x": [1]})
        with pytest.raises(ValueError):
            ascii_plot("t", [0, 1], {"x": [1]})


class TestReporting:
    def test_format_basic(self):
        out = format_table("Title", ["a", "b"], [[1, 2.5], [None, float("inf")]])
        assert "Title" in out
        assert "—" in out and "∞" in out
        assert "2.5" in out

    def test_table_row_width_checked(self):
        table = Table("t", ["x", "y"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_notes_rendered(self):
        table = Table("t", ["x"], [[1]])
        table.add_note("calibrated, not measured")
        assert "note: calibrated" in table.render()

    def test_bool_rendering(self):
        out = format_table("t", ["ok"], [[True], [False]])
        assert "yes" in out and "no" in out


class TestCyberCalibratedModel:
    """The CYBER-timing-model calibration (ISSUE 5 satellite):
    ``PerformanceModel.from_machine`` calibrates on it as on the FEM."""

    @pytest.fixture(scope="class")
    def machine(self):
        from repro.machines import CyberMachine

        return CyberMachine(plate_problem(8))

    def test_iteration_costs_are_positive_and_step_scaled(self, machine):
        a, b = machine.iteration_costs()
        assert a > 0 and b > 0
        # m preconditioner steps charge m times the marginal step plus the
        # one-off final color solve.
        five = machine.preconditioner_block_seconds(5, 1)
        one = machine.preconditioner_block_seconds(1, 1)
        assert five == pytest.approx(one + 4 * b, rel=1e-12)

    def test_block_application_amortizes_pipe_startups(self, machine):
        one = machine.preconditioner_block_seconds(1, 1)
        eight = machine.preconditioner_block_seconds(1, 8)
        assert one < eight < 8 * one

    def test_from_cyber_machine_fields(self, machine):
        model = PerformanceModel.from_machine(machine)
        a, b = machine.iteration_costs()
        assert model.a == a and model.b == b
        assert model.amortizes
        assert 0 < model.b_marginal < model.b

    def test_recommendation_runs_off_the_cyber_model(self, machine):
        from repro.core.autotune import recommend_m
        from repro.driver import build_blocked_system, ssor_interval

        interval = ssor_interval(build_blocked_system(machine.problem))
        model = PerformanceModel.from_machine(machine)
        rec = recommend_m(interval, model, m_max=10, rel_tol=0.05)
        assert 1 <= rec.m <= 10
        wide = recommend_m(interval, model, m_max=10, width=13, rel_tol=0.05)
        assert wide.m >= rec.m  # batching amortizes steps → m never shrinks


class TestShardAwareStepCost:
    """Shard-aware (4.1) pricing: wall-clock follows the widest shard."""

    def test_shard_width(self):
        assert PerformanceModel.shard_width(8, 1) == 8
        assert PerformanceModel.shard_width(8, 4) == 2
        assert PerformanceModel.shard_width(7, 4) == 2
        assert PerformanceModel.shard_width(3, 8) == 1  # W > k clamps

    def test_sharded_step_cost_equals_narrow_block(self):
        model = PerformanceModel(a=1.0, b=0.7, b_marginal=0.2)
        assert model.step_cost(8, shards=4) == model.step_cost(2)
        assert model.step_cost(8, shards=8) == model.b
        assert model.step_cost(8, shards=1) == model.step_cost(8)

    def test_sharded_predicted_time_drops_with_workers(self):
        model = PerformanceModel(a=1.0, b=0.7, b_marginal=0.2)
        serial = model.predicted_time(3, 20, width=8)
        sharded = model.predicted_time(3, 20, width=8, shards=4)
        assert sharded < serial
        # Fully sharded = width-1 wall-clock per column.
        assert model.predicted_time(3, 20, width=8, shards=8) == (
            model.predicted_time(3, 20)
        )

    def test_sharding_walks_the_recommendation_back(self):
        from repro.core.autotune import recommend_m

        interval = (0.05, 1.0)
        model = PerformanceModel(a=1.0, b=0.7, b_marginal=0.05)
        wide = recommend_m(interval, model, m_max=10, width=16)
        sharded = recommend_m(interval, model, m_max=10, width=16, shards=16)
        narrow = recommend_m(interval, model, m_max=10)
        assert sharded.m == narrow.m  # per-worker width 1 = paper pricing
        assert wide.m >= sharded.m

    def test_b_over_a_at_shards(self):
        model = PerformanceModel(a=1.0, b=0.7, b_marginal=0.2)
        assert model.b_over_a_at(8, shards=8) == model.b_over_a
        assert model.b_over_a_at(8) < model.b_over_a_at(8, shards=4)
