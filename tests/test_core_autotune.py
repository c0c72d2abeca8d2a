"""Tests for model-based m selection."""

import numpy as np
import pytest

from repro.analysis import PerformanceModel
from repro.core import SSORSplitting, spectrum_interval
from repro.core.autotune import predicted_cost_curve, recommend_m
from repro.fem import plate_problem


@pytest.fixture(scope="module")
def splitting():
    return SSORSplitting(plate_problem(8).k)


@pytest.fixture(scope="module")
def interval(splitting):
    return spectrum_interval(splitting.k, splitting.apply_p_inv)


class TestRecommendM:
    @pytest.fixture(scope="class")
    def kappa_k(self):
        k = plate_problem(8).k.toarray()
        eigs = np.linalg.eigvalsh(k)
        return float(eigs[-1] / eigs[0])

    def test_recommendation_in_range(self, interval, kappa_k):
        model = PerformanceModel(a=1.0, b=1.0)
        rec = recommend_m(interval, model, m_max=10, kappa_k=kappa_k)
        assert 0 <= rec.m <= 10
        assert rec.score == min(rec.scores.values())

    def test_cheap_preconditioner_pushes_m_up(self, interval):
        cheap = recommend_m(interval, PerformanceModel(a=1.0, b=0.05), m_max=10)
        dear = recommend_m(interval, PerformanceModel(a=1.0, b=5.0), m_max=10)
        assert cheap.m >= dear.m

    def test_preconditioning_always_recommended_here(self, interval, kappa_k):
        # With B/A ≈ 1 (the Finite Element Machine's regime) the model never
        # picks plain CG on this problem — matching Tables 2/3.
        rec = recommend_m(
            interval, PerformanceModel(a=1.0, b=1.0), m_max=8, kappa_k=kappa_k
        )
        assert rec.m >= 1

    def test_without_kappa_k_no_cg_baseline(self, interval):
        rec = recommend_m(interval, PerformanceModel(a=1.0, b=1.0), m_max=5)
        assert 0 not in rec.scores
        assert rec.m >= 1

    def test_curve_kappas_decrease(self, interval):
        model = PerformanceModel(a=1.0, b=0.5)
        _, kappas = predicted_cost_curve(interval, model, m_max=8)
        values = [kappas[m] for m in sorted(kappas)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))

    def test_recommendation_is_near_measured_optimum(self, interval):
        # The model is a √κ-bound heuristic: actual CG converges faster than
        # the bound on the clustered least-squares spectra, so the measured
        # optimum sits at smaller m.  The practical requirement is that
        # *using* the recommendation costs little: its measured time must be
        # within 35 % of the measured minimum (and far below plain CG).
        from repro.driver import solve_mstep_ssor

        problem = plate_problem(8)
        model = PerformanceModel(a=1.0, b=0.6)
        rec = recommend_m(interval, model, m_max=8)
        measured = {}
        for m in range(0, 9):
            solve = solve_mstep_ssor(
                problem, m, parametrized=m >= 2, interval=interval, eps=1e-7
            )
            measured[m] = model.predicted_time(m, solve.iterations)
        best = min(measured.values())
        assert measured[rec.m] <= 1.35 * best
        assert measured[rec.m] < 0.75 * measured[0]

    def test_criterion_validation(self, interval):
        with pytest.raises(ValueError):
            recommend_m(interval, PerformanceModel(a=1.0, b=1.0), criterion="magic")

    def test_m_max_validation(self, interval):
        with pytest.raises(ValueError):
            predicted_cost_curve(interval, PerformanceModel(a=1.0, b=1.0), m_max=0)


class TestWidthAwareRecommendation:
    """ISSUE 4: tuning m for a block of simultaneous right-hand sides."""

    def test_wider_blocks_never_recommend_fewer_steps(self, interval):
        # Amortization lowers the effective per-RHS step cost, so the
        # (4.2) break-even moves toward more steps as the block widens.
        model = PerformanceModel(a=1.0, b=1.5, b_marginal=0.15)
        picks = [
            recommend_m(interval, model, m_max=10, width=w).m
            for w in (1, 2, 4, 8, 16)
        ]
        assert picks == sorted(picks)
        assert picks[-1] > picks[0]

    def test_width_one_is_the_paper_model(self, interval):
        model = PerformanceModel(a=1.0, b=0.8, b_marginal=0.2)
        base = recommend_m(interval, model, m_max=8)
        explicit = recommend_m(interval, model, m_max=8, width=1)
        assert base.scores == explicit.scores
        assert base.m == explicit.m

    def test_width_recorded_on_recommendation(self, interval):
        model = PerformanceModel(a=1.0, b=1.0, b_marginal=0.3)
        rec = recommend_m(interval, model, m_max=6, width=4)
        assert rec.width == 4

    def test_non_amortizing_model_scales_uniformly(self, interval):
        # Without b_marginal the whole curve scales by the width — the
        # argmin cannot move.
        model = PerformanceModel(a=1.0, b=1.0)
        assert (
            recommend_m(interval, model, m_max=8, width=8).m
            == recommend_m(interval, model, m_max=8).m
        )

    def test_plateau_tolerance_picks_smaller_m(self, interval):
        model = PerformanceModel(a=1.0, b=0.3)
        strict = recommend_m(interval, model, m_max=10)
        plateau = recommend_m(interval, model, m_max=10, rel_tol=0.05)
        assert plateau.m <= strict.m
        assert plateau.scores == strict.scores

    def test_fem_machine_calibration_feeds_the_curve(self):
        from repro.driver import build_blocked_system, ssor_interval
        from repro.machines import FiniteElementMachine

        problem = plate_problem(8)
        blocked = build_blocked_system(problem)
        machine = FiniteElementMachine(problem, 4, blocked=blocked)
        model = PerformanceModel.from_machine(machine)
        assert model.amortizes  # per-phase setup amortizes over the block
        rec = recommend_m(
            ssor_interval(blocked), model, m_max=10, width=4, rel_tol=0.05
        )
        assert 1 <= rec.m <= 10

    def test_width_validation(self, interval):
        with pytest.raises(ValueError):
            recommend_m(
                interval, PerformanceModel(a=1.0, b=1.0), width=0
            )
