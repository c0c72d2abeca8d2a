"""Ablation — κ(M_m⁻¹K) versus m, and the Adams-1982 bound.

Section 2.1's theoretical backdrop: for the SSOR splitting the condition
number of the preconditioned operator decreases with m, but the ratio
κ(K̂₁)/κ(K̂_m) is at most m — so unparametrized steps hit diminishing
returns, and the parametrization is what makes larger m pay (Section 4
verifies in time; this bench verifies in spectra).
"""

from repro.analysis import Table, condition_study
from repro.core import SSORSplitting, least_squares_coefficients

from _common import cached_blocked, cached_interval, cached_plate, emit, run_once


def build_table():
    problem = cached_plate(8)
    splitting = SSORSplitting(cached_blocked(8).permuted)
    interval = cached_interval(8)
    plain = condition_study(splitting, m_max=8)
    fitted = condition_study(
        splitting,
        m_max=8,
        coefficients_for=lambda m: least_squares_coefficients(m, interval),
    )
    table = Table(
        f"κ(M_m⁻¹K) versus m — SSOR splitting, a = 8 plate (κ(K) = {plain.kappa_k:.1f})",
        ["m", "κ unparametrized", "κ₁/κ_m", "bound m", "κ least-squares", "√(κ₁/κ_m)"],
    )
    for m in sorted(plain.kappas):
        table.add_row(
            m,
            plain.kappas[m],
            plain.ratio(m),
            m,
            fitted.kappas[m],
            plain.expected_iteration_gain(m),
        )
    table.add_note("Adams 1982: κ decreases with m and κ₁/κ_m ≤ m (both visible)")
    table.add_note("the least-squares column shows why parametrized m keeps paying")
    return table.render(), plain, fitted


def test_condition_study(benchmark):
    text, plain, fitted = run_once(benchmark, build_table)
    emit("ablation_condition_vs_m", text)
    assert plain.monotone_decreasing()
    assert plain.bound_satisfied()
    for m in (3, 5, 8):
        assert fitted.kappas[m] <= plain.kappas[m] * 1.05


def test_spectrum_interval_speed(benchmark):
    """Micro-benchmark: measuring [λ₁, λ_n] of P⁻¹K on the a = 20 plate."""
    from repro.driver import ssor_interval

    lo, hi = benchmark(ssor_interval, cached_blocked(20))
    assert 0 < lo < hi == 1.0
