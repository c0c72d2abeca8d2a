"""Tests for the generic m-step preconditioner and spectrum tools."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IdentityPreconditioner,
    JacobiSplitting,
    MStepPreconditioner,
    RichardsonSplitting,
    SORSplitting,
    SSORSplitting,
    condition_number,
    full_splitting_spectrum,
    neumann_coefficients,
    preconditioned_condition_number,
    preconditioned_spectrum,
    spectrum_interval,
)
from repro.driver import build_blocked_system
from repro.fem import plate_problem
from repro.multicolor import MStepSSOR
from repro.util import is_symmetric


@pytest.fixture(scope="module")
def plate():
    return plate_problem(5)


@pytest.fixture(scope="module")
def plate_k(plate):
    return plate.k


def dense_mstep(splitting, coeffs):
    p = splitting.p_matrix().toarray()
    k = splitting.k.toarray()
    g = np.eye(k.shape[0]) - np.linalg.solve(p, k)
    acc = np.zeros_like(p)
    power = np.eye(k.shape[0])
    for a in coeffs:
        acc += a * power
        power = power @ g
    return acc @ np.linalg.inv(p)


class TestMStepPreconditioner:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_closed_form_ssor(self, plate_k, m):
        rng = np.random.default_rng(m)
        coeffs = rng.uniform(-1.0, 2.0, size=m)
        splitting = SSORSplitting(plate_k)
        precond = MStepPreconditioner(splitting, coeffs)
        dense = dense_mstep(splitting, coeffs)
        r = rng.normal(size=plate_k.shape[0])
        assert precond.apply(r) == pytest.approx(dense @ r, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_closed_form_jacobi(self, plate_k, m):
        rng = np.random.default_rng(m + 5)
        coeffs = rng.uniform(0.1, 2.0, size=m)
        splitting = JacobiSplitting(plate_k)
        precond = MStepPreconditioner(splitting, coeffs)
        dense = dense_mstep(splitting, coeffs)
        r = rng.normal(size=plate_k.shape[0])
        assert precond.apply(r) == pytest.approx(dense @ r, rel=1e-10, abs=1e-10)

    def test_operator_is_symmetric(self, plate_k):
        precond = MStepPreconditioner(SSORSplitting(plate_k), neumann_coefficients(3))
        assert is_symmetric(precond.as_dense_operator(), tol=1e-9)

    def test_rejects_nonsymmetric_splitting(self, plate_k):
        with pytest.raises(ValueError, match="nonsymmetric"):
            MStepPreconditioner(SORSplitting(plate_k), neumann_coefficients(2))
        # ...unless explicitly allowed for experimentation.
        MStepPreconditioner(
            SORSplitting(plate_k), neumann_coefficients(2), allow_nonsymmetric=True
        )

    def test_counts_solves_and_matvecs(self, plate_k):
        precond = MStepPreconditioner(SSORSplitting(plate_k), neumann_coefficients(4))
        precond.apply(np.ones(plate_k.shape[0]))
        assert precond.counter.precond_applications == 1
        assert precond.counter.precond_steps == 4
        assert precond.counter.extra["p_solves"] == 4
        assert precond.counter.extra["inner_matvecs"] == 3

    def test_matches_multicolor_sweep_implementation(self, plate):
        # The generic splitting path and the Conrad–Wallach sweep path are
        # the same operator on the multicolor-permuted matrix.
        blocked = build_blocked_system(plate)
        coeffs = np.array([1.5, -0.5, 2.0])
        sweeps = MStepSSOR(blocked, coeffs)
        generic = MStepPreconditioner(SSORSplitting(blocked.permuted), coeffs)
        rng = np.random.default_rng(9)
        r = rng.normal(size=blocked.n)
        assert sweeps.apply(r) == pytest.approx(generic.apply(r), rel=1e-9, abs=1e-9)

    def test_identity_preconditioner(self):
        ident = IdentityPreconditioner()
        r = np.array([1.0, -2.0])
        out = ident.apply(r)
        assert np.array_equal(out, r)
        out[0] = 99.0
        assert r[0] == 1.0  # copy, not view
        assert ident.counter.precond_applications == 1
        assert ident.m == 0


class TestSpectrum:
    def test_full_spectrum_positive_unit_bounded_for_ssor(self, plate_k):
        eigs = full_splitting_spectrum(SSORSplitting(plate_k))
        assert eigs.min() > 0
        assert eigs.max() <= 1.0 + 1e-10

    def test_interval_matches_full_spectrum_dense(self, plate_k):
        # λ_n = 1 is exact for ω = 1 SSOR; λ₁ comes from above, within
        # the Lanczos run's stopping tolerance.
        splitting = SSORSplitting(plate_k)
        eigs = full_splitting_spectrum(splitting)
        lo, hi = spectrum_interval(plate_k, splitting.apply_p_inv)
        assert hi == 1.0
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert eigs[0] * (1 - 1e-12) <= lo <= eigs[0] * 1.001

    def test_iterative_path_agrees_with_dense(self):
        # n = 760, checked against the dense reference at full size.
        blocked = build_blocked_system(plate_problem(20))
        splitting = SSORSplitting(blocked.permuted)
        eigs = full_splitting_spectrum(splitting)
        lo, hi = spectrum_interval(blocked.permuted, splitting.apply_p_inv)
        assert eigs[0] * (1 - 1e-12) <= lo <= eigs[0] * 1.001
        assert hi == 1.0
        # The merged m = 1 sweep is the same P⁻¹, up to rounding.
        lo_sweep, _ = spectrum_interval(
            blocked.permuted, MStepSSOR(blocked, np.ones(1)).apply
        )
        assert lo_sweep == pytest.approx(lo, rel=1e-9)

    def test_indefinite_sweep_rejected(self, plate_k):
        with pytest.raises(ValueError, match="positive definite"):
            spectrum_interval(plate_k, lambda r: -r)

    def test_condition_number_helpers(self):
        assert condition_number(np.array([0.5, 1.0, 2.0])) == 4.0
        assert condition_number((2.0, 10.0)) == 5.0
        assert condition_number(np.array([0.0, 1.0])) == float("inf")


class TestAdams1982Bound:
    """κ(M_m⁻¹K) decreases with m and κ₁/κ_m ≤ m (Adams 1982, for SSOR)."""

    def test_condition_number_decreases_with_m(self, plate_k):
        splitting = SSORSplitting(plate_k)
        kappas = [
            preconditioned_condition_number(splitting, neumann_coefficients(m))
            for m in range(1, 7)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(kappas, kappas[1:]))

    def test_ratio_bounded_by_m(self, plate_k):
        splitting = SSORSplitting(plate_k)
        kappa_1 = preconditioned_condition_number(splitting, neumann_coefficients(1))
        for m in range(2, 8):
            kappa_m = preconditioned_condition_number(
                splitting, neumann_coefficients(m)
            )
            assert kappa_1 / kappa_m <= m + 1e-9

    def test_mapped_spectrum_formula(self, plate_k):
        splitting = SSORSplitting(plate_k)
        eigs = full_splitting_spectrum(splitting)
        mapped = preconditioned_spectrum(eigs, neumann_coefficients(3))
        assert mapped == pytest.approx(np.sort(1.0 - (1.0 - eigs) ** 3), rel=1e-10)

    def test_richardson_m_step_is_polynomial_in_k(self):
        # For P = cI, M_m⁻¹K is a polynomial in K/c — sanity-check κ via a
        # tiny dense example.
        k = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        splitting = RichardsonSplitting(k, c=4.0)
        kappa_1 = preconditioned_condition_number(splitting, neumann_coefficients(1))
        assert kappa_1 == pytest.approx(3.0)
        kappa_3 = preconditioned_condition_number(splitting, neumann_coefficients(3))
        expected = (1 - (1 - 3 / 4) ** 3) / (1 - (1 - 1 / 4) ** 3)
        assert kappa_3 == pytest.approx(expected)
