"""Tests for the splitting classes of Section 2."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JacobiSplitting,
    RichardsonSplitting,
    SORSplitting,
    SSORSplitting,
)
from repro.fem import plate_problem
from repro.util import is_spd, is_symmetric


def small_spd(seed: int = 0, n: int = 12) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return sp.csr_matrix(m)


@pytest.fixture(scope="module")
def plate_k():
    return plate_problem(5).k


ALL_SPLITTINGS = [
    lambda k: JacobiSplitting(k),
    lambda k: RichardsonSplitting(k),
    lambda k: SSORSplitting(k),
    lambda k: SSORSplitting(k, omega=1.4),
    lambda k: SORSplitting(k),
]


class TestPInverse:
    @pytest.mark.parametrize("factory", ALL_SPLITTINGS)
    def test_p_inv_matches_explicit_p(self, factory, plate_k):
        splitting = factory(plate_k)
        rng = np.random.default_rng(1)
        r = rng.normal(size=plate_k.shape[0])
        p = splitting.p_matrix().toarray()
        assert splitting.apply_p_inv(r) == pytest.approx(
            np.linalg.solve(p, r), rel=1e-10, abs=1e-10
        )

    @pytest.mark.parametrize("factory", ALL_SPLITTINGS)
    def test_g_action(self, factory, plate_k):
        splitting = factory(plate_k)
        rng = np.random.default_rng(2)
        x = rng.normal(size=plate_k.shape[0])
        p = splitting.p_matrix().toarray()
        q = p - plate_k.toarray()
        expected = np.linalg.solve(p, q @ x)
        assert splitting.apply_g(x) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_jacobi_p_is_diagonal(self, plate_k):
        splitting = JacobiSplitting(plate_k)
        assert splitting.p_matrix().toarray() == pytest.approx(
            np.diag(plate_k.diagonal())
        )

    def test_jacobi_rejects_zero_diagonal(self):
        k = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            JacobiSplitting(k)


class TestSymmetryProperties:
    def test_ssor_p_is_spd(self, plate_k):
        for omega in (0.5, 1.0, 1.5):
            p = SSORSplitting(plate_k, omega=omega).p_matrix()
            assert is_spd(p)

    def test_sor_p_not_symmetric(self, plate_k):
        p = SORSplitting(plate_k).p_matrix()
        assert not is_symmetric(p)
        assert SORSplitting(plate_k).symmetric is False

    def test_omega_range_enforced(self, plate_k):
        for bad in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                SSORSplitting(plate_k, omega=bad)
            with pytest.raises(ValueError):
                SORSplitting(plate_k, omega=bad)

    def test_ssor_omega1_is_paper_form(self, plate_k):
        # P = (D − L) D⁻¹ (D − U) with no extra scaling at ω = 1.
        splitting = SSORSplitting(plate_k, omega=1.0)
        kd = plate_k.toarray()
        d = np.diag(np.diag(kd))
        lower = -np.tril(kd, -1)
        upper = -np.triu(kd, 1)
        expected = (d - lower) @ np.linalg.solve(d, d - upper)
        assert splitting.p_matrix().toarray() == pytest.approx(expected)


class TestStationaryConvergence:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda k: JacobiSplitting(k),
            lambda k: RichardsonSplitting(k),
            lambda k: SSORSplitting(k),
            lambda k: SORSplitting(k),
        ],
    )
    def test_iteration_converges_on_diagonally_dominant(self, factory):
        k = small_spd(seed=5)
        splitting = factory(k)
        rng = np.random.default_rng(6)
        b = rng.normal(size=k.shape[0])
        x = np.zeros(k.shape[0])
        for _ in range(400):
            x = splitting.apply_g(x) + splitting.apply_p_inv(b)
        assert k @ x == pytest.approx(b, rel=1e-6, abs=1e-6)

    def test_ssor_iteration_radius_below_one_on_plate(self, plate_k):
        splitting = SSORSplitting(plate_k)
        p = splitting.p_matrix().toarray()
        g = np.eye(plate_k.shape[0]) - np.linalg.solve(p, plate_k.toarray())
        rho = np.max(np.abs(np.linalg.eigvals(g)))
        assert rho < 1.0

    @given(st.integers(0, 2**31 - 1), st.floats(0.2, 1.8))
    @settings(max_examples=10, deadline=None)
    def test_property_ssor_eigs_in_unit_interval(self, seed, omega):
        # Eigenvalues of P⁻¹K for the SSOR splitting of an SPD matrix lie in
        # (0, 1] — the fact the whole parametrization section leans on.
        k = small_spd(seed=seed, n=10)
        splitting = SSORSplitting(k, omega=omega)
        import scipy.linalg as sla

        eigs = sla.eigh(k.toarray(), splitting.p_matrix().toarray(), eigvals_only=True)
        assert eigs.min() > 0
        assert eigs.max() <= 1.0 + 1e-10


class TestRichardson:
    def test_default_constant_is_gershgorin(self, plate_k):
        splitting = RichardsonSplitting(plate_k)
        lam_max = float(np.linalg.eigvalsh(plate_k.toarray())[-1])
        assert splitting.c >= lam_max

    def test_explicit_constant(self):
        k = small_spd(2)
        splitting = RichardsonSplitting(k, c=100.0)
        assert splitting.apply_p_inv(np.ones(k.shape[0])) == pytest.approx(
            np.full(k.shape[0], 0.01)
        )

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            RichardsonSplitting(small_spd(3), c=-2.0)
