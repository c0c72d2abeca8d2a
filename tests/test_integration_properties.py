"""Cross-cutting invariants of the whole stack (hypothesis-driven).

These are the properties a user silently relies on: the method must not
care how the unknowns are numbered, how the system is scaled, or how the
preconditioner is normalized — and the full pipeline must keep solving the
problem it was given.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import plate_problem, solve_mstep_ssor
from repro.core import (
    DeltaInfNorm,
    MStepPreconditioner,
    SSORSplitting,
    neumann_coefficients,
    pcg,
)
from repro.driver import build_blocked_system
from repro.util import permutation_matrix


class TestPermutationInvariance:
    @given(st.integers(0, 2**31 - 1))
    @example(28082581)  # stopped after 43 and 42 iterations under ‖r‖₂ ≤ 1e-10
    @settings(max_examples=8, deadline=None)
    def test_pcg_commutes_with_renumbering(self, seed):
        # Solve(P K Pᵀ, P f) equals P·Solve(K, f) iterate by iterate: CG is
        # basis-blind, in exact arithmetic.  The two numberings round
        # differently, so a stopping test near its threshold may fire one
        # iteration apart, and CG's loss of orthogonality amplifies the
        # difference mid-solve (at most 3.7e-4·‖u‖∞, at iteration 27, over
        # 2,000 seeds) before both runs settle on the solution.  So both
        # solves run a fixed 1.5·n iterations, past convergence: every
        # iterate pair stays within 1e-2·‖u‖∞, and the last pair agrees
        # to the solve's rounding.
        prob = plate_problem(5)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(prob.n)
        p = permutation_matrix(perm)
        k_perm = (p @ prob.k @ p.T).tocsr()
        f_perm = np.asarray(p @ prob.f)
        iterations = 3 * prob.n // 2

        def iterates(k, f):
            seen = []
            result = pcg(
                k, f, stopping=DeltaInfNorm(np.finfo(float).tiny),  # never fires
                maxiter=iterations,
                callback=lambda _it, u, _delta: seen.append(u.copy()),
            )
            assert result.iterations == len(seen) == iterations
            return seen

        direct, renumbered = iterates(prob.k, prob.f), iterates(k_perm, f_perm)
        for u, u_perm in zip(direct, renumbered):
            drift = np.max(np.abs(p @ u - u_perm))
            assert drift <= 1e-2 * np.max(np.abs(u_perm))
        assert np.asarray(p @ direct[-1]) == pytest.approx(
            renumbered[-1], rel=1e-6, abs=1e-9
        )

    def test_multicolor_reordering_preserves_solution(self):
        # The driver solves in multicolor ordering and un-permutes; the
        # result must satisfy the *original* system.
        prob = plate_problem(7)
        solve = solve_mstep_ssor(prob, 3, eps=1e-9)
        assert prob.k @ solve.u == pytest.approx(prob.f, abs=1e-6)


class TestScaleInvariance:
    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=10, deadline=None)
    def test_system_scaling_leaves_solution_path(self, c):
        # K → cK, f → cf: identical u-iterates, identical iterations (the
        # ‖Δu‖∞ test sees the same numbers).
        prob = plate_problem(5)
        k_scaled = (prob.k * c).tocsr()
        base = solve_mstep_ssor(prob, 2, eps=1e-7)

        class Scaled:
            k = k_scaled
            f = prob.f * c
            group_of_unknown = prob.group_of_unknown
            group_labels = prob.group_labels

        scaled = solve_mstep_ssor(Scaled(), 2, eps=1e-7)
        assert scaled.iterations == base.iterations
        assert scaled.u == pytest.approx(base.u, rel=1e-9, abs=1e-12)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_preconditioner_scaling_invariance(self, c):
        prob = plate_problem(5)
        splitting = SSORSplitting(prob.k)
        base = pcg(
            prob.k, prob.f,
            MStepPreconditioner(splitting, neumann_coefficients(3)),
            eps=1e-8,
        )
        scaled = pcg(
            prob.k, prob.f,
            MStepPreconditioner(splitting, c * neumann_coefficients(3)),
            eps=1e-8,
        )
        assert scaled.iterations == base.iterations
        assert scaled.u == pytest.approx(base.u, rel=1e-8, abs=1e-11)


class TestGeometryRobustness:
    @given(st.floats(0.2, 5.0), st.integers(4, 9), st.integers(4, 9))
    @settings(max_examples=10, deadline=None)
    def test_anisotropic_plates_still_solve(self, aspect, nrows, ncols):
        prob = plate_problem(nrows, ncols=ncols, width=aspect, height=1.0)
        solve = solve_mstep_ssor(prob, 2, eps=1e-7)
        assert solve.result.converged
        assert prob.k @ solve.u == pytest.approx(prob.f, abs=1e-5)

    @given(st.floats(0.05, 0.45))
    @settings(max_examples=8, deadline=None)
    def test_poissons_ratio_sweep(self, nu):
        from repro.fem import ElasticMaterial

        prob = plate_problem(6, material=ElasticMaterial(poissons_ratio=nu))
        solve = solve_mstep_ssor(prob, 3, eps=1e-8)
        assert solve.result.converged


class TestEnergyMonotonicity:
    def test_cg_error_decreases_in_energy_norm(self):
        # The defining CG property: ‖u − uᵏ‖_K is monotonically decreasing.
        prob = plate_problem(6)
        exact = prob.direct_solution()
        energies = []

        def track(iteration, u, delta):
            e = u - exact
            energies.append(float(e @ (prob.k @ e)))

        pcg(prob.k, prob.f, eps=1e-10, callback=track)
        assert all(
            b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:])
        )

    def test_preconditioned_cg_error_also_monotone(self):
        prob = plate_problem(6)
        exact = prob.direct_solution()
        precond = MStepPreconditioner(
            SSORSplitting(prob.k), neumann_coefficients(3)
        )
        energies = []

        def track(iteration, u, delta):
            e = u - exact
            energies.append(float(e @ (prob.k @ e)))

        pcg(prob.k, prob.f, preconditioner=precond, eps=1e-10, callback=track)
        assert all(
            b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:])
        )


class TestBlockedSystemRoundTrip:
    @given(st.integers(4, 9))
    @settings(max_examples=6, deadline=None)
    def test_blocked_reconstruction(self, a):
        # Reassembling the permuted matrix from its diagonal vectors and
        # off-diagonal blocks reproduces it exactly.
        prob = plate_problem(a)
        blocked = build_blocked_system(prob)
        n = blocked.n
        rebuilt = np.zeros((n, n))
        slices = blocked.group_slices
        for c in range(blocked.n_groups):
            rows = slices[c]
            idx = np.arange(rows.start, rows.stop)
            rebuilt[idx, idx] = blocked.diagonals[c]
            for j, block in blocked.blocks[c].items():
                rebuilt[rows, slices[j]] = block.toarray()
        assert rebuilt == pytest.approx(blocked.permuted.toarray())
