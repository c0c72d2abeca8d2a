"""block_pcg: the multi-RHS lockstep core (ISSUE 4).

The acceptance contract: ``block_pcg`` with k columns produces
per-column iterates, iteration counts, histories and operation counters
**bitwise identical** to k independent ``pcg()`` runs — including column
retirement (converged columns freeze while the rest keep iterating),
degenerate columns (f = 0), k = 1 blocks, and non-contiguous /
Fortran-ordered input blocks.
"""

import numpy as np
import pytest

from repro import plate_problem
from repro.core.mstep import IdentityPreconditioner, MStepPreconditioner
from repro.core.pcg import BlockPCGResult, block_pcg, cg, pcg
from repro.core.splittings import SSORSplitting
from repro.driver import build_blocked_system
from repro.core.polynomial import neumann_coefficients
from repro.multicolor.sor import MStepSSOR

EPS = 1e-7


@pytest.fixture(scope="module")
def system():
    problem = plate_problem(8)
    blocked = build_blocked_system(problem)
    return problem, blocked


def _applicator(blocked, coeffs, applicator="sweep"):
    """The merged sweep, or the m-step Horner over the SSOR splitting."""
    if applicator == "sweep":
        return MStepSSOR(blocked, coeffs)
    return MStepPreconditioner(SSORSplitting(blocked.permuted), coeffs)


def _rhs_block(blocked, ncols=4, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.normal(size=blocked.n) for _ in range(ncols)], axis=1
    )


def _assert_column_matches(col, solo):
    assert col.iterations == solo.iterations
    assert col.converged == solo.converged
    assert np.array_equal(col.u, solo.u)
    assert col.delta_history == solo.delta_history
    assert col.residual_history == solo.residual_history
    assert col.counter.as_dict() == solo.counter.as_dict()


class TestBitwiseAgainstIndependentRuns:
    @pytest.mark.parametrize("applicator", ["sweep", "splitting"])
    def test_preconditioned_block_matches_solo_runs(self, system, applicator):
        _, blocked = system
        coeffs = neumann_coefficients(3)
        F = _rhs_block(blocked)
        block = block_pcg(
            blocked.permuted, F,
            preconditioner=_applicator(
                blocked, coeffs, applicator=applicator
            ),
            eps=EPS,
        )
        assert block.all_converged
        for j in range(F.shape[1]):
            solo = pcg(
                blocked.permuted, np.ascontiguousarray(F[:, j]),
                preconditioner=_applicator(
                    blocked, coeffs, applicator=applicator
                ),
                eps=EPS,
            )
            _assert_column_matches(block.column(j), solo)

    def test_plain_cg_block(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=3, seed=1)
        block = block_pcg(blocked.permuted, F, eps=1e-6)
        for j in range(3):
            solo = cg(blocked.permuted, np.ascontiguousarray(F[:, j]), eps=1e-6)
            _assert_column_matches(block.column(j), solo)

    def test_columns_retire_independently(self, system):
        # Different columns converge at different iterations; the shared
        # lockstep must not drag retired columns onward.
        _, blocked = system
        rng = np.random.default_rng(3)
        F = np.stack(
            [rng.normal(size=blocked.n),
             1e4 * rng.normal(size=blocked.n),
             1e-4 * rng.normal(size=blocked.n)],
            axis=1,
        )
        block = block_pcg(
            blocked.permuted, F,
            preconditioner=_applicator(
                blocked, neumann_coefficients(2)
            ),
            eps=EPS,
        )
        assert len(set(int(i) for i in block.iterations)) > 1
        for j in range(3):
            solo = pcg(
                blocked.permuted, np.ascontiguousarray(F[:, j]),
                preconditioner=_applicator(
                    blocked, neumann_coefficients(2)
                ),
                eps=EPS,
            )
            _assert_column_matches(block.column(j), solo)


class TestRetirementEdgeCases:
    """The ISSUE's named edge cases."""

    def test_k1_block_is_bitwise_the_scalar_pcg(self, system):
        problem, blocked = system
        f = blocked.ordering.permute_vector(np.asarray(problem.f, float))
        coeffs = neumann_coefficients(3)
        block = block_pcg(
            blocked.permuted, f[:, None],
            preconditioner=_applicator(blocked, coeffs),
            eps=EPS, track_residual=True,
        )
        solo = pcg(
            blocked.permuted, f,
            preconditioner=_applicator(blocked, coeffs),
            eps=EPS, track_residual=True,
        )
        assert block.k == 1
        _assert_column_matches(block.column(0), solo)

    def test_zero_column_mixed_with_hard_columns(self, system):
        # An already-converged RHS (f = 0) retires on iteration 1 with
        # rho == 0 while a hard RHS keeps iterating — exactly as solo.
        _, blocked = system
        rng = np.random.default_rng(5)
        F = np.stack(
            [np.zeros(blocked.n), 100.0 * rng.normal(size=blocked.n)],
            axis=1,
        )
        block = block_pcg(
            blocked.permuted, F,
            preconditioner=_applicator(
                blocked, neumann_coefficients(2)
            ),
            eps=EPS,
        )
        assert int(block.iterations[0]) == 1
        assert bool(block.converged[0])
        assert int(block.iterations[1]) > 1
        for j in range(2):
            solo = pcg(
                blocked.permuted, np.ascontiguousarray(F[:, j]),
                preconditioner=_applicator(
                    blocked, neumann_coefficients(2)
                ),
                eps=EPS,
            )
            _assert_column_matches(block.column(j), solo)

    def test_fortran_ordered_and_strided_inputs(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=3, seed=7)
        precond = lambda: _applicator(  # noqa: E731
            blocked, neumann_coefficients(2)
        )
        reference = block_pcg(blocked.permuted, F, preconditioner=precond(),
                              eps=EPS)
        fortran = block_pcg(
            blocked.permuted, np.asfortranarray(F), preconditioner=precond(),
            eps=EPS,
        )
        wide = np.zeros((blocked.n, 6))
        wide[:, ::2] = F
        strided = block_pcg(
            blocked.permuted, wide[:, ::2], preconditioner=precond(), eps=EPS
        )
        for other in (fortran, strided):
            assert np.array_equal(other.u, reference.u)
            assert np.array_equal(other.iterations, reference.iterations)
            for j in range(3):
                assert (
                    other.counters[j].as_dict()
                    == reference.counters[j].as_dict()
                )


class TestResultObject:
    def test_maxiter_cap_per_column(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=2, seed=9)
        block = block_pcg(blocked.permuted, F, eps=1e-14, maxiter=3)
        assert list(block.iterations) == [3, 3]
        assert not block.all_converged
        solo = cg(blocked.permuted, np.ascontiguousarray(F[:, 0]),
                  eps=1e-14, maxiter=3)
        _assert_column_matches(block.column(0), solo)

    def test_identity_preconditioner_counters_per_column(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=3, seed=11)
        m = IdentityPreconditioner()
        block = block_pcg(blocked.permuted, F, preconditioner=m, eps=1e-6)
        total = sum(c.precond_applications for c in block.counters)
        assert total == m.counter.precond_applications

    def test_validation(self, system):
        _, blocked = system
        with pytest.raises(ValueError):
            block_pcg(blocked.permuted, np.zeros(blocked.n))  # 1-D rejected
        with pytest.raises(ValueError):
            block_pcg(blocked.permuted, np.zeros((blocked.n + 1, 2)))

    def test_result_is_a_block_result(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=2, seed=13)
        block = block_pcg(blocked.permuted, F, eps=1e-6)
        assert isinstance(block, BlockPCGResult)
        assert block.k == 2
        assert str(block)

    def test_padded_block_apply_matches_solos_and_counters(self, system):
        # The machine lockstep's shared-applicator trick: one apply over
        # cells of different m via top-zero-padded schedules, results AND
        # counters per column identical to solo applications.
        from repro.core.mstep import MStepPreconditioner
        from repro.core.splittings import SSORSplitting

        _, blocked = system
        rng = np.random.default_rng(21)
        R = np.ascontiguousarray(rng.normal(size=(blocked.n, 2)))
        short = np.array([1.3, 0.4])          # m = 2
        long = np.array([1.0, 0.9, 0.5, 0.2])  # m = 4
        padded = np.zeros((4, 2))
        padded[:2, 0] = short
        padded[:, 1] = long

        shared = MStepPreconditioner(
            SSORSplitting(blocked.permuted), np.ones(1)
        )
        out = np.array(
            shared.apply(R, coefficients=padded, column_steps=[2, 4])
        )
        expected_counts = None
        for j, schedule in enumerate((short, long)):
            solo = MStepPreconditioner(
                SSORSplitting(blocked.permuted), schedule
            )
            col = solo.apply(np.ascontiguousarray(R[:, j]))
            assert np.array_equal(out[:, j], col)
            if expected_counts is None:
                expected_counts = solo.counter.as_dict()
            else:
                for key, value in solo.counter.as_dict().items():
                    expected_counts[key] = expected_counts.get(key, 0) + value
        # Padding steps processed only zeros and charged nothing.
        assert shared.counter.as_dict() == expected_counts

    def test_u0_broadcast_and_block(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=2, seed=15)
        u0 = np.full(blocked.n, 0.1)
        block = block_pcg(blocked.permuted, F, u0=u0, eps=1e-6)
        for j in range(2):
            solo = cg(blocked.permuted, np.ascontiguousarray(F[:, j]),
                      u0=u0, eps=1e-6)
            _assert_column_matches(block.column(j), solo)
