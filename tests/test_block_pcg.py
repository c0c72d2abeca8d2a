"""block_pcg: the one Algorithm-1 loop, resident-block lockstep.

The acceptance contract: every column of a ``block_pcg`` solve — iterate,
iteration count, histories and operation counters — is **bitwise** the
column solved alone by Algorithm 1.  The reference here is
:func:`algorithm1`, the loop written out on :func:`repro.util.inner`, so
the pins do not compare ``block_pcg`` with itself (``pcg`` is its
one-column case).  Covered: column retirement (converged columns leave
the resident block while the rest keep iterating), breakdown next to live
columns, several columns retiring in one iteration out of column order,
degenerate columns (f = 0), k = 1 blocks, ``u0`` blocks, residual rules
with tracking, non-contiguous / Fortran-ordered input blocks, and blocks
wider than 8 columns, which run as consecutive lockstep groups of 8.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro import plate_problem
from repro.core.convergence import AbsoluteResidual, DeltaInfNorm, RelativeResidual
from repro.core.mstep import IdentityPreconditioner, MStepPreconditioner
from repro.core.pcg import BlockPCGResult, PCGResult, block_pcg, cg, pcg
from repro.core.splittings import SSORSplitting
from repro.driver import build_blocked_system
from repro.core.polynomial import neumann_coefficients
from repro.multicolor.sor import MStepSSOR
from repro.util import OperationCounter, inner

EPS = 1e-7


def algorithm1(k, f, precond=None, u0=None, rule=None, eps=EPS, maxiter=None,
               track_residual=False) -> PCGResult:
    """Algorithm 1 for one right-hand side, spelled out on ``inner``."""
    n = f.shape[0]
    rule = rule or DeltaInfNorm(eps)
    maxiter = 5 * n + 100 if maxiter is None else maxiter
    precond = precond or IdentityPreconditioner()
    before = precond.counter.as_dict()
    c = OperationCounter(matvecs=1, inner_products=1)
    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    r = f - k @ u
    rt = np.array(precond.apply(r))
    p, rho, f_norm = rt.copy(), inner(rt, r), math.sqrt(inner(f, f))
    deltas, residuals = [], [math.sqrt(inner(r, r))] if track_residual else []
    it, converged = 0, False
    for it in range(1, maxiter + 1):
        kp = k @ p
        denom = inner(p, kp)
        c.matvecs, c.inner_products = c.matvecs + 1, c.inner_products + 1
        if denom <= 0.0:
            converged = rho == 0.0
            break
        alpha = rho / denom
        u, c.axpys = u + alpha * p, c.axpys + 1
        deltas.append(float(np.max(np.abs(alpha * p))))
        if not rule.needs_residual and rule.converged(deltas[-1], r, f_norm):
            converged = True
            break
        r, c.axpys = r - alpha * kp, c.axpys + 1
        if track_residual:
            residuals.append(math.sqrt(inner(r, r)))
        if rule.needs_residual and rule.converged(deltas[-1], r, f_norm):
            converged = True
            break
        rt = np.array(precond.apply(r))
        rho_new, c.inner_products = inner(rt, r), c.inner_products + 1
        p, c.axpys = rt + (rho_new / rho) * p, c.axpys + 1
        rho = rho_new
    for key, value in precond.counter.as_dict().items():
        delta = value - before.get(key, 0)
        if key in ("precond_applications", "precond_steps"):
            setattr(c, key, delta)
        elif delta and key not in ("inner_products", "matvecs", "axpys"):
            c.extra[key] = delta
    return PCGResult(u, it, converged, deltas, residuals, c)


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


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _assert_column_matches(col, solo):
    assert col.iterations == solo.iterations
    assert col.converged == solo.converged
    assert _bits(col.u) == _bits(solo.u)
    assert _bits(col.delta_history) == _bits(solo.delta_history)
    assert _bits(col.residual_history) == _bits(solo.residual_history)
    assert col.counter.as_dict() == solo.counter.as_dict()


def _assert_block_matches_oracle(block, k, F, precond=None, **options):
    """Every column of ``block`` against ``algorithm1`` on that column."""
    for j in range(F.shape[1]):
        solo = algorithm1(
            k, np.ascontiguousarray(F[:, j]),
            precond=None if precond is None else precond(), **options,
        )
        _assert_column_matches(block.column(j), solo)


class TestBitwiseAgainstIndependentRuns:
    @pytest.mark.parametrize("applicator", ["sweep", "splitting"])
    def test_preconditioned_block_matches_solo_runs(self, system, applicator):
        _, blocked = system
        coeffs = neumann_coefficients(3)
        F = _rhs_block(blocked)
        block = block_pcg(
            blocked.permuted, F,
            preconditioner=_applicator(blocked, coeffs, applicator=applicator),
            eps=EPS,
        )
        assert block.all_converged
        _assert_block_matches_oracle(
            block, blocked.permuted, F,
            precond=lambda: _applicator(blocked, coeffs, applicator=applicator),
        )

    def test_plain_cg_block(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=3, seed=1)
        block = block_pcg(blocked.permuted, F, eps=1e-6)
        _assert_block_matches_oracle(block, blocked.permuted, F, eps=1e-6)
        for j in range(3):  # cg is the same loop on one column
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
            preconditioner=_applicator(blocked, neumann_coefficients(2)),
            eps=EPS,
        )
        assert len(set(int(i) for i in block.iterations)) > 1
        _assert_block_matches_oracle(
            block, blocked.permuted, F,
            precond=lambda: _applicator(blocked, neumann_coefficients(2)),
        )


class TestRetirementEdgeCases:
    """Breakdown, simultaneous and out-of-order retirement, degenerate
    columns, one-column blocks and foreign memory orders."""

    def test_k1_block_is_bitwise_the_scalar_pcg(self, system):
        problem, blocked = system
        f = blocked.ordering.permute_vector(np.asarray(problem.f, float))
        coeffs = neumann_coefficients(3)
        block = block_pcg(
            blocked.permuted, f[:, None],
            preconditioner=_applicator(blocked, coeffs),
            eps=EPS, track_residual=True,
        )
        solo = algorithm1(
            blocked.permuted, f, precond=_applicator(blocked, coeffs),
            track_residual=True,
        )
        assert block.k == 1
        _assert_column_matches(block.column(0), solo)
        seen = []
        single = pcg(
            blocked.permuted, f, preconditioner=_applicator(blocked, coeffs),
            eps=EPS, track_residual=True,
            callback=lambda it, u, d: seen.append((it, d, u[0])),
        )
        _assert_column_matches(single, solo)
        assert [d for _, d, _ in seen] == solo.delta_history
        assert [it for it, _, _ in seen] == list(range(1, solo.iterations + 1))

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
            preconditioner=_applicator(blocked, neumann_coefficients(2)),
            eps=EPS,
        )
        assert int(block.iterations[0]) == 1
        assert bool(block.converged[0])
        assert int(block.iterations[1]) > 1
        _assert_block_matches_oracle(
            block, blocked.permuted, F,
            precond=lambda: _applicator(blocked, neumann_coefficients(2)),
        )

    def test_breakdown_column_next_to_live_ones(self):
        # K has one negative eigenvalue.  A load on that eigenvector
        # breaks down on iteration 1 ((p, Kp) < 0, ρ ≠ 0: not converged);
        # its neighbours on the positive part keep iterating, and the
        # survivors' first update runs after the breakdown leaves.
        n = 40
        d = np.arange(1.0, n + 1.0)
        d[-1] = -3.0
        k = sp.diags(d).tocsr()
        rng = np.random.default_rng(17)
        live = rng.normal(size=(n, 3))
        live[-1] = 0.0
        F = np.column_stack([live[:, 0], np.eye(n)[-1], live[:, 1:]])
        block = block_pcg(k, F, eps=1e-10)
        assert int(block.iterations[1]) == 1
        assert not bool(block.converged[1])
        assert block.delta_histories[1] == []
        assert all(int(block.iterations[j]) > 1 for j in (0, 2, 3))
        _assert_block_matches_oracle(block, k, F, eps=1e-10)

    def test_several_columns_retire_in_one_iteration_out_of_order(self, system):
        # Scaling a load scales every ‖Δu‖∞, so under the absolute rule
        # larger loads need more iterations and equal loads retire
        # together: here column 4 goes first, then 1 and 3 at once,
        # then 2, then 0.
        _, blocked = system
        f = np.random.default_rng(23).normal(size=blocked.n)
        F = np.column_stack([1e6 * f, 1e-2 * f, 1e2 * f, 1e-2 * f, 1e-6 * f])
        block = block_pcg(
            blocked.permuted, F,
            preconditioner=_applicator(blocked, neumann_coefficients(2)),
            eps=EPS,
        )
        its = [int(i) for i in block.iterations]
        assert its[4] < its[1] == its[3] < its[2] < its[0]
        _assert_block_matches_oracle(
            block, blocked.permuted, F,
            precond=lambda: _applicator(blocked, neumann_coefficients(2)),
        )

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
            assert _bits(other.u) == _bits(reference.u)
            assert np.array_equal(other.iterations, reference.iterations)
            for j in range(3):
                assert (
                    other.counters[j].as_dict()
                    == reference.counters[j].as_dict()
                )
        _assert_block_matches_oracle(reference, blocked.permuted, F, precond=precond)


class TestResultObject:
    def test_maxiter_cap_per_column(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=2, seed=9)
        block = block_pcg(blocked.permuted, F, eps=1e-14, maxiter=3)
        assert list(block.iterations) == [3, 3]
        assert not block.all_converged
        _assert_block_matches_oracle(
            block, blocked.permuted, F, eps=1e-14, maxiter=3
        )

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

    def test_u0_broadcast_and_block(self, system):
        _, blocked = system
        F = _rhs_block(blocked, ncols=2, seed=15)
        u0 = np.full(blocked.n, 0.1)
        block = block_pcg(blocked.permuted, F, u0=u0, eps=1e-6)
        _assert_block_matches_oracle(block, blocked.permuted, F, u0=u0, eps=1e-6)
        U0 = np.random.default_rng(25).normal(size=(blocked.n, 2)) * 1e-2
        precond = lambda: _applicator(blocked, neumann_coefficients(2))  # noqa: E731
        block = block_pcg(
            blocked.permuted, F, preconditioner=precond(), u0=np.asfortranarray(U0),
            eps=EPS,
        )
        for j in range(2):
            solo = algorithm1(
                blocked.permuted, np.ascontiguousarray(F[:, j]), precond=precond(),
                u0=U0[:, j],
            )
            _assert_column_matches(block.column(j), solo)

    @pytest.mark.parametrize(
        "rule", [RelativeResidual(1e-9), AbsoluteResidual(1e-7), DeltaInfNorm(1e-8)]
    )
    def test_residual_rules_and_tracking_on_three_columns(self, system, rule):
        _, blocked = system
        F = _rhs_block(blocked, ncols=3, seed=27)
        F[:, 2] *= 1e3
        precond = lambda: _applicator(blocked, neumann_coefficients(3))  # noqa: E731
        block = block_pcg(
            blocked.permuted, F, preconditioner=precond(), stopping=rule,
            track_residual=True,
        )
        assert block.all_converged
        _assert_block_matches_oracle(
            block, blocked.permuted, F, precond=precond, rule=rule,
            track_residual=True,
        )


@pytest.fixture(params=["compiled", "numpy"])
def kernels(request, monkeypatch):
    """The compiled kernel pack, or the numpy twins everywhere."""
    from repro.kernels import _native

    if request.param == "numpy":
        monkeypatch.setattr(_native, "_CACHE", [None])
    elif _native.load_native() is None:
        pytest.skip("no compiled kernel in this environment")
    return request.param


class TestWideBlocksRunAsGroups:
    """A block wider than 8 columns runs as consecutive lockstep groups of
    at most 8, joined into one result: every column is still bitwise the
    column solved alone, and the preconditioner and callback see the
    block's own column indices."""

    @pytest.mark.parametrize("start", ["zero", "vector", "block"])
    @pytest.mark.parametrize("width", [9, 12, 16, 17, 20])
    def test_wide_block_matches_solo_runs(self, system, kernels, width, start):
        _, blocked = system
        rng = np.random.default_rng(width)
        F = _rhs_block(blocked, ncols=width, seed=width)
        F[:, ::3] *= 1e3  # columns of one group retire at different iterations
        u0 = {
            "zero": None,
            "vector": np.full(blocked.n, 0.1),
            "block": 1e-2 * rng.normal(size=(blocked.n, width)),
        }[start]
        precond = lambda: _applicator(blocked, neumann_coefficients(3))  # noqa: E731
        block = block_pcg(
            blocked.permuted, F, preconditioner=precond(), u0=u0, eps=EPS,
            track_residual=True,
        )
        assert block.k == width and block.all_converged
        for j in range(width):
            solo = algorithm1(
                blocked.permuted, np.ascontiguousarray(F[:, j]), precond=precond(),
                u0=u0 if u0 is None or u0.ndim == 1 else u0[:, j],
                track_residual=True,
            )
            _assert_column_matches(block.column(j), solo)

    def test_breakdown_column_in_the_second_group(self, kernels):
        # The diagonal K of test_breakdown_column_next_to_live_ones, its
        # negative eigenvector loaded on column 10 of 12.
        n = 40
        d = np.arange(1.0, n + 1.0)
        d[-1] = -3.0
        k = sp.diags(d).tocsr()
        F = np.random.default_rng(19).normal(size=(n, 12))
        F[-1] = 0.0
        F[:, 10] = np.eye(n)[-1]
        block = block_pcg(k, F, eps=1e-10)
        assert int(block.iterations[10]) == 1
        assert not bool(block.converged[10])
        assert block.delta_histories[10] == []
        assert all(int(block.iterations[j]) > 1 for j in range(12) if j != 10)
        _assert_block_matches_oracle(block, k, F, eps=1e-10)

    def test_preconditioner_and_callback_see_block_columns(self, system):
        _, blocked = system
        sweep = _applicator(blocked, neumann_coefficients(2))

        class Columns:
            block_capable = True
            takes_columns = True

            def __init__(self):
                self.calls = []

            def apply(self, r, columns):
                self.calls.append(list(columns))
                return sweep.apply(r)

        F = _rhs_block(blocked, ncols=12, seed=29)
        F[:, 5] *= 1e4
        seen: dict = {}
        precond = Columns()
        block = block_pcg(
            blocked.permuted, F, preconditioner=precond, eps=EPS,
            callback=lambda it, j, u, d: seen.setdefault(j, []).append(
                (it, d, u.copy())
            ),
        )
        calls = precond.calls
        second = calls.index(list(range(8, 12)))  # the second group's start
        assert calls[0] == list(range(8))
        assert all(max(c) < 8 for c in calls[:second])
        assert all(min(c) >= 8 for c in calls[second:])
        assert sorted(seen) == list(range(12))
        for j, trace in seen.items():
            assert [it for it, _, _ in trace] == list(
                range(1, int(block.iterations[j]) + 1)
            )
            assert [d for _, d, _ in trace] == block.delta_histories[j]
            assert _bits(trace[-1][2]) == _bits(block.u[:, j])
