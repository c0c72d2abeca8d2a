"""Tests for the real SPMD execution engine.

The engine distributes data and messages for real; these tests prove
(1) every distributed product, sweep and solve is bitwise the serial one,
(2) results are therefore independent of the processor count,
(3) the *measured* message ledger matches the static border counts that
    the FiniteElementMachine cost model charges — cross-validating the
    Table-3 cost model through an independent code path,
(4) solves end where they always have: iteration counts, convergence and
    every ledger field are pinned as literals.
"""

import numpy as np
import pytest

from repro import plate_problem, solve_mstep_ssor
from repro.driver import build_blocked_system, mstep_coefficients, ssor_interval
from repro.machines import Assignment, FiniteElementMachine, ProcessorGrid
from repro.machines.spmd import SPMDSolver


@pytest.fixture(scope="module")
def plate():
    return plate_problem(6)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


@pytest.fixture(scope="module")
def interval(blocked):
    return ssor_interval(blocked)


def make_solver(plate, blocked, n_procs):
    grid = ProcessorGrid.for_count(n_procs, plate.mesh)
    assignment = Assignment.rectangles(plate.mesh, grid)
    return SPMDSolver(plate, assignment, blocked=blocked)


class TestDistributedCorrectness:
    @pytest.mark.parametrize("n_procs", [1, 2, 5])
    @pytest.mark.parametrize("m, par", [(0, False), (1, False), (3, True)])
    def test_matches_reference(self, plate, blocked, interval, n_procs, m, par):
        solver = make_solver(plate, blocked, n_procs)
        coeffs = mstep_coefficients(m, par, interval) if m else None
        sim = solver.solve(m, coeffs, eps=1e-6)
        ref = solve_mstep_ssor(
            plate, m, parametrized=par, interval=interval, blocked=blocked, eps=1e-6
        )
        assert sim.converged
        # Local rows sum in the global stored order: bitwise the serial solve.
        assert sim.iterations == ref.iterations
        assert np.array_equal(sim.u_natural, ref.u)

    @pytest.mark.parametrize("n_procs", [2, 3, 5])
    def test_solution_solves_system(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        sim = solver.solve(2, np.ones(2), eps=1e-8)
        resid = np.max(np.abs(plate.f - plate.k @ sim.u_natural))
        assert resid < 1e-6

    def test_scatter_gather_roundtrip(self, plate, blocked):
        solver = make_solver(plate, blocked, 5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=solver.n)
        assert np.array_equal(solver.gather(solver.scatter(x)), x)

    def test_distributed_matvec_matches_global(self, plate, blocked):
        solver = make_solver(plate, blocked, 5)
        rng = np.random.default_rng(1)
        x = rng.normal(size=solver.n)
        xd = solver.scatter(x)
        yd = solver.matvec(xd, solver.new_halos())
        assert np.array_equal(solver.gather(yd), blocked.permuted @ x)

    def test_distributed_precondition_matches_mstep_ssor(
        self, plate, blocked, interval
    ):
        from repro.multicolor import MStepSSOR

        solver = make_solver(plate, blocked, 5)
        coeffs = mstep_coefficients(3, True, interval)
        rng = np.random.default_rng(2)
        r = rng.normal(size=solver.n)
        rd = solver.scatter(r)
        rtd = solver.precondition(coeffs, rd)
        expected = MStepSSOR(blocked, coeffs).apply(r)
        assert np.array_equal(solver.gather(rtd), expected)

    def test_single_processor_has_no_messages(self, plate, blocked):
        solver = make_solver(plate, blocked, 1)
        sim = solver.solve(2, np.ones(2), eps=1e-6)
        assert sim.converged
        assert sim.ledger.total_words == 0

    def test_consecutive_solves_report_equal_ledgers(self, plate, blocked):
        # Every result owns its ledger: a second solve on the same solver
        # reports its own traffic, not the running total of both.
        solver = make_solver(plate, blocked, 4)
        first = solver.solve(2, np.ones(2), eps=1e-6)
        second = solver.solve(2, np.ones(2), eps=1e-6)
        assert first.ledger is not second.ledger
        assert second.ledger.words_by_kind == first.ledger.words_by_kind
        assert second.ledger.words_by_pair == first.ledger.words_by_pair
        assert second.ledger.messages == first.ledger.messages


class TestLedgerCrossValidation:
    """Measured SPMD traffic == static counts charged by the cost model."""

    @pytest.mark.parametrize("n_procs", [2, 5])
    def test_p_exchange_words_match_static_model(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        machine = FiniteElementMachine(plate, solver.assignment, blocked=blocked)
        # one matvec = one full halo exchange
        xd = solver.scatter(np.ones(solver.n))
        solver.matvec(xd, solver.new_halos())
        measured = dict(solver.ledger.words_by_pair)
        assert measured == machine._kp_exchange_words

    @pytest.mark.parametrize("n_procs", [2, 5])
    def test_precondition_words_match_static_model(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        machine = FiniteElementMachine(plate, solver.assignment, blocked=blocked)
        m = 3
        rd = solver.scatter(np.ones(solver.n))
        solver.precondition(np.ones(m), rd)
        measured_fwd = solver.ledger.words_by_kind.get("precond_fwd", 0)
        measured_bwd = solver.ledger.words_by_kind.get("precond_bwd", 0)
        static_fwd = m * sum(sum(w) for w in machine._fwd_words.values())
        static_bwd = m * sum(sum(w) for w in machine._bwd_words.values())
        assert measured_fwd == static_fwd
        assert measured_bwd == static_bwd

    def test_halo_is_node_granular(self, plate, blocked):
        # Both dofs of a referenced border node are in the halo (packaged
        # records), even where an exact stiffness cancellation drops one
        # coupling from the sparsity.
        solver = make_solver(plate, blocked, 5)
        mesh = plate.mesh
        ordering = blocked.ordering
        node_of_mc = mesh.dof_node[ordering.perm]
        for p in range(solver.n_procs):
            halo_nodes, counts = np.unique(
                node_of_mc[solver.halo_idx[p]], return_counts=True
            )
            assert np.all(counts == 2), f"proc {p} has a half-node halo"

    def test_iterations_invariant_across_procs(self, plate, blocked, interval):
        coeffs = mstep_coefficients(2, True, interval)
        iters = set()
        for n_procs in (1, 2, 5):
            solver = make_solver(plate, blocked, n_procs)
            iters.add(solver.solve(2, coeffs, eps=1e-6).iterations)
        assert len(iters) == 1


#: Literal α of the non-unit m = 3 cell.  It sits near the plate's fitted
#: parametrized schedule but is typed in, so no least-squares fit (whose
#: bits depend on the BLAS kernel) can move a pin.
ALPHA3 = (1.2474, -2.4682, 8.6942)

#: Per system (plate a, processor grid), per cell (name, maxiter):
#: iterations, converged, ``words_by_kind``, ``words_by_pair`` and
#: ``messages`` of one :meth:`SPMDSolver.solve` at ε = 1e-6.
SOLVE_PINS = {
    (6, (1, 1)): {
        ("m0", None): (47, True, {}, {}, 0),
        ("m1", None): (21, True, {}, {}, 0),
        ("m3", None): (13, True, {}, {}, 0),
        ("m3-alpha", None): (10, True, {}, {}, 0),
        ("m3-alpha", 4): (4, False, {}, {}, 0),
    },
    (6, (2, 1)): {
        ("m0", None): (
            47, True, {"p_exchange": 940},
            {(0, 1): 470, (1, 0): 470}, 94,
        ),
        ("m1", None): (
            21, True, {"p_exchange": 420, "precond_bwd": 294, "precond_fwd": 420},
            {(0, 1): 546, (1, 0): 588}, 252,
        ),
        ("m3", None): (
            13, True, {"p_exchange": 260, "precond_bwd": 546, "precond_fwd": 780},
            {(0, 1): 754, (1, 0): 832}, 416,
        ),
        ("m3-alpha", None): (
            10, True, {"p_exchange": 200, "precond_bwd": 420, "precond_fwd": 600},
            {(0, 1): 580, (1, 0): 640}, 320,
        ),
        ("m3-alpha", 4): (
            4, False, {"p_exchange": 80, "precond_bwd": 210, "precond_fwd": 300},
            {(0, 1): 280, (1, 0): 310}, 158,
        ),
    },
    (6, (1, 5)): {
        ("m0", None): (
            47, True, {"p_exchange": 4512},
            {
                (0, 1): 564, (1, 0): 564, (1, 2): 564, (2, 1): 564,
                (2, 3): 564, (3, 2): 564, (3, 4): 564, (4, 3): 564,
            }, 376,
        ),
        ("m1", None): (
            21, True, {"p_exchange": 2016, "precond_bwd": 1344, "precond_fwd": 2016},
            {
                (0, 1): 672, (1, 0): 672, (1, 2): 672, (2, 1): 672,
                (2, 3): 672, (3, 2): 672, (3, 4): 672, (4, 3): 672,
            }, 1008,
        ),
        ("m3", None): (
            13, True, {"p_exchange": 1248, "precond_bwd": 2496, "precond_fwd": 3744},
            {
                (0, 1): 936, (1, 0): 936, (1, 2): 936, (2, 1): 936,
                (2, 3): 936, (3, 2): 936, (3, 4): 936, (4, 3): 936,
            }, 1664,
        ),
        ("m3-alpha", None): (
            10, True, {"p_exchange": 960, "precond_bwd": 1920, "precond_fwd": 2880},
            {
                (0, 1): 720, (1, 0): 720, (1, 2): 720, (2, 1): 720,
                (2, 3): 720, (3, 2): 720, (3, 4): 720, (4, 3): 720,
            }, 1280,
        ),
        ("m3-alpha", 4): (
            4, False, {"p_exchange": 384, "precond_bwd": 960, "precond_fwd": 1440},
            {
                (0, 1): 348, (1, 0): 348, (1, 2): 348, (2, 1): 348,
                (2, 3): 348, (3, 2): 348, (3, 4): 348, (4, 3): 348,
            }, 632,
        ),
    },
    (9, (2, 2)): {
        ("m0", None): (
            77, True, {"p_exchange": 5544},
            {
                (0, 1): 770, (0, 2): 616, (1, 0): 770, (1, 2): 154,
                (1, 3): 616, (2, 0): 616, (2, 1): 154, (2, 3): 616,
                (3, 1): 616, (3, 2): 616,
            }, 770,
        ),
        ("m1", None): (
            33, True, {"p_exchange": 2376, "precond_bwd": 1584, "precond_fwd": 2376},
            {
                (0, 1): 858, (0, 2): 660, (1, 0): 924, (1, 2): 198,
                (1, 3): 726, (2, 0): 726, (2, 1): 198, (2, 3): 726,
                (3, 1): 660, (3, 2): 660,
            }, 1782,
        ),
        ("m3", None): (
            20, True, {"p_exchange": 1440, "precond_bwd": 2880, "precond_fwd": 4320},
            {
                (0, 1): 1160, (0, 2): 880, (1, 0): 1280, (1, 2): 280,
                (1, 3): 1000, (2, 0): 1000, (2, 1): 280, (2, 3): 1000,
                (3, 1): 880, (3, 2): 880,
            }, 2840,
        ),
        ("m3-alpha", None): (
            14, True, {"p_exchange": 1008, "precond_bwd": 2016, "precond_fwd": 3024},
            {
                (0, 1): 812, (0, 2): 616, (1, 0): 896, (1, 2): 196,
                (1, 3): 700, (2, 0): 700, (2, 1): 196, (2, 3): 700,
                (3, 1): 616, (3, 2): 616,
            }, 1988,
        ),
        ("m3-alpha", 4): (
            4, False, {"p_exchange": 288, "precond_bwd": 720, "precond_fwd": 1080},
            {
                (0, 1): 280, (0, 2): 212, (1, 0): 310, (1, 2): 68,
                (1, 3): 242, (2, 0): 242, (2, 1): 68, (2, 3): 242,
                (3, 1): 212, (3, 2): 212,
            }, 700,
        ),
    },
}


def _cell_alpha(name, m):
    if m == 0:
        return None
    return np.array(ALPHA3) if name == "m3-alpha" else np.ones(m)


class TestSolvePins:
    @pytest.fixture(
        scope="class", params=list(SOLVE_PINS),
        ids=lambda key: f"a{key[0]}-{key[1][0]}x{key[1][1]}",
    )
    def system(self, request):
        a, grid = request.param
        plate = plate_problem(a)
        assignment = Assignment.rectangles(plate.mesh, ProcessorGrid(*grid))
        solver = SPMDSolver(plate, assignment, blocked=build_blocked_system(plate))
        return solver, SOLVE_PINS[request.param]

    @pytest.mark.parametrize(
        "name, m, maxiter",
        [("m0", 0, None), ("m1", 1, None), ("m3", 3, None),
         ("m3-alpha", 3, None), ("m3-alpha", 3, 4)],
    )
    def test_solve_matches_pin(self, system, name, m, maxiter):
        solver, pins = system
        result = solver.solve(m, _cell_alpha(name, m), eps=1e-6, maxiter=maxiter)
        iterations, converged, by_kind, by_pair, messages = pins[(name, maxiter)]
        assert result.iterations == iterations
        assert result.converged is converged
        assert result.ledger.words_by_kind == by_kind
        assert result.ledger.words_by_pair == by_pair
        assert result.ledger.messages == messages
