"""The SPMD engine across every processor grid in a range, exhaustively.

Every distributed product, sweep and solve is bitwise the serial one on
every grid, on the plate's R/B/G coloring and on the greedy colorings of
the irregular domains alike.
"""

import numpy as np
import pytest

from repro import plate_problem
from repro.driver import build_blocked_system, solve_mstep_ssor
from repro.machines import Assignment, ProcessorGrid
from repro.machines.spmd import SPMDSolver
from repro.pipeline.problems import scenario


@pytest.fixture(scope="module")
def plate():
    return plate_problem(9)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


class TestArbitraryGrids:
    @pytest.mark.parametrize("pcols", [1, 2, 3, 4])
    @pytest.mark.parametrize("prows", [1, 2, 3])
    def test_any_grid_solves(self, plate, blocked, prows, pcols):
        grid = ProcessorGrid(prows, pcols)
        assignment = Assignment.rectangles(plate.mesh, grid)
        solver = SPMDSolver(plate, assignment, blocked=blocked)
        sim = solver.solve(2, np.ones(2), eps=1e-7)
        assert sim.converged
        resid = np.max(np.abs(plate.f - plate.k @ sim.u_natural))
        assert resid < 1e-5

    @pytest.mark.parametrize("pcols", [1, 2, 3])
    @pytest.mark.parametrize("prows", [1, 2, 3])
    def test_matvec_exact_on_any_grid(self, plate, blocked, prows, pcols):
        grid = ProcessorGrid(prows, pcols)
        assignment = Assignment.rectangles(plate.mesh, grid)
        solver = SPMDSolver(plate, assignment, blocked=blocked)
        rng = np.random.default_rng(prows * 10 + pcols)
        x = rng.normal(size=solver.n)
        yd = solver.matvec(solver.scatter(x), solver.new_halos())
        assert np.array_equal(solver.gather(yd), blocked.permuted @ x)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("pcols", [2, 3])
    @pytest.mark.parametrize("prows", [2, 3])
    def test_precondition_matches_reference_on_2d_grids(
        self, plate, blocked, prows, pcols, m
    ):
        from repro.multicolor import MStepSSOR

        grid = ProcessorGrid(prows, pcols)
        assignment = Assignment.rectangles(plate.mesh, grid)
        solver = SPMDSolver(plate, assignment, blocked=blocked)
        rng = np.random.default_rng(m)
        r = rng.normal(size=solver.n)
        rtd = solver.precondition(np.ones(m), solver.scatter(r))
        expected = MStepSSOR(blocked, np.ones(m)).apply(r)
        assert np.array_equal(solver.gather(rtd), expected)

    # lshape and perforated are greedily multicolored.
    @pytest.mark.parametrize("domain", ["plate", "lshape", "perforated"])
    def test_2d_grid_solution_matches_driver(self, domain):
        spec = scenario(domain)
        problem = spec.build(**{spec.size_param: 9})
        blocked = build_blocked_system(problem)
        grid = ProcessorGrid(2, 2)
        assignment = Assignment.rectangles(problem.mesh, grid)
        solver = SPMDSolver(problem, assignment, blocked=blocked)
        sim = solver.solve(3, np.ones(3), eps=1e-8)
        ref = solve_mstep_ssor(problem, 3, blocked=blocked, eps=1e-8)
        assert sim.iterations == ref.iterations
        assert sim.converged is ref.result.converged
        assert np.array_equal(sim.u_natural, ref.u)

    def test_diagonal_proc_neighbors_get_messages(self, plate, blocked):
        # A 2×2 grid has NW/SE diagonal processor pairs under the '/'
        # stencil; the plans must include them.
        grid = ProcessorGrid(2, 2)
        assignment = Assignment.rectangles(plate.mesh, grid)
        solver = SPMDSolver(plate, assignment, blocked=blocked)
        pairs = {(plan.src, plan.dst) for plan in solver.plans}
        # procs: 0=SW, 1=SE, 2=NW, 3=NE; '/' couples SE↔NW (1↔2) but the
        # NE/SW pair (0↔3) only if their rectangles touch diagonally the
        # other way — which the stencil forbids.
        assert (1, 2) in pairs and (2, 1) in pairs
        assert (0, 3) not in pairs and (3, 0) not in pairs
