"""Tests for the CYBER 203/205 simulator (§3.1)."""

import numpy as np
import pytest

from repro import plate_problem, solve_mstep_ssor
from repro.driver import build_blocked_system, mstep_coefficients, ssor_interval
from repro.kernels import ops
from repro.machines import CYBER_203, CYBER_205, CyberMachine


@pytest.fixture(scope="module")
def plate():
    return plate_problem(8)


@pytest.fixture(scope="module")
def machine(plate):
    return CyberMachine(plate)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


@pytest.fixture(scope="module")
def interval(blocked):
    return ssor_interval(blocked)


class TestLayout:
    def test_padded_vector_length_includes_constrained(self, plate, machine):
        # v ≈ a(b+1)/3: the whole point of numbering the constrained nodes.
        mesh = plate.mesh
        assert machine.max_vector_length == mesh.max_vector_length()
        assert machine.max_vector_length > mesh.a * mesh.b / 3

    def test_diagonal_counts_within_paper_bound(self, machine):
        # ≤ 14 diagonals per block row (the Figure-2 stencil by diagonals);
        # the uniform isotropic mesh cancels two of them exactly.
        counts = machine.diagonal_counts()
        assert set(counts) == {"Ru", "Rv", "Bu", "Bv", "Gu", "Gv"}
        for label, n_diags in counts.items():
            assert n_diags <= 14, label
            assert n_diags >= 10, label

    def test_cross_color_blocks_have_few_diagonals(self, machine):
        for c in range(6):
            for j, storage in machine.blocks[c].items():
                assert storage.n_diagonals <= 3, (c, j)

    def test_free_mask_matches_constraint_count(self, plate, machine):
        assert int(machine.free_mask.sum()) == plate.n
        assert machine.free_mask.size == 2 * plate.mesh.n_nodes

    def test_storage_report(self, plate, machine):
        report = machine.storage_report()
        n_padded = 2 * plate.mesh.n_nodes
        # Matrix words ≤ 14 per padded equation (Figure-2 stencil bound);
        # diagonals truncate at block edges so strictly fewer in practice.
        assert report["matrix_words"] <= 14 * n_padded
        assert report["matrix_words"] >= 8 * n_padded
        assert report["vector_words"] == 6 * n_padded
        assert report["total_words"] == (
            report["matrix_words"] + report["vector_words"]
        )
        assert 14 <= report["words_per_equation"] <= 20


class TestNumericalEquivalence:
    @pytest.mark.parametrize(
        "m, parametrized", [(0, False), (1, False), (2, False), (3, True), (5, True)]
    )
    def test_matches_reference_solver(
        self, plate, machine, blocked, interval, m, parametrized
    ):
        coeffs = mstep_coefficients(m, parametrized, interval) if m else None
        sim = machine.solve(m, coeffs, eps=1e-6)
        ref = solve_mstep_ssor(
            plate, m, parametrized=parametrized, interval=interval,
            blocked=blocked, eps=1e-6,
        )
        assert sim.converged
        # Identical math modulo padded-vector summation order: iteration
        # counts may differ by one near the threshold.
        assert abs(sim.iterations - ref.iterations) <= 1
        assert sim.u_natural == pytest.approx(ref.u, rel=1e-4, abs=1e-8)

    def test_solution_solves_system(self, plate, machine):
        sim = machine.solve(3, np.ones(3), eps=1e-8)
        resid = np.max(np.abs(plate.f - plate.k @ sim.u_natural))
        assert resid < 1e-6

    def test_constrained_slots_stay_zero(self, plate, machine):
        sim = machine.solve(2, np.ones(2), eps=1e-8)
        # The natural solution excludes them; re-check via the mask invariant
        # by solving once more and examining the padded result through the
        # matvec: masked rows contribute nothing.
        assert sim.u_natural.shape == (plate.n,)


def by_diagonals(machine, x):
    """``K x`` as the machine's multiply-add streams sum it: ``diag·x``
    first, then each block's stored diagonals in storage order, with the
    constrained rows set to 0."""
    def rows(v):
        return v if x.ndim == 1 else v[:, None]

    out = np.empty_like(x)
    for c, sc in enumerate(machine.slices):
        acc = out[sc]
        np.multiply(x[sc], rows(machine.diagonals[c]), out=acc)
        for j, storage in machine.blocks[c].items():
            xj = x[machine.slices[j]]
            for k, start, stop, seg in storage.terms:
                acc[start:stop] += rows(seg) * xj[start + k : stop + k]
    out[~machine.free_mask] = 0.0
    return out


class TestProductByDiagonals:
    """Every K·p runs on ``machine.k`` through the shared CSR product,
    whose rows list their entries in by-diagonals order."""

    @pytest.fixture(scope="class", params=[12, 20, 41])
    def sized(self, request):
        return CyberMachine(plate_problem(request.param))

    @pytest.mark.parametrize("width", [1, 2, 5, 8, 13])
    def test_csr_product_is_the_by_diagonals_sum(self, sized, width):
        rng = np.random.default_rng(width)
        x = rng.normal(size=(sized.n_padded,) if width == 1 else (sized.n_padded, width))
        flat = x.reshape(-1)
        plant = rng.random(flat.size)
        flat[plant < 0.1] = 0.0
        flat[plant > 0.9] = -0.0
        got = ops.matvec_into(sized.k, x, np.empty_like(x))
        assert got.tobytes() == by_diagonals(sized, x).tobytes()

    def test_a_row_of_negative_zero_products_sums_to_positive_zero(self):
        # The one input where the two differ.  The streams start the row
        # at diag·x = −0 and keep it; the CSR row starts at +0.0, and
        # +0 + −0 = +0.
        machine = CyberMachine(plate_problem(12))
        row = 144
        assert machine.free_mask[row]
        k = machine.k
        span = slice(k.indptr[row], k.indptr[row + 1])
        x = np.ones(machine.n_padded)
        # Each product of the row is −0: x's zero takes the other sign.
        x[k.indices[span]] = np.copysign(0.0, -np.copysign(1.0, k.data[span]))
        got = ops.matvec_into(k, x, np.empty_like(x))
        ref = by_diagonals(machine, x)
        assert ref[row] == 0.0 and np.signbit(ref[row])
        assert got[row] == 0.0 and not np.signbit(got[row])
        others = np.arange(machine.n_padded) != row
        assert got[others].tobytes() == ref[others].tobytes()


class TestTiming:
    def test_inner_products_visible_in_breakdown(self, machine):
        res = machine.solve(0, eps=1e-6)
        kinds = dict(res.op_breakdown)
        assert "dot" in kinds and "diag_madd" in kinds
        n_dots, dot_seconds = kinds["dot"]
        # 2 per iteration + startup − final-iteration skip (Algorithm 1).
        assert n_dots == 2 * res.iterations
        assert dot_seconds > 0

    def test_preconditioner_seconds_split(self, machine):
        res = machine.solve(4, np.ones(4), eps=1e-6)
        assert 0 < res.preconditioner_seconds < res.seconds
        assert res.outer_seconds == pytest.approx(
            res.seconds - res.preconditioner_seconds
        )
        none = machine.solve(0, eps=1e-6)
        assert none.preconditioner_seconds == 0.0

    def test_faster_machine_is_faster(self, plate):
        res203 = CyberMachine(plate, CYBER_203).solve(2, np.ones(2), eps=1e-6)
        res205 = CyberMachine(plate, CYBER_205).solve(2, np.ones(2), eps=1e-6)
        assert res205.iterations == res203.iterations  # same math
        assert res205.seconds < res203.seconds

    def test_labels(self, machine, interval):
        assert machine.solve(0, eps=1e-4).label == "0"
        assert machine.solve(2, np.ones(2), eps=1e-4).label == "2"
        coeffs = mstep_coefficients(2, True, interval)
        assert machine.solve(2, coeffs, eps=1e-4).label == "2P"


class TestPaperObservations:
    """Table 2's two observations, on a reduced mesh for test speed."""

    def test_parametrized_beats_unparametrized(self, machine, interval):
        for m in (2, 3):
            plain = machine.solve(m, np.ones(m), eps=1e-6)
            fitted = machine.solve(m, mstep_coefficients(m, True, interval), eps=1e-6)
            assert fitted.iterations <= plain.iterations
            assert fitted.seconds <= plain.seconds

    def test_preconditioning_reduces_both_iterations_and_time(
        self, machine, interval
    ):
        base = machine.solve(0, eps=1e-6)
        best = machine.solve(4, mstep_coefficients(4, True, interval), eps=1e-6)
        assert best.iterations < base.iterations / 2
        assert best.seconds < base.seconds
