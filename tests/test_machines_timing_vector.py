"""Tests for the timing models and the diagonal storage."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import (
    CYBER_203,
    FEM_1983,
    ArrayTimingModel,
    DiagonalStorage,
    VectorTimingModel,
)


class TestVectorTimingModel:
    def test_paper_efficiency_quotes(self):
        # "For vectors of length 1000 around 90% efficiency is obtained, but
        #  this drops to approximately 50% ... for length 100 and 10% for
        #  vectors of length 10."
        model = CYBER_203
        assert model.efficiency(1000) == pytest.approx(0.90, abs=0.02)
        assert model.efficiency(100) == pytest.approx(0.50, abs=0.01)
        assert model.efficiency(10) == pytest.approx(0.10, abs=0.01)

    def test_op_time_grows_linearly(self):
        model = VectorTimingModel()
        t1 = model.vector_op_time(1000)
        t2 = model.vector_op_time(2000)
        assert t2 < 2 * t1  # startup amortized
        assert t2 > 1.8 * t1

    def test_zero_length_free(self):
        assert VectorTimingModel().vector_op_time(0) == 0.0
        assert VectorTimingModel().dot_time(0) == 0.0

    def test_dot_slower_than_vector_op(self):
        # "the additions of the partial sums make this operation considerably
        #  slower than the other vector operations"
        model = CYBER_203
        for n in (50, 132, 561, 2134):
            assert model.dot_time(n) > 2 * model.vector_op_time(n)

    def test_dot_relative_penalty_shrinks_with_length(self):
        model = CYBER_203
        short = model.dot_time(132) / model.vector_op_time(132)
        long = model.dot_time(2134) / model.vector_op_time(2134)
        assert long < short

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorTimingModel(element_time=0.0)


class TestArrayTimingModel:
    def test_reduction_modes(self):
        model = FEM_1983
        assert model.reduction_time(1) == 0.0
        assert model.reduction_time(8, "software") == 7 * model.ring_hop_time
        assert model.reduction_time(8, "circuit") == 3 * model.circuit_stage_time
        with pytest.raises(ValueError):
            model.reduction_time(4, "telepathy")

    def test_circuit_is_log_software_is_linear(self):
        model = FEM_1983
        soft = [model.reduction_time(p, "software") for p in (2, 16, 128)]
        circ = [model.reduction_time(p, "circuit") for p in (2, 16, 128)]
        assert soft[2] / soft[0] == pytest.approx(127.0)
        assert circ[2] / circ[0] == pytest.approx(7.0)

    def test_record_time_structure(self):
        model = ArrayTimingModel()
        assert model.record_time(0) == 0.0
        assert model.record_time(10) == pytest.approx(
            model.record_latency + 10 * model.word_time
        )

    def test_minute_scale_single_processor(self):
        # Sanity of the calibration: ~2000 flops/iteration × ~48 iterations
        # of the 60-equation problem lands in Table 3's minute range.
        assert 30.0 < FEM_1983.compute_time(2000) * 48 < 120.0


class TestDiagonalStorage:
    def test_round_trip_square(self):
        rng = np.random.default_rng(0)
        a = sp.random(12, 12, density=0.3, random_state=rng).tocsr()
        storage = DiagonalStorage.from_block(a)
        assert (storage.to_csr() - a).nnz == 0

    def test_round_trip_rectangular(self):
        rng = np.random.default_rng(1)
        a = sp.random(7, 11, density=0.4, random_state=rng).tocsr()
        storage = DiagonalStorage.from_block(a)
        assert storage.to_csr().toarray() == pytest.approx(a.toarray())

    def test_matvec_matches_csr(self):
        rng = np.random.default_rng(2)
        a = sp.random(9, 13, density=0.5, random_state=rng).tocsr()
        storage = DiagonalStorage.from_block(a)
        x = rng.normal(size=13)
        assert storage.matvec(x) == pytest.approx(a @ x)

    def test_matvec_accumulates(self):
        a = sp.identity(5).tocsr()
        storage = DiagonalStorage.from_block(a)
        out = np.ones(5)
        storage.matvec(np.full(5, 2.0), out=out)
        assert out == pytest.approx(np.full(5, 3.0))

    def test_empty_block(self):
        storage = DiagonalStorage.from_block(sp.csr_matrix((4, 6)))
        assert storage.n_diagonals == 0
        assert storage.matvec(np.ones(6)) == pytest.approx(np.zeros(4))

    def test_prunes_numerically_zero_diagonals(self):
        # Build a matrix with an explicit structural zero off the diagonal.
        a = sp.coo_matrix(
            (np.array([1.0, 0.0, 1.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
            shape=(2, 2),
        ).tocsr()
        storage = DiagonalStorage.from_block(a)
        assert storage.offsets == (0,)

    def test_diagonal_count_of_tridiagonal(self):
        n = 10
        a = sp.diags([np.ones(n - 1), 2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
        storage = DiagonalStorage.from_block(a.tocsr())
        assert storage.n_diagonals == 3
        assert storage.max_vector_length() == n

    @given(st.integers(0, 2**31 - 1), st.integers(2, 20), st.integers(2, 20))
    @settings(max_examples=25, deadline=None)
    def test_property_matvec_any_shape(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = sp.random(rows, cols, density=0.3, random_state=rng).tocsr()
        storage = DiagonalStorage.from_block(a)
        x = rng.normal(size=cols)
        assert storage.matvec(x) == pytest.approx(a @ x, rel=1e-12, abs=1e-12)
