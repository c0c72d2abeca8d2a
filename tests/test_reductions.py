"""The fixed-order dot and the fused CG passes.

Every inner product of the package is one sum order: 8 lanes, lane ``l``
adding the products of rows ``i ≡ l (mod 8)`` in index order from
``+0.0``, combined as ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``.  These
tests pin that order three ways — a pure-Python spelling, the numpy
fallback and the compiled kernel — bitwise, over sizes around the lane
count, every specialized block width plus generic ones, and IEEE special
values.  The fallback leans on numpy adding a non-contiguous reduction
axis sequentially; the Python spelling is what catches a numpy that
stops doing so, on every Python of the CI matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import _native
from repro.kernels.ops import bind_cg_updates
from repro.util import column_dots, inner
from repro.util.linalg import dots_numpy

SIZES = (0, 1, 7, 8, 9, 3362, 19800)
WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 17)


def _python_dot(x, y) -> float:
    lanes = [0.0] * 8
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        lanes[i % 8] += a * b
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _block(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Magnitudes spread over 16 decades: any change of summation order
    # shows in the low bits.
    return rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 8, size=(n, k))


class TestFixedOrderDot:
    @pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 801))
    def test_python_spelling_pins_the_order(self, n):
        x, y = _block(n, 1, 1)[:, 0], _block(n, 1, 2)[:, 0]
        expected = _python_dot(x, y)
        assert _bits(dots_numpy(x, y, np.empty(1))) == _bits(expected)
        assert _bits(inner(x, y)) == _bits(expected)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", WIDTHS)
    def test_native_fallback_and_columns_agree(self, n, k, monkeypatch):
        x, y = _block(n, k, 3 + k), _block(n, k, 5 + n)
        batched = column_dots(x, y)
        fallback = dots_numpy(x, y, np.empty(k))
        assert np.array_equal(_bits(batched), _bits(fallback))
        columns = [inner(x[:, j], y[:, j]) for j in range(k)]  # strided views
        assert np.array_equal(_bits(batched), _bits(columns))
        monkeypatch.setattr(_native, "_CACHE", [None])
        assert np.array_equal(_bits(column_dots(x, y)), _bits(batched))
        assert _bits(inner(x[:, 0], y[:, 0])) == _bits(batched[0])

    @pytest.mark.parametrize("k", (1, 3, 8, 11))
    def test_special_values(self, k, monkeypatch):
        n = 37
        x, y = _block(n, k, 11), _block(n, k, 12)
        x[0, :], y[0, :] = -0.0, 1.0  # a signed-zero product leads a lane
        x[9, 0], y[13, -1] = np.inf, -np.inf
        x[20, k // 2] = np.nan
        signed_zero = np.full((n, k), -0.0)
        for a, b in ((x, y), (signed_zero, y), (y, signed_zero)):
            native = column_dots(a, b)
            with np.errstate(invalid="ignore"):  # inf·0, inf − inf
                fallback = dots_numpy(a, b, np.empty(k))
            nan = np.isnan(native)
            assert np.array_equal(nan, np.isnan(fallback))
            assert np.array_equal(_bits(native[~nan]), _bits(fallback[~nan]))
            for j in range(k):
                with np.errstate(invalid="ignore"):
                    solo = inner(a[:, j], b[:, j])
                assert (np.isnan(solo) and nan[j]) or _bits(solo) == _bits(native[j])
        # Lanes of -0.0 products start from +0.0: the dot is +0.0.
        assert _bits(column_dots(signed_zero, np.ones((n, k)))).tolist() == [0] * k

    def test_shape_checks_and_flattening(self):
        with pytest.raises(ValueError):
            column_dots(np.ones((4, 2)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            inner(np.ones(3), np.ones(4))
        a = np.arange(6.0).reshape(2, 3)
        assert inner(a, a) == inner(a.ravel(), a.ravel()) == 55.0
        assert inner([1, 2], [3, 4]) == 11.0


def _cg_state(n, a, seed):
    rng = np.random.default_rng(seed)
    u, r, p, kp = (np.ascontiguousarray(rng.normal(size=(n, a))) for _ in range(4))
    kp = np.abs(kp) + np.abs(p)  # (p, Kp) > 0 on a random block
    kp = np.where(p < 0, -kp, kp)
    return u, r, p, kp, np.abs(rng.normal(size=a)) + 0.5


def _run_cg_passes(state, rt):
    u, r, p, kp, rho = (np.array(x) for x in state)
    denom, delta = np.empty(rho.size), np.empty(rho.size)
    axpy, xpay = bind_cg_updates(u, r, p, kp, rho, denom, delta)
    broken = axpy()
    xpay(rt)
    return broken, u, r, p, rho, denom, delta


class TestFusedCGPasses:
    @pytest.mark.parametrize("n", (5, 8, 3362))
    @pytest.mark.parametrize("a", (1, 2, 8, 11, 16))
    def test_native_matches_numpy_and_spelling(self, n, a, monkeypatch):
        state = _cg_state(n, a, seed=n + a)
        rt = np.random.default_rng(a).normal(size=(n, a))
        native = _run_cg_passes(state, rt)
        monkeypatch.setattr(_native, "_CACHE", [None])
        fallback = _run_cg_passes(state, rt)
        for x, y in zip(native[1:], fallback[1:]):
            assert np.array_equal(_bits(x), _bits(y))
        assert native[0] == fallback[0] == 0
        # The numpy spelling of Algorithm 1's steps, column by column.
        u, r, p, kp, rho = state
        for j in range(a):
            alpha = rho[j] / inner(p[:, j], kp[:, j])
            step = alpha * p[:, j]
            assert np.array_equal(_bits(native[1][:, j]), _bits(u[:, j] + step))
            assert _bits(native[6][j]) == _bits(float(np.max(np.abs(step))))
            r_new = r[:, j] - alpha * kp[:, j]
            assert np.array_equal(_bits(native[2][:, j]), _bits(r_new))
            rho_new = inner(rt[:, j], r_new)
            p_new = rt[:, j] + (rho_new / rho[j]) * p[:, j]
            assert np.array_equal(_bits(native[3][:, j]), _bits(p_new))
            assert _bits(native[4][j]) == _bits(rho_new)

    @pytest.mark.parametrize("fallback", (False, True))
    def test_breakdown_touches_nothing(self, fallback, monkeypatch):
        if fallback:
            monkeypatch.setattr(_native, "_CACHE", [None])
        u, r, p, kp, rho = _cg_state(40, 3, seed=4)
        kp[:, 1] = -np.abs(kp[:, 1]) * np.sign(p[:, 1])  # (p, Kp) < 0
        u0, r0 = u.copy(), r.copy()
        denom, delta = np.empty(3), np.empty(3)
        axpy, _ = bind_cg_updates(u, r, p, kp, rho, denom, delta)
        assert axpy() == 1
        assert denom[1] < 0 < min(denom[0], denom[2])
        assert np.array_equal(u, u0) and np.array_equal(r, r0)

    @pytest.mark.parametrize("fallback", (False, True))
    def test_nan_step_makes_delta_nan(self, fallback, monkeypatch):
        if fallback:
            monkeypatch.setattr(_native, "_CACHE", [None])
        u, r, p, kp, rho = _cg_state(40, 2, seed=6)
        p[30, 0] = np.nan
        denom, delta = np.empty(2), np.empty(2)
        axpy, _ = bind_cg_updates(u, r, p, kp, rho, denom, delta)
        assert axpy() == 0  # a NaN denominator is not a breakdown
        assert np.isnan(delta[0]) and np.isfinite(delta[1])


# One plate a = 100 (n = 19,800) cell per backend, unparametrized and 3P:
# iterate hashes and the Lanczos interval, printed as JSON.
_PROBE = """
import hashlib, json
from repro.pipeline import SolverPlan, SolverSession, build_scenario
out = {}
for backend in ("vectorized", "stencil"):
    problem = build_scenario("plate", nrows=100, assemble=backend != "stencil")
    session = SolverSession(problem, plan=SolverPlan.single(3, True, backend=backend))
    for parametrized in (False, True):
        u = session.solve_cell(3, parametrized).u
        out[f"{backend} {parametrized}"] = hashlib.sha256(u.tobytes()).hexdigest()
    out[f"{backend} interval"] = [float(v).hex() for v in session.interval]
print(json.dumps(out))
"""

#: BLAS thread counts and CPU kernels that change OpenBLAS ``ddot`` bits at
#: this size, and the numpy fallback of the compiled kernels (the slowest
#: run, so it starts first).
_SETTINGS = {
    "numpy fallback": {"REPRO_NO_NATIVE": "1"},
    "1 thread": {"OPENBLAS_NUM_THREADS": "1"},
    "2 threads": {"OPENBLAS_NUM_THREADS": "2"},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


def test_answers_do_not_depend_on_blas():
    """Every solve reduction is the fixed-order dot, so no BLAS setting
    moves an iterate bit.  The one exception left is the 3P α fit
    (``np.linalg.lstsq`` and its Gram products), which varies with the
    CPU kernel but not the thread count; the interval under it does not."""
    import json
    import os
    import subprocess
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from pathlib import Path

    import repro

    env = {
        key: value for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "REPRO_NO_NATIVE")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )

    def probe(setting: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], env={**env, **setting},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(2) as pool:  # two solves at a time
        runs = dict(zip(_SETTINGS, pool.map(probe, _SETTINGS.values())))
    for backend in ("vectorized", "stencil"):
        for key in (f"{backend} False", f"{backend} interval"):
            assert len({str(run[key]) for run in runs.values()}) == 1, key
        key = f"{backend} True"
        assert runs["1 thread"][key] == runs["2 threads"][key]
