"""The matrix-free stencil backend: operator, sweeps, session parity.

The contract of :mod:`repro.fem.matrixfree` + :class:`repro.kernels.StencilOperator`:
the ``"stencil"`` backend is the *same solver* as the assembled CSR path —
same iterates (≤1e−12, bitwise where the schedule is identical), same
iteration counts, same operation counters — computed without ever forming
a sparse matrix or permuted color blocks.  The compiled native kernel is
an accelerator, never a semantic: the numpy fallback must produce
bit-identical products.
"""

import tracemalloc

import numpy as np
import pytest

from repro.driver import build_blocked_system, mstep_coefficients
from repro.fem.matrixfree import STENCIL_SCENARIOS, stencil_operator
from repro.kernels import StencilOperator, StencilSSOR
from repro.kernels.backend import SOLVER_BACKENDS
from repro.multicolor import MStepSSOR
from repro.pipeline import SolverPlan, SolverSession, build_scenario

TOL = 1e-12

#: Small instances of every scenario the stencil backend serves.
SCENARIOS = [
    ("poisson", {"n_grid": 12}),
    ("anisotropic", {"n_grid": 10, "epsilon": 25.0}),
    ("plate", {"nrows": 8}),
]

#: Scenarios whose merged *sweeps* are bitwise equal to the permuted-CSR
#: sweeps (the kron-arithmetic builders).  Stencil *entries* are bitwise
#: equal to assembly for every scenario — the plate builder replays the
#: assembly's element sums in order — but the plate's 2×2 node blocks
#: accumulate across diagonals in a different order than CSR column
#: order, so its sweeps agree only to ulps.
BITWISE = ("poisson", "anisotropic")


def _relerr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))


# --------------------------------------------------------------------------
# operator: structure and K·x equivalence
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_to_csr_matches_assembled(name, kw):
    problem = build_scenario(name, **kw)
    op = stencil_operator(problem)
    dense_st = op.to_csr().toarray()
    dense_k = problem.k.toarray()
    # Bitwise for every scenario: the kron builders share assembly's
    # arithmetic, and the plate builder replays the element-order sums.
    assert np.array_equal(dense_st, dense_k)
    assert op.shape == problem.k.shape
    assert np.array_equal(op.groups, problem.group_of_unknown)


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_matvec_bitwise_vs_own_csr(name, kw):
    """K·x off the stencil ≡ scipy's csr_matvec of the same matrix, bitwise.

    Vector, C-ordered block and F-ordered block inputs all take distinct
    code paths (fused native kernel, per-column loop, numpy fallback) —
    each must agree with ``to_csr() @ x`` to the last bit.
    """
    op = stencil_operator(build_scenario(name, **kw))
    k = op.to_csr()
    rng = np.random.default_rng(7)
    x = rng.normal(size=op.n)
    out = np.empty(op.n)
    assert np.array_equal(op.matvec_into(x, out), k @ x)
    assert np.array_equal(op @ x, k @ x)

    xb_c = np.ascontiguousarray(rng.normal(size=(op.n, 3)))
    xb_f = np.asfortranarray(xb_c)
    ref = k @ xb_c
    assert np.array_equal(op.matvec_into(xb_c, np.empty((op.n, 3))), ref)
    assert np.array_equal(op.matvec_into(xb_f, np.empty((op.n, 3))), ref)

    # accumulate: out += K x on a non-zero starting buffer.  The kernel
    # adds the stencil terms onto out's prior value (out-first
    # association), while `base + (K @ x)` sums the product first — same
    # arithmetic to reordering, so ulp-level agreement, not bitwise.
    base = rng.normal(size=op.n)
    acc = base.copy()
    op.matvec_accumulate(x, acc)
    expected = base + k @ x
    assert _relerr(expected, acc) <= 1e-13


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_numpy_fallback_bitwise(name, kw, monkeypatch):
    """With the compiled kernel disabled the products do not change a bit."""
    import repro.kernels.stencil as stencil_mod

    op_native = stencil_operator(build_scenario(name, **kw))
    monkeypatch.setattr(stencil_mod, "load_native", lambda: None)
    op_plain = stencil_operator(build_scenario(name, **kw))
    assert op_plain._native_plan is None  # the fallback really is in force

    rng = np.random.default_rng(11)
    x = rng.normal(size=op_native.n)
    xb = rng.normal(size=(op_native.n, 2))
    assert np.array_equal(
        op_native.matvec_into(x, np.empty(op_native.n)),
        op_plain.matvec_into(x, np.empty(op_plain.n)),
    )
    assert np.array_equal(
        op_native.matvec_into(xb, np.empty(xb.shape)),
        op_plain.matvec_into(xb, np.empty(xb.shape)),
    )


#: Every stencil the backend serves: the small SCENARIOS plus the
#: stretched plate, whose diagonals scatter like the plate's.
ALL_STENCILS = SCENARIOS + [("stretched-plate", {"nrows": 8})]


def _compiled_and_fallback(name, kw, monkeypatch):
    """The same stencil twice: compiled products, and the numpy path."""
    import repro.kernels.stencil as stencil_mod
    from repro.kernels._native import load_native

    if load_native() is None:
        pytest.skip("no compiled kernel in this environment")
    op = stencil_operator(build_scenario(name, **kw))
    assert op._native_plan is not None  # resolved before the patch below
    monkeypatch.setattr(stencil_mod, "load_native", lambda: None)
    op_plain = stencil_operator(build_scenario(name, **kw))
    assert op_plain._native_plan is None
    return op, op_plain


@pytest.mark.parametrize("name,kw", ALL_STENCILS, ids=[s[0] for s in ALL_STENCILS])
def test_compiled_product_in_force(name, kw, monkeypatch):
    """With the kernel built, every stencil's K·x runs compiled — vectors,
    C-ordered and column-major blocks — never silently the numpy path."""
    op, _ = _compiled_and_fallback(name, kw, monkeypatch)
    rng = np.random.default_rng(19)
    for shape, order in [((op.n,), "C"), ((op.n, 4), "C"), ((op.n, 4), "F")]:
        x = np.asarray(rng.normal(size=shape), order=order)
        out = np.empty(shape, order=order)
        assert op._apply_native(x, out, zero=True) is out, (shape, order)
    # Mismatched operands never reach the C pointers: the numpy path
    # raises on them instead of the kernel reading out of bounds.
    short = np.ones(op.n - 1)
    assert op._apply_native(short, np.empty(op.n - 1), zero=True) is None
    assert op._apply_native(np.ones(op.n), np.empty((op.n, 1)), zero=True) is None
    with pytest.raises(ValueError):
        op.matvec_into(short, np.empty(op.n - 1))


@pytest.mark.parametrize("name,kw", ALL_STENCILS, ids=[s[0] for s in ALL_STENCILS])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("order", ["C", "F"])
def test_compiled_product_bitwise(name, kw, k, order, monkeypatch):
    """Compiled ≡ numpy fallback ≡ CSR, bitwise, at generated block widths,
    one past them (the generic body), and the vector, in overwrite and
    accumulate modes.  Accumulation lands each term on ``out`` in turn,
    exactly like scipy's accumulating ``csr_matvec``/``csr_matvecs`` —
    the constant kernel's special rows included."""
    from repro.kernels import ops

    op, op_plain = _compiled_and_fallback(name, kw, monkeypatch)
    k_csr = op.to_csr()
    rng = np.random.default_rng(23 + k)
    shapes = [(op.n, k)] + ([(op.n,)] if k == 1 else [])
    for shape in shapes:
        x = np.asarray(rng.normal(size=shape), order=order)
        base = np.asarray(rng.normal(size=shape), order=order)
        ref = k_csr @ x
        ref_acc = ops.matvec_accumulate(
            k_csr, np.ascontiguousarray(x), np.array(base, order="C")
        )
        for method, start, expected in [
            ("matvec_into", np.empty(shape, order=order), ref),
            ("matvec_accumulate", base, ref_acc),
        ]:
            compiled = getattr(op, method)(x, start.copy(order=order))
            plain = getattr(op_plain, method)(x, start.copy(order=order))
            assert np.array_equal(compiled, expected), (method, shape)
            assert np.array_equal(plain, expected), (method, shape)


def test_operator_validation():
    vals = np.ones((3, 4))
    groups = np.zeros(4, dtype=int)
    with pytest.raises(ValueError, match="main diagonal"):
        StencilOperator(offsets=(-1, 1), values=np.ones((2, 4)), groups=groups)
    with pytest.raises(ValueError, match="strictly increasing"):
        StencilOperator(offsets=(1, 0, -1), values=vals, groups=groups)
    with pytest.raises(ValueError, match="one group per unknown"):
        StencilOperator(offsets=(-1, 0, 1), values=vals, groups=np.zeros(3, int))
    bad = np.ones((3, 4))
    bad[1] = -1.0  # main diagonal
    with pytest.raises(ValueError, match="diagonal must be positive"):
        StencilOperator(offsets=(-1, 0, 1), values=bad, groups=groups)


def test_memory_footprint_beats_csr():
    """The raison d'être: the stencil stores O(d·n), CSR O(nnz) + indices."""
    problem = build_scenario("poisson", n_grid=32)
    op = stencil_operator(problem)
    k = problem.k
    csr_bytes = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
    assert op.memory_bytes() < csr_bytes


# --------------------------------------------------------------------------
# sweeps: StencilSSOR ≡ MStepSSOR through the multicolor permutation
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_sweep_matches_mstep_ssor(name, kw, m):
    """The merged stencil sweeps equal the permuted-CSR merged sweeps.

    ``StencilSSOR`` runs in natural ordering, ``MStepSSOR`` in multicolor
    ordering; mapped through ``perm``/``inverse_perm`` they are the same
    arithmetic — bitwise for the kron-built stencils, ≤1e−12 for the
    plate (its 2×2 node blocks accumulate across diagonals in a
    different order than CSR columns) — and charge identical operation
    counts.
    """
    problem = build_scenario(name, **kw)
    blocked = build_blocked_system(problem)
    coeffs = mstep_coefficients(m, False, None)
    csr_sweep = MStepSSOR(blocked, coeffs)
    st_sweep = StencilSSOR(stencil_operator(problem), coeffs)
    perm = blocked.ordering.perm
    inv = blocked.ordering.inverse_perm
    rng = np.random.default_rng(3)

    r = rng.normal(size=blocked.n)
    y_csr = csr_sweep.apply(r[perm])[inv]
    y_st = np.array(st_sweep.apply(r))  # pooled buffer — copy before reuse
    R = rng.normal(size=(blocked.n, 4))
    yb_csr = csr_sweep.apply(R[perm])[inv]
    yb_st = np.array(st_sweep.apply(R))
    if name in BITWISE:
        assert np.array_equal(y_csr, y_st)
        assert np.array_equal(yb_csr, yb_st)
    else:
        assert _relerr(y_csr, y_st) <= TOL
        assert _relerr(yb_csr, yb_st) <= TOL

    # identical instrumentation, including the sweeps' extra counters
    assert st_sweep.counter == csr_sweep.counter


def _refuse_compiled(sweep, monkeypatch):
    """Make the compiled call on ``sweep``'s plan raise, so a fallback pin
    cannot pass by running the compiled walker twice."""

    def refuse(*args):
        raise AssertionError("the compiled sweep ran on the fallback path")

    monkeypatch.setitem(sweep.operator.sweep_plan.__dict__, "_call", refuse)


def _one_color_stencil():
    """A diagonal stencil: a single color, no couplings."""
    n = 40
    return StencilOperator(
        offsets=(0,), values=np.linspace(1.0, 3.0, n)[None],
        groups=np.zeros(n, dtype=np.int64),
    )


#: Every scenario's stencil, and the one-color schedule of one pass per step.
SWEEP_OPERATORS = [
    (name, lambda kw=kw, name=name: stencil_operator(build_scenario(name, **kw)))
    for name, kw in SCENARIOS
] + [("one-color", _one_color_stencil)]


@pytest.mark.parametrize(
    "name,make", SWEEP_OPERATORS, ids=[s[0] for s in SWEEP_OPERATORS]
)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_fused_sweep_native_vs_fallback_bitwise(name, make, m, monkeypatch):
    """The fused native sweep and its numpy twin are the same arithmetic:
    vector and block applications agree to the last bit and charge
    identical operation counts, for every step count — at every
    generated block width k ≤ 8 and the generic body (k = 9, 16)."""
    import repro.kernels.stencil as stencil_mod

    coeffs = mstep_coefficients(m, False, None)
    sweep_native = StencilSSOR(make(), coeffs)
    if sweep_native.operator._native_plan is None:
        pytest.skip("no compiled kernel in this environment")
    monkeypatch.setattr(stencil_mod, "load_native", lambda: None)
    sweep_plain = StencilSSOR(make(), coeffs)
    assert sweep_plain.operator._native_plan is None  # fallback really in force
    _refuse_compiled(sweep_plain, monkeypatch)

    rng = np.random.default_rng(13)
    r = rng.normal(size=sweep_native.operator.n)
    assert np.array_equal(
        np.array(sweep_native.apply(r)), np.array(sweep_plain.apply(r))
    )
    for k in [*range(1, 10), 16]:
        R = rng.normal(size=(sweep_native.operator.n, k))
        assert np.array_equal(
            np.array(sweep_native.apply(R)), np.array(sweep_plain.apply(R))
        ), k
    assert sweep_native.counter == sweep_plain.counter


@pytest.mark.parametrize(
    "name,kw", [("poisson", {"n_grid": 40}), ("plate", {"nrows": 20})],
    ids=["poisson", "plate"],
)
def test_pipelined_sweep_matches_pass_by_pass(name, kw, monkeypatch):
    """The compiled block sweep pipelines its color passes over blocks of
    rows (a dozen and more here); every gather must still read the value
    the numpy twin's pass-by-pass order gives it, a NaN's spread
    included."""
    import repro.kernels.stencil as stencil_mod

    problem = build_scenario(name, **kw)
    coeffs = mstep_coefficients(3, False, None)
    sweep_native = StencilSSOR(stencil_operator(problem), coeffs)
    if sweep_native.operator._native_plan is None:
        pytest.skip("no compiled kernel in this environment")
    monkeypatch.setattr(stencil_mod, "load_native", lambda: None)
    sweep_plain = StencilSSOR(stencil_operator(problem), coeffs)
    _refuse_compiled(sweep_plain, monkeypatch)
    n = sweep_native.operator.n
    rng = np.random.default_rng(41)
    for k in (2, 5, 8):
        R = rng.normal(size=(n, k))
        R[n // 2, k // 2] = np.nan
        native = np.array(sweep_native.apply(R))
        assert np.isnan(native).any() and not np.isnan(native).all()
        assert np.array_equal(
            native, np.array(sweep_plain.apply(R)), equal_nan=True
        ), k


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_sweep_ignores_stale_pool_contents(name, kw):
    """The gathers read zero-coefficient positions (clipped margins,
    grid-row wraps) that an apply may not have solved yet, and 0·NaN is
    NaN: neither a fresh pooled buffer's garbage nor an earlier apply's
    NaN may reach the next apply's result — else a sharded solve would
    disagree with the serial one depending on the memory a worker got."""
    problem = build_scenario(name, **kw)
    coeffs = mstep_coefficients(2, False, None)
    n = problem.f.size
    rng = np.random.default_rng(31)
    for shape in [(n,), (n, 3)]:
        r = rng.normal(size=shape)
        clean = np.array(StencilSSOR(stencil_operator(problem), coeffs).apply(r))
        sweep = StencilSSOR(stencil_operator(problem), coeffs)
        sweep.workspace.get("rt", shape).fill(np.nan)
        assert np.array_equal(np.array(sweep.apply(r)), clean), shape
        sweep.apply(np.full(shape, np.nan))
        assert np.array_equal(np.array(sweep.apply(r)), clean), shape


@pytest.mark.parametrize("name,kw", ALL_STENCILS, ids=[s[0] for s in ALL_STENCILS])
def test_sweep_plan_is_the_only_copy_of_the_couplings(name, kw):
    """After a sweep the operator holds its diagonals, its color map and
    the flat sweep plan — each row's index and diagonal, one coefficient
    per (row, coupled offset), a few pointers — and no per-entry gather
    tables beside them."""
    op = stencil_operator(build_scenario(name, **kw))
    StencilSSOR(op, np.ones(2)).apply(np.ones(op.n))
    n, nd = op.n, len(op.offsets)
    base = op.values.nbytes + op.groups.nbytes
    plan_most = 8 * n * (2 + (nd - 1)) + 1024
    assert base + 16 * n <= op.memory_bytes() <= base + plan_most


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize(
    "groups,message",
    [
        ([0, 0, 0, 0, 0, 0], "couples color 0 to itself"),
        ([0, 1, 0, 0, 1, 1], "crosses color groups"),
    ],
    ids=["self-coupling", "crossing"],
)
def test_sweep_refuses_a_non_multicolor_stencil(groups, message, native, monkeypatch):
    """A stencil whose offset couples a color to itself, or lands on more
    than one color, has no triangular color-block sweep: both sweep paths
    refuse it instead of running a wrong one."""
    from repro.kernels import _native

    if not native:
        monkeypatch.setattr(_native, "_CACHE", [None])
    values = np.array([[-1.0] * 6, [4.0] * 6, [-1.0] * 6])
    op = StencilOperator(offsets=(-1, 0, 1), values=values, groups=groups)
    with pytest.raises(ValueError, match=message):
        StencilSSOR(op, np.ones(1)).apply(np.ones(op.n))


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_sweep_rejects_a_misshapen_operand(native, monkeypatch):
    """The compiled walker indexes ``r`` by the plan's rows unchecked, so
    a wrong-length or 3-D operand is refused before it gets there."""
    from repro.kernels import _native

    if not native:
        monkeypatch.setattr(_native, "_CACHE", [None])
    sweep = StencilSSOR(stencil_operator(build_scenario("poisson", n_grid=8)), np.ones(2))
    n = sweep.operator.n
    for shape in [(n - 1,), (n - 1, 2), (n, 2, 1)]:
        with pytest.raises(ValueError, match="must be"):
            sweep.apply(np.ones(shape))


def test_native_so_cache_hit(tmp_path, monkeypatch):
    """The second interpreter's construction compiles nothing: the
    content-hashed ``.so`` from the first build is dlopened straight from
    the kernel build directory."""
    from repro.kernels import _native

    if _native.load_native() is None:
        pytest.skip("no C compiler in this environment")
    # A fresh interpreter is simulated by clearing the one-shot cache;
    # the hashed .so exists, so a compile now would be a cache miss bug.
    monkeypatch.setattr(_native, "_CACHE", [])
    monkeypatch.setattr(
        _native, "_compile",
        lambda *a, **k: pytest.fail("cached .so ignored: recompiled"),
    )
    assert _native.load_native() is not None


def test_sweeps_share_the_operator_workspace():
    """Every sweep bound to one operator reuses the same scratch pool
    (the session's interval probe and applicators pay for it once); an
    explicit pool still opts a sweep out."""
    from repro.kernels import WorkspacePool

    op = stencil_operator(build_scenario("poisson", n_grid=8))
    a = StencilSSOR(op, np.ones(1))
    b = StencilSSOR(op, np.ones(2))
    assert a.workspace is op.workspace
    assert b.workspace is op.workspace
    private = WorkspacePool()
    c = StencilSSOR(op, np.ones(1), workspace=private)
    assert c.workspace is private


def test_numpy_sweeps_sharing_a_pool_keep_their_own_divisors(monkeypatch):
    """Two fallback sweeps on one operator take turns at changing block
    widths on the shared pool.  Whatever width the other sweep ran in
    between, every result is bitwise a fresh sweep's: nothing an apply
    needs outlives it in the pool."""
    from repro.kernels import _native

    monkeypatch.setattr(_native, "_CACHE", [None])
    problem = build_scenario("plate", nrows=8)
    op = stencil_operator(problem)
    assert op._native_plan is None  # the numpy sweep really in force
    sweeps = [StencilSSOR(op, mstep_coefficients(m, False, None)) for m in (2, 3)]
    rng = np.random.default_rng(43)
    for i, k in enumerate((8, 2, 4, 2, 4, 8, 4, 2)):
        sweep = sweeps[i % 2]
        R = rng.normal(size=(op.n, k))
        fresh = StencilSSOR(stencil_operator(problem), sweep.coefficients)
        assert np.array_equal(
            np.array(sweep.apply(R)), np.array(fresh.apply(R))
        ), (sweep.m, k)


# --------------------------------------------------------------------------
# session parity: the stencil backend is the same solver
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 4])
def test_session_parity_vs_csr(name, kw, m, k):
    """Stencil-backend solves reproduce the CSR pipeline cell for cell:
    iterates to ≤1e−12 and identical iteration counts, for vector and
    block right-hand sides."""
    plan_csr = SolverPlan.single(m)
    plan_st = SolverPlan.single(m, backend="stencil")
    s_csr = SolverSession(build_scenario(name, **kw), plan=plan_csr)
    s_st = SolverSession(build_scenario(name, **kw), plan=plan_st)

    if k == 1:
        r_csr = s_csr.solve_cell(m)
        r_st = s_st.solve_cell(m)
        assert r_csr.iterations == r_st.iterations
        assert _relerr(r_csr.u, r_st.u) <= TOL
        assert r_st.blocked is None  # never permuted, never assembled blocks
    else:
        n = s_csr.problem.f.size
        F = np.random.default_rng(5).normal(size=(n, k))
        r_csr = s_csr.solve_cell_block(m, F=F)
        r_st = s_st.solve_cell_block(m, F=F)
        assert np.array_equal(r_csr.iterations, r_st.iterations)
        assert _relerr(r_csr.u, r_st.u) <= TOL
    assert s_st.stats.operator_backend == "stencil"
    assert s_csr.stats.operator_backend == "csr"


@pytest.mark.parametrize("k", [1, 4])
def test_session_parity_stretched_plate(k):
    """The stretched domain's harder spectrum still reproduces the CSR
    iterates under the ≤1e−12 pin — including the k=4 block whose parity
    tail used to drift past it before the plate stencil became bitwise
    equal to assembly."""
    kw = {"nrows": 8}
    s_csr = SolverSession(
        build_scenario("stretched-plate", **kw), plan=SolverPlan.single(2)
    )
    s_st = SolverSession(
        build_scenario("stretched-plate", **kw),
        plan=SolverPlan.single(2, backend="stencil"),
    )
    if k == 1:
        r_csr = s_csr.solve_cell(2)
        r_st = s_st.solve_cell(2)
        assert r_csr.iterations == r_st.iterations
    else:
        F = np.random.default_rng(5).normal(size=(s_csr.problem.f.size, k))
        r_csr = s_csr.solve_cell_block(2, F=F)
        r_st = s_st.solve_cell_block(2, F=F)
        assert np.array_equal(r_csr.iterations, r_st.iterations)
    assert _relerr(r_csr.u, r_st.u) <= TOL


def test_matrix_free_end_to_end():
    """``assemble=False`` + stencil backend: no matrix ever exists, the
    interval comes from the Lanczos run on the stencil, and the solve
    still converges to the assembled path's answer."""
    problem = build_scenario("poisson", n_grid=12, assemble=False)
    assert problem.k is None
    session = SolverSession(problem, plan=SolverPlan.single(2, backend="stencil"))
    solve = session.solve_cell(2, eps=1e-10)
    assert solve.result.converged

    reference = SolverSession(
        build_scenario("poisson", n_grid=12), plan=SolverPlan.single(2)
    ).solve_cell(2, eps=1e-10)
    assert _relerr(reference.u, solve.u) <= 1e-8  # both ≈ the true solution

    lo, hi = session.interval
    assert 0 < lo < hi == 1.0
    assert session.stats.intervals == 1


def test_stencil_interval_encloses_exact_spectrum():
    from repro.core.spectral import full_splitting_spectrum
    from repro.core.splittings import SSORSplitting

    problem = build_scenario("poisson", n_grid=12)
    eigs = full_splitting_spectrum(
        SSORSplitting(build_blocked_system(problem).permuted)
    )
    lo, hi = SolverSession(
        build_scenario("poisson", n_grid=12, assemble=False),
        plan=SolverPlan.single(2, True, backend="stencil"),
    ).interval
    assert lo <= eigs[0] * 1.05
    assert hi >= eigs[-1] / 1.05


# --------------------------------------------------------------------------
# sharding: the matrix-free path fans out like the assembled one
# --------------------------------------------------------------------------


@pytest.mark.parametrize("sharding", [2, 4, (2, 2), (4, 1)])
def test_sharded_stencil_block_matches_serial(sharding):
    """Serial ≡ sharded on the stencil backend for every tested
    (workers, group) partition: iterates, iteration counts and
    per-column counters, bitwise."""
    kw = {"n_grid": 12}
    plan = SolverPlan.single(2, backend="stencil")
    F = np.random.default_rng(17).normal(
        size=(build_scenario("poisson", **kw).f.size, 6)
    )
    serial = SolverSession(
        build_scenario("poisson", **kw), plan=plan
    ).solve_cell_block(2, F=F)
    session = SolverSession(build_scenario("poisson", **kw), plan=plan)
    sharded = session.solve_cell_block(2, F=F, sharding=sharding)
    assert np.array_equal(serial.u, sharded.u)
    assert np.array_equal(serial.iterations, sharded.iterations)
    assert [c.as_dict() for c in serial.result.counters] == [
        c.as_dict() for c in sharded.result.counters
    ]
    assert session.stats.shard_dispatches >= 2


def test_sharded_stencil_pickled_fallback_bitwise():
    """``sharded_block_pcg`` on a bare stencil operator and a recipe (the
    name dates from a pickled transport since removed): the operator
    rides shared memory to the workers, same bits as the serial lockstep."""
    from repro.core.pcg import block_pcg
    from repro.parallel import ApplicatorRecipe, sharded_block_pcg

    problem = build_scenario("poisson", n_grid=12)
    op = stencil_operator(problem)
    coeffs = mstep_coefficients(2, False, None)
    F = np.random.default_rng(23).normal(size=(op.n, 4))
    serial = block_pcg(
        op, F, preconditioner=StencilSSOR(op, coeffs), eps=1e-7
    )
    sharded = sharded_block_pcg(
        op, F, recipe=ApplicatorRecipe(coeffs), workers=2, eps=1e-7
    )
    assert np.array_equal(serial.u, sharded.u)
    assert np.array_equal(serial.iterations, sharded.iterations)


def test_prewarm_sharding_stencil():
    """Prewarming the stencil backend dispatches warm specs (one per pool
    slot per distinct cell recipe) and leaves the numerics untouched."""
    plan = SolverPlan.single(2, backend="stencil")
    session = SolverSession(build_scenario("poisson", n_grid=12), plan=plan)
    assert session.prewarm_sharding(2) == 2
    F = np.random.default_rng(29).normal(size=(session.problem.f.size, 4))
    warm = session.solve_cell_block(2, F=F, sharding=2)
    cold = SolverSession(
        build_scenario("poisson", n_grid=12), plan=plan
    ).solve_cell_block(2, F=F)
    assert np.array_equal(warm.u, cold.u)
    assert np.array_equal(warm.iterations, cold.iterations)


# --------------------------------------------------------------------------
# guard rails: every unsupported combination refuses loudly
# --------------------------------------------------------------------------


def test_unsupported_scenarios_refuse():
    with pytest.raises(ValueError, match="no stencil operator"):
        stencil_operator(build_scenario("lshape", a=5))
    with pytest.raises(ValueError, match="constant element stiffness"):
        stencil_operator(build_scenario("variable-plate", nrows=6))


def test_invalid_backend_lists_choices():
    with pytest.raises(ValueError) as exc:
        SolverPlan.single(2, backend="gpu")
    for valid in SOLVER_BACKENDS:
        assert repr(valid) in str(exc.value)


def test_matrix_free_problem_has_no_blocked_system():
    session = SolverSession(
        build_scenario("poisson", n_grid=8, assemble=False),
        plan=SolverPlan.single(2, backend="stencil"),
    )
    with pytest.raises(ValueError, match="no blocked"):
        session.blocked


def test_scenario_registry_reports_backends():
    from repro.pipeline import available_scenarios

    by_name = {spec.name: spec for spec in available_scenarios()}
    for name in STENCIL_SCENARIOS:
        assert "stencil" in by_name[name].backends
    assert "stencil" not in by_name["lshape"].backends


# --------------------------------------------------------------------------
# large mesh (perf-marked: excluded from tier-1)
# --------------------------------------------------------------------------


@pytest.mark.perf
def test_large_mesh_solves_under_csr_memory_ceiling():
    """ISSUE 8 acceptance: a mesh ≥10× the paper's a=41 system solved
    matrix-free under a peak-allocation ceiling the assembled pipeline
    exceeds at the same size."""
    n_grid = 512  # n = 262,144 dof = 80× the a=41 plate's 3,280

    def peak_of(assemble: bool, backend: str) -> float:
        tracemalloc.start()
        try:
            problem = build_scenario("poisson", n_grid=n_grid, assemble=assemble)
            session = SolverSession(
                problem, plan=SolverPlan.single(2, eps=1e-6, backend=backend)
            )
            solve = session.solve_cell(2)
            assert solve.result.converged
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    stencil_peak = peak_of(False, "stencil")
    csr_peak = peak_of(True, "vectorized")
    # The ceiling between them: matrix-free fits where assembled cannot.
    assert stencil_peak <= 0.7 * csr_peak, (stencil_peak, csr_peak)
