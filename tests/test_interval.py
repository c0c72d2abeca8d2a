"""The one spectral-interval routine: ``λ_n = 1`` and a Lanczos ``λ₁``.

Every parametrized fit stands on :func:`repro.core.spectral.spectrum_interval`,
reached through :attr:`SolverSession.interval` on both backends.  These
tests hold it to the dense reference on every scenario, to itself across
the assembled and matrix-free backends, and to itself across processes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.spectral import full_splitting_spectrum
from repro.core.splittings import SSORSplitting
from repro.fem.matrixfree import STENCIL_SCENARIOS
from repro.pipeline import (
    SolverPlan,
    SolverSession,
    available_scenarios,
    build_scenario,
)

#: The parametrized cells whose fits the interval feeds.
PARAMETRIZED = SolverPlan(tuple((m, True) for m in range(2, 9)))


def _iterations(session: SolverSession) -> list[int]:
    return [session.solve_cell(m, p).iterations for m, p in session.plan.schedule]


@pytest.mark.parametrize("name", [spec.name for spec in available_scenarios()])
def test_interval_matches_dense_reference(name):
    """λ₁ sits just above the dense λ₁ (Ritz values approach it from
    above), λ_n is exactly 1, and the m = 2…8 fits iterate exactly as the
    fits on the dense interval do."""
    session = SolverSession(build_scenario(name), plan=PARAMETRIZED)
    lo, hi = session.interval
    eigs = full_splitting_spectrum(SSORSplitting(session.blocked.permuted))
    assert hi == 1.0
    assert eigs[0] * (1 - 1e-12) <= lo <= eigs[0] * 1.001
    exact = SolverSession(
        session.problem, plan=PARAMETRIZED, blocked=session.blocked,
        interval=(float(eigs[0]), float(eigs[-1])),
    )
    assert _iterations(session) == _iterations(exact)


@pytest.mark.parametrize("name", STENCIL_SCENARIOS)
def test_stencil_and_csr_sessions_agree(name):
    """The matrix-free session runs the same recurrence on the stencil:
    its interval matches the CSR session's to rounding and every
    parametrized cell takes the same number of iterations."""
    csr = SolverSession(build_scenario(name), plan=PARAMETRIZED)
    stencil = SolverSession(
        build_scenario(name, assemble=False),
        plan=PARAMETRIZED.with_(backend="stencil"),
    )
    (lo, hi), (lo_st, hi_st) = csr.interval, stencil.interval
    assert hi == hi_st == 1.0
    assert abs(lo_st - lo) <= 1e-9 * lo
    assert _iterations(csr) == _iterations(stencil)


def test_stencil_session_never_builds_a_blocked_system():
    """On an assembled problem the stencil backend measures the interval
    on its own operator: compiling colors once (the stencil)."""
    session = SolverSession(
        build_scenario("plate", nrows=8),
        plan=SolverPlan.single(3, True, backend="stencil"),
    ).compile()
    assert session.stats.colorings == 1
    assert session.stats.intervals == 1


_PROBE = """
import hashlib, sys
from repro.pipeline import SolverPlan, SolverSession, build_scenario
name, rows = sys.argv[1], int(sys.argv[2])
session = SolverSession(
    build_scenario(name, nrows=rows), plan=SolverPlan.single(3, True)
)
solve = session.solve_cell(3, True)
print(*(float(v).hex() for v in session.interval), solve.iterations,
      hashlib.sha256(solve.u.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("name", ["plate", "stretched-plate"])
def test_interval_and_iterates_identical_across_processes(name):
    """No random start vector anywhere: two fresh processes print the same
    interval bits and the same 3P iterate hash."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", _PROBE, name, "20"],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].split()[1] == float(1.0).hex()
