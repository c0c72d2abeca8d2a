"""Table 2 — CYBER 203 iterations and timings, m-step SSOR PCG.

Regenerates the paper's main table: for unit-square plates a = 20, 41, 62,
80 (maximum vector lengths v ≈ a²/3), the iteration count I and simulated
time T for m = 0 (plain CG), unparametrized m = 1–3, and parametrized
m = 2P–10P.

Shape targets (EXPERIMENTS.md quantifies each):
* I decreases steeply with m; parametrized beats unparametrized at equal m
  in both I and T (paper observation 1);
* T has an interior minimum in m, and the time-optimal m grows with the
  vector length (paper observation 2);
* CG iterations grow ∝ a.

``REPRO_TABLE2_MESHES=11,20`` shrinks the sweep for a quick run.
"""

from repro.analysis import Table

from _common import (
    TABLE2_SCHEDULE,
    cached_session,
    emit,
    run_once,
    table2_meshes,
)


def solve_mesh(a: int) -> list[dict]:
    """One mesh's 13 schedule cells — one batched lockstep simulator pass.

    The compiled session drives :meth:`CyberMachine.solve_schedule`:
    iteration counts, clocks and iterates are bitwise those of the
    cell-at-a-time pass (pinned in tests/test_pipeline.py), at a fraction
    of the wall time.
    """
    session = cached_session(a)
    rows = []
    for (m, _), res in zip(TABLE2_SCHEDULE, session.run_cyber_schedule()):
        rows.append(
            {
                "label": res.label,
                "m": m,
                "I": res.iterations,
                "T": res.seconds,
                "v": res.max_vector_length,
            }
        )
    return rows


def build_table() -> tuple[str, dict]:
    meshes = table2_meshes()
    per_mesh = {a: solve_mesh(a) for a in meshes}
    columns = ["m"]
    for a in meshes:
        v = per_mesh[a][0]["v"]
        columns += [f"I(a={a})", f"T(v={v})"]
    table = Table(
        "Table 2 — CYBER 203 iterations and simulated timings, m-step SSOR PCG",
        columns,
    )
    n_rows = len(TABLE2_SCHEDULE)
    for i in range(n_rows):
        row = [per_mesh[meshes[0]][i]["label"]]
        for a in meshes:
            row += [per_mesh[a][i]["I"], per_mesh[a][i]["T"]]
        table.add_row(*row)
    table.add_note("T = simulated seconds (calibrated CYBER 203 cost model)")
    table.add_note("paper m=0 row: I = 271, 536, 788, 929 for a = 20, 41, 62, 80")
    return table.render(), per_mesh


def test_table2(benchmark):
    text, per_mesh = run_once(benchmark, build_table)
    emit("table2_cyber", text)

    meshes = sorted(per_mesh)
    for a, rows in per_mesh.items():
        by_label = {r["label"]: r for r in rows}
        # Observation (1): parametrized beats unparametrized, I and T.
        for m in (2, 3):
            assert by_label[f"{m}P"]["I"] <= by_label[f"{m}"]["I"]
            assert by_label[f"{m}P"]["T"] <= by_label[f"{m}"]["T"]
        # Preconditioning wins outright over CG in simulated time.
        assert min(r["T"] for r in rows[1:]) < by_label["0"]["T"]
    # CG iteration growth ∝ a.
    if len(meshes) >= 2:
        small, large = meshes[0], meshes[-1]
        i_small = per_mesh[small][0]["I"]
        i_large = per_mesh[large][0]["I"]
        ratio = i_large / i_small
        expected = large / small
        assert 0.6 * expected <= ratio <= 1.5 * expected


def test_cyber_matvec_kernel(benchmark):
    """Micro-benchmark: one K·p on the a = 20 machine's by-diagonals CSR."""
    import numpy as np

    from repro.kernels import ops

    machine = cached_session(20).cyber()
    x = np.random.default_rng(0).normal(size=machine.n_padded)

    benchmark(ops.matvec_into, machine.k, x, np.empty_like(x))
