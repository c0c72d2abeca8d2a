"""Ablation — processor scaling and the sum/max circuit (§4 discussion).

The paper's closing analysis: keeping nodes-per-processor fixed while
adding processors, the preconditioner's (local) communication stays flat
while the inner products' (global) reduction grows — with software
reductions like O(P), with the sum/max circuit like O(log₂ P).  "As the
number of processors increases … the value of B/A in (4.2) will continue
to decrease until [more] steps of the preconditioner will be optimal."

This bench scales the plate with the processor count (fixed ~24 unknowns
per processor), measures A and B on the simulated machine under both
reduction modes, and shows B/A falling — the paper's predicted mechanism
for ever-larger optimal m.
"""

from repro import build_scenario
from repro.analysis import Table
from repro.machines import FiniteElementMachine

from _common import emit, run_once

CASES = [
    # (a rows, ncols, processor count): ~12 unconstrained nodes/processor.
    # The machine under construction targeted 36 processors first and an
    # expanded array later; the tail of this sweep is that future machine.
    (4, 4, 1),
    (4, 7, 2),
    (7, 7, 4),
    (7, 13, 8),
    (13, 13, 16),
    (13, 25, 32),
    (25, 25, 64),
]


def build_table():
    table = Table(
        "B/A versus processor count at fixed nodes/processor "
        "(software vs sum/max reductions)",
        ["P", "unknowns", "B/A software", "B/A circuit",
         "reduction µs soft", "reduction µs circuit"],
    )
    ratios = {"software": [], "circuit": []}
    for nrows, ncols, n_procs in CASES:
        problem = build_scenario("plate", nrows=nrows, ncols=ncols)
        row = [n_procs, problem.n]
        for mode in ("software", "circuit"):
            machine = FiniteElementMachine(problem, n_procs, reduction=mode)
            a_cost, b_cost = machine.iteration_costs()
            ratios[mode].append(b_cost / a_cost)
            row.append(b_cost / a_cost)
        for mode in ("software", "circuit"):
            machine = FiniteElementMachine(problem, n_procs, reduction=mode)
            row.append(machine.timing.reduction_time(n_procs, mode) * 1e6)
        table.add_row(*row)
    table.add_note("B/A falls as P grows → larger optimal m (paper's §4 closing claim)")
    table.add_note("the sum/max circuit keeps reductions cheap, so B/A falls less steeply")
    return table.render(), ratios


def test_scaling(benchmark):
    text, ratios = run_once(benchmark, build_table)
    emit("ablation_scaling_sum_max", text)
    soft = ratios["software"]
    # With software reductions, growing P inflates A (global reductions)
    # faster than B (local exchanges): B/A decreases from few to many procs.
    assert soft[-1] < soft[0]
    # The circuit keeps reductions near-free, so its B/A stays above the
    # software ratio once P is large.
    assert ratios["circuit"][-1] >= soft[-1]
