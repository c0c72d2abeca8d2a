"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's artifacts and runs one-off solves without writing
any code, all driven through the plan → compile → execute pipeline:

```
python -m repro table1                      # α values (exact reproduction)
python -m repro table2 --meshes 20,41       # CYBER Table 2 (batched sweep)
python -m repro table2 --m auto             # + model-recommended m per mesh
python -m repro table2 --workers 2          # schedule cells across processes
python -m repro table3                      # Finite Element Machine table
python -m repro fig1 --rows 6 --cols 6      # plate coloring
python -m repro solve --rows 20 --m 4 -P    # one m-step SSOR PCG solve
python -m repro solve --rows 20 --m auto --rhs 4   # block solve, autotuned m
python -m repro solve --workload plate-service --workers 2   # sharded block
python -m repro solve --scenario anisotropic --rows 24 --m 4 -P
python -m repro cyber --rows 20 --m 5 -P    # one simulated CYBER solve
python -m repro recommend --rows 20 --b-over-a 0.7
python -m repro scenarios                   # the ProblemSpec registry
python -m repro workloads                   # the WorkloadSpec registry
python -m repro serve --port 7083           # long-lived batching solver daemon
python -m repro request --rows 20 --m 4     # one solve against the daemon
python -m repro request --stats             # daemon counters (hits, batches)
```

``cyber``/``table2`` accept ``--backend vectorized|reference`` (the kernel
dispatch of :mod:`repro.kernels`); ``solve`` and ``request`` accept
``--backend vectorized|stencil`` — the assembled operator, or the
matrix-free one of the regular-mesh scenarios, which never assembles a
matrix at all (``repro scenarios`` lists which scenarios support it).  ``solve`` and
``recommend`` accept any registered ``--scenario``, with ``--rows`` mapped
onto the scenario's own size parameter.

Multi-RHS and autotuning: ``solve --rhs K`` solves ``K`` load cases in one
:func:`repro.core.pcg.block_pcg` lockstep (the scenario's load plus K−1
deterministic synthetic cases); ``--workload NAME`` swaps in a registered
multi-load case family (:class:`repro.pipeline.WorkloadSpec`) instead.
``--m auto`` picks m from the width-aware inequality-(4.2) cost model —
``--auto-model fem`` (default) calibrates on the Finite Element Machine,
``--auto-model cyber`` on the CYBER vector timing model
(:meth:`repro.analysis.models.PerformanceModel.from_machine`).
``table2 --m auto`` prints the model recommendation next to each mesh's
measured optimum.

Real parallelism: ``solve --workers W`` shards the right-hand-side block's
column groups across worker processes
(:func:`repro.parallel.sharded_block_pcg`), and ``table2 --workers W``
fans the schedule's cells likewise (:func:`repro.parallel.sharded_schedule`)
— results bitwise identical to the serial paths in both cases.

Serving: ``serve`` runs the long-lived daemon of :mod:`repro.serving` —
compiled sessions held hot in an LRU, concurrent same-system requests
coalesced into one block-PCG lockstep — and ``request`` is its one-shot
client (``--ping``/``--stats``/``--shutdown`` for the control ops).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

__all__ = ["main"]


def _build_session(args, schedule=None):
    """A compiled SolverSession for the requested scenario and plan."""
    from repro.pipeline import SolverPlan, SolverSession, scenario

    spec = scenario(getattr(args, "scenario", "plate"))
    backend = getattr(args, "backend", None)
    if not spec.supports_backend(backend):
        print(
            f"scenario {spec.name!r} does not support backend {backend!r}; "
            f"supported: {', '.join(spec.backends)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    params = {}
    if spec.size_param is not None and getattr(args, "rows", None):
        params[spec.size_param] = args.rows
    if spec.size_param == "nrows" and getattr(args, "cols", None):
        params["ncols"] = args.cols
    if backend == "stencil":
        # The matrix-free path's whole point: never assemble at all.
        params["assemble"] = False
    plan_kwargs = {
        "eps": getattr(args, "eps", 1e-6),
        "backend": backend,
        "block_rhs": max(getattr(args, "rhs", 1) or 1, 1),
    }
    if schedule is not None:
        plan = SolverPlan(schedule=schedule, **plan_kwargs)
    else:
        m = getattr(args, "m", 0)
        if not isinstance(m, int):  # "--m auto": resolved after compiling
            m = 0
        plan = SolverPlan.single(
            m, getattr(args, "parametrized", False), **plan_kwargs
        )
    return SolverSession(spec.build(**params), plan=plan)


def _calibrated_model(session, which: str = "fem"):
    """(A, B, B_marginal) calibrated from a simulated machine layout —
    :meth:`repro.pipeline.SolverSession.calibrated_model`, shared with the
    serving daemon's ``m = "auto"`` resolution."""
    return session.calibrated_model(which)


def _rhs_block(problem, width: int):
    """The scenario's own load plus ``width − 1`` deterministic synthetic
    load cases (the shared construction of
    :func:`repro.pipeline.synthetic_load_block`)."""
    from repro.pipeline import synthetic_load_block

    return synthetic_load_block(problem, width)


def _cmd_table1(args) -> int:
    from repro.analysis import Table
    from repro.core import (
        PAPER_TABLE1,
        least_squares_coefficients,
        normalize_leading,
    )

    table = Table(
        "Table 1 — α values (uniform least squares on [0, 1], α₀ = 1)",
        ["m", "computed", "paper", "match"],
    )
    for m, paper in PAPER_TABLE1.items():
        ours = normalize_leading(least_squares_coefficients(m, (0.0, 1.0)))
        match = bool(np.allclose(ours, paper, atol=5e-3))
        table.add_row(
            m,
            ", ".join(f"{v:.2f}" for v in ours),
            ", ".join(f"{v:g}" for v in paper),
            match,
        )
    print(table.render())
    return 0


def _cmd_solve(args) -> int:
    from repro.kernels import BLOCK_WIDTH

    workload_spec = None
    if args.workload is not None:
        from repro.pipeline import workload

        workload_spec = workload(args.workload)
        if workload_spec.scenario != args.scenario:
            print(
                f"workload {workload_spec.name!r} is registered for scenario "
                f"{workload_spec.scenario!r}, not {args.scenario!r}",
                file=sys.stderr,
            )
            return 2
        args.rhs = workload_spec.width
    session = _build_session(args)
    problem = session.problem
    width = max(args.rhs, 1)
    workers = max(args.workers, 1)
    m, parametrized = args.m, args.parametrized
    if m == "auto":
        from repro.analysis import PerformanceModel
        from repro.core.autotune import recommend_m

        model = _calibrated_model(session, args.auto_model)
        if model is None:
            model = PerformanceModel(a=1.0, b=0.7)
            source = "default B/A = 0.7; scenario has no machine layout"
        else:
            source = f"{args.auto_model.upper()}-machine calibrated A, B, B_marginal"
        rec = recommend_m(
            session.interval, model, m_max=10, width=width,
            shards=workers, rel_tol=0.05,
        )
        m, parametrized = rec.m, True
        print(f"auto-tuned m = {m} for RHS width {width} ({source})")
    desc = getattr(problem, "mesh", None)
    if desc is None:
        desc = f"{type(problem).__name__}(n={problem.n})"
    print(f"problem : {desc}")
    if workload_spec is not None:
        print(f"workload: {workload_spec.name} "
              f"({', '.join(workload_spec.case_labels)})")
    operator = problem.k if problem.k is not None else session.stencil()
    if width == 1 and workload_spec is None:
        solve = session.solve_cell(m, parametrized)
        resid = float(np.max(np.abs(problem.f - operator @ solve.u)))
        print(f"method  : m = {solve.label} ({solve.result.stop_rule})")
        print(f"iterations: {solve.iterations}  converged: {solve.result.converged}")
        print(f"‖f − K u‖∞: {resid:.3e}")
        print(f"inner products: {solve.result.counter.inner_products}")
        return 0 if solve.result.converged else 1
    # A workload always solves through the block path, whatever its width
    # — its columns are the loads, never the scenario's own f.
    if workload_spec is not None:
        F = workload_spec.build_block(problem)
    else:
        F = _rhs_block(problem, width)
    # One shard per column at most: the warm-up, the pool and the method
    # line all follow the column groups the solve dispatches.
    workers = min(workers, F.shape[1])
    sharding = workers if workers > 1 else None
    if sharding is not None:
        # Publish the operator segments and warm the pool before the
        # solve: the dispatch then ships only column indices.
        session.prewarm_sharding(sharding)
    block = session.solve_cell_block(m, parametrized, F=F, sharding=sharding)
    resid = float(np.max(np.abs(F - operator @ block.u)))
    iters = ", ".join(str(int(i)) for i in block.iterations)
    if workers > 1:
        mode = f"sharded over {workers} worker processes"
    elif F.shape[1] <= BLOCK_WIDTH:
        mode = "in one lockstep"
    else:  # block_pcg's groups
        sizes = [min(BLOCK_WIDTH, F.shape[1] - j)
                 for j in range(0, F.shape[1], BLOCK_WIDTH)]
        mode = "in lockstep groups of " + " + ".join(map(str, sizes))
    print(f"method  : m = {block.label} ({block.result.stop_rule}), "
          f"block of {width} right-hand sides {mode}")
    print(f"iterations per column: {iters}")
    print(f"all converged: {block.result.all_converged}")
    print(f"max ‖f − K u‖∞ over columns: {resid:.3e}")
    print(f"compiles: {session.stats.compile_counts()} "
          f"(one of each for any k); block solves: {session.stats.block_solves}"
          + (f"; shard dispatches: {session.stats.shard_dispatches}"
             if workers > 1 else ""))
    return 0 if block.result.all_converged else 1


def _cmd_cyber(args) -> int:
    session = _build_session(args)
    machine = session.cyber()
    coeffs = session.coefficients(args.m, args.parametrized) if args.m else None
    res = machine.solve(args.m, coeffs, eps=args.eps, backend=args.backend)
    print(f"CYBER 203 simulation: {session.problem.mesh} "
          f"(v = {res.max_vector_length})")
    print(f"m = {res.label}: I = {res.iterations}, T = {res.seconds:.4f} s")
    print(f"preconditioner share: {res.preconditioner_seconds / res.seconds:.1%}"
          if res.seconds else "")
    return 0 if res.converged else 1


def _cmd_table2(args) -> int:
    from repro.analysis import Table
    from repro.pipeline import SolverPlan, SolverSession, build_scenario

    try:
        meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip()]
    except ValueError:
        print(f"--meshes must be comma-separated integers, got {args.meshes!r}",
              file=sys.stderr)
        return 2
    if not meshes:
        print("--meshes needs at least one plate size", file=sys.stderr)
        return 2

    plan = SolverPlan.table2(eps=args.eps, backend=args.backend)
    # One cell chunk per worker at most: the method line names the
    # processes the schedule actually runs on.
    workers = min(max(args.workers, 1), len(plan.schedule))
    per_mesh = {}
    sessions = {}
    all_converged = True
    for a in meshes:
        session = SolverSession(build_scenario("plate", nrows=a), plan=plan)
        results = session.run_cyber_schedule(workers=workers)
        all_converged &= all(r.converged for r in results)
        per_mesh[a] = results
        sessions[a] = session

    columns = ["m"]
    for a in meshes:
        v = per_mesh[a][0].max_vector_length
        columns += [f"I(a={a})", f"T(v={v})"]
    mode = "one batched simulator pass"
    if workers > 1:
        mode = f"schedule cells sharded over {workers} worker processes"
    table = Table(
        "Table 2 — CYBER 203 iterations and simulated timings, "
        f"m-step SSOR PCG ({mode})",
        columns,
    )
    for i in range(len(per_mesh[meshes[0]])):
        row = [per_mesh[meshes[0]][i].label]
        for a in meshes:
            row += [per_mesh[a][i].iterations, per_mesh[a][i].seconds]
        table.add_row(*row)
    table.add_note("T = simulated seconds (calibrated CYBER 203 cost model)")
    table.add_note("paper m=0 row: I = 271, 536, 788, 929 for a = 20, 41, 62, 80")
    print(table.render())
    if args.m == "auto":
        from repro.analysis.models import effective_optimal_m
        from repro.core.autotune import recommend_m

        width = max(args.rhs, 1)
        if args.workload is not None:
            from repro.pipeline import workload

            width = workload(args.workload).width
            print(f"workload {args.workload!r}: pricing --m auto at its "
                  f"block width {width}")
        for a in meshes:
            session = sessions[a]
            model = _calibrated_model(session, args.auto_model)
            rec = recommend_m(
                session.interval, model, m_max=10, width=width, rel_tol=0.05
            )
            measured = {
                m: res.seconds
                for (m, par), res in zip(session.plan.schedule, per_mesh[a])
                if par
            }
            best = effective_optimal_m(measured)
            print(
                f"auto m (a={a}): {args.auto_model.upper()}-model-"
                f"recommended m = {rec.m} at RHS width {width} "
                f"(measured table optimum m = {best})"
            )
    return 0 if all_converged else 1


def _cmd_table3(args) -> int:
    from repro.analysis import Table
    from repro.driver import TABLE3_SCHEDULE
    from repro.machines import speedup_table
    from repro.pipeline import SolverPlan, SolverSession, build_scenario

    session = SolverSession(
        build_scenario("plate", nrows=6), plan=SolverPlan.table3()
    )
    table = Table(
        "Finite Element Machine (Table 3)",
        ["m", "I", "T(P=1)", "T(P=2)", "su", "T(P=5)", "su"],
    )
    for m, par in TABLE3_SCHEDULE:
        res = {p: session.fem_solve(m, par, n_procs=p) for p in (1, 2, 5)}
        su = speedup_table(res)
        table.add_row(res[1].label, res[1].iterations, res[1].seconds,
                      res[2].seconds, su[2], res[5].seconds, su[5])
    print(table.render())
    return 0


def _cmd_fig1(args) -> int:
    from repro.fem import PlateMesh

    mesh = PlateMesh(args.rows, args.cols or args.rows)
    mesh.validate_coloring()
    print(mesh.coloring_ascii())
    counts = mesh.color_counts()
    print(f"colors (R, B, G): {tuple(int(c) for c in counts)}; "
          f"max vector length v = {mesh.max_vector_length()}")
    return 0


def _cmd_recommend(args) -> int:
    from repro.analysis import PerformanceModel, Table
    from repro.core.autotune import recommend_m

    session = _build_session(args)
    interval = session.interval
    width = max(args.rhs, 1)
    shards = max(args.workers, 1)
    model = PerformanceModel(
        a=1.0, b=args.b_over_a, b_marginal=args.b_marginal
    )
    rec = recommend_m(
        interval, model, m_max=args.m_max, width=width, shards=shards
    )
    title = (
        f"Model-predicted cost (A = 1, B/A = {args.b_over_a}) on the "
        f"{args.scenario} scenario (rows = {args.rows})"
    )
    if width > 1:
        title += f", RHS block width {width}"
    if shards > 1:
        title += f", sharded over {shards} workers"
    table = Table(title, ["m", "κ bound", "(A·w+m·B_w)·√κ"])
    for m in sorted(rec.scores):
        table.add_row(m, rec.kappas[m], rec.scores[m])
    table.add_note(f"recommended m = {rec.m}")
    if width > 1 and model.amortizes:
        table.add_note(
            f"effective per-RHS B/A at width {width}"
            + (f" over {shards} shards" if shards > 1 else "")
            + f": {model.b_over_a_at(width, shards):.3f} "
            f"(width 1: {model.b_over_a:.3f})"
        )
    print(table.render())
    return 0


def _cmd_scenarios(args) -> int:
    from repro.analysis import Table
    from repro.pipeline import available_scenarios

    table = Table(
        "Registered scenarios (repro.pipeline.problems)",
        ["name", "defaults", "backends", "description"],
    )
    for spec in available_scenarios():
        defaults = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
        table.add_row(
            spec.name, defaults or "—", ", ".join(spec.backends),
            spec.description,
        )
    table.add_note("build with build_scenario(name, **overrides) or "
                   "`repro solve --scenario <name>`")
    table.add_note("'stencil' = the matrix-free operator path "
                   "(`--backend stencil`, no assembled matrix)")
    print(table.render())
    return 0


def _cmd_workloads(args) -> int:
    from repro.analysis import Table
    from repro.pipeline import available_workloads

    table = Table(
        "Registered workloads (repro.pipeline.problems)",
        ["name", "scenario", "k", "cases"],
    )
    for spec in available_workloads():
        table.add_row(
            spec.name, spec.scenario, spec.width, ", ".join(spec.case_labels)
        )
    table.add_note("solve a family with `repro solve --workload <name>` "
                   "(add --workers W to shard the block across processes)")
    print(table.render())
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import run_daemon

    return run_daemon(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        capacity=args.capacity,
    )


def _cmd_request(args) -> int:
    import json

    from repro.serving import ServeClient
    from repro.serving.protocol import ProtocolError

    try:
        with ServeClient(args.host, args.port) as client:
            if args.ping:
                print(json.dumps(client.ping(), indent=2))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2))
                return 0
            if args.shutdown:
                client.shutdown()
                print(f"daemon at {args.host}:{args.port} shutting down")
                return 0
            reply = client.solve(
                scenario=args.scenario,
                rows=args.rows,
                m=args.m,
                parametrized=args.parametrized,
                eps=args.eps,
                backend=args.backend,
                load_case=args.load_case,
            )
    except ConnectionRefusedError:
        print(f"no daemon listening on {args.host}:{args.port} "
              "(start one with `repro serve`)", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"daemon rejected the request: {exc}", file=sys.stderr)
        return 2
    served = "hot (cached session)" if reply.cache_hit else "cold (compiled now)"
    print(f"scenario: {args.scenario} (rows = {args.rows}), "
          f"load case {args.load_case}")
    print(f"method  : m = {reply.m_label}, served {served}")
    print(f"iterations: {reply.iterations}  converged: {reply.converged}")
    print(f"batched : width {reply.batch_width} "
          f"(queued {reply.queue_s * 1e3:.2f} ms, "
          f"solved in {reply.solve_s * 1e3:.2f} ms)")
    print(f"‖u‖∞    : {float(np.max(np.abs(reply.u))):.6e}")
    return 0 if reply.converged else 1


def main(argv: list[str] | None = None) -> int:
    from repro.driver import TABLE2_EPS
    from repro.kernels import BACKENDS, SESSION_BACKENDS
    from repro.pipeline import available_scenarios

    scenario_names = [spec.name for spec in available_scenarios()]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adams (1983) m-step preconditioned CG — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def parse_m(value: str):
        if value == "auto":
            return "auto"
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--m must be an integer or 'auto', got {value!r}"
            ) from None

    def add_backend_arg(p, solver=False):
        if solver:
            p.add_argument(
                "--backend", choices=list(SESSION_BACKENDS), default=None,
                help="solver backend for the numerics (default: vectorized; "
                "'stencil' is the matrix-free operator path of the "
                "regular-mesh scenarios)",
            )
        else:
            p.add_argument(
                "--backend", choices=list(BACKENDS), default=None,
                help="kernel backend for the numerics (default: vectorized)",
            )

    def add_rhs_arg(p):
        p.add_argument(
            "--rhs", type=int, default=1,
            help="simultaneous right-hand sides: the block-PCG width K "
            "(batched (n, K) lockstep; also the width --m auto tunes for)",
        )

    def add_workers_arg(p, what):
        p.add_argument(
            "--workers", type=int, default=1,
            help=f"worker processes to shard {what} across "
            "(repro.parallel; 1 = serial, results bitwise identical)",
        )

    def add_workload_arg(p):
        from repro.pipeline import available_workloads

        p.add_argument(
            "--workload", choices=[w.name for w in available_workloads()],
            default=None,
            help="registered multi-load case family; its width becomes "
            "the block-RHS width K (overrides --rhs)",
        )

    def add_auto_model_arg(p):
        p.add_argument(
            "--auto-model", choices=["fem", "cyber"], default="fem",
            help="machine whose timing model calibrates the --m auto "
            "recommendation (FEM processor array or CYBER vector pipeline)",
        )

    def add_plate_args(p, with_m=True, with_scenario=False, auto_m=False):
        p.add_argument("--rows", type=int, default=20, help="rows of nodes (a)")
        p.add_argument("--cols", type=int, default=None, help="columns (default a)")
        if with_scenario:
            p.add_argument(
                "--scenario", choices=scenario_names, default="plate",
                help="registered scenario to build (--rows maps onto its "
                "size parameter)",
            )
        if with_m:
            if auto_m:
                p.add_argument(
                    "--m", type=parse_m, default=3,
                    help="preconditioner steps, or 'auto' to pick m from "
                    "the width-aware inequality-(4.2) cost model",
                )
            else:
                p.add_argument(
                    "--m", type=int, default=3, help="preconditioner steps"
                )
            p.add_argument(
                "-P", "--parametrized", action="store_true",
                help="least-squares parametrized coefficients",
            )
            p.add_argument("--eps", type=float, default=1e-6, help="‖Δu‖∞ tolerance")

    sub.add_parser("table1", help="Table 1 α values (exact reproduction)")

    p_table2 = sub.add_parser(
        "table2", help="CYBER Table 2 (batched simulator sweep)"
    )
    p_table2.add_argument(
        "--meshes", default="20,41",
        help="comma-separated plate sizes a (paper: 20,41,62,80)",
    )
    p_table2.add_argument("--eps", type=float, default=TABLE2_EPS,
                          help="‖Δu‖∞ tolerance")
    p_table2.add_argument(
        "--m", choices=["auto"], default=None,
        help="'auto' appends the model-recommended m per mesh (FEM-machine "
        "calibrated width-aware (4.2) model) next to the measured optimum",
    )
    add_rhs_arg(p_table2)
    add_workers_arg(p_table2, "the schedule's cells")
    add_workload_arg(p_table2)
    add_auto_model_arg(p_table2)
    add_backend_arg(p_table2)

    sub.add_parser("table3", help="Finite Element Machine table")
    p_solve = sub.add_parser("solve", help="one m-step SSOR PCG solve")
    add_plate_args(p_solve, with_scenario=True, auto_m=True)
    add_rhs_arg(p_solve)
    add_workers_arg(p_solve, "the RHS block's column groups")
    add_workload_arg(p_solve)
    add_auto_model_arg(p_solve)
    add_backend_arg(p_solve, solver=True)
    p_cyber = sub.add_parser("cyber", help="one simulated CYBER 203 solve")
    add_plate_args(p_cyber)
    add_backend_arg(p_cyber)
    p_fig1 = sub.add_parser("fig1", help="plate coloring (Figure 1)")
    add_plate_args(p_fig1, with_m=False)
    p_rec = sub.add_parser("recommend", help="model-based m recommendation")
    add_plate_args(p_rec, with_m=False, with_scenario=True)
    p_rec.add_argument("--b-over-a", type=float, default=0.7,
                       help="preconditioner-step to CG-iteration cost ratio")
    p_rec.add_argument(
        "--b-marginal", type=float, default=None,
        help="per-extra-RHS step cost inside a block (enables width "
        "amortization in the recommendation; see PerformanceModel)",
    )
    p_rec.add_argument("--m-max", type=int, default=10)
    add_rhs_arg(p_rec)
    add_workers_arg(p_rec, "the priced block (shard-aware step cost)")
    sub.add_parser("scenarios", help="list the ProblemSpec registry")
    sub.add_parser("workloads", help="list the WorkloadSpec registry")

    p_serve = sub.add_parser(
        "serve", help="long-lived batching solver daemon (repro.serving)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7083,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    p_serve.add_argument(
        "--batch-window", type=float, default=0.005,
        help="seconds concurrent same-system requests wait to coalesce "
        "into one block-PCG lockstep (0 disables batching)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8,
        help="flush a batch as soon as this many columns are waiting "
        "(also the width m='auto' is priced at)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=8,
        help="compiled sessions held hot in the LRU cache",
    )

    p_req = sub.add_parser(
        "request", help="one solve (or control op) against a running daemon"
    )
    p_req.add_argument("--host", default="127.0.0.1")
    p_req.add_argument("--port", type=int, default=7083)
    p_req.add_argument(
        "--scenario", choices=scenario_names, default="plate",
        help="registered scenario the daemon should compile/reuse",
    )
    p_req.add_argument("--rows", type=int, default=20, help="rows of nodes (a)")
    p_req.add_argument(
        "--m", type=parse_m, default=3,
        help="preconditioner steps, or 'auto' (daemon resolves it from "
        "the width-aware (4.2) model, once per cached system)",
    )
    p_req.add_argument(
        "-P", "--parametrized", action="store_true",
        help="least-squares parametrized coefficients",
    )
    p_req.add_argument("--eps", type=float, default=1e-6, help="‖Δu‖∞ tolerance")
    p_req.add_argument(
        "--load-case", type=int, default=0,
        help="deterministic load-case index (0 = the scenario's own load)",
    )
    add_backend_arg(p_req, solver=True)
    p_req.add_argument("--ping", action="store_true",
                       help="health-check the daemon and exit")
    p_req.add_argument("--stats", action="store_true",
                       help="print the daemon's counters and exit")
    p_req.add_argument("--shutdown", action="store_true",
                       help="ask the daemon to shut down gracefully")

    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "table3": _cmd_table3,
        "solve": _cmd_solve,
        "cyber": _cmd_cyber,
        "fig1": _cmd_fig1,
        "recommend": _cmd_recommend,
        "scenarios": _cmd_scenarios,
        "workloads": _cmd_workloads,
        "serve": _cmd_serve,
        "request": _cmd_request,
    }
    if not hasattr(args, "parametrized"):
        args.parametrized = False
    if not hasattr(args, "scenario"):
        args.scenario = "plate"
    if not hasattr(args, "rhs"):
        args.rhs = 1
    if not hasattr(args, "workers"):
        args.workers = 1
    if not hasattr(args, "workload"):
        args.workload = None
    if not hasattr(args, "auto_model"):
        args.auto_model = "fem"
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro request --stats | head`)
        # closed the pipe early; exit quietly like other unix CLIs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
