"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "1, 7, -24.5, 31.5" in out
        assert "yes" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--rows", "5", "--cols", "5"]) == 0
        out = capsys.readouterr().out
        assert "R B G" in out
        assert "max vector length" in out

    def test_solve(self, capsys):
        code = main(["solve", "--rows", "8", "--m", "3", "-P", "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "m = 3P" in out

    def test_solve_plain_cg(self, capsys):
        code = main(["solve", "--rows", "6", "--m", "0"])
        assert code == 0
        assert "m = 0" in capsys.readouterr().out

    def test_cyber(self, capsys):
        code = main(["cyber", "--rows", "8", "--m", "2", "-P"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CYBER 203 simulation" in out
        assert "T = " in out

    def test_recommend(self, capsys):
        code = main(["recommend", "--rows", "8", "--b-over-a", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recommended m" in out

    def test_table2(self, capsys):
        code = main(["table2", "--meshes", "8", "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 2" in out
        assert "one batched simulator pass" in out
        assert "I(a=8)" in out

    def test_table2_reference_backend_matches_default(self, capsys):
        assert main(["table2", "--meshes", "8", "--eps", "1e-6"]) == 0
        default = capsys.readouterr().out
        assert main(
            ["table2", "--meshes", "8", "--eps", "1e-6", "--backend", "reference"]
        ) == 0
        # Same batched pass on the hand-rolled sweeps: the iteration counts
        # and the structural clock print identically.
        assert capsys.readouterr().out == default

    def test_table2_rejects_bad_meshes(self, capsys):
        assert main(["table2", "--meshes", "abc"]) == 2

    def test_solve_scenario_and_backend(self, capsys):
        code = main([
            "solve", "--scenario", "anisotropic", "--rows", "10",
            "--m", "3", "-P", "--backend", "vectorized",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "AnisotropicProblem" in out
        assert "m = 3P" in out

    @pytest.mark.parametrize("command", ["solve", "request"])
    def test_session_surfaces_reject_reference_backend(self, command, capsys):
        # "reference" is a kernel backend of the machine passes only; a
        # session solve would silently run the vectorized numerics.
        with pytest.raises(SystemExit) as exc:
            main([command, "--rows", "8", "--m", "3", "--backend", "reference"])
        assert exc.value.code == 2
        assert "invalid choice: 'reference'" in capsys.readouterr().err

    def test_cyber_backend_flag(self, capsys):
        code = main(["cyber", "--rows", "8", "--m", "2", "--backend", "reference"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CYBER 203 simulation" in out

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("plate", "anisotropic", "variable-plate", "lshape"):
            assert name in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBlockRHSAndAutoM:
    """ISSUE 4: the --rhs / --m auto surface."""

    def test_solve_block_rhs(self, capsys):
        code = main(["solve", "--rows", "8", "--m", "3", "-P", "--rhs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "block of 4 right-hand sides in one lockstep" in out
        assert "iterations per column:" in out
        assert "all converged: True" in out
        assert "'colorings': 1" in out  # one compile for any k

    def test_solve_auto_m_plate(self, capsys):
        code = main(["solve", "--rows", "12", "--m", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto-tuned m =" in out
        assert "FEM-machine calibrated" in out

    def test_solve_auto_m_scenario_without_machine(self, capsys):
        code = main(["solve", "--scenario", "poisson", "--rows", "10",
                     "--m", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no machine layout" in out

    def test_solve_rejects_bad_m(self):
        with pytest.raises(SystemExit):
            main(["solve", "--m", "sometimes"])

    def test_table2_auto_m_reproduces_the_measured_optimum(self, capsys):
        # The acceptance pin: on the paper's own a = 20 plate the
        # width-aware (4.2) model reproduces the hand-picked Table-2 m —
        # the measured-optimum plateau the paper reads off its timings.
        code = main(["table2", "--meshes", "20", "--m", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "auto m (a=20): FEM-model-recommended m = 4 at RHS width 1 "
            "(measured table optimum m = 4)"
        ) in out

    def test_recommend_width_amortization(self, capsys):
        code = main(["recommend", "--rows", "8", "--b-over-a", "0.7",
                     "--b-marginal", "0.2", "--rhs", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RHS block width 8" in out
        assert "effective per-RHS B/A at width 8" in out


class TestParallelAndWorkloads:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("plate-service", "pressure-family", "thermal-family",
                     "point-family"):
            assert name in out

    def test_solve_workload_sets_block_width(self, capsys):
        code = main(["solve", "--rows", "8", "--m", "2", "-P",
                     "--workload", "plate-service"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload: plate-service" in out
        assert "block of 4 right-hand sides" in out
        assert "all converged: True" in out

    def test_solve_workload_sharded_over_workers(self, capsys):
        code = main(["solve", "--rows", "8", "--m", "2", "-P",
                     "--workload", "point-family", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded over 2 worker processes" in out
        assert "shard dispatches: 2" in out
        assert "all converged: True" in out

    def test_single_case_workload_solves_its_own_load(self, capsys):
        # Regression: a width-1 workload must go through the block path
        # with the workload's column, not fall back to the scenario's f.
        from repro.pipeline import problems, register_workload

        def shear_only(problem):
            from repro.fem.plane_stress import assemble_plate

            _, f_shear = assemble_plate(
                problem.mesh, problem.material, traction_x=0.0,
                traction_y=1.0,
            )
            return f_shear[:, None].astype(float)

        register_workload(
            "test-shear-only", "plate", shear_only, "test-only entry",
            ("edge shear",),
        )
        try:
            code = main(["solve", "--rows", "8", "--m", "2", "-P",
                         "--workload", "test-shear-only"])
            out = capsys.readouterr().out
            assert code == 0
            assert "block of 1 right-hand sides" in out
            assert "workload: test-shear-only" in out
        finally:
            del problems._WORKLOADS["test-shear-only"]

    def test_solve_workload_scenario_mismatch_rejected(self, capsys):
        code = main(["solve", "--scenario", "poisson", "--rows", "8",
                     "--m", "2", "--workload", "plate-service"])
        assert code == 2
        assert "registered for scenario" in capsys.readouterr().err

    def test_solve_workers_match_serial_iterations(self, capsys):
        assert main(["solve", "--rows", "8", "--m", "3", "-P",
                     "--rhs", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["solve", "--rows", "8", "--m", "3", "-P",
                     "--rhs", "4", "--workers", "2"]) == 0
        sharded = capsys.readouterr().out

        def iters(text):
            for line in text.splitlines():
                if line.startswith("iterations per column"):
                    return line
            return None

        assert iters(serial) == iters(sharded)

    def test_solve_names_the_workers_that_ran(self, capsys):
        # More workers than columns: one shard per column, and the method
        # line names the two processes the solve ran on.
        assert main(["solve", "--rows", "8", "--m", "3", "--rhs", "2",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded over 2 worker processes" in out
        assert "shard dispatches: 2" in out

    def test_table2_names_the_workers_that_ran(self, capsys, monkeypatch):
        # More workers than schedule cells: one cell chunk per worker.
        from repro.pipeline import SolverPlan

        monkeypatch.setattr(
            SolverPlan, "table2",
            classmethod(lambda cls, **kw: cls(schedule=((0, False), (2, False)), **kw)),
        )
        assert main(["table2", "--meshes", "8", "--workers", "3"]) == 0
        assert "sharded over 2 worker processes" in capsys.readouterr().out

    def test_solve_auto_model_cyber(self, capsys):
        code = main(["solve", "--rows", "12", "--m", "auto",
                     "--auto-model", "cyber"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CYBER-machine calibrated" in out

    def test_table2_workers_match_serial(self, capsys):
        assert main(["table2", "--meshes", "8", "--eps", "1e-6"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--meshes", "8", "--eps", "1e-6",
                     "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines() if not line.startswith("Table 2")
        ]
        assert strip(serial) == strip(sharded)
        assert "sharded over 2 worker processes" in sharded

    def test_recommend_sharded_pricing(self, capsys):
        code = main(["recommend", "--rows", "8", "--b-over-a", "0.7",
                     "--b-marginal", "0.2", "--rhs", "8", "--workers", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded over 4 workers" in out
        assert "over 4 shards" in out
