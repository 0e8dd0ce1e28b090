"""The nsc-vpe command-line interface."""

import json

import pytest

from repro.arch.node import NodeConfig
from repro.cli import build_parser, main
from repro.compose.kernels import build_saxpy_program
from repro.diagram import serialize
from repro.service.results import canonical_line


@pytest.fixture()
def saved_program(tmp_path):
    prog = build_saxpy_program(NodeConfig(), 32).program
    path = tmp_path / "saxpy.json"
    serialize.save(prog, str(path))
    return str(path)


class TestInfoCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "FLONET" in out
        assert "640 MFLOPS" in out
        assert "GFLOPS system peak" in out

    def test_info_subset(self, capsys):
        assert main(["--subset", "info"]) == 0
        out = capsys.readouterr().out
        assert "320 MFLOPS" in out

    def test_icons(self, capsys):
        assert main(["icons"]) == 0
        assert "triplet" in capsys.readouterr().out


class TestProgramCommands:
    def test_check_clean(self, saved_program, capsys):
        assert main(["check", saved_program]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_broken_returns_nonzero(self, tmp_path, capsys):
        prog = build_saxpy_program(NodeConfig(), 32).program
        prog.pipelines[0].fu_ops.pop(sorted(prog.pipelines[0].fu_ops)[0])
        path = tmp_path / "broken.json"
        serialize.save(prog, str(path))
        assert main(["check", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_disasm(self, saved_program, capsys):
        assert main(["disasm", saved_program]) == 0
        out = capsys.readouterr().out
        assert ".instruction 0" in out
        assert "fscale" in out

    def test_render(self, saved_program, capsys):
        assert main(["render", saved_program]) == 0
        assert "saxpy" in capsys.readouterr().out

    def test_render_svg(self, saved_program, capsys):
        assert main(["render", saved_program, "--svg"]) == 0
        assert "<svg" in capsys.readouterr().out

    def test_render_bad_index(self, saved_program, capsys):
        assert main(["render", saved_program, "--pipeline", "7"]) == 1

    def test_editor_session_save_accepted(self, tmp_path, capsys):
        """The CLI also accepts EditorSession saves (program + geometry)."""
        from repro.editor.replay import replay_program

        prog = build_saxpy_program(NodeConfig(), 32).program
        session = replay_program(prog)
        path = tmp_path / "session.json"
        session.save(str(path))
        assert main(["check", str(path)]) == 0


class TestSolverCommands:
    def test_jacobi(self, capsys):
        assert main(["jacobi", "-n", "6", "--eps", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "MFLOPS" in out

    def test_solve_rb_sor(self, capsys):
        assert main(
            ["solve", "rb-sor", "-n", "6", "--eps", "1e-4", "--omega", "1.4"]
        ) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_solve_nonconvergent_returns_nonzero(self, capsys):
        assert main(
            ["solve", "jacobi", "-n", "6", "--eps", "0", "--max-sweeps", "3"]
        ) == 1


#: (argv, exit code, stdout) of the solver commands, identical on both
#: backends: the numbers a user reads off ``nsc-vpe jacobi`` / ``solve``
PINNED_SOLVER_OUTPUT = [
    (["jacobi", "-n", "6"], 0, [
        "converged: True in 58 sweeps",
        "error vs analytic solution: 2.886e-02",
        "59 instructions, 34000 cycles (1700.0 us): 95.8 MFLOPS of 640 "
        "peak (15.0%), FU utilization 15.0%",
    ]),
    (["jacobi", "-n", "7", "--subset"], 0, [
        "converged: True in 84 sweeps",
        "error vs analytic solution: 2.316e-02",
        "85 instructions, 70485 cycles (3524.2 us): 106.3 MFLOPS of 320 "
        "peak (33.2%), FU utilization 33.2%",
    ]),
    (["jacobi", "-n", "6", "--max-sweeps", "5"], 1, [
        "converged: False in 5 sweeps",
        "error vs analytic solution: 2.793e-01",
        "6 instructions, 3207 cycles (160.3 us): 87.6 MFLOPS of 640 "
        "peak (13.7%), FU utilization 13.7%",
    ]),
    (["solve", "jacobi", "-n", "6"], 0, [
        "jacobi: converged=True sweeps=58 cycles=34000 err=2.886e-02",
    ]),
    (["solve", "rb-gs", "-n", "6"], 0, [
        "rb-gs: converged=True sweeps=31 cycles=37068 err=2.887e-02",
    ]),
    (["solve", "rb-sor", "-n", "6"], 0, [
        "rb-sor: converged=True sweeps=21 cycles=25208 err=2.887e-02",
    ]),
    (["solve", "rb-sor", "-n", "6", "--max-sweeps", "3"], 1, [
        "rb-sor: converged=False sweeps=3 cycles=3860 err=1.508e-01",
    ]),
]


class TestPinnedSolverOutput:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize(
        "argv,code,lines", PINNED_SOLVER_OUTPUT,
        ids=[" ".join(argv) for argv, _code, _lines in PINNED_SOLVER_OUTPUT],
    )
    def test_stdout_is_pinned(self, argv, code, lines, backend, capsys):
        assert main(argv + ["--backend", backend]) == code
        assert capsys.readouterr().out.splitlines() == lines


class TestServiceCommands:
    def test_sweep_runs_batch_with_cache_summary(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main([
            "sweep", "--grids", "5,6", "--methods", "jacobi",
            "--eps", "1e-3", "--max-sweeps", "500", "--repeats", "2",
            "--results", str(results),
        ]) == 0
        out = capsys.readouterr().out
        assert "4/4 jobs ok" in out
        assert "cache: 2 hits, 2 misses" in out
        assert len(results.read_text().splitlines()) == 4

    def test_sweep_rerun_reproduces_records(self, tmp_path, capsys):
        argv = ["sweep", "--grids", "5", "--methods", "jacobi,rb-gs",
                "--eps", "1e-3", "--max-sweeps", "500", "--repeats", "1"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + ["--results", str(a)]) == 0
        assert main(argv + ["--results", str(b)]) == 0

        def canonical(path):
            return [canonical_line(json.loads(line))
                    for line in path.read_text().splitlines()]

        assert canonical(a) == canonical(b)

    def test_batch_runs_jobs_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"method": "jacobi", "n": 5, "eps": 1e-3, "max_sweeps": 500},
            {"method": "rb-gs", "n": 5, "eps": 1e-3, "max_sweeps": 500},
        ]))
        assert main(["batch", str(jobs)]) == 0
        out = capsys.readouterr().out
        assert "2/2 jobs ok" in out

    def test_batch_missing_file_clean_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "cannot read jobs file" in capsys.readouterr().err

    def test_batch_invalid_json_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["batch", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_bad_spec_clean_error(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"method": "warp-drive"}]))
        assert main(["batch", str(jobs)]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_sweep_bad_axes_clean_error(self, capsys):
        assert main(["sweep", "--methods", "frobnicate"]) == 2
        assert "bad sweep axes" in capsys.readouterr().err

    def test_resume_requires_results(self, capsys):
        assert main(["sweep", "--grids", "5", "--methods", "jacobi",
                     "--resume"]) == 2
        assert "--resume needs --results" in capsys.readouterr().err

    def test_sweep_resume_skips_completed_jobs(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        argv = ["sweep", "--grids", "5,6", "--methods", "jacobi",
                "--eps", "1e-3", "--max-sweeps", "500", "--repeats", "1",
                "--results", str(results)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out
        # resumed jobs are redeemed, not re-appended
        assert len(results.read_text().splitlines()) == 2

    def test_batch_retries_transient_faults(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.service.faults import ENV_VAR

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"method": "jacobi", "n": 5, "eps": 1e-3, "max_sweeps": 500},
        ]))
        monkeypatch.setenv(ENV_VAR, json.dumps({
            "seed": 1,
            "rules": [{"site": "worker.exec", "attempts": [1]}],
        }))
        assert main(["batch", str(jobs), "--max-attempts", "3"]) == 0
        assert "1 retried" in capsys.readouterr().out

    def test_stats_reports_reliability(self, tmp_path, capsys,
                                       monkeypatch):
        from repro.service.faults import ENV_VAR

        results = tmp_path / "results.jsonl"
        monkeypatch.setenv(ENV_VAR, json.dumps({
            "seed": 1,
            "rules": [{"site": "worker.exec", "attempts": [1]}],
        }))
        assert main(["sweep", "--grids", "5", "--methods", "jacobi",
                     "--eps", "1e-3", "--max-sweeps", "500",
                     "--repeats", "1", "--max-attempts", "3",
                     "--results", str(results)]) == 0
        capsys.readouterr()
        assert main(["stats", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "reliability:" in out
        assert "retried jobs" in out

    def test_batch_failure_sets_exit_code(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({"jobs": [
            {"method": "jacobi", "n": 5, "eps": 1e-3, "max_sweeps": 500},
            # nz=5 cannot split across 2 nodes
            {"method": "jacobi", "n": 5, "hypercube_dim": 1, "eps": 1e-3},
        ]}))
        assert main(["batch", str(jobs)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "1/2 jobs ok" in out
        assert "DecompositionError" in out


class TestSubsetUniformity:
    """--subset must work before or after every subcommand (satellite)."""

    def test_subset_after_subcommand(self, capsys):
        assert main(["info", "--subset"]) == 0
        assert "320 MFLOPS" in capsys.readouterr().out

    def test_subset_before_still_wins_over_subparser_default(self, capsys):
        assert main(["--subset", "info"]) == 0
        assert "320 MFLOPS" in capsys.readouterr().out

    def test_every_subcommand_accepts_subset(self):
        parser = build_parser()
        args = parser.parse_args(["jacobi", "--subset"])
        assert args.subset is True
        args = parser.parse_args(["render", "x.json", "--subset"])
        assert args.subset is True
        args = parser.parse_args(["sweep", "--subset"])
        assert args.subset is True

    def test_batch_subset_flag_defaults_jobs(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"method": "jacobi", "n": 5, "eps": 1e-3, "max_sweeps": 500},
        ]))
        assert main(["batch", str(jobs), "--subset"]) == 0
        assert "subset" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["batch", "jobs.json"], ["sweep"], ["serve"],
    ], ids=lambda argv: argv[0])
    def test_no_transport_option(self, argv):
        # grids move one way, so there is nothing left to choose
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--transport", "pickle"])
        assert exc.value.code == 2
