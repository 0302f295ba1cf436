"""Command line behavior: classification, stage cuts, exit codes, REPL."""

import gc
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cplusplan
from cplusplan import cli, export
from cplusplan.cli import UsageError, main, parse_args
from cplusplan.suite import EXAMPLES_DIR, default_cases


def run(args, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    rc = main(args, out, err, io.StringIO(stdin))
    return rc, out.getvalue(), err.getvalue()


def ex(name):
    return str(EXAMPLES_DIR / name)


def run_fresh(code, cwd=None):
    """stdout of `python -c code` in a fresh process that imports this
    checkout's package."""
    src = str(Path(cplusplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


class TestParseArgs:
    def test_defaults(self):
        cfg, warnings = parse_args(["somefile", "query=q"])
        assert cfg.mode == "incremental"
        assert cfg.language == "cplus"
        assert cfg.stage_from == "pre-processor"
        assert cfg.stage_to == "post-processor"
        assert cfg.input_files == ["somefile"]
        assert cfg.override.label == "q"
        assert cfg.override.min_step is None
        assert cfg.override.solutions is None
        assert warnings == []

    def test_every_override_kind(self):
        cfg, _ = parse_args(["f", "minstep=2", "sol=all", "query=go"])
        ov = cfg.override
        assert ov.label == "go"
        assert (ov.min_step, ov.max_step) == (2, None)
        assert ov.solutions == 0

    def test_maxstep_pins_both_ends(self):
        cfg, _ = parse_args(["f", "query=q", "maxstep=5"])
        ov = cfg.override
        assert (ov.min_step, ov.max_step) == (5, 5)

    def test_maxstep_window(self):
        cfg, _ = parse_args(["f", "query=q", "maxstep=2..9"])
        assert (cfg.override.min_step, cfg.override.max_step) == (2, 9)

    def test_maxstep_window_open_end(self):
        cfg, _ = parse_args(["f", "query=q", "maxstep=2..infinity"])
        ov = cfg.override
        assert (ov.min_step, ov.max_step) == (2, None)

    def test_later_maxstep_clobbers_minstep(self):
        cfg, _ = parse_args(["f", "query=q", "minstep=2", "maxstep=9"])
        assert (cfg.override.min_step, cfg.override.max_step) == (9, 9)

    def test_minstep_narrows_a_window(self):
        cfg, _ = parse_args(["f", "query=q", "maxstep=0..9", "minstep=3"])
        assert (cfg.override.min_step, cfg.override.max_step) == (3, 9)

    def test_trailing_count_is_sol(self):
        cfg, warnings = parse_args(["f", "query=q", "3"])
        assert cfg.override.solutions == 3
        assert warnings == []

    def test_count_last_wins_with_warning(self):
        cfg, warnings = parse_args(["f", "query=q", "2", "all"])
        assert cfg.override.solutions == 0
        assert len(warnings) == 1 and "more than once" in warnings[0]

    def test_zero_count_means_every_model(self):
        cfg, _ = parse_args(["f", "query=q", "0"])
        assert cfg.override.solutions == 0

    def test_from_aliases_shift_the_start(self):
        cfg, _ = parse_args(["--from-pre-processor", "d", "query=q"])
        assert cfg.stage_from == "grounder"
        cfg, _ = parse_args(["--from-grounder", "d"])
        assert cfg.stage_from == "solver"

    def test_to_stage_claims_stdout(self):
        cfg, _ = parse_args(["--to-grounder", "f", "query=q"])
        assert cfg.stage_to == "grounder"
        assert cfg.stage_outputs == {"grounder": None}

    def test_stage_output_files(self):
        cfg, _ = parse_args(
            ["--solver-output=m.txt", "--post-processor-output", "f", "query=q"]
        )
        assert cfg.stage_outputs == {"solver": "m.txt", "post-processor": None}

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["--bogus", "f"], "unknown flag"),
            (["--mode=fast", "f"], "unknown mode"),
            (["--to-linker", "f"], "unknown stage"),
            (["--from-solver", "f"], "cannot start from"),
            (["f", "minstep=x"], "bad minstep"),
            (["f", "sol=some"], "bad solution count"),
            (["f", "maxstep=5..2"], "empty step range"),
            (["f", "maxstep=1", "minstep=3"], "minstep exceeds maxstep"),
            (["f", "speed=9"], "unknown override"),
            (["--from-grounder", "--to-pre-processor", "f"], "stage order"),
            (["--all-steps", "f"], "requires --mode=static"),
            ([], "no input files"),
            (["--language=bc", "f"], "language mode not supported in this build"),
            (["--to-solver", "--post-processor-output=F", "f"], "stops after 'solver'"),
            (["--solver-output=F", "--to-grounder", "f"], "stops after 'grounder'"),
        ],
    )
    def test_usage_errors(self, argv, fragment):
        with pytest.raises(UsageError, match=fragment):
            parse_args(argv)

    def test_help_skips_validation(self):
        cfg, _ = parse_args(["--help"])
        assert cfg.want_help


class TestExitCodes:
    def test_models_found_is_zero(self):
        rc, out, _ = run([ex("bw-pair"), "query=tower"])
        assert rc == 0
        assert "found step 1, 1 model" in out

    def test_exhaustion_is_one(self):
        rc, out, _ = run([ex("bw-test"), "query=impossible"])
        assert rc == 1
        assert "no models in steps 0..1" in out

    def test_usage_problem_is_two(self):
        rc, _, err = run(["--bogus"])
        assert rc == 2
        assert "unknown flag" in err and "usage:" in err

    def test_parse_problem_is_two(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text(":- sorts\nblock(\n")
        rc, _, err = run([str(bad), "query=q"])
        assert rc == 2
        assert "error:" in err

    def test_unknown_query_is_two(self):
        rc, _, err = run([ex("bw-pair"), "query=nope"])
        assert rc == 2
        assert "no query named 'nope'" in err
        assert "tower" in err

    def test_other_language_is_two(self):
        rc, _, err = run(["--language=bc", ex("hanoi"), "query=transfer"])
        assert rc == 2
        assert "language mode not supported in this build" in err

    def test_help_is_zero(self):
        rc, out, _ = run(["--help"])
        assert rc == 0
        assert out.startswith("usage:")

    @pytest.mark.parametrize(
        "formula",
        [" ->> ".join(["p"] * 1001), "-" * 1200 + "p"],
        ids=["impl-chain-1000", "negations-1200"],
    )
    def test_deep_formula_solves(self, tmp_path, formula):
        path = tmp_path / "deep"
        path.write_text(
            ":- constants p :: inertialFluent.\n"
            f"constraint {formula}.\n"
            ":- query label :: q; maxstep :: 0..1; maxstep: p.\n"
        )
        rc, out, err = run([str(path), "query=q"])
        assert (rc, err) == (0, "")
        assert "query 'q': found step 0, 1 model" in out

    # an integer past the 4,300 digits Python's int() converts
    HUGE = "9" * 5000
    SMALL = (":- constants p :: inertialFluent; a :: exogenousAction.\na causes p.\n"
             ":- query label :: go; maxstep :: 0..3; 0: -p; maxstep: p.\n")

    @pytest.mark.parametrize("text, where", [
        (SMALL.replace("0..3", "0.." + HUGE), ":3:37:"),
        (":- sorts n.\n:- objects 0.." + HUGE + " :: n.\n" + SMALL, ":2:15:"),
    ], ids=["maxstep-range", "objects-range"])
    def test_huge_integer_is_a_parse_error(self, tmp_path, text, where):
        path = tmp_path / "huge"
        path.write_text(text)
        rc, out, err = run([str(path), "query=go"])
        assert (rc, out) == (2, "")
        assert f"{where} integer of 5000 digits is too long" in err

    @pytest.mark.parametrize("token", [f"maxstep={HUGE}", f"maxstep=0..{HUGE}",
                                       f"minstep={HUGE}", f"sol={HUGE}", HUGE, "maxstep=²"])
    def test_unreadable_count_is_a_usage_error(self, tmp_path, token):
        path = tmp_path / "small"
        path.write_text(self.SMALL)
        rc, out, err = run([str(path), "query=go", token])
        assert (rc, out) == (2, "")
        assert "bad number in" in err

    def test_huge_integer_in_a_dump_is_a_format_error(self, tmp_path):
        path = tmp_path / "small"
        path.write_text(self.SMALL)
        rc, dump, _ = run(["--mode=static", "--to-grounder", str(path), "query=go", "maxstep=1"])
        assert rc == 0 and "#horizon 1.\n" in dump
        path.write_text(dump.replace("#horizon 1.", f"#horizon {self.HUGE}."))
        rc, out, err = run(["--from-grounder", str(path)])
        assert (rc, out) == (2, "")
        assert "line 2: integer of 5000 digits is too long" in err


def _nested_groups(levels):
    f = "p"
    for _ in range(levels):
        f = f"(q ++ (p & {f}))"
    return f


_SUM = " + ".join(["1"] * 1500)

# Each is valid input nested far deeper than the interpreter's recursion
# limit; the action a makes p true, so each query is found at step 1.
DEEP_LAWS = {
    "impl-chain-2000": "constraint " + " ->> ".join(["p"] * 2001) + ".",
    "negations-2000": "constraint " + "-" * 2000 + "(p ++ -p).",
    "groups-1000": "constraint " + _nested_groups(1000) + ".",
    "sum-1500": f"caused q if p & {_SUM} = 1500.",
    "where-sum-1500": f"constraint p ->> q where X = {_SUM} - 1500.",
    "where-conjuncts-1500": "constraint p ->> q where "
    + " & ".join(f"X < {i}" for i in range(2, 1502)) + ".",
    # equal trees, built apart: nothing compares them
    "twin-negations-2000": ("constraint " + "-" * 2000 + "(p ++ -p).\n") * 2,
}


class TestDeepInputs:
    @pytest.mark.parametrize("name", list(DEEP_LAWS))
    def test_solves_and_every_dump_reads_back(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(
            ":- sorts n. :- objects 0..2 :: n. :- variables X :: n.\n"
            ":- constants p, q :: inertialFluent; a :: exogenousAction.\n"
            f"a causes p.\n{DEEP_LAWS[name]}\n"
            ":- query label :: go; maxstep :: 0..3; 0: -p; maxstep: p.\n"
        )
        found = "found step 1,"
        rc, out, err = run([str(path), "query=go"])
        assert (rc, err) == (0, "") and found in out
        dumps = {
            "pre": ["--to-pre-processor", str(path)],
            "incremental": ["--to-grounder", str(path), "query=go"],
            "static": ["--mode=static", "--to-grounder", str(path), "query=go", "maxstep=1"],
        }
        for kind, args in dumps.items():
            rc, dump, err = run(args)
            assert (rc, err) == (0, ""), kind
            dump_path = tmp_path / f"{kind}.dump"
            dump_path.write_text(dump)
            read = ["--from-pre-processor", str(dump_path), "query=go"] if kind == "pre" \
                else ["--from-grounder", str(dump_path)]
            rc, out, err = run(read)
            assert (rc, err) == (0, "") and found in out, kind


    def test_chain_of_includes_solves(self, tmp_path):
        # each file includes the next; the last declares and queries
        n = 1200
        for i in range(n - 1):
            (tmp_path / f"f{i}.t").write_text(f":- include 'f{i + 1}.t'.\n")
        (tmp_path / f"f{n - 1}.t").write_text(
            ":- constants p :: inertialFluent; a :: exogenousAction.\n"
            "a causes p.\n"
            ":- query label :: go; maxstep :: 0..3; 0: -p; maxstep: p.\n"
        )
        rc, out, err = run([str(tmp_path / "f0.t"), "query=go"])
        assert (rc, err) == (0, "") and "found step 1," in out

    def test_negations_too_deep_to_hash_solve(self, tmp_path):
        # a record hashes its fields in C with no depth guard, and a tree
        # this deep overflows the C stack if it is hashed: no layer may
        # hash a formula node above the atoms
        (tmp_path / "deep").write_text(
            ":- constants p :: inertialFluent; a :: exogenousAction.\na causes p.\n"
            "constraint " + "-" * 200_000 + "(p ++ -p).\n"
            ":- query label :: go; maxstep :: 0..3; 0: -p; maxstep: p.\n"
        )
        out = run_fresh("from cplusplan.cli import main\n"
                        "print(main(['deep', 'query=go']))", cwd=tmp_path)
        assert "query 'go': found step 1, 1 model" in out
        assert out.endswith("\n0\n")


class TestLoadedOnFirstUse:
    def test_a_query_imports_no_check_route_loop_or_dump_module(self):
        # the independent routes, the interactive loop and the dumps load
        # on first use: neither a batch query nor an API solve compiles them
        code = (
            "import io, sys\n"
            "import cplusplan\n"
            "from cplusplan import cli, suite\n"
            "lazy = ('cplusplan.reference', 'cplusplan.repl', 'cplusplan.export')\n"
            "def loaded():\n"
            "    return [m for m in lazy if m in sys.modules]\n"
            "path = str(suite.EXAMPLES_DIR / 'bw-test')\n"
            "out = io.StringIO()\n"
            "rc = cli.main([path, 'query=simple'], out, io.StringIO(), io.StringIO())\n"
            "gls = cplusplan.ground_description(cplusplan.parse_files([path]))\n"
            "res = cplusplan.solve_incremental(\n"
            "    cplusplan.incremental_program(gls, gls.queries['simple']),\n"
            "    cplusplan.SolveConfig(max_solutions=1))\n"
            "print(rc, res.found_step, loaded())\n"
            "suite.oracle_for(suite.CASES[1])\n"
            "print(loaded())\n"
            "cli.main([path], io.StringIO(), io.StringIO(), io.StringIO('exit\\n'))\n"
            "print(loaded())\n"
        )
        assert run_fresh(code).splitlines() == [
            "0 2 []",
            "['cplusplan.reference']",
            "['cplusplan.reference', 'cplusplan.repl']",
        ]


class TestBatchOutput:
    def test_plans_hide_false_booleans(self):
        rc, out, _ = run([ex("bw-pair"), "query=tower"])
        assert rc == 0
        assert "SOLUTION 1 (step 1)" in out
        assert "ACTIONS:  move(a,b)" in out
        assert "-move(" not in out

    def test_summary_has_timings_per_stage(self):
        _, out, _ = run([ex("bw-pair"), "query=tower"])
        (line,) = [l for l in out.splitlines() if l.startswith("timings:")]
        for stage in ("pre-processor", "grounder", "solver", "post-processor"):
            assert stage in line

    def test_solution_count_override(self):
        rc, out, _ = run([ex("ferryman"), "query=cross", "all"])
        assert rc == 0
        assert out.count("SOLUTION") == 2
        assert "found step 7, 2 models" in out

    def test_maxstep_pins_the_exact_step(self):
        rc, out, _ = run([ex("ferryman"), "query=cross", "maxstep=3"])
        assert rc == 1
        assert "no models in steps 3..3" in out

    def test_maxstep_window_truncates(self):
        rc, out, _ = run([ex("ferryman"), "query=cross", "maxstep=0..3"])
        assert rc == 1
        assert "no models in steps 0..3" in out

    def test_minstep_above_maxstep_rejected(self):
        rc, _, err = run([ex("bw-pair"), "query=tower", "maxstep=1", "minstep=3"])
        assert rc == 2
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "case", default_cases(), ids=lambda c: f"{c.name}.{c.query}"
    )
    def test_static_mode_matches_incremental(self, case):
        def untimed(mode):
            rc, out, err = run([f"--mode={mode}", ex(case.name), f"query={case.query}"])
            drop = lambda t: [l for l in t.splitlines() if not l.startswith("timings:")]
            return rc, drop(out), drop(err)

        assert untimed("static") == untimed("incremental")

    def test_all_steps_reports_every_horizon(self):
        rc, out, _ = run(
            ["--mode=static", "--all-steps", ex("bw-pair"), "query=tower", "all"]
        )
        assert rc == 0
        steps = [l for l in out.splitlines() if l.startswith("step ")]
        assert steps[0] == "step 0: no models"
        assert steps[1] == "step 1: 1 model"
        assert len(steps) == 5


def _bw_pair_static_dump(tmp_path, k):
    """The path of a prop-program dump of bw-pair's tower query at step k."""
    _, dump, _ = run(["--mode=static", "--to-grounder", ex("bw-pair"),
                      "query=tower", f"maxstep={k}"])
    path = tmp_path / "prop.dump"
    path.write_text(dump)
    return path


class TestStageCuts:
    def test_to_pre_processor_needs_no_query(self):
        rc, out, err = run(["--to-pre-processor", ex("bw-pair")])
        assert rc == 0
        assert out.startswith("#format ground-laws 1.")
        assert out.rstrip().endswith("#end.")
        assert err == ""

    def test_ground_dump_refeeds_identically(self, tmp_path):
        _, dump, _ = run(["--to-pre-processor", ex("bw-pair")])
        path = tmp_path / "pre.dump"
        path.write_text(dump)
        rc, out, _ = run(["--from-grounder", str(path), "query=tower"])
        assert rc == 0
        assert "found step 1, 1 model" in out

    def test_incremental_dump_carries_its_query(self, tmp_path):
        _, dump, _ = run(["--to-grounder", ex("hanoi"), "query=transfer"])
        assert dump.startswith("#format incremental-program 1.")
        path = tmp_path / "inc.dump"
        path.write_text(dump)
        rc, out, _ = run(["--from-grounder", str(path)])
        assert rc == 0
        assert "query 'transfer': found step 7, 1 model" in out

    def test_static_grounder_dump_is_fixed_horizon(self, tmp_path):
        _, dump, _ = run(
            ["--mode=static", "--to-grounder", ex("bw-pair"),
             "query=tower", "maxstep=1"]
        )
        assert dump.startswith("#format prop-program 1.")
        path = tmp_path / "prop.dump"
        path.write_text(dump)
        rc, out, _ = run(["--from-grounder", str(path)])
        assert rc == 0
        assert "found step 1, 1 model" in out

    @pytest.mark.parametrize("override, name", [
        ("query=tower", "query="), ("maxstep=5", "maxstep="),
        ("maxstep=0..3", "maxstep="), ("minstep=0", "minstep=")])
    def test_static_grounder_dump_refuses_a_step_or_query_override(
            self, tmp_path, override, name):
        path = _bw_pair_static_dump(tmp_path, 3)
        rc, out, err = run(["--from-grounder", str(path), override])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {name} does not apply")
        assert "at step 3" in err

    def test_static_grounder_dump_takes_a_solution_count(self, tmp_path):
        path = _bw_pair_static_dump(tmp_path, 3)
        rc, out, _ = run(["--from-grounder", str(path), "sol=all"])
        assert rc == 0
        assert "query 'program': found step 3, 23 models" in out

    def test_static_grounder_dump_output_is_pinned(self, tmp_path):
        path = _bw_pair_static_dump(tmp_path, 3)
        untimed = []
        for args in ([], ["sol=all"]):
            rc, out, _ = run(["--from-grounder", str(path)] + args)
            assert rc == 0
            untimed.append("".join(l for l in out.splitlines(keepends=True)
                                   if not l.startswith("timings:")))
        assert untimed[0] == (
            "SOLUTION 1 (step 3)\n"
            "0:  loc(a)=table  loc(b)=table\n"
            "1:  loc(a)=table  loc(b)=table\n"
            "2:  loc(a)=table  loc(b)=table\n"
            "ACTIONS:  move(a,b)\n"
            "3:  loc(a)=b  loc(b)=table\n"
            "query 'program': found step 3, 1 model\n"
        )
        # the 23 plans, in the order the search meets them
        assert hashlib.sha256(untimed[1].encode()).hexdigest() == (
            "89379b938093eafb381672f0b3e9fdb43e096f4b688bb4683b3e3024ece77de9")

    def test_static_dump_reports_its_empty_step(self, tmp_path):
        path = _bw_pair_static_dump(tmp_path, 0)
        rc, out, _ = run(["--mode=static", "--all-steps", "--from-grounder", str(path)])
        assert rc == 1
        assert "step 0: no models" in out.splitlines()

    def test_ungrouped_query_line_is_rejected(self, tmp_path):
        _, dump, _ = run(["--to-grounder", ex("bw-test"), "query=simple"])
        lines = dump.splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("#qline at maxstep"))
        # without its parentheses the line reads as its first conjunct and
        # stray tokens, which must not be dropped
        lines[i] = lines[i].replace("(", "", 1)[:-2] + "."
        path = tmp_path / "inc.dump"
        path.write_text("\n".join(lines) + "\n")
        rc, out, err = run(["--from-grounder", str(path)])
        assert rc == 2
        assert out == ""
        assert f"line {i + 1}: trailing tokens" in err

    def test_static_mode_solves_an_incremental_dump(self, tmp_path):
        _, dump, _ = run(["--to-grounder", ex("bw-test"), "query=simple"])
        path = tmp_path / "inc.dump"
        path.write_text(dump)
        rc, out, _ = run(["--mode=static", "--from-grounder", str(path)])
        assert rc == 0
        assert "query 'simple': found step 2, 1 model" in out

    def test_unrequested_dumps_are_not_serialized(self, monkeypatch):
        def untimed(result):
            rc, out, err = result
            return rc, [l for l in out.splitlines() if not l.startswith("timings:")], err

        runs = [[f"--mode={mode}", ex("bw-pair"), "query=tower"]
                for mode in ("incremental", "static")]
        want = [untimed(run(args)) for args in runs]

        def refuse(*_):
            raise AssertionError("exporter called for a dump nobody asked for")

        for name in ("export_ground", "export_incremental", "export_prop"):
            monkeypatch.setattr(export, name, refuse)
        got = [untimed(run(args)) for args in runs]
        assert got == want
        assert [rc for rc, _, _ in got] == [0, 0]

    def test_importing_the_cli_leaves_the_dump_module_out(self):
        # only a run that reads or writes a dump imports it
        code = "import sys, cplusplan.cli; print('cplusplan.export' in sys.modules)"
        assert run_fresh(code) == "False\n"

    @pytest.mark.parametrize(
        "mode, exporter",
        [("incremental", "export_incremental"), ("static", "export_prop")],
    )
    def test_requested_dump_calls_the_exporter(self, monkeypatch, mode, exporter):
        calls = []
        monkeypatch.setattr(export, exporter, lambda prog: calls.append(prog) or "dump\n")
        rc, out, _ = run([f"--mode={mode}", "--to-grounder", ex("bw-pair"), "query=tower"])
        assert rc == 0
        assert out == "dump\n"
        assert len(calls) == 1

    def test_to_solver_splits_payload_from_summary(self):
        rc, out, err = run(["--to-solver", ex("bw-pair"), "query=tower"])
        assert rc == 0
        (line,) = out.splitlines()
        assert line.startswith("0:loc(a)=table ")
        assert "1:loc(a)=b" in line
        assert "found step 1" in err

    def test_solver_and_plan_files(self, tmp_path):
        mfile = tmp_path / "models.txt"
        pfile = tmp_path / "plans.txt"
        rc, out, _ = run(
            [f"--solver-output={mfile}", f"--post-processor-output={pfile}",
             ex("bw-pair"), "query=tower"]
        )
        assert rc == 0
        assert mfile.read_text().startswith("0:loc(a)=table ")
        assert pfile.read_text() in out  # same plans, file and stdout

    def test_solver_lines_on_stdout_alternate_with_plans(self):
        args = [ex("ferryman"), "query=cross", "all"]
        lines = run(args + ["--to-solver"])[1].splitlines(keepends=True)
        plans = run(args)[1]
        plans = plans[:plans.index("query 'cross'")]
        # each plan but the last ends in the blank line before the next
        parts = ["SOLUTION " + p for p in plans.split("SOLUTION ")[1:]]
        rc, out, _ = run(args + ["--solver-output"])
        assert rc == 0 and len(lines) == len(parts) == 2
        assert out.startswith(lines[0] + parts[0] + lines[1] + parts[1] + "query 'cross'")

    def test_every_model_streams_in_small_space(self):
        # bw-test has 30,904 plans at step 5; none is kept once written
        code = (
            "import os, resource\n"
            "from cplusplan.cli import main\n"
            "from cplusplan.suite import EXAMPLES_DIR\n"
            "with open(os.devnull, 'w') as sink:\n"
            "    rc = main([str(EXAMPLES_DIR / 'bw-test'), 'query=simple', 'minstep=5',\n"
            "               'maxstep=5', 'all', '--mode=static'], sink, sink)\n"
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        rc, max_rss_kb = map(int, run_fresh(code).split())
        assert rc == 0 and max_rss_kb < 60 * 1024

    def test_to_grounder_without_query_is_usage_error(self):
        rc, _, err = run(["--to-grounder", ex("bw-pair")])
        assert rc == 2
        assert "requires a query" in err

    def test_dump_refeed_wants_one_file(self, tmp_path):
        a = tmp_path / "a"
        a.write_text("x")
        rc, _, err = run(["--from-grounder", str(a), str(a)])
        assert rc == 2
        assert "exactly one dump file" in err


REPL_SCRIPT = """\
help
config
queries
frobnicate
sol=all
maxstep=1
minstep=0
query=nosuch
query=tower
exit
"""

REPL_GOLDEN = """\
interactive mode; 'help' lists commands, 'exit' leaves
> help
Commands:
  help            Displays the list of available commands
  config          Displays the current configuration
  queries         Displays the list of available queries to run
  minstep=[#]     Moves the lower end of the step range
  maxstep=[#]     Sets the step range to #, or to a window with lo..hi
  sol=[#]         Sets how many solutions to report; 0 or 'all' for every one
  query=[QUERY]   Runs the named query with the session overrides
  exit            Leaves interactive mode
> config
  minstep   (query default)
  maxstep   (query default)
  sol       1
  mode      incremental
  language  cplus
> queries
  tower  steps 0..4
> frobnicate
unknown command 'frobnicate'; try 'help'
> sol=all
sol set to 0
> maxstep=1
step range set to 1..1
> minstep=0
minstep set to 0
> query=nosuch
error: no query named 'nosuch'; 'queries' lists them
> query=tower
SOLUTION 1 (step 1)
0:  loc(a)=table  loc(b)=table
ACTIONS:  move(a,b)
1:  loc(a)=b  loc(b)=table
query 'tower': found step 1, 1 model
> exit
"""


def _open_range(tmp_path):
    """bw-pair with a query 'open' whose step range has no upper bound."""
    (tmp_path / "bw").write_text((EXAMPLES_DIR / "bw").read_text())
    src = (EXAMPLES_DIR / "bw-pair").read_text()
    src += "\n:- query\n  label :: open;\n  maxstep :: 0..infinity;\n  maxstep: loc(a) = b.\n"
    f = tmp_path / "open-range"
    f.write_text(src)
    return f


class TestRepl:
    def test_enters_when_no_query_given(self):
        rc, out, _ = run([ex("bw-pair")], stdin="exit\n")
        assert rc == 0
        assert out.startswith("interactive mode")

    def test_golden_session(self):
        rc, out, err = run([ex("bw-pair")], stdin=REPL_SCRIPT)
        assert rc == 0
        assert err == ""
        assert out == REPL_GOLDEN

    def test_unknown_command_does_not_terminate(self):
        rc, out, _ = run(
            [ex("bw-pair")], stdin="nonsense\nquery=tower\nexit\n"
        )
        assert rc == 0
        assert "unknown command 'nonsense'" in out
        assert "found step 1" in out

    def test_eof_leaves_cleanly(self):
        rc, out, _ = run([ex("bw-pair")], stdin="help\n")
        assert rc == 0
        assert out.endswith("> \n")

    def test_overrides_do_not_leak_into_the_description(self):
        # maxstep=0 starves the first run; a later window override must
        # search the file's full range again
        script = "maxstep=0\nquery=tower\nmaxstep=0..4\nquery=tower\nexit\n"
        rc, out, _ = run([ex("bw-pair")], stdin=script)
        assert rc == 0
        assert "no models in steps 0..0" in out
        assert "found step 1, 1 model" in out

    def test_bad_value_reports_and_continues(self):
        rc, out, _ = run(
            [ex("bw-pair")], stdin="minstep=soon\nexit\n"
        )
        assert rc == 0
        assert "error: bad minstep 'soon'" in out

    def test_unbounded_query_asks_for_maxstep(self, tmp_path):
        script = "query=open\nmaxstep=1\nquery=open\nexit\n"
        rc, out, _ = run([str(_open_range(tmp_path))], stdin=script)
        assert rc == 0
        assert "no upper step bound" in out
        # the initial state is unconstrained, so pinning step 1 works
        assert "found step 1, 1 model" in out

    def test_a_line_of_several_tokens(self):
        # each setting applies as on a line of its own, left to right,
        # and the query runs last, with the settings
        line = "query=simple maxstep=3 sol=2"
        bad = ["sol=all minstep=x", "sol=all query=nope", "sol=all help"]
        script = "\n".join([line, "config", *bad, "config", "exit"]) + "\n"
        rc, out, err = run([ex("bw-test")], stdin=script)
        assert (rc, err) == (0, "")
        _, batch, _ = run([ex("bw-test"), "query=simple", "maxstep=3", "sol=2"])
        plans = batch[: batch.index("timings: ")]
        assert plans.count("SOLUTION ") == 2
        assert f"> {line}\nstep range set to 3..3\nsol set to 2\n{plans}> config\n" in out
        # a bad token anywhere rejects the whole line: nothing changes
        assert (
            "> sol=all minstep=x\nerror: bad minstep 'x'; try 'help'\n"
            "> sol=all query=nope\nerror: no query named 'nope'; 'queries' lists them\n"
            "> sol=all help\nerror: unrecognized token 'help'; try 'help'\n> config\n"
        ) in out
        config = "  minstep   3\n  maxstep   3\n  sol       2\n"
        assert out.count(config) == 2


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_gc(request):
    """The cyclic collector set as the caller has it; the test's own
    setting comes back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class _Lines:
    """A REPL input that notes the collector's setting at each read."""

    def __init__(self, text):
        self.lines = io.StringIO(text)
        self.seen = []

    def readline(self):
        self.seen.append(gc.isenabled())
        return self.lines.readline()


class TestCollectorPaused:
    def _exits(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text(":- sorts\nblock(\n")
        return [
            ([ex("bw-pair"), "query=tower"], 0),
            ([ex("bw-test"), "query=impossible"], 1),
            ([ex("bw-pair"), "query=tower", "--to-grounder"], 0),
            (["--from-grounder", str(_bw_pair_static_dump(tmp_path, 1))], 0),
            (["--bogus"], 2),  # refused before any query runs
            ([ex("bw-pair"), "query=nope"], 2),  # a usage error once loaded
            ([str(bad), "query=q"], 2),  # a LangError
            ([str(tmp_path / "missing"), "query=q"], 2),  # an OSError
        ]

    def test_every_exit_gives_back_the_callers_setting(self, tmp_path, caller_gc):
        for args, want in self._exits(tmp_path):
            assert run(args)[0] == want, args
            assert gc.isenabled() is caller_gc, args

    def test_a_stage_runs_with_the_collector_off(self, monkeypatch, caller_gc):
        seen = []

        def translate(gls, query):
            seen.append(gc.isenabled())
            return cplusplan.incremental_program(gls, query)

        monkeypatch.setattr(cli, "incremental_program", translate)
        assert run([ex("bw-pair"), "query=tower"])[0] == 0
        source = _Lines("query=tower\nquery=tower\nexit\n")
        assert main([ex("bw-pair")], io.StringIO(), io.StringIO(), source) == 0
        assert seen == [False, False, False]
        # the loop waits for input with the caller's setting
        assert source.seen == [caller_gc] * 3
        assert gc.isenabled() is caller_gc

    def test_an_escaping_exception_gives_back_the_callers_setting(self, monkeypatch, caller_gc):
        def broken(gls, query):
            raise RuntimeError("broken stage")

        monkeypatch.setattr(cli, "incremental_program", broken)
        with pytest.raises(RuntimeError, match="broken stage"):
            run([ex("bw-pair"), "query=tower"])
        assert gc.isenabled() is caller_gc
        with pytest.raises(RuntimeError, match="broken stage"):
            run([ex("bw-pair")], stdin="query=tower\n")
        assert gc.isenabled() is caller_gc

    def test_a_repl_query_error_gives_back_the_callers_setting(self, tmp_path, caller_gc):
        # the unbounded range is refused inside the paused block
        out = io.StringIO()
        source = _Lines("query=open\nquery=tower\nexit\n")
        assert main([str(_open_range(tmp_path))], out, io.StringIO(), source) == 0
        assert "no upper step bound" in out.getvalue()
        assert source.seen == [caller_gc] * 3
        assert gc.isenabled() is caller_gc
