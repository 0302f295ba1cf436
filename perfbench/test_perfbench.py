"""Tests of the benchmark itself: its correctness gate, its tracer's
arithmetic, and its agreement with ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

from cplusplan import suite

import bench_reference as ref
import bench_trace
import bench_workload
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
ENUM = {s["example"]: s for s in bench_workload.WORKLOADS["enumerate-plans"]}
STRESS = bench_workload.WORKLOADS["search-stress"][0]


@pytest.fixture(scope="module")
def pair_answer():
    return bench_workload.Runner().run(ENUM["bw-pair"])


class TestReferences:
    def test_headcount_search(self):
        assert ref.headcount_bfs() == (9, 62)

    def test_path_counts(self):
        def paths(name, query, k):
            return ref.count_paths(suite.oracle_for(ref.suite_case(name, query)), k)

        assert paths("bw-pair", "tower", 3) == 23
        assert paths("ferryman", "cross", 9) == 90

    def test_headcount_rejects_an_unsafe_crossing(self):
        # four sheep rowing off leave six sheep with ten wolves
        assert ref.headcount_step(ref.START, True, 0, 4) is None
        assert ref.headcount_step(ref.START, True, 2, 2) == ("r", 8, 8)
        assert ref.headcount_step(ref.START, False, 1, 0) is None


class TestGate:
    def test_accepts_the_real_answer(self, pair_answer):
        assert ref.check_answer(ENUM["bw-pair"], pair_answer) is None

    def test_rejects_a_doctored_found_step(self, pair_answer):
        doctored = dict(pair_answer, found_step=2)
        assert ref.check_answer(ENUM["bw-pair"], doctored) is not None

    def test_rejects_a_doctored_model_count(self, pair_answer):
        fewer = dict(pair_answer, plans=pair_answer["plans"][:-1])
        assert ref.check_answer(ENUM["bw-pair"], fewer) is not None
        repeated = dict(pair_answer, plans=pair_answer["plans"][:-1] + pair_answer["plans"][:1])
        assert ref.check_answer(ENUM["bw-pair"], repeated) is not None

    def test_rejects_a_plan_that_does_not_replay(self, pair_answer):
        plans = list(pair_answer["plans"])
        plans[0] = plans[0].replace("loc(b)=table", "loc(b)=a", 1)
        assert ref.check_answer(ENUM["bw-pair"], dict(pair_answer, plans=plans)) is not None

    def test_rejects_a_plan_with_an_unknown_action(self, pair_answer):
        plans = list(pair_answer["plans"])
        plans[0] = plans[0].replace("ACTIONS:  ", "ACTIONS:  jump(a)  ", 1)
        assert ref.check_answer(ENUM["bw-pair"], dict(pair_answer, plans=plans)) is not None

    def test_stress_gate_uses_the_headcount_model(self):
        plan = "".join([
            "0:  boat=l  sheep=10  wolves=10\nACTIONS:  cross  sride=0  wride=0\n",
            "1:  boat=r  sheep=10  wolves=10\n",
        ])
        answer = {"found_step": 1, "plans": [plan]}
        assert "headcount" in ref.check_answer(STRESS, answer)
        # the committed expected file says 5; the headcount model says 9
        assert "headcount" in ref.check_answer(STRESS, dict(answer, found_step=5))

    def test_cli_gate(self):
        tower = {"kind": "cli", "example": "bw-pair", "query": "tower", "mode": "--mode=static"}
        good = bench_workload.canonical(bench_workload.Runner().run(tower))
        assert ref.check_answer(tower, good) is None
        wrong = dict(good, out=good["out"].replace("found step 1", "found step 2"))
        assert ref.check_answer(tower, wrong) is not None
        impossible = dict(tower, example="bw-test", query="impossible")
        assert ref.check_answer(impossible, good) is not None


class TestTracer:
    def test_self_time_is_span_minus_children(self):
        ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
        t = bench_trace.Tracer(clock=lambda: next(ticks))
        t.keep_spans = True
        main = t.open("cli.main")            # 0
        parse = t.open("parser.parse")       # 1
        t.close(parse)                       # 2: parse 1s
        ground = t.open("ground.ground")     # 4
        t.close(ground)                      # 5: ground 1s
        t.close(main)                        # 10: main 10s, children 2s
        assert t.self_time["cli.self_s"] == 8.0
        assert t.self_time["parser.parse_s"] == 1.0
        assert t.self_time["ground.ground_s"] == 1.0
        assert [s["parent"] for s in t.spans] == [main.sid, main.sid, None]

    def test_install_restores_every_entry_point(self):
        from cplusplan import cli, solve

        before = (cli.enumerate_models, solve.enumerate_models, solve.Dpll.propagate)
        inst = bench_trace.install(bench_trace.Tracer())
        try:
            assert cli.enumerate_models is solve.enumerate_models
            assert cli.enumerate_models is not before[0]
        finally:
            inst.uninstall()
        assert (cli.enumerate_models, solve.enumerate_models, solve.Dpll.propagate) == before


class TestDeclaredMetrics:
    def test_workloads(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_workload.WORKLOADS)

    def test_end_to_end_names_and_units(self):
        passes = [{"wall_s": 1.0, "factor": 1.0, "traced": False, "latencies": [0.5, 0.5]}]
        metrics = run.end_to_end_metrics({"passes": passes, "peak_rss_mb": 20.0}, [(0.1, 1.0)])
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert {k: run.END_TO_END_UNITS[k] for k in metrics} == declared

    def test_per_layer_names_and_units(self):
        tracer = bench_trace.Tracer()
        runner = bench_workload.Runner()
        inst = bench_trace.install(tracer)
        try:
            for spec in bench_workload.WORKLOADS["cli-batch"][:3]:
                tracer.begin_query(spec["id"])
                runner.run(spec)
        finally:
            inst.uninstall()
        passes = [{"wall_s": 1.0, "factor": 1.0, "traced": False},
                  {"wall_s": 1.1, "factor": 1.0, "traced": True, "layers": tracer.layer_metrics()}]
        metrics = run.per_layer_metrics({"passes": passes})
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert {k: run.layer_unit(k) for k in metrics} == declared
        assert set(bench_trace.LAYER_MAP) <= set(metrics)
        assert metrics["translate.rules"] > 0 and metrics["export.bytes"] > 0


def test_percentile_matches_the_median():
    assert run.percentile([3.0, 1.0, 2.0, 10.0], 0.5) == 2.5
    assert run.percentile([4.0], 0.9) == 4.0
