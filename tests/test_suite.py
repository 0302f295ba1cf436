"""The bundled examples against their hand-coded transition oracles."""

import json

import pytest

from cplusplan import reference, suite
from cplusplan.plans import Assignment, PlanStep, PlanView, to_plan_view
from cplusplan.solve import SolveConfig
from cplusplan.translate import PAtom, incremental_program


def expected_answer(case):
    path = suite.EXPECTED_DIR / f"{case.name}.{case.query}.json"
    return json.loads(path.read_text())


NON_STRESS = [c for c in suite.CASES if not c.stress]
BFS_CASES = [c for c in NON_STRESS if c.oracle == "bfs-transition-system"]
STRESS = [c for c in suite.CASES if c.stress]

def case_id(c):
    return f"{c.name}-{c.query}"


class TestRegistry:
    def test_description_files_exist(self):
        for case in suite.CASES:
            assert case.description_file.is_file(), case.name

    def test_default_cases_exclude_stress(self):
        cases = suite.default_cases()
        assert all(not c.stress for c in cases)
        assert len(cases) == 5

    def test_expected_files_match_registry(self):
        for case in suite.CASES:
            data = expected_answer(case)
            assert data["name"] == case.name
            assert data["query"] == case.query
            assert data["oracle"] == case.oracle
            assert data["found_step"] == case.expected_found_step

    def test_every_description_grounds(self):
        for name in sorted({c.name for c in suite.CASES}):
            gls = suite.load_example(name)
            assert gls.queries


class TestOracleAnswers:
    @pytest.mark.parametrize("case", BFS_CASES, ids=case_id)
    def test_bfs_matches_committed_answer(self, case):
        found = reference.run_oracle_bfs(suite.oracle_for(case))
        assert found == case.expected_found_step

    def test_exhaustive_matches_committed_answer(self):
        (case,) = [c for c in suite.CASES if c.oracle == "exhaustive-stable-models"]
        k, count = reference.run_oracle_exhaustive(case)
        assert k == case.expected_found_step
        assert count == expected_answer(case)["model_count"]

    def test_bfs_agrees_with_exhaustive_on_pair(self):
        # same domain, two routes that share nothing
        (case,) = [c for c in suite.CASES if c.oracle == "exhaustive-stable-models"]
        assert reference.run_oracle_bfs(suite.oracle_for(case)) == case.expected_found_step


class TestSolverAgreement:
    @pytest.mark.parametrize("case", NON_STRESS, ids=case_id)
    def test_found_step_and_replay(self, case):
        gls, res = suite.run_case(case, SolveConfig(max_solutions=0))
        assert res.found_step == case.expected_found_step
        if case.expected_found_step is None:
            assert res.models == []
            return
        assert res.models
        oracle = suite.oracle_for(case)
        for m in res.models:
            view = to_plan_view(m, gls, res.found_step, case.query)
            assert suite.replay_plan(oracle, view)


class TestPerfbenchNames:
    """The names the benchmark tooling reads from `suite`, which keeps
    them while the oracles live in `reference`.  That a `run_case` plan
    replays under `suite.replay_plan` for each default case is
    `TestSolverAgreement`'s test."""

    def test_names_resolve_on_suite(self):
        for name in ("CASES", "EXPECTED_DIR", "ExampleCase", "oracle_for", "replay_plan"):
            assert hasattr(suite, name), name

    def test_oracle_for_gives_the_reference_classes(self):
        want = {"bw-pair": reference.BwOracle, "bw-test": reference.BwOracle,
                "hanoi": reference.HanoiOracle, "hanoi-stress": reference.HanoiOracle,
                "ferryman": reference.FerrymanOracle,
                "ferryman-stress": reference.HeadcountOracle}
        for case in suite.CASES:
            assert type(suite.oracle_for(case)) is want[case.name], case


def _pair_view(steps):
    """Builds a bw-pair view from (locs, moves) pairs by hand."""
    out = []
    for i, (locs, moves) in enumerate(steps):
        fluents = tuple(
            Assignment(f"loc({b})", l, False, False) for b, l in sorted(locs.items())
        )
        actions = tuple(
            Assignment(f"move({b},{l})", "true", True, True) for b, l in sorted(moves)
        )
        out.append(PlanStep(i, fluents, actions))
    return PlanView("tower", len(steps) - 1, tuple(out))


class TestReplay:
    ORACLE = suite.oracle_for(suite.CASES[0])  # bw-pair/tower

    def test_accepts_the_real_plan(self):
        view = _pair_view(
            [
                ({"a": "table", "b": "table"}, {("a", "b")}),
                ({"a": "b", "b": "table"}, set()),
            ]
        )
        assert suite.replay_plan(self.ORACLE, view)

    def test_rejects_state_jump_without_action(self):
        view = _pair_view(
            [
                ({"a": "table", "b": "table"}, set()),
                ({"a": "b", "b": "table"}, set()),
            ]
        )
        assert not suite.replay_plan(self.ORACLE, view)

    def test_rejects_wrong_successor_state(self):
        view = _pair_view(
            [
                ({"a": "table", "b": "table"}, {("a", "b")}),
                ({"a": "table", "b": "a"}, set()),
            ]
        )
        assert not suite.replay_plan(self.ORACLE, view)

    def test_rejects_goal_miss(self):
        view = _pair_view(
            [
                ({"a": "table", "b": "table"}, set()),
                ({"a": "table", "b": "table"}, set()),
            ]
        )
        assert not suite.replay_plan(self.ORACLE, view)

    def test_rejects_inexecutable_move(self):
        # b sits on a, so a may not move
        view = _pair_view(
            [
                ({"a": "table", "b": "a"}, {("a", "b")}),
                ({"a": "b", "b": "a"}, set()),
            ]
        )
        assert not suite.replay_plan(self.ORACLE, view)


class TestOracleNames:
    """Each oracle reads the fluent and action names that its own
    description grounds, so it models the problem the solver is given."""

    @pytest.mark.parametrize("case", suite.CASES, ids=case_id)
    def test_oracle_reads_grounded_names(self, case):
        gls = suite.load_example(case.name)
        oracle = suite.oracle_for(case)
        actions = set(gls.action_ids())
        first = {gc.cid: gc.dom[0] for gc in gls.symbols.order}
        for gc in gls.symbols.order:
            for v in gc.dom:
                values = {**first, gc.cid: v}
                model = frozenset(
                    PAtom(step, c, x)
                    for c, x in values.items()
                    for step in (0, 1)
                    if step == 0 or c not in actions
                )
                step = to_plan_view(model, gls, 1, case.query).steps[0]
                oracle.state_of(suite.view_fluents(step))
                oracle.actions_of(suite.view_actions(step))


class TestGuards:
    def test_state_space_cap(self):
        (case,) = [c for c in suite.CASES if c.query == "impossible"]
        with pytest.raises(reference.StateSpaceTooLarge):
            reference.run_oracle_bfs(suite.oracle_for(case), limit=10)

    def test_unknown_case_has_no_oracle(self):
        with pytest.raises(KeyError):
            suite.oracle_for(suite.ExampleCase("bw", "nope", "bfs-transition-system", 0))


class TestStress:
    @pytest.mark.parametrize("case", STRESS, ids=case_id)
    def test_bfs_matches_committed_answer(self, case):
        found = reference.run_oracle_bfs(suite.oracle_for(case))
        assert found == case.expected_found_step

    # carried over learned clauses matter here: hundreds of conflicts a
    # horizon, and the run stays well under a second
    def test_ferryman_solver_agrees_and_replays(self):
        (case,) = [c for c in STRESS if c.name == "ferryman-stress"]
        gls, res = suite.run_case(case, SolveConfig(max_solutions=1))
        assert res.found_step == case.expected_found_step
        oracle = suite.oracle_for(case)
        for m in res.models:
            view = to_plan_view(m, gls, res.found_step, case.query)
            assert suite.replay_plan(oracle, view)

    # 13,064 conflicts at horizon 63: cheap enough for the default run
    def test_hanoi_solver_agrees_and_replays(self):
        (case,) = [c for c in STRESS if c.name == "hanoi-stress"]
        gls, res = suite.run_case(case, SolveConfig(max_solutions=1))
        assert res.found_step == case.expected_found_step == 63
        view = to_plan_view(res.models[0], gls, res.found_step, case.query)
        assert suite.replay_plan(suite.oracle_for(case), view)

    def test_hanoi_grounds_the_whole_horizon(self):
        # the one horizon of the deep case is large: the search above
        # closes it, over every rule counted here
        gls = suite.load_example("hanoi-stress")
        inc = incremental_program(gls, gls.queries["transfer"])
        assert inc.min_step == inc.max_step == 63
        total = len(inc.base)
        for t in range(1, 64):
            total += len(inc.step_rules(t))
        total += len(inc.query_rules_at(63))
        # the grounder drops vacuous law instances (condition false), so
        # no atom-free constraint is placed at any step
        assert total == 27236
        assert len(inc.timed_consts(63)) == 1518
