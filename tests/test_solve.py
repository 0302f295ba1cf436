"""Search correctness: against brute force, and on the known anchors."""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cplusplan
from cplusplan import mvpf, reference, solve, suite, translate
from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.reference import brute_force_models, theory_to_prop
from cplusplan.solve import (
    Dpll,
    SolveConfig,
    Stats,
    enumerate_models,
    is_stable_model,
    peval,
    preduct,
    solve_horizons,
    solve_incremental,
)
from cplusplan.translate import (
    IncrementalProgram,
    PAtom,
    PropRule,
    TimedConst,
    UnboundedRange,
    incremental_program,
    rule_formula,
)
from horizons import listed_horizons

ALL = SolveConfig(max_solutions=0)


def models(rules, groups=None, config=ALL):
    stats = Stats()
    return set(enumerate_models(rules, groups, config, stats)), stats


def c_atom(v):
    return PAtom(0, 100, v)


C_GROUP = [TimedConst(0, 100, (c_atom(1), c_atom(2), c_atom(3)))]


class TestValueAnchors:
    """The three one-constant theories with domain {1,2,3}, in their
    propositional form.  Expected model sets match the exhaustive
    multi-valued route (see test_mvpf)."""

    def test_self_support_has_no_models(self):
        rules = [PropRule(c_atom(1), c_atom(1), "static")]
        got, stats = models(rules, C_GROUP)
        assert got == set()
        # the c=2 / c=3 candidates die on support, c=1 dies on stability
        assert stats.models_checked >= 1

    def test_guarded_self_support(self):
        rules = [PropRule(c_atom(1), mvpf.Neg(mvpf.Neg(c_atom(1))), "choice")]
        got, _ = models(rules, C_GROUP)
        assert got == {frozenset({c_atom(1)})}

    def test_guarded_choice_plus_fact(self):
        rules = [
            PropRule(c_atom(1), mvpf.Neg(mvpf.Neg(c_atom(1))), "choice"),
            PropRule(c_atom(2), mvpf.TOP, "static"),
        ]
        got, _ = models(rules, C_GROUP)
        assert got == {frozenset({c_atom(2)})}

    def test_groups_and_no_rules_have_no_models(self):
        got, _ = models([], C_GROUP)
        assert got == set()


A, B = PAtom(0, 1, 1), PAtom(0, 2, 1)


class TestStabilityBites:
    """Programs where every candidate is supported; only the stability
    check separates stable from unstable."""

    def test_direct_loop(self):
        rules = [PropRule(A, A, "static")]
        got, _ = models(rules, None)
        assert got == {frozenset()}

    def test_mutual_loop(self):
        rules = [PropRule(A, B, "static"), PropRule(B, A, "static")]
        got, _ = models(rules, None)
        assert got == {frozenset()}

    def test_loop_with_external_support(self):
        rules = [
            PropRule(A, B, "static"),
            PropRule(B, A, "static"),
            PropRule(A, mvpf.TOP, "static"),
        ]
        got, _ = models(rules, None)
        assert got == {frozenset({A, B})}

    def test_is_stable_model_direct(self):
        rules = [PropRule(A, A, "static")]
        assert not is_stable_model(rules, frozenset({A}), Stats())
        assert is_stable_model(rules, frozenset(), Stats())

    def test_empty_program(self):
        got, _ = models([], None)
        assert got == {frozenset()}


class TestAgainstBruteForce:
    def check(self, rules):
        got, _ = models(rules, None)
        atoms = set()
        for r in rules:
            if r.head is not None:
                atoms.add(r.head)
            atoms |= {a for a in _body_atoms(r)}
        expect = set(
            brute_force_models([rule_formula(r) for r in rules], sorted(atoms, key=str))
        )
        assert got == expect

    def test_negation_as_failure(self):
        # a unless b; b from a double negation
        rules = [
            PropRule(A, mvpf.Neg(B), "r"),
            PropRule(B, mvpf.Neg(mvpf.Neg(B)), "r"),
        ]
        self.check(rules)

    def test_constraint_filters(self):
        rules = [
            PropRule(A, mvpf.Neg(mvpf.Neg(A)), "r"),
            PropRule(B, mvpf.Neg(mvpf.Neg(B)), "r"),
            PropRule(None, mvpf.And((A, B)), "r"),
        ]
        self.check(rules)

    def test_implication_body(self):
        rules = [
            PropRule(A, mvpf.Impl(B, mvpf.BOT), "r"),
            PropRule(B, mvpf.Neg(A), "r"),
        ]
        self.check(rules)


def _body_atoms(rule):
    return set(translate.formula_leaves(rule.body))


def random_program(rng, n_atoms, n_rules):
    atoms = [PAtom(0, i, 1) for i in range(n_atoms)]

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(atoms)
        if roll < 0.5:
            return mvpf.Neg(formula(depth - 1))
        if roll < 0.6:
            return mvpf.Neg(mvpf.Neg(formula(depth - 1)))
        if roll < 0.75:
            return mvpf.And((formula(depth - 1), formula(depth - 1)))
        if roll < 0.9:
            return mvpf.Or((formula(depth - 1), formula(depth - 1)))
        return mvpf.Impl(formula(depth - 1), formula(depth - 1))

    rules = []
    for _ in range(n_rules):
        head = None if rng.random() < 0.2 else rng.choice(atoms)
        rules.append(PropRule(head, formula(rng.randint(1, 3)), "r"))
    return rules, atoms


class TestRandomizedAgainstBruteForce:
    def test_small_programs(self):
        rng = random.Random(20240817)
        for trial in range(60):
            rules, atoms = random_program(rng, rng.randint(2, 6), rng.randint(1, 6))
            got, _ = models(rules, None)
            expect = set(brute_force_models([rule_formula(r) for r in rules], atoms))
            assert got == expect, (trial, rules)


class TestRandomTheoriesBothRoutes:
    """Multi-valued stable models against the propositional reduction,
    via brute force on the reduced side (no shared search code)."""

    def test_bijection_sample(self):
        rng = random.Random(97)
        for trial in range(40):
            n_consts = rng.randint(1, 2)
            doms = {c: tuple(range(10, 10 + rng.randint(2, 3))) for c in range(n_consts)}
            sig = mvpf.Signature(tuple(range(n_consts)), doms)

            def formula(depth):
                roll = rng.random()
                if depth == 0 or roll < 0.4:
                    c = rng.randrange(n_consts)
                    return mvpf.MvAtom(c, rng.choice(doms[c]))
                if roll < 0.55:
                    return mvpf.Neg(formula(depth - 1))
                if roll < 0.7:
                    return mvpf.And((formula(depth - 1), formula(depth - 1)))
                if roll < 0.85:
                    return mvpf.Or((formula(depth - 1), formula(depth - 1)))
                return mvpf.Impl(formula(depth - 1), formula(depth - 1))

            theory = reference.MvTheory(
                sig, tuple(formula(rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
            )
            mv_side = {
                frozenset(PAtom(0, c, v) for c, v in m.items())
                for m in reference.enumerate_stable(theory)
            }
            formulas, atoms = theory_to_prop(theory)
            prop_side = set(brute_force_models(formulas, atoms))
            assert mv_side == prop_side, (trial, theory.formulas)


BW = """
:- sorts location >> block.
:- objects a, b :: block; table :: location.
:- constants
  loc(block) :: inertialFluent(location);
  move(block, location) :: exogenousAction.
:- variables B, B1 :: block; L :: location.
constraint B \\= B1 & loc(B) = loc(B1) ->> loc(B) = table.
move(B, L) causes loc(B) = L.
nonexecutable move(B, L) if loc(B1) = B.
nonexecutable move(B, L) if loc(B1) = L & L \\= table.
:- query label :: tower; maxstep :: 0..4; 0: loc(a) = table, loc(b) = table; maxstep: loc(a) = b.
:- query label :: impossible; maxstep :: 0..1; maxstep: loc(a) = table, loc(a) = b.
"""


@pytest.fixture(scope="module")
def bw():
    return ground_description(parse_text(BW, "<t>"))


class TestDrivers:
    def test_exhaustion(self, bw):
        q = bw.queries["impossible"]
        res = solve_incremental(incremental_program(bw, q), ALL)
        assert res.found_step is None
        assert res.models == []
        assert len(res.stats.horizons) == 2  # horizons 0 and 1

    def test_inverted_range_has_no_horizon(self, bw):
        q = dataclasses.replace(bw.queries["tower"], min_step=3, max_step=1)
        inc = incremental_program(bw, q)
        assert list(listed_horizons(inc, ALL, Stats())) == []
        res = solve_incremental(inc, ALL)
        assert res.found_step is None
        assert res.models == []

    def test_max_solutions(self, bw):
        q = bw.queries["tower"]
        res = solve_incremental(incremental_program(bw, q), SolveConfig(max_solutions=1))
        assert len(res.models) == 1

    def test_unbounded_range_rejected(self, bw):
        q = bw.queries["tower"]
        open_q = dataclasses.replace(q, max_step=None)
        with pytest.raises(UnboundedRange):
            solve_incremental(incremental_program(bw, open_q), ALL)

    def test_cumulative_rules_stay_within_step(self, bw):
        inc = incremental_program(bw, bw.queries["tower"])
        bad = translate.PropRule(
            translate.TAtom(1, 0, 0), translate.TAtom(0, 0, 0), "broken"
        )
        inc.template.append(bad)
        with pytest.raises(AssertionError):
            inc.step_rules(2)
        with pytest.raises(translate.TranslateError, match="t\\+1"):
            solve.StepCode(inc)

    def test_a_fixed_program_leaves_one_record_at_its_horizon(self):
        from cplusplan.export import export_prop, import_prop

        gls = suite.load_example("bw-pair")
        prog = import_prop(export_prop(translate.to_prop(gls, 3, gls.queries["tower"])))
        stats = Stats()
        for config, n in ((SolveConfig(max_solutions=1), 1), (ALL, 23)):
            before = (stats.decisions, stats.conflicts, stats.propagations,
                      stats.models_checked)
            found = list(enumerate_models(prog.rules, prog.timed_consts, config, stats))
            record = stats.horizons[-1]
            assert len(found) == n and record.k == prog.horizon == 3
            # the record counts this search alone
            assert (record.decisions, record.conflicts, record.propagations,
                    record.candidates) == (stats.decisions - before[0],
                                           stats.conflicts - before[1],
                                           stats.propagations - before[2],
                                           stats.models_checked - before[3])
            assert record.rules == len(prog.rules)
        assert len(stats.horizons) == 2

    def test_learned_units_from_facts(self):
        text = (
            ":- sorts s. :- objects o1, o2 :: s."
            " :- constants p :: simpleFluent(s); q :: inertialFluent(s);"
            " go :: exogenousAction."
            " caused p = o1."
            " :- query label :: x; maxstep :: 0..2; maxstep: q = o2, p = o2."
        )
        gls = ground_description(parse_text(text, "<t>"))
        res = solve_incremental(incremental_program(gls, gls.queries["x"]), ALL)
        # p is pinned to o1 at every step by the fact
        assert res.found_step is None


class TestPropHelpers:
    def test_peval(self):
        m = frozenset({A})
        assert peval(A, m)
        assert not peval(B, m)
        assert peval(mvpf.Impl(B, A), m)
        assert not peval(mvpf.And((A, B)), m)

    def test_peval_of_deep_formulas(self):
        a, b = PAtom(0, 1, 1), PAtom(0, 2, 1)
        m = frozenset({a})
        f = a
        for i in range(3000):  # each connective in turn, over f
            f = [mvpf.Neg, lambda g: mvpf.And((g, a)), lambda g: mvpf.Or((b, g)),
                 lambda g: mvpf.Impl(g, a), lambda g: mvpf.Impl(a, g)][i % 5](f)
        # a, then false, false, false, true, true: true after each round
        assert peval(f, m) is True
        assert peval(mvpf.Neg(f), m) is False
        # the walk stops at a decided part: the parts after it, unhashable
        # here, are not read
        assert peval(mvpf.Or((a, [])), m) is True
        assert peval(mvpf.And((b, [])), m) is False
        assert peval(mvpf.Impl(b, []), m) is True

    def test_preduct_replaces_unsatisfied(self):
        m = frozenset({A})
        f = mvpf.Or((B, A))
        assert preduct(f, m) == mvpf.Or((mvpf.BOT, A))
        assert preduct(mvpf.And((A, B)), m) == mvpf.BOT

    def test_preduct_on_double_negation(self):
        # the inner negation is unsatisfied and collapses; the outer
        # node, being satisfied, is rebuilt around it
        m = frozenset({A})
        f = mvpf.Neg(mvpf.Neg(A))
        assert preduct(f, m) == mvpf.Neg(mvpf.BOT)


def _clauses(n, most):
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    return st.lists(st.lists(literal, min_size=1, max_size=3, unique_by=abs), max_size=most)


# (variables, clauses, the clauses under an assumption or None for none)
FLIP_CNFS = st.integers(3, 8).flatmap(
    lambda n: st.tuples(st.just(n), _clauses(n, 20), st.none() | _clauses(n, 8)))


class TestEngine:
    """The conflict-driven search on plain CNFs."""

    def test_pigeonhole_four_into_three_is_unsat(self):
        def var(p, h):  # pigeon p sits in hole h
            return 2 + 3 * p + h

        clauses = [[1]] + [[var(p, h) for h in range(3)] for p in range(4)]
        for h in range(3):
            for p, q in itertools.combinations(range(4), 2):
                clauses.append([-var(p, h), -var(q, h)])
        stats = Stats()
        solver = Dpll(13, clauses, stats)
        assert not solver.solve()
        assert solver.conflicts > 0

    def test_backjump_skips_unrelated_levels(self, monkeypatch):
        # decisions run 2, 3, 4, 5 (lowest first, true first); deciding 5
        # under 2 clashes on 6, and the learned clause (-2 | -5) sends the
        # search back to level 1 past the unrelated decisions 3 and 4
        clauses = [[1], [-2, -5, 6], [-2, -5, -6], [3, 4, 5, 2]]
        jumps = []
        backtrack = Dpll.backtrack

        def record(self, lvl):
            jumps.append((len(self.trail_lim), lvl))
            backtrack(self, lvl)

        monkeypatch.setattr(Dpll, "backtrack", record)
        solver = Dpll(6, clauses, Stats())
        assert solver.solve()
        assert (4, 1) in jumps
        model = {v for v in range(1, 7) if solver.val[v] == 1}
        for cl in clauses:
            assert any((l > 0) == (abs(l) in model) for l in cl)
        assert 2 in model and 5 not in model

    def test_blocking_enumerates_every_assignment_once(self):
        clauses = [[1], [2, 3, 4]]
        solver = Dpll(4, clauses, Stats())
        found = []
        while solver.solve():
            found.append(tuple(solver.val[v] for v in (2, 3, 4)))
            assert len(found) <= 7
            if not solver.flip():
                break
        assert not solver.solve()
        assert len(found) == len(set(found)) == 7

    def test_random_cnfs_against_exhaustion(self):
        rng = random.Random(4417)
        for trial in range(150):
            n = rng.randint(2, 7)
            clauses = [[1]] + [
                [rng.choice((-1, 1)) * rng.randint(2, n + 1)
                 for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4 * n))
            ]
            expect = {
                bits
                for bits in itertools.product((-1, 1), repeat=n)
                if all(any((l > 0) == (bits[abs(l) - 2] > 0) for l in cl)
                       for cl in clauses[1:])
            }
            solver = Dpll(n + 1, [list(cl) for cl in clauses], Stats())
            got = []
            while solver.solve():
                got.append(tuple(solver.val[v] for v in range(2, n + 2)))
                assert len(got) <= len(expect), (trial, clauses)
                if not solver.flip():
                    break
            assert len(got) == len(set(got)), trial
            assert set(got) == expect, (trial, clauses)

    @settings(max_examples=300, deadline=None)
    @given(FLIP_CNFS)
    # a unit learned while flips are pending, without and with an assumption
    @example((7, [[1, 6, 4], [-6, 4]], None))
    @example((6, [[2, -6], [5], [6, 2]], []))
    # a backjump held at the backtrack level, under an assumption
    @example((8, [[-1, -7, -5], [-2, -7, 4], [6, -8, 7]], [[-4, -1, -3], [-7, -2, 3], [-5, 7]]))
    def test_flips_list_every_assignment_once(self, cnf):
        """solve and flip list each satisfying assignment once, those that
        exhaustion finds; the guarded clauses hold under the assumption.
        Restarting after every conflict puts restarts, and units learned
        while flips are pending, between the assignments."""
        nvars, clauses, guarded = cnf
        want = {bits for bits in itertools.product((-1, 1), repeat=nvars)
                if all(any(bits[abs(l) - 1] * l > 0 for l in cl)
                       for cl in clauses + (guarded or []))}
        a = 0 if guarded is None else nvars + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solve, "_RESTART_UNIT", 1)
            solver = Dpll(max(a, nvars), [list(cl) for cl in clauses], Stats())
            solver.add_clauses([cl + [-a] for cl in guarded or []], guarded=True)
            got = []
            while solver.solve(a):
                got.append(tuple(solver.val[1:nvars + 1]))
                assert len(got) <= len(want)
                if not solver.flip():
                    break
            assert not solver.solve(a)
        assert len(got) == len(set(got))
        assert set(got) == want

    def test_counts_repeat_across_hash_seeds(self):
        """found_step and Stats.propagations do not depend on str hashing."""
        script = (
            "import json\n"
            "from cplusplan import suite\n"
            "case = next(c for c in suite.CASES if (c.name, c.query) == ('bw-test', 'simple'))\n"
            "_, res = suite.run_case(case)\n"
            "print(json.dumps([res.found_step, res.stats.propagations]))\n"
        )
        src = str(Path(cplusplan.__file__).resolve().parents[1])
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            ).stdout
            runs.append(json.loads(out))
        assert runs[0] == runs[1]
        assert runs[0][0] == 2

    def test_wide_constant_solves_in_a_gigabyte(self):
        """A 1,501-value fluent: its one-value constraint grows linearly."""
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cplusplan.ground import ground_description\n"
            "from cplusplan.parser import parse_text\n"
            "from cplusplan.solve import SolveConfig, solve_incremental\n"
            "from cplusplan.translate import incremental_program\n"
            "gls = ground_description(parse_text('''\n"
            ":- sorts v.\n"
            ":- objects 0..1500 :: v.\n"
            ":- constants x :: inertialFluent(v); set :: exogenousAction.\n"
            "set causes x = 1.\n"
            ":- query label :: test; maxstep :: 0..1; 0: x = 0; maxstep: x = 1.\n"
            "'''))\n"
            "inc = incremental_program(gls, gls.queries['test'])\n"
            "print(solve_incremental(inc, SolveConfig()).found_step)\n"
        )
        src = str(Path(cplusplan.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "1"


def _loop_programs():
    return {
        "direct": [PropRule(A, A, "static")],
        "mutual": [PropRule(A, B, "static"), PropRule(B, A, "static")],
        "external": [
            PropRule(A, B, "static"),
            PropRule(B, A, "static"),
            PropRule(A, mvpf.TOP, "static"),
        ],
        "implication": [
            PropRule(A, mvpf.Impl(B, mvpf.BOT), "r"),
            PropRule(B, mvpf.Neg(A), "r"),
        ],
    }


DEFAULT = suite.default_cases()


@pytest.fixture
def stability_calls(monkeypatch):
    """Records every stability check, still running it."""
    calls = []
    check = solve.is_stable_model

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(solve, "is_stable_model", counted)
    return calls


class TestTightness:
    """The stability check is skipped exactly when the program is tight."""

    @pytest.mark.parametrize(
        "name", sorted({c.name for c in suite.CASES}), ids=str
    )
    def test_shipped_programs_are_tight(self, name):
        gls = suite.load_example(name)
        for query in gls.queries.values():
            inc = incremental_program(gls, query)
            for k in range(4):
                assert solve._step_ordered(inc.program(k).rules), (query.label, k)

    @pytest.mark.parametrize("case", DEFAULT, ids=lambda c: f"{c.name}-{c.query}")
    def test_tight_search_never_checks(self, case, monkeypatch):
        def refuse(*args):
            raise AssertionError("stability check on a tight program")

        monkeypatch.setattr(solve, "is_stable_model", refuse)
        _, res = suite.run_case(case, ALL)
        assert res.found_step == case.expected_found_step

    @pytest.mark.parametrize("name", sorted(_loop_programs()))
    def test_loops_and_implications_keep_the_check(self, name, stability_calls):
        rules = _loop_programs()[name]
        assert not solve._step_ordered(rules)
        got, stats = models(rules, None)
        assert len(stability_calls) == stats.models_checked > 0
        atoms = [A, B] if name != "direct" else [A]
        assert got == set(brute_force_models([rule_formula(r) for r in rules], atoms))

    def test_implication_under_negation_stays_tight(self):
        rules = [PropRule(A, mvpf.Neg(mvpf.Impl(B, A)), "r")]
        assert solve._step_ordered(rules)

    def test_same_step_dependency_keeps_the_check(self, stability_calls):
        # tight, as the one positive edge B -> A makes no loop, but not
        # step-ordered: step order is the only tightness test, so every
        # candidate is checked
        rules = [PropRule(A, mvpf.Neg(mvpf.Neg(A)), "r"), PropRule(B, A, "r")]
        assert not solve._step_ordered(rules)
        got, stats = models(rules, None)
        assert len(stability_calls) == stats.models_checked > 0
        assert got == set(brute_force_models([rule_formula(r) for r in rules], [A, B]))
        assert got == {frozenset(), frozenset({A, B})}

    def test_unsupported_atoms_keep_the_check(self, stability_calls):
        # an atom outside the groups has no support clause to lean on
        a2 = PAtom(0, 1, 2)
        group = [TimedConst(0, 1, (A, a2))]
        rules = [PropRule(A, mvpf.Neg(mvpf.Neg(B)), "r"),
                 PropRule(a2, mvpf.Neg(A), "r"),
                 PropRule(B, mvpf.Neg(mvpf.Neg(B)), "r")]
        stats = Stats()
        got = set(enumerate_models(rules, group, ALL, stats))
        assert got == {frozenset({a2}), frozenset({A, B})}
        assert len(stability_calls) == stats.models_checked == 2

    @pytest.mark.parametrize("case", DEFAULT, ids=lambda c: f"{c.name}-{c.query}")
    def test_skip_keeps_the_model_set(self, case, monkeypatch, stability_calls):
        _, skipped = suite.run_case(case, ALL)
        monkeypatch.setattr(solve, "_step_ordered", lambda rules: False)
        _, checked = suite.run_case(case, ALL)
        assert checked.stats.models_checked == 0 or stability_calls
        assert checked.found_step == skipped.found_step
        assert set(checked.models) == set(skipped.models)
        assert len(checked.models) == len(skipped.models)


# the default cases' ranges, cut where enumerating every plan stays cheap
LIVE_RANGES = {
    ("bw-pair", "tower"): (0, 4),
    ("bw-test", "simple"): (0, 4),
    ("bw-test", "impossible"): (0, 6),
    ("hanoi", "transfer"): (0, 7),
    ("ferryman", "cross"): (0, 9),
}

# p at t-1 gains a rule from step t, after p at t-1 has entered the search
GROWING_SUPPORT = """\
#format incremental-program 1.
#range 0 3.
#query "q".
#const "p" simple ("f", "t").
#const "go" action ("f", "t").
#section base.
#rule uec-unique false <- (0:"p"="f" & 0:"p"="t").
#rule uec-exists false <- -(0:"p"="f" | 0:"p"="t").
#rule default 0:"p"="f" <- --0:"p"="f".
#section cumulative.
#rule uec-unique false <- (t:"p"="f" & t:"p"="t").
#rule uec-exists false <- -(t:"p"="f" | t:"p"="t").
#rule uec-unique false <- (t-1:"go"="f" & t-1:"go"="t").
#rule uec-exists false <- -(t-1:"go"="f" | t-1:"go"="t").
#rule choice t-1:"go"="f" <- --t-1:"go"="f".
#rule choice t-1:"go"="t" <- --t-1:"go"="t".
#rule default t:"p"="f" <- --t:"p"="f".
#rule back t-1:"p"="t" <- t-1:"go"="t".
#section volatile.
#qline at maxstep+0 "p"="f".
#end.
"""


# fixed-step lines, one of them an action's, among maxstep lines, from
# min_step 3; the first line shares its gate at step 2 with the second
FIXED_LINES = """\
:- sorts n.
:- objects 0..3 :: n.
:- constants x :: inertialFluent(n); p :: inertialFluent; go, flip :: exogenousAction.
go causes x = 1 if x = 0.
go causes x = 2 if x = 1.
go causes x = 3 if x = 2.
go causes x = 0 if x = 3.
flip causes p if -p.
flip causes -p if p.
:- query label :: q; maxstep :: 3..6;
  maxstep - 1: x = 1 & p;
  2: x = 1 & p;
  1: go;
  maxstep: x = 2.
"""

# a fluent cycled by go through every value but 1, and a goal of 1
UNREACHABLE = """\
:- sorts n.
:- objects 0..3 :: n.
:- constants q :: inertialFluent(n); go :: exogenousAction.
go causes q = 2 if q = 0.
go causes q = 3 if q = 2.
go causes q = 0 if q = 3.
:- query label :: far; maxstep :: 0..60; 0: q = 0; maxstep: q = 1.
"""


def fresh_horizons(inc):
    """Each horizon's models from a solver built for it alone."""
    return [
        (k, list(enumerate_models(inc.program(k).rules, inc.timed_consts(k), ALL, Stats())))
        for k in range(inc.min_step, inc.max_step + 1)
    ]


def assert_same_horizons(live, fresh):
    assert [k for k, _ in live] == [k for k, _ in fresh]
    for (k, got), (_, want) in zip(live, fresh):
        assert len(got) == len(set(got)), k
        assert set(got) == set(want), k


class TestLiveSolver:
    """One solver per query, carried across horizons, against fresh ones."""

    @pytest.mark.parametrize("key", sorted(LIVE_RANGES), ids="-".join)
    def test_every_horizon_matches_a_fresh_solver(self, key):
        name, label = key
        lo, hi = LIVE_RANGES[key]
        gls = suite.load_example(name)
        q = dataclasses.replace(gls.queries[label], min_step=lo, max_step=hi)
        inc = incremental_program(gls, q)
        assert_same_horizons(list(listed_horizons(inc, ALL, Stats())), fresh_horizons(inc))

    def test_fixed_step_lines_match_a_fresh_solver(self, tmp_path):
        import io

        from cplusplan.cli import main

        gls = ground_description(parse_text(FIXED_LINES, "<fixed>"))
        inc = incremental_program(gls, gls.queries["q"])
        live = list(listed_horizons(inc, ALL, Stats()))
        assert_same_horizons(live, fresh_horizons(inc))
        assert [len(m) for _, m in live] == [16, 16, 32, 64]
        path = tmp_path / "fixed"
        path.write_text(FIXED_LINES)
        for mode in ("incremental", "static"):
            out = io.StringIO()
            assert main([f"--mode={mode}", str(path), "query=q"],
                        out, io.StringIO(), io.StringIO()) == 0, mode
            assert "found step 3" in out.getvalue(), mode

    def test_fixed_step_lines_stay_at_level_zero(self, monkeypatch):
        from cplusplan.plans import model_atom_names

        lives = []
        init = solve.LiveSolver.__init__

        def kept(self, *args):
            init(self, *args)
            lives.append(self)

        monkeypatch.setattr(solve.LiveSolver, "__init__", kept)
        gls = ground_description(parse_text(UNREACHABLE, "<far>"))
        inc = incremental_program(gls, gls.queries["far"])
        stats = Stats()
        horizons = listed_horizons(inc, ALL, stats)
        assert next(horizons) == (0, [])
        (live,) = lives
        (q0,) = [v for a, v in live.builder.var_of.items()
                 if model_atom_names(frozenset({a}), gls) == "0:q=0"]
        assert live.solver.val[q0] == 1 and live.solver.level[q0] == 0
        assert all(models == [] for _, models in horizons)
        # each horizon adds a step to the level-0 trajectory, and no more
        middle, last = stats.horizons[30], stats.horizons[-1]
        assert last.propagations <= middle.propagations + 10

    def test_models_are_searched_as_they_are_read(self):
        gls = suite.load_example("bw-test")
        query = dataclasses.replace(gls.queries["simple"], min_step=5, max_step=5)
        stats = Stats()
        k, models = next(solve_horizons(incremental_program(gls, query), ALL, stats))
        next(models)
        # 30,904 models in all; the horizon's record waits for the last
        assert (k, stats.models_checked, stats.horizons) == (5, 1, [])

    def test_unread_models_are_searched_before_the_next_horizon(self):
        gls = suite.load_example("bw-test")
        query = dataclasses.replace(gls.queries["simple"], min_step=0, max_step=4)
        inc = incremental_program(gls, query)
        read, unread, one = Stats(), Stats(), Stats()
        list(listed_horizons(inc, ALL, read))
        for _ in solve_horizons(inc, ALL, unread):
            pass
        for _, models in solve_horizons(inc, ALL, one):
            next(models, None)
        # the counters, without the two times
        counters = [[h[:-2] for h in s.horizons] for s in (read, unread, one)]
        assert counters[0] == counters[1] == counters[2]
        assert [h.k for h in read.horizons] == [0, 1, 2, 3, 4]

    def test_records_count_each_query_line_where_it_is_placed(self):
        gls = suite.load_example("bw-test")
        query = dataclasses.replace(gls.queries["simple"], min_step=0, max_step=2)
        inc = incremental_program(gls, query)
        stats = Stats()
        list(listed_horizons(inc, ALL, stats))
        base, step = len(inc.base), len(inc.template)
        # the initial state once, at horizon 0, and the goal at each horizon
        assert [h.rules for h in stats.horizons] == [base + 2, step + 1, step + 1]

    def test_support_that_grows_after_its_atom_appears(self):
        from cplusplan.export import import_incremental

        inc = import_incremental(GROWING_SUPPORT)
        live = list(listed_horizons(inc, ALL, Stats()))
        assert_same_horizons(live, fresh_horizons(inc))
        # every choice of go at steps 0..k-1 is a plan
        assert [len(m) for _, m in live] == [1, 2, 4, 8]

    def test_assumption_refuted_then_solver_goes_on(self):
        solver = Dpll(5, [[1], [2, 3]], Stats())
        solver.add_clauses([[-2, -4]], guarded=True)
        solver.add_clauses([[-3, -4, 5]], guarded=True)
        solver.add_clauses([[-5, -4]], guarded=True)
        assert not solver.solve(4)
        solver.retire(4)
        assert solver.val[-4] == 1 and solver.guarded == []
        solver.grow(6)
        solver.add_clauses([[-2, -6]], guarded=True)
        assert solver.solve(6)
        assert solver.val[3] == 1 and solver.val[2] == -1
        solver.retire(6)
        assert solver.solve()
        assert solver.val[-6] == 1

    def test_blocking_under_an_assumption_leaves_with_it(self):
        solver = Dpll(4, [[1], [2, 3]], Stats())
        found = 0
        while solver.solve(4):
            found += 1
            if not solver.flip():
                break
        assert found == 3
        solver.retire(4)
        solver.grow(5)
        found = 0
        while solver.solve(5):
            found += 1
            if not solver.flip():
                break
        assert found == 3

    def test_clauses_added_at_level_0_after_a_solve(self):
        solver = Dpll(3, [[1], [2, 3]], Stats())
        assert solver.solve()
        solver.add_clauses([[-2]])
        solver.add_clauses([[-3, -1, 2]])  # 1 and -2 hold for good: this is [-3]
        assert not solver.solve()

        solver = Dpll(3, [[1], [2, 3]], Stats())
        assert solver.solve()
        solver.add_clauses([[-2]])
        solver.add_clauses([[3, -1, 2]])  # and this is [3]
        assert solver.solve()
        assert solver.val[2] == -1 and solver.val[3] == 1
        assert solver.solve()  # the assignment is kept until blocked
        solver.grow(5)
        solver.add_clauses([[4, 5, -1]])
        solver.add_clauses([[-4]])
        assert solver.solve()
        assert solver.val[5] == 1
        solver.add_clauses([[-5, 2]])
        assert not solver.solve()

    def test_random_horizons_against_exhaustion(self, monkeypatch):
        """Permanent clauses grow and each horizon's guarded ones come and
        go; every horizon enumerates exactly the assignments exhaustion
        finds.  Restarting after every conflict exercises the return to
        level 1 and to the backtrack level of the flips."""
        monkeypatch.setattr(solve, "_RESTART_UNIT", 1)
        rng = random.Random(6113)

        def clause(vs):
            return [rng.choice((-1, 1)) * v for v in rng.sample(vs, min(3, len(vs)))]

        for trial in range(40):
            problem = list(range(2, 7))
            kept = [clause(problem) for _ in range(4)]
            solver = Dpll(6, [[1]] + [list(cl) for cl in kept], Stats())
            for horizon in range(4):
                nvars = solver.nvars + rng.randint(0, 2)
                problem += range(solver.nvars + 1, nvars + 1)
                guard = nvars + 1
                solver.grow(guard)
                for _ in range(rng.randint(0, 3)):
                    kept.append(clause(problem))
                    solver.add_clauses([list(kept[-1])])
                volatile = [clause(problem) for _ in range(rng.randint(1, 6))]
                for cl in volatile:
                    solver.add_clauses([cl + [-guard]], guarded=True)
                found = []
                while solver.solve(guard):
                    found.append(frozenset(v for v in problem if solver.val[v] == 1))
                    if not solver.flip():
                        break
                want = set()
                for bits in itertools.product((False, True), repeat=len(problem)):
                    true = {v for v, b in zip(problem, bits) if b}
                    if all(any((l > 0) == (abs(l) in true) for l in cl)
                           for cl in kept + volatile):
                        want.add(frozenset(true))
                assert len(found) == len(set(found)), (trial, horizon)
                assert set(found) == want, (trial, horizon)
                solver.retire(guard)

    def test_records_show_learned_clauses_carried_over(self):
        (case,) = [c for c in suite.CASES if c.name == "ferryman-stress"]
        _, res = suite.run_case(case, SolveConfig(max_solutions=1))
        records = res.stats.horizons
        assert [h.k for h in records] == list(range(0, res.found_step + 1))
        assert records[-1].candidates == 1
        assert records[-1].vars > records[0].vars
        # a horizon keeps more learned clauses than it had conflicts, so
        # some were learned at an earlier horizon
        assert any(h.learned > h.conflicts for h in records[1:])
        assert sum(h.conflicts for h in records) == res.stats.conflicts


@pytest.fixture
def dpll_input(monkeypatch):
    """Every clause list handed to a Dpll, copied as it arrives, once:
    the clauses that ``__init__`` passes on to ``add_clauses`` are logged
    with it."""
    log = []
    init, add = Dpll.__init__, Dpll.add_clauses
    building = []  # the solvers inside __init__

    def logged_init(self, nvars, clauses, stats):
        log.append((nvars, [list(cl) for cl in clauses]))
        building.append(self)
        init(self, nvars, clauses, stats)
        building.pop()

    def logged_add(self, clauses, guarded=False):
        if self not in building:
            log.extend((list(cl), guarded) for cl in clauses)
        add(self, clauses, guarded)

    monkeypatch.setattr(Dpll, "__init__", logged_init)
    monkeypatch.setattr(Dpll, "add_clauses", logged_add)
    return log


def one_horizon(inc, k):
    """The query's program searched at horizon k alone."""
    return IncrementalProgram(
        inc.gls, dataclasses.replace(inc.query, min_step=k, max_step=k), inc.base, inc.template)


# GROWING_SUPPORT with a constraint whose body has no atom: one gate for
# every step
ATOM_FREE = GROWING_SUPPORT.replace(
    '#section volatile.', '#rule junk false <- (---false & false).\n#section volatile.'
)

# p and q justify each other within a step, so a candidate can hold both
# without support from go; twin constraints at t and t-1 share gates
# across steps
STEP_LOOP = """\
#format incremental-program 1.
#range 0 2.
#query "q".
#const "p" simple ("f", "t").
#const "q" simple ("f", "t").
#const "go" action ("f", "t").
#section base.
#rule default 0:"p"="f" <- --0:"p"="f".
#rule default 0:"q"="f" <- --0:"q"="f".
#section cumulative.
#rule choice t-1:"go"="f" <- --t-1:"go"="f".
#rule choice t-1:"go"="t" <- --t-1:"go"="t".
#rule default t:"p"="f" <- --t:"p"="f".
#rule default t:"q"="f" <- --t:"q"="f".
#rule loop t:"p"="t" <- t:"q"="t".
#rule loop t:"q"="t" <- t:"p"="t".
#rule go t:"p"="t" <- t-1:"go"="t".
#rule twin false <- (t:"p"="t" & t:"q"="f").
#rule twin false <- (t-1:"p"="t" & t-1:"q"="f").
#section volatile.
#qline at maxstep+0 "p"="t".
#end.
"""


class TestStepCode:
    """The template placed step by step against the whole-horizon rule
    lists, compiled as a base alone."""

    def assert_same_as_rule_lists(self, inc, ks, dpll_input):
        """At each horizon k alone, solve_horizons hands the search the
        whole-horizon program's clauses, up to their order, and finds its
        models."""
        for k in ks:
            dpll_input.clear()
            stats = Stats()
            ((_, got),) = listed_horizons(one_horizon(inc, k), ALL, stats)
            nvars, clauses = dpll_input[0]
            dpll_input.clear()
            rules = inc.program(k).rules
            want = list(enumerate_models(rules, inc.timed_consts(k), ALL, Stats()))
            assert nvars == dpll_input[0][0], k
            assert sorted(clauses) == sorted(dpll_input[0][1]), k
            assert len(got) == len(set(got)) and set(got) == set(want), k
            (record,) = stats.horizons
            assert record.rules == len(rules)
            assert (record.vars, record.clauses) == (nvars, len(clauses))
            assert record.candidates == stats.models_checked >= len(got)

    @pytest.mark.parametrize("key", sorted(LIVE_RANGES), ids="-".join)
    def test_shipped_ranges_encode_as_the_rule_lists_did(self, key, dpll_input):
        name, label = key
        gls = suite.load_example(name)
        inc = incremental_program(gls, gls.queries[label])
        self.assert_same_as_rule_lists(inc, range(4), dpll_input)

    @pytest.mark.parametrize("dump", [GROWING_SUPPORT, ATOM_FREE], ids=["growing", "atom-free"])
    def test_dumps_encode_as_the_rule_lists_did(self, dump, dpll_input):
        from cplusplan.export import import_incremental

        inc = import_incremental(dump)
        self.assert_same_as_rule_lists(inc, range(inc.min_step, inc.max_step + 1), dpll_input)
        stats = Stats()
        live = list(listed_horizons(inc, ALL, stats))
        assert_same_horizons(live, fresh_horizons(inc))
        assert [h.candidates for h in stats.horizons] == [len(m) for _, m in live]

    def test_a_loop_in_a_step_keeps_the_check(self, dpll_input, stability_calls):
        from cplusplan.export import import_incremental

        inc = import_incremental(STEP_LOOP)
        self.assert_same_as_rule_lists(inc, range(inc.min_step, inc.max_step + 1), dpll_input)
        stability_calls.clear()
        stats = Stats()
        live = list(listed_horizons(inc, ALL, stats))
        assert 0 < len(stability_calls) == stats.models_checked
        assert_same_horizons(live, fresh_horizons(inc))
        # p at k needs go at k-1, not the loop; go at earlier steps is free
        assert [len(m) for _, m in live] == [0, 1, 2]

    def test_atom_free_gate_is_shared_across_steps(self):
        from cplusplan.export import import_incremental

        def nvars(dump):
            stats = Stats()
            list(listed_horizons(import_incremental(dump), ALL, stats))
            return stats.horizons[-1].vars

        # one gate for the conjunction, whatever the number of steps
        assert nvars(ATOM_FREE) == nvars(GROWING_SUPPORT) + 1

    def test_deep_negation_compiles_without_recursion(self):
        # false <- --...--a, 2,000 negations: the constraint false <- a,
        # after choice rules that let either value of the group hold
        a, b = PAtom(0, 1, 1), PAtom(0, 1, 2)
        body = a
        for _ in range(2000):
            body = mvpf.Neg(body)
        rules = [PropRule(x, mvpf.Neg(mvpf.Neg(x)), "choice") for x in (a, b)]
        rules.append(PropRule(None, body, "deep"))
        got = list(enumerate_models(rules, [TimedConst(0, 1, (a, b))], ALL, Stats()))
        assert got == [frozenset({b})]

    @pytest.mark.parametrize("case", DEFAULT, ids=lambda c: f"{c.name}-{c.query}")
    def test_tight_templates_build_no_formula_trees(self, case, monkeypatch):
        gls = suite.load_example(case.name)
        inc = incremental_program(gls, gls.queries[case.query])

        def refuse(*args):
            raise AssertionError("a formula tree was built while solving")

        monkeypatch.setattr(translate, "_instantiate", refuse)
        monkeypatch.setattr(translate, "map_leaves", refuse)
        found = None
        for k, models in listed_horizons(inc, SolveConfig(), Stats()):
            if models:
                found = k
                break
        assert found == case.expected_found_step

    @pytest.mark.parametrize("case", DEFAULT, ids=lambda c: f"{c.name}-{c.query}")
    def test_prop_dumps_solve_through_the_compiled_encoder(self, case, tmp_path, monkeypatch):
        import io

        from cplusplan.cli import main

        src = str(suite.EXAMPLES_DIR / case.name)
        k = case.expected_found_step
        k = 1 if k is None else k
        out = io.StringIO()
        rc = main(["--mode=static", "--to-grounder", src, f"query={case.query}",
                   f"minstep={k}", f"maxstep={k}"], out, io.StringIO(), io.StringIO())
        assert rc == 0
        path = tmp_path / "prop.dump"
        path.write_text(out.getvalue())

        placed = []
        place = solve.CnfBuilder.place

        def counted(builder, ops, t, bodies=None):
            if ops:
                placed.append(t)
            place(builder, ops, t, bodies)

        monkeypatch.setattr(solve.CnfBuilder, "place", counted)
        out = io.StringIO()
        rc = main(["--from-grounder", str(path)], out, io.StringIO(), io.StringIO())
        # the whole program, as one base; steps 1..k place the empty template
        assert placed == [0]
        if case.expected_found_step is None:
            assert rc == 1 and "found step" not in out.getvalue()
        else:
            assert rc == 0 and f"found step {k}" in out.getvalue()

    def test_records_split_the_horizon(self):
        (case,) = [c for c in suite.CASES if c.name == "ferryman"]
        _, res = suite.run_case(case, SolveConfig(max_solutions=1))
        records = res.stats.horizons
        # the base and a query line, then a step and a query line each
        assert [h.rules for h in records[1:]] == [records[1].rules] * (len(records) - 1)
        assert records[1].rules > records[0].rules > 0
        assert all(h.cnf_s > 0 and h.search_s > 0 for h in records)


# Two groups of 2-3 values at step 0, each value free by a choice rule,
# and constraints whose bodies nest And, Or, Impl and Neg to depth 4 over
# the atoms and false
def _body(atoms, depth):
    leaf = st.sampled_from([*atoms, mvpf.BOT])
    if not depth:
        return leaf
    sub = _body(atoms, depth - 1)
    parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(leaf, sub.map(mvpf.Neg), parts.map(mvpf.And), parts.map(mvpf.Or),
                     st.tuples(sub, sub).map(lambda lr: mvpf.Impl(*lr)))


@st.composite
def _grouped_constraints(draw):
    groups = [TimedConst(0, c, tuple(PAtom(0, c, v) for v in range(draw(st.integers(2, 3)))))
              for c in (1, 2)]
    atoms = [a for tc in groups for a in tc.values]
    bodies = draw(st.lists(_body(atoms, 4), min_size=1, max_size=3))
    return groups, [PropRule(None, b, "c") for b in bodies]


def _choices(groups):
    return [PropRule(a, mvpf.Neg(mvpf.Neg(a)), "choice") for tc in groups for a in tc.values]


def _rule_ops(rules):
    return [op for op in solve.StepCode(None, rules).base if op[0] == solve._RULE]


P = [PAtom(0, 1, v) for v in range(3)]
Q = [PAtom(0, 2, v) for v in range(3)]
EITHER = [TimedConst(0, 1, tuple(P)), TimedConst(0, 2, tuple(Q))]


class TestConstraintTerms:
    """A constraint whose body has 2 to 8 DNF terms is compiled as one
    constraint per term; any other keeps its gates."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_grouped_constraints())
    # bodies of 1, 4, 5 and 9 terms: And(p0, -q1); (p0 | p1) & (q0 | q1);
    # -(p0 & q0 & q1) | p2 -> q2; (p0 | p1 | p2) & (q0 | q1 | q2)
    @example((EITHER, [PropRule(None, mvpf.And((P[0], mvpf.Neg(Q[1]))), "c")]))
    @example((EITHER, [PropRule(None, mvpf.And((mvpf.Or(tuple(P[:2])), mvpf.Or(tuple(Q[:2])))), "c")]))
    @example((EITHER, [PropRule(None, mvpf.Or((mvpf.Neg(mvpf.And((P[0], Q[0], Q[1]))),
                                              mvpf.Impl(P[2], Q[2]))), "c")]))
    @example((EITHER, [PropRule(None, mvpf.And((mvpf.Or(tuple(P)), mvpf.Or(tuple(Q)))), "c")]))
    def test_models_are_the_brute_force_ones(self, program):
        groups, constraints = program
        rules = _choices(groups) + constraints
        got = list(enumerate_models(rules, groups, ALL, Stats()))
        atoms = [a for tc in groups for a in tc.values]
        want = [m for m in brute_force_models([rule_formula(r) for r in rules], atoms)
                if all(len(m & set(tc.values)) == 1 for tc in groups)]
        assert len(got) == len(set(got)) and set(got) == set(want)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_body_of_two_to_eight_terms_is_a_constraint_per_term(self, n):
        # n atoms in one disjunction: n constraints of one literal, no gate
        atoms = [PAtom(0, c, 1) for c in range(n)]
        ops = solve.StepCode(None, [PropRule(None, mvpf.Or(tuple(atoms)), "c")]).base
        assert [op[0] for op in ops] == [solve._ATOM, solve._RULE] * n

    def test_a_term_of_several_literals_keeps_one_gate(self):
        # (p0 & -q0) | (p1 & -q1): two terms, a conjunction each
        body = mvpf.Or((mvpf.And((P[0], mvpf.Neg(Q[0]))), mvpf.And((P[1], mvpf.Neg(Q[1])))))
        ops = solve.StepCode(None, [PropRule(None, body, "c")]).base
        rules = [op for op in ops if op[0] == solve._RULE]
        gates = [op for op in ops if op[0] == solve._GATE]
        assert len(rules) == len(gates) == 2
        assert [ops[r[1]] for r in rules] == gates and all(g[1] == 1 for g in gates)

    def test_a_term_with_an_atom_and_its_negation_is_dropped(self):
        # (p0 & -p0) | q0 | (q1 & q1): the constraints of q0 and of q1 alone
        body = mvpf.Or((mvpf.And((P[0], mvpf.Neg(P[0]))), Q[0], mvpf.And((Q[1], Q[1]))))
        ops = solve.StepCode(None, [PropRule(None, body, "c")]).base
        assert ops == [(solve._ATOM, 0, 2, 0), (solve._RULE, 0, None),
                       (solve._ATOM, 0, 2, 1), (solve._RULE, 2, None)]

    @pytest.mark.parametrize("body", [
        mvpf.And((mvpf.Or(tuple(P)), mvpf.Or(tuple(Q)))),  # 9 terms
        mvpf.Neg(mvpf.Or((P[0], Q[0]))),  # 1 term
    ], ids=["nine-terms", "one-term"])
    def test_other_bodies_keep_their_gates(self, body):
        ops = solve.StepCode(None, [PropRule(None, body, "c")]).base
        assert sum(op[0] == solve._RULE for op in ops) == 1
        assert any(op[0] == solve._GATE for op in ops)

    def test_a_body_that_is_true_in_one_term_keeps_its_gates(self):
        # p0 | -false: a term without literals; the body always holds
        body = mvpf.Or((P[0], mvpf.TOP))
        assert len(_rule_ops([PropRule(None, body, "c")])) == 1
        assert models(_choices(EITHER) + [PropRule(None, body, "c")], EITHER)[0] == set()

    def test_deep_negations_over_two_terms_split_without_recursion(self):
        # 200,000 negations of p0 | q0: two terms, -p0 and -q0 alone
        body = mvpf.Or((P[0], Q[0]))
        for _ in range(200_000):
            body = mvpf.Neg(body)
        rules = _choices(EITHER) + [PropRule(None, body, "deep")]
        assert len(_rule_ops(rules)) == len(rules) - 1 + 2
        got, _ = models(rules, EITHER)
        assert got == {frozenset({P[i], Q[j]}) for i in (1, 2) for j in (1, 2)}

    def test_a_deep_conjunction_over_two_terms_splits(self):
        # p0 & --(p0 & --(... (q0 | q1))), 20,000 deep: the terms p0 & q0
        # and p0 & q1, each joined once per level, not copied
        body = mvpf.Or((Q[0], Q[1]))
        for _ in range(20_000):
            body = mvpf.And((P[0], mvpf.Neg(mvpf.Neg(body))))
        rules = _choices(EITHER) + [PropRule(None, body, "deep")]
        assert len(_rule_ops(rules)) == len(rules) - 1 + 2
        got, _ = models(rules, EITHER)
        assert got == {frozenset({p, q}) for p in P for q in Q} - {
            frozenset({P[0], Q[0]}), frozenset({P[0], Q[1]})}

    def test_the_unit_of_an_unguarded_constraint_fires_its_gate(self):
        # false <- p0 & q0: the gate g keeps [g, -p0, -q0], as -g satisfies
        # [-g, p0] and [-g, q0]
        builder = solve.CnfBuilder()
        for a in P + Q:
            builder.atom_var(a)
        builder.place(solve.StepCode(None, [PropRule(None, mvpf.And((P[0], Q[0])), "c")]).base, 0)
        p0, q0, g = builder.var_of[P[0]], builder.var_of[Q[0]], builder.nvars
        assert builder.clauses[1:] == [[g, -p0, -q0], [-g]]
        # under a guard, both directions stay, as the unit leaves with it
        builder = solve.CnfBuilder()
        for a in P + Q:
            builder.atom_var(a)
        builder.guard = builder.new_var()
        builder.place(solve.StepCode(None, [PropRule(None, mvpf.And((P[0], Q[0])), "c")]).base, 0)
        assert len(builder.guarded) == 4


def atom_blocked_models(rules, groups):
    """The reference: a fixed program's stable models, each candidate
    blocked for good by a clause over all its atoms, added at level 0,
    not passed by flipping its decisions."""
    live = solve.LiveSolver(solve.StepCode(None, rules), 0)
    stats = Stats()
    program = live.extend(groups, [a for tc in groups for a in tc.values], stats)
    solver = live.solver
    atoms = list(live.builder.var_of.items())
    found = []
    while solver.solve():
        model = frozenset(a for a, v in atoms if solver.val[v] == 1)
        if program is None or is_stable_model(program, model, stats):
            found.append(model)
        solver.add_clauses([[-v if solver.val[v] == 1 else v for _, v in atoms]])
    assert len(found) == len(set(found))
    return set(found)


# one fluent and one action of nine values each, so both groups take a
# sequential counter; x = 8 at step k needs go with set = 8 at some step
WIDE = """\
:- sorts n.
:- objects 0..8 :: n.
:- variables N :: n.
:- constants x :: inertialFluent(n); set :: exogenousAction(n); go :: exogenousAction.
go causes x = N if set = N.
:- query label :: q; maxstep :: 0..2; 0: x = 0; maxstep: x = 8.
"""


class TestDecisionBlocking:
    """Each candidate is passed by flipping its deepest decision; the
    models are those that blocking every atom finds, each once."""

    @pytest.mark.parametrize("mode", ["incremental", "static"])
    @pytest.mark.parametrize("case", DEFAULT, ids=lambda c: f"{c.name}-{c.query}")
    def test_cli_lists_every_model_once(self, case, mode):
        import io

        from cplusplan.cli import main
        from cplusplan.plans import model_atom_names

        gls = suite.load_example(case.name)
        query = gls.queries[case.query]
        inc = incremental_program(gls, query)

        def listed(*extra):
            out = io.StringIO()
            main([f"--mode={mode}", "--to-solver", str(suite.EXAMPLES_DIR / case.name),
                  f"query={case.query}", "all", *extra], out, io.StringIO(), io.StringIO())
            lines = out.getvalue().splitlines()
            assert len(lines) == len(set(lines)), extra
            return set(lines)

        def reference(k):
            found = atom_blocked_models(inc.program(k).rules, inc.timed_consts(k))
            return {model_atom_names(m, gls) for m in found}

        k = case.expected_found_step
        assert listed() == (set() if k is None else reference(k))
        _, hi = LIVE_RANGES[case.name, case.query]
        for k in range(query.min_step, min(hi, query.max_step) + 1):
            assert listed(f"maxstep={k}") == reference(k), k

    def test_every_four_step_plan_once_without_a_clause_each(self, monkeypatch):
        """bw-test's plans of four steps: the CLI prints each once, as many
        as the oracle's transition system has paths.  Listing them adds no
        clause per model, so no watch list grows with their number; with a
        blocking clause per model the longest held 274."""
        import io

        from cplusplan.cli import main

        case = next(c for c in DEFAULT if (c.name, c.query) == ("bw-test", "simple"))
        oracle = suite.oracle_for(case)
        paths = dict.fromkeys(oracle.initial_states(), 1)
        for _ in range(4):
            ends: dict = {}
            for s, n in paths.items():
                for acts in oracle.candidate_actions(s):
                    s2 = oracle.step(s, acts)
                    if s2 is not None:
                        ends[s2] = ends.get(s2, 0) + n
            paths = ends
        want = sum(n for s, n in paths.items() if oracle.is_goal(s))
        assert want == 1085

        out = io.StringIO()
        rc = main(["--mode=static", str(suite.EXAMPLES_DIR / "bw-test"), "query=simple",
                   "minstep=4", "maxstep=4", "sol=all"], out, io.StringIO(), io.StringIO())
        assert rc == 0
        plans = [p.partition("\n")[2] for p in out.getvalue().split("SOLUTION ")[1:]]
        plans[-1] = plans[-1].partition("query 'simple'")[0]
        assert len(plans) == len(set(plans)) == want

        solvers = []
        init = Dpll.__init__

        def kept(self, *args):
            init(self, *args)
            solvers.append(self)

        monkeypatch.setattr(Dpll, "__init__", kept)
        gls = suite.load_example("bw-test")
        query = dataclasses.replace(gls.queries["simple"], min_step=4, max_step=4)
        ((_, got),) = listed_horizons(incremental_program(gls, query), ALL, Stats())
        assert len(got) == want
        (solver,) = solvers
        assert max(map(len, solver.watches)) <= 32

    def test_wide_groups_take_counters(self):
        gls = ground_description(parse_text(WIDE, "<wide>"))
        inc = incremental_program(gls, gls.queries["q"])
        # x at steps 0..2 and set at steps 0..1
        assert sum(len(tc.values) > solve._PAIRWISE_MAX for tc in inc.timed_consts(2)) == 5
        live = list(listed_horizons(inc, ALL, Stats()))
        fixed = [(k, list(listed_horizons(one_horizon(inc, k), ALL, Stats()))[0][1])
                 for k in range(3)]
        for horizons in (live, fixed):
            assert [len(m) for _, m in horizons] == [0, 1, 27]
            for k, got in horizons:
                assert len(got) == len(set(got)), k
                assert set(got) == atom_blocked_models(
                    inc.program(k).rules, inc.timed_consts(k)), k

    def test_non_tight_dump_lists_every_stable_model_once(self, stability_calls, tmp_path):
        import io

        from cplusplan.cli import main
        from cplusplan.export import import_incremental

        inc = import_incremental(STEP_LOOP)
        path = tmp_path / "loop.dump"
        path.write_text(STEP_LOOP)
        out = io.StringIO()
        rc = main(["--mode=static", "--all-steps", "--from-grounder", "--to-solver", str(path), "all"],
                  out, io.StringIO(), io.StringIO())
        assert rc == 0 and stability_calls
        lines = out.getvalue().splitlines()
        assert len(lines) == len(set(lines)) == 3
        stability_calls.clear()
        live = list(listed_horizons(inc, ALL, Stats()))
        assert stability_calls
        for k, got in live:
            assert len(got) == len(set(got)), k
            assert set(got) == atom_blocked_models(inc.program(k).rules, inc.timed_consts(k)), k
        # candidates with p and q true alone by their loop are not stable
        assert sum(len(m) for _, m in live) == 3 < len(stability_calls)

    @pytest.mark.parametrize("key", [("bw-test", "simple"), ("ferryman", "cross")], ids="-".join)
    def test_retired_gates_are_fixed_false(self, key, monkeypatch):
        name, label = key
        gls = suite.load_example(name)
        lo, hi = LIVE_RANGES[key]
        query = dataclasses.replace(gls.queries[label], min_step=lo, max_step=hi)
        counts = retired_per_horizon(incremental_program(gls, query), monkeypatch)
        # the goal's conjuncts split into terms of one literal each, so a
        # horizon's lines define no gate and retire none
        assert counts == [0] * len(counts)

    def test_a_gated_line_retires_its_gates_fixed_false(self, monkeypatch):
        gls = suite.load_example("ferryman")
        query = dataclasses.replace(gls.queries["cross"], min_step=0, max_step=5)
        # either of the goal's atoms: the line's body, the goal's negation,
        # is one term and keeps its gate under the guard
        query = dataclasses.replace(query, lines=tuple(
            (tref, mvpf.Or(f.parts) if tref.base == "maxstep" else f) for tref, f in query.lines))
        counts = retired_per_horizon(incremental_program(gls, query), monkeypatch)
        # every horizon after the first retires its predecessor's gates
        assert counts[0] == 0 and all(counts[1:])


def retired_per_horizon(inc, monkeypatch):
    """How many gates each horizon's extend retired, over the query's
    range searched for every model; each is checked fixed false at level 0
    and gone from every clause, and the models are a fresh solver's."""
    retired = []  # the gates forgotten by the extend running now
    counts = []
    forget, extend = solve.CnfBuilder.forget_guarded, solve.LiveSolver.extend

    def recorded(builder):
        retired.extend(forget(builder))
        return list(retired)

    def checked(live, groups, atoms, stats):
        retired.clear()
        program = extend(live, groups, atoms, stats)
        s = live.solver
        for g in retired:
            assert s.val[-g] == 1 and s.level[g] == 0
            assert not any(g in cl or -g in cl for ws in s.watches for cl in ws)
            assert not any(g in xs or -g in xs for xs in s.implied)
            assert not any(g in cl or -g in cl for cl in s.learnts)
        counts.append(len(retired))
        return program

    monkeypatch.setattr(solve.CnfBuilder, "forget_guarded", recorded)
    monkeypatch.setattr(solve.LiveSolver, "extend", checked)
    live = list(listed_horizons(inc, ALL, Stats()))
    searched = list(counts)  # before the fresh solvers extend
    assert_same_horizons(live, fresh_horizons(inc))
    return searched
