"""Search correctness: against brute force, and on the known anchors."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from cplusplan import mvpf, translate
from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.solve import (
    ResourceLimit,
    SolveConfig,
    Stats,
    brute_force_models,
    enumerate_models,
    is_stable_model,
    peval,
    preduct,
    solve_horizons,
    solve_incremental,
)
from cplusplan.translate import (
    PAtom,
    PropRule,
    TimedConst,
    UnboundedRange,
    decode_prop_model,
    incremental_program,
    model_key,
    rule_formula,
    theory_to_prop,
    to_prop,
)

ALL = SolveConfig(max_solutions=0)


def models(rules, groups=None, config=ALL, extra=None):
    stats = Stats()
    return set(enumerate_models(rules, groups, config, stats, extra_atoms=extra)), stats


def c_atom(v):
    return PAtom(0, 100, v)


C_GROUP = [TimedConst(0, 100, (c_atom(1), c_atom(2), c_atom(3)))]


def uec_rules(group):
    out = []
    for tc in group:
        vals = tc.values
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                out.append(PropRule(None, mvpf.And(vals[i], vals[j]), "uec-unique"))
        out.append(PropRule(None, mvpf.Neg(mvpf.disj_all(list(vals))), "uec-exists"))
    return out


class TestValueAnchors:
    """The three one-constant theories with domain {1,2,3}, in their
    propositional form.  Expected model sets match the exhaustive
    multi-valued route (see test_mvpf)."""

    def test_self_support_has_no_models(self):
        rules = uec_rules(C_GROUP) + [PropRule(c_atom(1), c_atom(1), "static")]
        got, stats = models(rules, C_GROUP)
        assert got == set()
        # the c=2 / c=3 candidates die on support, c=1 dies on stability
        assert stats.models_checked >= 1

    def test_guarded_self_support(self):
        rules = uec_rules(C_GROUP) + [
            PropRule(c_atom(1), mvpf.Neg(mvpf.Neg(c_atom(1))), "choice")
        ]
        got, _ = models(rules, C_GROUP)
        assert got == {frozenset({c_atom(1)})}

    def test_guarded_choice_plus_fact(self):
        rules = uec_rules(C_GROUP) + [
            PropRule(c_atom(1), mvpf.Neg(mvpf.Neg(c_atom(1))), "choice"),
            PropRule(c_atom(2), mvpf.TOP, "static"),
        ]
        got, _ = models(rules, C_GROUP)
        assert got == {frozenset({c_atom(2)})}

    def test_uec_only_program_has_no_models(self):
        got, _ = models(uec_rules(C_GROUP), C_GROUP)
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
    def check(self, rules, extra=None):
        got, _ = models(rules, None, extra=extra)
        atoms = set(extra or [])
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
            PropRule(None, mvpf.And(A, B), "r"),
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
            return mvpf.And(formula(depth - 1), formula(depth - 1))
        if roll < 0.9:
            return mvpf.Or(formula(depth - 1), formula(depth - 1))
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
            got, _ = models(rules, None, extra=atoms)
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
                    return mvpf.And(formula(depth - 1), formula(depth - 1))
                if roll < 0.85:
                    return mvpf.Or(formula(depth - 1), formula(depth - 1))
                return mvpf.Impl(formula(depth - 1), formula(depth - 1))

            theory = mvpf.MvTheory(
                sig, tuple(formula(rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
            )
            mv_side = {
                frozenset(PAtom(0, c, v) for c, v in m.items())
                for m in mvpf.enumerate_stable(theory)
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


def keys(result):
    return sorted(model_key(decode_prop_model(m)) for m in result.models)


class TestDrivers:
    def test_exhaustion(self, bw):
        q = bw.queries["impossible"]
        res = solve_incremental(incremental_program(bw, q), ALL)
        assert res.found_step is None
        assert res.models == []
        assert res.stats.steps_grounded == 2  # horizons 0 and 1

    def test_inverted_range_has_no_horizon(self, bw):
        q = dataclasses.replace(bw.queries["tower"], min_step=3, max_step=1)
        inc = incremental_program(bw, q)
        assert list(solve_horizons(inc, ALL, Stats())) == []
        res = solve_incremental(inc, ALL)
        assert res.found_step is None
        assert res.models == []

    def test_max_solutions(self, bw):
        q = bw.queries["tower"]
        res = solve_incremental(incremental_program(bw, q), SolveConfig(max_solutions=1))
        assert len(res.models) == 1

    def test_seed_changes_order_not_set(self, bw):
        q = bw.queries["tower"]
        base = solve_incremental(incremental_program(bw, q), ALL)
        seeded = solve_incremental(
            incremental_program(bw, q), SolveConfig(max_solutions=0, seed=7)
        )
        assert keys(base) == keys(seeded)

    def test_deterministic_given_seed(self, bw):
        q = bw.queries["tower"]
        r1 = solve_incremental(incremental_program(bw, q), SolveConfig(0, seed=3))
        r2 = solve_incremental(incremental_program(bw, q), SolveConfig(0, seed=3))
        assert [sorted(map(str, m)) for m in r1.models] == [
            sorted(map(str, m)) for m in r2.models
        ]

    def test_unbounded_range_rejected(self, bw):
        q = bw.queries["tower"]
        open_q = dataclasses.replace(q, max_step=None)
        with pytest.raises(UnboundedRange):
            solve_incremental(incremental_program(bw, open_q), ALL)

    def test_models_checked_cap(self, bw):
        q = bw.queries["tower"]
        with pytest.raises(ResourceLimit):
            solve_incremental(
                incremental_program(bw, q), SolveConfig(max_solutions=0, max_checked=1)
            )

    def test_cumulative_rules_stay_within_step(self, bw):
        inc = incremental_program(bw, bw.queries["tower"])
        bad = translate.TemplateRule(
            translate.TAtom(1, 0, 0), translate.TAtom(0, 0, 0), "broken"
        )
        inc.template.append(bad)
        with pytest.raises(AssertionError):
            inc.step_rules(2)

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
        assert not peval(mvpf.And(A, B), m)

    def test_preduct_replaces_unsatisfied(self):
        m = frozenset({A})
        f = mvpf.Or(B, A)
        assert preduct(f, m) == mvpf.Or(mvpf.BOT, A)
        assert preduct(mvpf.And(A, B), m) == mvpf.BOT

    def test_preduct_on_double_negation(self):
        # the inner negation is unsatisfied and collapses; the outer
        # node, being satisfied, is rebuilt around it
        m = frozenset({A})
        f = mvpf.Neg(mvpf.Neg(A))
        assert preduct(f, m) == mvpf.Neg(mvpf.BOT)
