"""Horizon translation: rule families, step placement, both routes."""

from collections import Counter

import pytest

from cplusplan import export, mvpf, reference, suite
from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.plans import model_atom_names
from cplusplan.reference import (
    decode_mv_model,
    decode_prop_model,
    horizon_theory,
    model_key,
    theory_to_prop,
)
from cplusplan.solve import SolveConfig, Stats, enumerate_models, solve_incremental
from cplusplan.translate import (
    PAtom,
    QueryStepOutOfRange,
    SingletonDomain,
    TranslateError,
    formula_leaves,
    incremental_program,
    map_leaves,
    rule_formula,
    to_prop,
)

SHIPPED = sorted({case.name for case in suite.CASES})

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
:- query label :: q; maxstep :: 0..5; 0: loc(a) = table; maxstep: loc(a) = b.
"""


@pytest.fixture(scope="module")
def bw():
    return ground_description(parse_text(BW, "<t>"))


def tags(rules):
    out = {}
    for r in rules:
        out[r.tag] = out.get(r.tag, 0) + 1
    return out


class TestStaticTranslation:
    def test_rule_counts_by_tag(self, bw):
        m = 2
        prog = to_prop(bw, m)
        t = tags(prog.rules)
        # one value per constant is the groups' job, not the rules'
        assert not [tag for tag in t if tag.startswith("uec-")]
        assert t["choice"] == 2 * 3  # simple fluents at step 0, every value
        assert t["static"] == len(bw.static) * (m + 1)
        assert t["action"] == len(bw.action_dynamic) * m
        assert t["transition"] == len(bw.fluent_dynamic) * m

    def test_atom_steps(self, bw):
        prog = to_prop(bw, 2)
        fluents = {c.cid for c in bw.symbols.order if c.kind != "action"}
        steps = {}
        for tc in prog.timed_consts:
            steps.setdefault(tc.const in fluents, set()).add(tc.step)
        assert steps[True] == {0, 1, 2}
        assert steps[False] == {0, 1}

    def test_transition_spans_two_steps(self, bw):
        prog = to_prop(bw, 1)
        for r in prog.rules:
            if r.tag != "transition":
                continue
            # head at step 1, after-part at step 0
            assert r.head is None or r.head.step == 1

    def test_negative_horizon(self, bw):
        with pytest.raises(TranslateError):
            to_prop(bw, -1)

    def test_choice_rule_shape(self, bw):
        prog = to_prop(bw, 0)
        choice = [r for r in prog.rules if r.tag == "choice"]
        for r in choice:
            assert r.body == mvpf.Neg(mvpf.Neg(r.head))
            assert r.head.step == 0


class TestSingletonDomains:
    ONE = (
        ":- sorts s. :- objects o :: s. :- constants p :: simpleFluent(s)."
        " :- query label :: q; maxstep :: 0."
    )

    def test_to_prop_rejects(self):
        gls = ground_description(parse_text(self.ONE, "<t>"))
        with pytest.raises(SingletonDomain, match="p"):
            to_prop(gls, 1)

    def test_incremental_rejects(self):
        gls = ground_description(parse_text(self.ONE, "<t>"))
        with pytest.raises(SingletonDomain):
            incremental_program(gls, gls.queries["q"])

    def test_mv_route_accepts(self):
        gls = ground_description(parse_text(self.ONE, "<t>"))
        theory, _ = horizon_theory(gls, 1)
        assert theory.signature.space() == 1


class TestQueryPlacement:
    def q(self, line, maxstep="2"):
        text = BW.replace(
            ":- query label :: q; maxstep :: 0..5; 0: loc(a) = table; maxstep: loc(a) = b.",
            f":- query label :: q; maxstep :: {maxstep}; {line}.",
        )
        return ground_description(parse_text(text, "<t>"))

    def test_action_at_final_step_rejected(self):
        gls = self.q("maxstep: move(a, b)")
        with pytest.raises(QueryStepOutOfRange, match="final step"):
            to_prop(gls, 2, gls.queries["q"])

    def test_out_of_range_messages(self):
        text = (":- constants f :: inertialFluent; a :: exogenousAction."
                " :- query label :: q; maxstep :: 1; maxstep: a.")
        gls = ground_description(parse_text(text, "<t>"))
        with pytest.raises(QueryStepOutOfRange) as action:
            to_prop(gls, 1, gls.queries["q"])
        assert str(action.value) == (
            "query 'q': step 1 is out of range 0..0 for an action condition"
            " at horizon 1 (actions do not exist at the final step)")
        gls = self.q("3: loc(a) = b")
        with pytest.raises(QueryStepOutOfRange) as fluent:
            to_prop(gls, 2, gls.queries["q"])
        assert str(fluent.value) == (
            "query 'q': step 3 is out of range 0..2 for a fluent condition at horizon 2")

    def test_action_before_final_step_fine(self):
        gls = self.q("maxstep-1: move(a, b)")
        prog = to_prop(gls, 2, gls.queries["q"])
        assert tags(prog.rules)["query"] == 1

    def test_fluent_beyond_horizon_rejected(self):
        gls = self.q("3: loc(a) = b")
        with pytest.raises(QueryStepOutOfRange):
            to_prop(gls, 2, gls.queries["q"])

    def test_negative_resolved_step_rejected(self):
        gls = self.q("maxstep-3: loc(a) = b")
        with pytest.raises(QueryStepOutOfRange):
            to_prop(gls, 2, gls.queries["q"])

    def test_mv_route_same_rejection(self):
        for line in ("maxstep: move(a, b)", "3: loc(a) = b", "maxstep-3: loc(a) = b"):
            gls = self.q(line)
            with pytest.raises(QueryStepOutOfRange) as prop:
                to_prop(gls, 2, gls.queries["q"])
            with pytest.raises(QueryStepOutOfRange) as mv:
                horizon_theory(gls, 2, gls.queries["q"])
            assert str(mv.value) == str(prop.value), line


class TestIncrementalStructure:
    def test_step_rules_start_at_one(self, bw):
        inc = incremental_program(bw, bw.queries["q"])
        with pytest.raises(TranslateError):
            inc.step_rules(0)

    def test_base_has_no_action_rules(self, bw):
        inc = incremental_program(bw, bw.queries["q"])
        actions = set(bw.action_ids())
        for r in inc.base:
            if r.head is not None:
                assert r.head.const not in actions
            for tc in [r.head] if r.head else []:
                assert tc.step == 0


class TestOracleRoute:
    def test_signature_size(self, bw):
        theory, index = horizon_theory(bw, 2)
        assert len(theory.signature.constants) == 2 * 3 + 6 * 2

    def test_formula_count(self, bw):
        m = 2
        theory, _ = horizon_theory(bw, m)
        expect = (
            2 * 3  # choice over simple fluents
            + len(bw.static) * (m + 1)
            + len(bw.action_dynamic) * m
            + len(bw.fluent_dynamic) * m
        )
        assert len(theory.formulas) == expect

    @pytest.mark.parametrize("name", SHIPPED)
    def test_theory_builds_on_shipped_examples(self, name):
        gls = suite.load_example(name)
        for k in range(3):
            theory, _ = horizon_theory(gls, k)
            n_consts = len(gls.symbols.order) * (k + 1) - len(gls.action_ids())
            assert len(theory.signature.constants) == n_consts

    @pytest.mark.parametrize("name", SHIPPED)
    def test_static_program_matches_theory(self, name):
        """to_prop is the oracle theory, formula for formula, with atoms
        decoded through the index."""
        gls = suite.load_example(name)
        for query in [None, *gls.queries.values()]:
            for k in range(4):
                try:
                    prog = to_prop(gls, k, query)
                except QueryStepOutOfRange:
                    with pytest.raises(QueryStepOutOfRange):
                        horizon_theory(gls, k, query)
                    continue
                theory, index = horizon_theory(gls, k, query)

                def decode(a):
                    return PAtom(*index.decode(a.const), a.value)

                got = Counter(rule_formula(r) for r in prog.rules)
                want = Counter(map_leaves(f, decode) for f in theory.formulas)
                assert got == want, (name, query and query.label, k)

    def test_decode_round_trip(self, bw):
        theory, index = horizon_theory(bw, 1)
        for tid in theory.signature.constants:
            step, cid = index.decode(tid)
            assert index.timed(step, cid, bw.signature.dom[cid]) == tid


class TestTheoryToProp:
    def test_uec_and_formula_shapes(self):
        sig = mvpf.Signature((0,), {0: (10, 11)})
        theory = reference.MvTheory(sig, (mvpf.MvAtom(0, 10),))
        formulas, atoms = theory_to_prop(theory)
        assert atoms == [PAtom(0, 0, 10), PAtom(0, 0, 11)]
        # 1 uniqueness + 1 existence + the theory formula
        assert len(formulas) == 3

    def test_singleton_rejected(self):
        sig = mvpf.Signature((0,), {0: (10,)})
        with pytest.raises(SingletonDomain):
            theory_to_prop(reference.MvTheory(sig, ()))


class TestVacuousLaws:
    """Laws that fold away leave no trace in the translation."""

    PLAIN = """
:- sorts obj.
:- objects x, y :: obj.
:- constants
  at :: inertialFluent(obj);
  lit :: inertialFluent;
  go(obj) :: exogenousAction;
  flip :: exogenousAction.
:- variables O, O1 :: obj.
go(O) causes at = O.
flip causes lit.
%s
:- query label :: q; maxstep :: 0..2; 0: at = x, -lit; maxstep: at = y, lit.
"""
    # the hand-written instances of the schematic law below
    INSTANCES = "nonexecutable go(x) & go(y).\nnonexecutable go(y) & go(x)."
    VACUOUS = """
caused lit if false.
caused at = x if x = y.
caused lit if true after false.
nonexecutable go(O) & go(O1) if O \\= O1.
"""

    def both(self):
        plain = ground_description(parse_text(self.PLAIN % self.INSTANCES, "<t>"))
        vacuous = ground_description(parse_text(self.PLAIN % self.VACUOUS, "<t>"))
        return [
            (gls, incremental_program(gls, gls.queries["q"])) for gls in (plain, vacuous)
        ]

    def test_template_and_dump_unchanged(self):
        (_, plain), (_, vacuous) = self.both()
        assert vacuous.base == plain.base
        assert vacuous.template == plain.template
        assert export.export_incremental(vacuous) == export.export_incremental(plain)

    def test_found_step_and_models_unchanged(self):
        (pg, plain), (vg, vacuous) = self.both()
        want = solve_incremental(plain, SolveConfig(max_solutions=0))
        got = solve_incremental(vacuous, SolveConfig(max_solutions=0))
        assert got.found_step == want.found_step == 1
        assert sorted(model_atom_names(m, vg) for m in got.models) == sorted(
            model_atom_names(m, pg) for m in want.models
        )

    def test_models_match_exhaustive_route(self):
        _, (gls, _) = self.both()
        q = gls.queries["q"]
        counts = []
        for k in range(3):
            theory, index = horizon_theory(gls, k, q)
            want = {
                model_key(decode_mv_model(i, index))
                for i in reference.enumerate_stable(theory)
            }
            prog = to_prop(gls, k, q)
            got = {
                model_key(decode_prop_model(m))
                for m in enumerate_models(
                    prog.rules, prog.timed_consts, SolveConfig(max_solutions=0), Stats()
                )
            }
            assert got == want, k
            counts.append(len(got))
        assert counts[0] == 0 and counts[1] > 0


def _nodes(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, mvpf.Neg):
            stack.append(g.sub)
        elif isinstance(g, (mvpf.And, mvpf.Or)):
            stack.extend(g.parts)
        elif isinstance(g, mvpf.Impl):
            stack.extend((g.left, g.right))


@pytest.mark.parametrize(
    "case", suite.CASES, ids=[f"{c.name}-{c.query}" for c in suite.CASES]
)
def test_shipped_bodies_are_folded(case):
    """No rule is an atom-free constant and no body keeps a `not not true`."""
    gls = suite.load_example(case.name)
    inc = incremental_program(gls, gls.queries[case.query])
    not_not_true = mvpf.Neg(mvpf.Neg(mvpf.TOP))
    for rule in [*inc.base, *inc.template]:
        assert any(formula_leaves(rule.body)), rule
        assert not_not_true not in _nodes(rule.body), rule
