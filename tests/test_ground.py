"""Law expansion, instantiation, where clauses, atom resolution."""

import hashlib
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cplusplan import mvpf
from cplusplan.export import export_ground, export_incremental, export_prop
from cplusplan.ground import (
    EmptySort,
    GroundError,
    WhereEvalError,
    expand_shorthand,
    ground_description,
)
from cplusplan.parser import ParseError, parse_text
from cplusplan.suite import CASES, load_example
from cplusplan.syntax import LawShape
from cplusplan.translate import incremental_program


def desc_of(text):
    return parse_text(text, "<t>")


BW = """
:- sorts location >> block.
:- objects a, b :: block; table :: location.
:- constants
  loc(block) :: inertialFluent(location);
  move(block, location) :: exogenousAction.
:- variables B, B1 :: block; L :: location.
"""


def ground(text):
    return ground_description(desc_of(text))


def const(gls, name):
    for c in gls.symbols.order:
        if c.name == name:
            return c
    raise KeyError(name)


def atom(gls, cname, value):
    gc = const(gls, cname)
    return mvpf.MvAtom(gc.cid, gls.symbols.vid_of(value))


class TestExpansionShapes:
    def shapes(self, text, law_index=-1):
        d = desc_of(BW + text)
        return [c.shape for c in expand_shorthand(d.laws[law_index], d)]

    def test_constraint_is_static(self):
        assert self.shapes("constraint loc(a) \\= a.") == [LawShape.STATIC]

    def test_caused_fluent_no_after_is_static(self):
        assert self.shapes("caused loc(a) = table if loc(a) = b.") == [LawShape.STATIC]

    def test_caused_action_head_is_action_dynamic(self):
        assert self.shapes("caused move(a, table) if loc(a) = b.") == [
            LawShape.ACTION_DYNAMIC
        ]

    def test_caused_after_is_fluent_dynamic(self):
        assert self.shapes("caused loc(a) = table after move(a, table).") == [
            LawShape.FLUENT_DYNAMIC
        ]

    def test_causes_nonexecutable_always(self):
        assert self.shapes("move(B, L) causes loc(B) = L.") == [LawShape.FLUENT_DYNAMIC]
        assert self.shapes("nonexecutable move(B, L) if loc(B1) = B.") == [
            LawShape.FLUENT_DYNAMIC
        ]
        assert self.shapes("always loc(a) \\= a.") == [LawShape.FLUENT_DYNAMIC]

    def test_inertial_expands_per_value(self):
        # 3 locations means 3 laws per constant mentioned
        assert len(self.shapes("inertial loc(B).")) == 3

    def test_exogenous_expands_per_value(self):
        assert len(self.shapes("exogenous move(a, table).")) == 2

    def test_default_fluent_vs_action(self):
        d = desc_of(
            BW + ":- constants go :: action. default loc(a) = table. default go."
        )
        assert expand_shorthand(d.laws[-2], d)[0].shape is LawShape.STATIC
        assert expand_shorthand(d.laws[-1], d)[0].shape is LawShape.ACTION_DYNAMIC

    def test_default_body_conjoins_condition(self):
        d = desc_of(BW + "default loc(a) = table if loc(b) = table.")
        core = expand_shorthand(d.laws[-1], d)[0]
        # body is head & condition, making the head self-supporting
        gls = ground(BW + "default loc(a) = table if loc(b) = table.")
        (law,) = gls.static
        a_table = atom(gls, "loc(a)", "table")
        assert law.head == (a_table.const, a_table.value)
        assert law.cond == mvpf.conj(
            atom(gls, "loc(a)", "table"), atom(gls, "loc(b)", "table")
        )

    @pytest.mark.parametrize(
        "spelled, plain",
        [("default p if -false.", "default p."), ("nonexecutable a if true.", "nonexecutable a.")],
    )
    def test_a_true_condition_counts_as_absent(self, spelled, plain):
        decls = ":- constants p :: inertialFluent; a :: exogenousAction.\n"
        assert export_ground(ground(decls + spelled)) == export_ground(ground(decls + plain))

    def test_rigid_rejected_with_hint(self):
        # rigid never reaches the grounder: the parser refuses it with the hint
        with pytest.raises(ParseError, match="statDetFluent"):
            ground(BW + "rigid loc(a).")


# Each abbreviation next to the `caused` law it stands for: a boolean p, a
# boolean c(N) over integers for where clauses, and the blocks of BW.
ABBREVIATED = BW + """
:- sorts n.
:- objects 0..2 :: n.
:- constants p :: inertialFluent; c(n) :: inertialFluent; go(n) :: exogenousAction.
:- variables N, M :: n.
"""


class TestAbbreviations:
    @pytest.mark.parametrize("abbreviation, written_out", [
        ("constraint loc(a) \\= a.", "caused false if -(loc(a) \\= a)."),
        ("constraint p.", "caused false if -p."),
        ("constraint c(N) where N < 2.", "caused false if -c(N) where N < 2."),
        ("default loc(a) = table.", "caused loc(a) = table if loc(a) = table."),
        ("default loc(a) = table if loc(b) = table.",
         "caused loc(a) = table if loc(a) = table & loc(b) = table."),
        ("default p if -c(N) where N > 0.", "caused p if p & -c(N) where N > 0."),
        ("move(B, L) causes loc(B) = L.", "caused loc(B) = L after move(B, L)."),
        ("move(B, L) causes loc(B) = L if loc(B) \\= L.",
         "caused loc(B) = L after move(B, L) & loc(B) \\= L."),
        ("go(N) causes c(M) if -p where N < M.", "caused c(M) after go(N) & -p where N < M."),
        ("nonexecutable move(B, L).", "caused false after move(B, L)."),
        ("nonexecutable move(B, L) if loc(B1) = B.",
         "caused false after move(B, L) & loc(B1) = B."),
        ("nonexecutable go(N) if c(M) where M < N.", "caused false after go(N) & c(M) where M < N."),
        ("always loc(a) \\= a.", "caused false after -(loc(a) \\= a)."),
        ("always p.", "caused false after -p."),
        ("always go(N) where N > 1.", "caused false after -go(N) where N > 1."),
    ])
    def test_grounds_as_its_caused_law(self, abbreviation, written_out):
        assert export_ground(ground(ABBREVIATED + abbreviation)) == export_ground(
            ground(ABBREVIATED + written_out))


class TestExpansionErrors:
    def e(self, text, match):
        d = desc_of(BW + text)
        with pytest.raises(GroundError, match=match):
            for law in d.laws:
                expand_shorthand(law, d)

    def test_inertial_on_action(self):
        self.e("inertial move(a, table).", "action")

    def test_exogenous_on_fluent(self):
        self.e("exogenous loc(a).", "fluent")

    def test_static_condition_with_action(self):
        self.e("caused loc(a) = table if move(a, table).", "nonexecutable")

    def test_constraint_on_actions_redirected(self):
        self.e("constraint -move(a, table).", "nonexecutable")

    def test_dynamic_head_with_action(self):
        self.e("caused move(a, table) after loc(a) = table.", "fluent formula")

    def test_statdet_in_dynamic_head(self):
        d = desc_of(
            ":- constants p :: sdFluent; go :: exogenousAction. go causes p."
        )
        with pytest.raises(GroundError, match="statically determined"):
            expand_shorthand(d.laws[-1], d)

    def test_statdet_inertial_rejected(self):
        d = desc_of(":- constants p :: sdFluent. inertial p.")
        with pytest.raises(GroundError, match="statically determined"):
            expand_shorthand(d.laws[-1], d)

    def test_default_head_not_one_atom(self):
        d = desc_of(BW + "default loc(a) = table ++ loc(b) = table.")
        with pytest.raises(GroundError, match="law head must be a single constant atom or 'false'"):
            ground_description(d)

    def test_definiteness_violation_reported(self):
        d = desc_of(BW + "caused loc(a) = table ++ loc(b) = table.")
        with pytest.raises(GroundError, match="law head must be a single constant atom"):
            ground_description(d)


class TestInstantiation:
    def test_instance_count_is_product_of_sort_sizes(self):
        gls = ground(BW + "nonexecutable move(B, L) if loc(B1) = B.")
        # B, L, B1 free: 2 * 3 * 2
        explicit = [l for l in gls.fluent_dynamic if l.shape is LawShape.FLUENT_DYNAMIC]
        # implied inertia contributes 2 consts * 3 values
        assert len(explicit) == 12 + 6

    def test_where_filters_instances(self):
        gls = ground(
            ":- sorts n. :- objects 1..4 :: n. :- constants p(n) :: simpleFluent."
            " :- variables N :: n. caused p(N) if p(N) where N < 3."
        )
        assert len(gls.static) == 2
        assert [l.inst for l in gls.static] == [(1,), (2,)]

    def test_folded_condition_instances_dropped(self):
        # B = B1 folds the condition to false; `caused false if false` is
        # vacuous, so only the instances with B \= B1 stay
        gls = ground(BW + "constraint B \\= B1 & loc(B) = loc(B1) ->> loc(B) = table.")
        assert [l.inst for l in gls.static] == [("a", "b"), ("b", "a")]

    def test_constant_free_conjunct_skips_instances(self):
        gls = ground(
            BW + ":- variables L1 :: location."
            " nonexecutable move(B, L) & move(B1, L1) if L = B1."
        )
        explicit = [l for l in gls.fluent_dynamic if l.head is None]
        # 2 * 3 * 2 * 3 instances; L = B1 holds in 2 * 2 * 3 of them
        assert len(explicit) == 12
        assert all(l.inst[1] == l.inst[2] for l in explicit)

    def test_ill_typed_constant_free_conjunct_still_raises(self):
        # a = b skips every instance, but the order comparison is resolved
        with pytest.raises(GroundError, match="order comparison needs integers"):
            ground(BW + "nonexecutable move(B, L) if a = b & L < B.")

    def test_boolean_literal_is_not_an_integer(self):
        # `-p` is the atom p = false, which equals p = 0 as syntax (0 ==
        # False); the later law must still find 0 is no value of p
        with pytest.raises(GroundError, match="'0' is not a possible value of 'p'"):
            ground(":- constants p :: simpleFluent. caused p if -p. caused p if p = 0.")

    def test_true_is_not_one(self):
        gls = ground(
            ":- sorts n. :- objects 0..1 :: n."
            " :- constants q :: simpleFluent; r(n) :: simpleFluent. :- variables X :: n."
            " caused r(X) if q & X = 1. caused r(X) if q & X = true."
        )
        # X = true holds for no integer X, whatever X = 1 resolved to
        assert [l.inst for l in gls.static] == [(1,)]

    def test_empty_sort_for_variable(self):
        with pytest.raises(EmptySort):
            ground(
                ":- sorts s; t. :- objects o :: s."
                " :- constants p :: simpleFluent(s). :- variables X :: t."
                " caused p = o if p = X."
            )

    def test_empty_value_sort(self):
        with pytest.raises(EmptySort):
            ground(":- sorts s. :- constants p :: simpleFluent(s).")

    def test_empty_argument_sort(self):
        with pytest.raises(EmptySort):
            ground(":- sorts s; t. :- objects o :: t. :- constants p(s) :: simpleFluent(t).")

    def test_deterministic(self):
        text = BW + "move(B, L) causes loc(B) = L.\nnonexecutable move(B, L) if loc(B1) = B."
        a, b = ground(text), ground(text)
        assert a.laws == b.laws
        assert [c.name for c in a.symbols.order] == [c.name for c in b.symbols.order]


class TestWhereClauses:
    def test_arithmetic(self):
        gls = ground(
            ":- sorts n. :- objects 1..6 :: n. :- constants p(n) :: simpleFluent."
            " :- variables N :: n. caused p(N) where N mod 2 = 0 & N / 2 < 3."
        )
        assert [l.inst for l in gls.static] == [(2,), (4,)]

    def test_non_integer_rejected(self):
        with pytest.raises(WhereEvalError, match="integer"):
            ground(BW + "nonexecutable move(B, L) where B < 2.")

    def test_constant_inspection_rejected(self):
        with pytest.raises(WhereEvalError, match="inspect"):
            ground(BW + "nonexecutable move(B, L) where loc(B) = 2.")

    def test_external_call_rejected(self):
        with pytest.raises(WhereEvalError, match="@f"):
            ground(BW + "nonexecutable move(B, L) where @f(B).")

    def test_division_by_zero(self):
        with pytest.raises(GroundError, match="zero"):
            ground(
                ":- sorts n. :- objects 0..1 :: n. :- constants p(n) :: simpleFluent."
                " :- variables N :: n. caused p(N) where 1 / N > 0."
            )


class TestAtomResolution:
    def test_equality_with_object(self):
        gls = ground(BW + "constraint loc(a) = table.")
        (law,) = gls.static
        assert law.head is None
        assert law.cond == mvpf.neg(atom(gls, "loc(a)", "table"))

    def test_inequality(self):
        gls = ground(BW + "caused loc(a) = table if loc(a) \\= b.")
        (law,) = gls.static
        assert law.cond == mvpf.neg(atom(gls, "loc(a)", "b"))

    def test_const_to_const_equality_expands(self):
        gls = ground(BW + "caused false if loc(a) = loc(b).")
        (law,) = gls.static
        # disjunction over the shared domain {table, a, b}
        expect = mvpf.disj(
            *[
                mvpf.conj(atom(gls, "loc(a)", v), atom(gls, "loc(b)", v))
                for v in ("table", "a", "b")
            ]
        )
        assert law.cond == expect

    def test_order_comparison_expands_over_domain(self):
        gls = ground(
            ":- sorts n. :- objects 1..3 :: n. :- constants p :: simpleFluent(n)."
            " caused false if p < 2."
        )
        (law,) = gls.static
        assert law.cond == atom(gls, "p", 1)

    def test_order_comparison_needs_integers(self):
        with pytest.raises(GroundError, match="integers"):
            ground(BW + "caused false if loc(a) < b.")

    def test_bare_boolean_atoms(self):
        gls = ground(
            ":- constants p :: simpleFluent; go :: action. go causes p if -p."
        )
        (law,) = gls.fluent_dynamic
        assert law.head == (const(gls, "p").cid, gls.symbols.vid_of(True))
        # the `if` part of causes lands in the after-formula with the action
        assert mvpf.is_top(law.cond)
        assert law.after == mvpf.conj(atom(gls, "go", True), atom(gls, "p", False))

    def test_out_of_domain_value(self):
        with pytest.raises(GroundError, match="possible value"):
            ground(BW + "constraint loc(a) = 5.")

    @pytest.mark.parametrize("law, message", [
        ("constraint loc(a).", "'loc(a)' is not a boolean constant"),
        ("always loc(a).", "'loc(a)' is not a boolean constant"),
        ("caused false if -loc(a).", "'loc(a)' is not a boolean constant"),
        ("caused false if loc(a).", "'loc(a)' is not a boolean constant"),
        ("constraint loc(a) = false.", "'false' is not a possible value of 'loc(a)'"),
    ])
    def test_bare_constant_must_be_boolean(self, law, message):
        with pytest.raises(GroundError, match=re.escape(message)):
            ground(BW + law)

    def test_argument_sort_mismatch(self):
        with pytest.raises(GroundError, match="sort"):
            ground(BW + "constraint loc(table) = table.")

    def test_unknown_name(self):
        with pytest.raises(GroundError, match="unknown name"):
            ground(BW + "constraint loc(a) = elsewhere.")

    def test_arithmetic_in_formula_terms(self):
        gls = ground(
            ":- sorts n. :- objects 0..3 :: n. :- constants p :: simpleFluent(n)."
            " :- variables N :: n. caused p = N + 1 if p = N where N < 3."
        )
        assert len(gls.static) == 3
        assert gls.static[0].head == (const(gls, "p").cid, gls.symbols.vid_of(1))

    def test_object_only_atom_folds(self):
        gls = ground(BW + "caused loc(a) = table if a = a & 1 < 2.")
        (law,) = gls.static
        assert mvpf.is_top(law.cond)


class TestImpliedLaws:
    def test_inertial_fluent_kind(self):
        gls = ground(BW)
        # no explicit laws: everything comes from the declarations
        assert len(gls.fluent_dynamic) == 2 * 3
        for law in gls.fluent_dynamic:
            assert isinstance(law.cond, mvpf.MvAtom)
            assert law.cond == law.after
            assert law.head == (law.cond.const, law.cond.value)

    def test_exogenous_action_kind(self):
        gls = ground(BW)
        assert len(gls.action_dynamic) == 6 * 2
        for law in gls.action_dynamic:
            assert law.after is None

    def test_plain_kinds_add_nothing(self):
        gls = ground(
            ":- constants p :: simpleFluent; q :: sdFluent; go :: action."
            " caused q if p."
        )
        assert gls.fluent_dynamic == []
        assert gls.action_dynamic == []
        assert len(gls.static) == 1


class TestQueryGrounding:
    def test_lines_resolved(self):
        gls = ground(
            BW
            + ":- query label :: q; maxstep :: 2; 0: loc(a) = table, loc(b) = table; maxstep: loc(a) = b."
        )
        q = gls.queries["q"]
        assert (q.min_step, q.max_step) == (2, 2)
        (t0, f0), (t1, f1) = q.lines
        assert f0 == mvpf.conj(atom(gls, "loc(a)", "table"), atom(gls, "loc(b)", "table"))
        assert f1 == atom(gls, "loc(a)", "b")
        assert t1.base == "maxstep"

    def test_ground_query_keeps_its_span(self):
        d = desc_of(BW + ":- query label :: q; maxstep :: 1; 0: loc(a) = table.")
        span = d.queries["q"].span
        assert span.line > 0
        assert ground_description(d).queries["q"].span == span

    def test_variables_rejected_in_queries(self):
        with pytest.raises(GroundError, match="variable"):
            ground(BW + ":- query label :: q; maxstep :: 1; 0: loc(B) = table.")


class TestSignature:
    def test_signature_matches_symbols(self):
        gls = ground(BW)
        sig = gls.signature
        assert len(sig.constants) == 8
        loc_a = const(gls, "loc(a)")
        assert sig.dom[loc_a.cid] == loc_a.dom
        assert gls.simple_fluent_ids() == [const(gls, "loc(a)").cid, const(gls, "loc(b)").cid]
        assert len(gls.action_ids()) == 6

    def test_value_and_const_ids_disjoint(self):
        gls = ground(BW)
        vids = set(gls.symbols.values)
        cids = {c.cid for c in gls.symbols.order}
        assert not (vids & cids)


# ---------------------------------------------------------------------------
# Nested-loop grounding against a product-and-filter reference.  A term is
# ("v", variable), ("i", integer), ("s", "a") for the one non-integer
# object, or (op, left, right); a comparison is (op, left, right), and a
# where conjunct is a comparison or ("@", variable).

LOOPS = """
:- sorts n; s.
:- objects 0..3 :: n; a :: s.
:- constants q :: simpleFluent; r1(n), r2(n, n), r3(n, n, n) :: simpleFluent.
:- variables X, Y, Z :: n.
"""
LEAVES = ("v", "i", "s")
ARITH_OPS = ["+", "-", "+", "-", "*", "/", "mod"]
COMPARE_OPS = ["=", "\\=", "<", ">", "=<", ">="]


def term_text(t):
    if t[0] in LEAVES:
        return str(t[1])
    op, left, right = t
    return f"{_operand_text(left)} {op} {_operand_text(right)}"


def _operand_text(t):
    return term_text(t) if t[0] in LEAVES else f"({term_text(t)})"


def _law_text(variables, guards, conjuncts):
    head = f"r{len(variables)}({', '.join(variables)})"
    cond = " & ".join(["q"] + [f"{term_text(l)} {op} {term_text(r)}" for op, l, r in guards])
    where = " & ".join(
        f"@f({c[1]})" if c[0] == "@" else f"{term_text(c[1])} {c[0]} {term_text(c[2])}"
        for c in conjuncts
    )
    return f"caused {head} if {cond}" + (f" where {where}." if where else ".")


def _ref_arith(op, a, b):
    if not (type(a) is int and type(b) is int):
        raise GroundError(f"arithmetic needs integers, got '{a}' and '{b}'")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise GroundError("division by zero" if op == "/" else "mod by zero")
    return a // b if op == "/" else a % b


def _ref_value(t, env, where):
    """A term's value, as the where clause (integers only) or a guard atom
    (any object) computes it."""
    tag = t[0]
    if tag == "v":
        return env[t[1]]
    if tag == "i":
        return t[1]
    if tag == "s":
        if where:
            raise WhereEvalError("where clauses compute over integers, got 'a'")
        return "a"
    a = _ref_value(t[1], env, where)
    b = _ref_value(t[2], env, where)
    return _ref_arith(tag, a, b)


def _ref_compare(op, a, b, where):
    if op in ("=", "\\="):
        return (a == b) == (op == "=")
    if not where and not (type(a) is int and type(b) is int):
        raise GroundError(f"order comparison needs integers, got '{a}' and '{b}'")
    return {"<": a < b, ">": a > b, "=<": a <= b, ">=": a >= b}[op]


def reference_instances(variables, guards, conjuncts):
    """The product of the variables' sorts, in order, filtered: the where
    conjuncts left to right up to the first false one, then every guard."""
    out = []
    for values in itertools.product(range(4), repeat=len(variables)):
        env = dict(zip(variables, values))
        kept = True
        for c in conjuncts:
            if c[0] == "@":
                raise WhereEvalError("external function '@f' is not available in this build")
            op, left, right = c
            a = _ref_value(left, env, True)
            if not _ref_compare(op, a, _ref_value(right, env, True), True):
                kept = False
                break
        if not kept:
            continue
        truth = [
            _ref_compare(op, _ref_value(l, env, False), _ref_value(r, env, False), False)
            for op, l, r in guards
        ]
        if False not in truth:
            out.append(values)
    return out


def _outcome(run):
    """run()'s result, or the class and message (span cut) of its error."""
    try:
        return run()
    except GroundError as e:
        return type(e), e.args[0].split(": ", 1)[-1]


@st.composite
def loop_laws(draw):
    variables = draw(st.permutations(["X", "Y", "Z"]))[: draw(st.integers(1, 3))]
    var_leaves = [("v", v) for v in variables]
    numbers = st.sampled_from(var_leaves * 4 + [("i", i) for i in range(4)])
    # one leaf in twenty is the non-integer object
    leaves = st.integers(0, 19).flatmap(lambda i: st.just(("s", "a")) if i == 0 else numbers)
    terms = st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(ARITH_OPS), sub, sub),
        max_leaves=4,
    )
    comparison = st.tuples(st.sampled_from(COMPARE_OPS), terms, terms)
    # a formula atom cannot start with "(": that opens a subformula
    guard = comparison.filter(lambda g: g[1][0] in LEAVES or g[1][1][0] in LEAVES)
    binder = st.tuples(st.just("="), st.sampled_from(var_leaves), terms)
    external = st.tuples(st.just("@"), st.sampled_from(variables))
    # one conjunct in ten calls an external function, which always raises
    conjunct = st.integers(0, 9).flatmap(
        lambda i: external if i == 0 else st.one_of(comparison, binder)
    )
    guards = draw(st.lists(guard, max_size=2))
    conjuncts = draw(st.lists(conjunct, max_size=3))
    return variables, guards, conjuncts


# the ill-typed guard fails first at X = 0, Y = 3, where the where clause
# first holds in product order
@example((["X", "Y"], [("<", ("s", "a"), ("v", "X"))], [("=", ("v", "X"), ("-", ("i", 3), ("v", "Y")))]))
@settings(max_examples=400, deadline=None)
@given(loop_laws())
def test_nested_loops_match_the_filtered_product(law):
    variables, guards, conjuncts = law
    text = LOOPS + _law_text(variables, guards, conjuncts)
    expected = _outcome(lambda: reference_instances(variables, guards, conjuncts))
    got = _outcome(lambda: [l.inst for l in ground(text).static])
    assert got == expected, text


class TestShippedGrounding:
    """The ground law sets of the shipped examples, pinned by digest: the
    native dump (laws in order, queries, constants) and every instance's
    substituted objects."""

    DIGESTS = {
        "bw-pair": (
            "35463531f7bbd0b8e1e5d1b1d746e495a29c971014a74b67ba64a031dfdd1b29",
            "d0844086092c44ab504896021a7fb8858e5686cdb6f7b6499a4c7d696f65623d",
        ),
        "bw-test": (
            "3d89008b57f1c05507a50f725ef41eb467b38dbbd5eb3a0b13d69ce85302af02",
            "17dc7ab6a8b6c73a2a71993200bff7e4417c7a6169159dc81674af9734f81dcd",
        ),
        "ferryman": (
            "48644e5dba8945a4bc5916074846c3f1c63bb27fa832423efa6078b98f806dd5",
            "290d3756a3431f4982d81cb623529e9687a2689b59ffa0252528ad27fbbb94f8",
        ),
        "ferryman-stress": (
            "c92e861315c7137e9cda38823e25a9ade9ac87529d7a823d57861e82124db323",
            "2bb740864fba7399b49a7521d3002375f8806da1d949be7a07325391bc2ad06b",
        ),
        "hanoi": (
            "3c2cec8243ceb77034119e6863e86d57a0b9d3fb3d11a3b57a744e669c704bf0",
            "840de13256cf94c5efcf068d630e8dd1233fda3b258d2f2f193630e6bc65f1f4",
        ),
        "hanoi-stress": (
            "1fd33125c95d18e3ab41004d06560fc4e2f9e76ed8e8fb848ca5db43e1cfab15",
            "e056df9324fc73567ff008550da4c8722333c05627a225ce9da93a833551da0b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_ground_law_set_digest(self, name):
        gls = load_example(name)
        dump = hashlib.sha256(export_ground(gls).encode()).hexdigest()
        inst = hashlib.sha256(repr([l.inst for l in gls.laws]).encode()).hexdigest()
        assert (dump, inst) == self.DIGESTS[name]

    # the translator's dumps of every shipped query: the incremental program
    # and the whole-horizon program at the query's first step
    TRANSLATOR_DIGESTS = {
        ("bw-pair", "tower"): (
            "bcaf7da6514aca1316d6ef1a3a069aeb883171d4b627b595c4f52dc7831ac2fb",
            "7bdd819b6c47c1625e20e6268dcc8165929c3c55380ce343fd50040a8fa19448",
        ),
        ("bw-test", "simple"): (
            "fb67202573f66a4d9a48474814b210811db7cd924d378eefd06c75e1d870283b",
            "2b8e3038470e9a7e393ae27f726f06422cb9b4dde2757712810e8f1b4ddbe8d2",
        ),
        ("bw-test", "impossible"): (
            "06bdcdb3b3fb1e1e990caf581459ae7c5af92cbf0b7dc23e6e8846f9f89b92ec",
            "2e9eed88d58226b5c1d24455f74257578eb88a2f64dc4428f89f5c1916906818",
        ),
        ("hanoi", "transfer"): (
            "faf0ce5e66c62113391b3e0ad01836380a364e00b9429aca4d4092f7b6fd240e",
            "0e1c2bda71c937f45cb02163b2ac727bcc449a606d5e2518cb8e6f6299da1dc9",
        ),
        ("ferryman", "cross"): (
            "823a62e9cd14cf16f0eb1d8e0944900ea9d1e11d36177a64401d9b68c108375b",
            "fa9ed65c602b369e2ad4bfa91303de9409ec47c3c5fad88fd767ae8956aabbd1",
        ),
        ("hanoi-stress", "transfer"): (
            "4dde7e101c0cf6bafa03c572d91d97fff4974d41ee27b49280e56149890acc1c",
            "35edd2acf50434808e469f94dc3c766efc1b3a2f87b3d8b5793baf8ef29c50af",
        ),
        ("ferryman-stress", "cross"): (
            "9b051ffa8cce9ebb7521565f6a194bd8fc60de48a01ef75bd1ac74e23ea61771",
            "42fc382ea93862920d5cb2896d4b214b2ac5893bd4166d4c193cf057c4e1cfdc",
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.name}.{c.query}")
    def test_translator_dump_digest(self, case):
        gls = load_example(case.name)
        q = gls.queries[case.query]
        inc = incremental_program(gls, q)
        dumps = (export_incremental(inc), export_prop(inc.program(q.min_step)))
        got = tuple(hashlib.sha256(d.encode()).hexdigest() for d in dumps)
        assert got == self.TRANSLATOR_DIGESTS[case.name, case.query]

    def test_bw_alone_has_no_locations(self):
        # `bw` is the shared base of bw-pair and bw-test; it declares no objects
        with pytest.raises(EmptySort, match="value sort 'location' of 'loc' has no objects"):
            load_example("bw")
