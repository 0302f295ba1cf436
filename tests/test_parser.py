"""Input language parsing: sections, laws, formulas, queries, includes."""

import pytest

from cplusplan.parser import (
    MalformedOverride,
    ParseError,
    parse_files,
    parse_query_override,
    parse_text,
    tokenize,
)
from cplusplan.syntax import (
    AndF,
    Arith,
    Atom,
    CausedLaw,
    CausesLaw,
    ConstKind,
    ConstRef,
    ConstraintLaw,
    DefaultLaw,
    DuplicateDeclaration,
    ExogenousLaw,
    FalseF,
    ImplF,
    InertialLaw,
    NonexecutableLaw,
    Not,
    OrF,
    RigidLaw,
    Sym,
    TrueF,
    WhereCmp,
    description_text,
)


def toks(text):
    out = [(t.kind, t.text) for t in tokenize(text, "<t>")]
    assert out[-1][0] == "eof"
    return out[:-1]


class TestTokenizer:
    def test_dots_and_ranges(self):
        assert toks("1..3.") == [("int", "1"), ("sym", ".."), ("int", "3"), ("sym", ".")]

    def test_multichar_symbols_win(self):
        assert [k for k, _ in toks("->>")] == ["sym"]
        assert toks("a->>b")[1] == ("sym", "->>")
        assert toks("x\\=y")[1] == ("sym", "\\=")
        assert toks("s >> t")[1] == ("sym", ">>")
        assert toks("a=<b")[1] == ("sym", "=<")
        assert toks("p++q")[1] == ("sym", "++")
        assert toks("l :: s")[1] == ("sym", "::")
        assert toks(":- sorts")[0] == ("sym", ":-")

    def test_minus_not_swallowed(self):
        assert toks("-p") == [("sym", "-"), ("ident", "p")]
        assert toks("a-1") == [("ident", "a"), ("sym", "-"), ("int", "1")]

    def test_comments_and_strings(self):
        assert toks("a % rest is gone\nb") == [("ident", "a"), ("ident", "b")]
        assert toks("include 'two words.t'")[1] == ("string", "'two words.t'")

    def test_spans(self):
        t = tokenize("a\n  b", "<t>")
        assert (t[0].span.line, t[0].span.col) == (1, 1)
        assert (t[1].span.line, t[1].span.col) == (2, 3)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("a # b", "<t>")


BASE = """
:- sorts
  location >> block.
:- objects
  a, b, c :: block;
  table :: location.
:- constants
  loc(block) :: inertialFluent(location);
  move(block, location) :: exogenousAction.
:- variables
  B, B1 :: block;
  L :: location.
"""


class TestSections:
    def test_sort_chain_declares_each_level(self):
        d = parse_text(":- sorts a >> b >> c.", "<t>")
        assert d.sorts == {"a": (), "b": ("a",), "c": ("b",)}
        assert d.subsort_closure("a") == ["a", "b", "c"]

    def test_multiple_sort_groups(self):
        d = parse_text(":- sorts a; b >> c.", "<t>")
        assert set(d.sorts) == {"a", "b", "c"}

    def test_integer_range_objects(self):
        d = parse_text(":- sorts n. :- objects 1..4, 9 :: n.", "<t>")
        assert d.objects["n"] == [1, 2, 3, 4, 9]

    def test_reversed_range_rejected(self):
        with pytest.raises(ParseError):
            parse_text(":- sorts n. :- objects 4..1 :: n.", "<t>")

    def test_constant_kinds(self):
        d = parse_text(BASE, "<t>")
        assert d.constants["loc"].kind is ConstKind.INERTIAL_FLUENT
        assert d.constants["loc"].valuesort == "location"
        assert d.constants["loc"].argsorts == ("block",)
        assert d.constants["move"].kind is ConstKind.EXOGENOUS_ACTION
        assert d.constants["move"].valuesort is None  # boolean

    def test_sdfluent_spelling(self):
        d = parse_text(":- constants p :: sdFluent.", "<t>")
        assert d.constants["p"].kind is ConstKind.STATDET_FLUENT

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_text(":- constants p :: gadget.", "<t>")

    def test_shared_signature(self):
        d = parse_text(":- sorts s. :- objects o :: s. :- constants p, q :: simpleFluent(s).", "<t>")
        assert d.constants["p"].valuesort == "s"
        assert d.constants["q"].valuesort == "s"

    def test_duplicate_constant(self):
        with pytest.raises(DuplicateDeclaration):
            parse_text(":- constants p :: action. :- constants p :: action.", "<t>")

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateDeclaration):
            parse_text(":- sorts s. :- variables X :: s; X :: s.", "<t>")

    def test_reserved_word_as_name(self):
        with pytest.raises(ParseError):
            parse_text(":- constants caused :: action.", "<t>")


class TestLaws:
    def p(self, law_text):
        d = parse_text(BASE + law_text, "<t>")
        return d.laws[-1]

    def test_caused_static(self):
        law = self.p("caused loc(B) = table if loc(B) = B1.")
        assert isinstance(law, CausedLaw)
        assert law.after is None

    def test_caused_after(self):
        law = self.p("caused loc(B) = L after move(B, L).")
        assert isinstance(law, CausedLaw)
        assert isinstance(law.cond, TrueF)
        assert law.after is not None

    def test_caused_if_after(self):
        law = self.p("caused loc(B) = table if loc(B) = B1 after move(B, table).")
        assert not isinstance(law.cond, TrueF)
        assert law.after is not None

    def test_constraint(self):
        law = self.p("constraint loc(B) \\= B.")
        assert isinstance(law, ConstraintLaw)

    def test_default(self):
        law = self.p("default loc(B) = table.")
        assert isinstance(law, DefaultLaw)
        assert isinstance(law.cond, TrueF)

    def test_inertial_list(self):
        law = self.p("inertial loc(B).")
        assert isinstance(law, InertialLaw)
        assert len(law.consts) == 1

    def test_exogenous(self):
        law = self.p("exogenous move(B, L).")
        assert isinstance(law, ExogenousLaw)

    def test_rigid_parses(self):
        law = self.p("rigid loc(B).")
        assert isinstance(law, RigidLaw)

    def test_causes(self):
        law = self.p("move(B, L) causes loc(B) = L if loc(B) \\= L.")
        assert isinstance(law, CausesLaw)
        assert isinstance(law.action, Atom)

    def test_causes_requires_keyword(self):
        with pytest.raises(ParseError, match="causes"):
            parse_text(BASE + "move(B, L) makes loc(B) = L.", "<t>")

    def test_nonexecutable_conjunction_action(self):
        law = self.p("nonexecutable move(B, L) & move(B1, L) if B \\= B1.")
        assert isinstance(law, NonexecutableLaw)
        assert isinstance(law.action, AndF)

    def test_where_clause(self):
        law = self.p("nonexecutable move(B, L) where 1 < 2.")
        assert isinstance(law.where, WhereCmp)

    def test_where_external_call_parses(self):
        # external calls are opaque where-atoms; evaluation rejects them
        law = self.p("nonexecutable move(B, L) where @f(B, 1).")
        assert law.where is not None

    def test_inertial_rejects_arithmetic(self):
        with pytest.raises(ParseError):
            parse_text(BASE + "inertial 1 + 2.", "<t>")


class TestFormulas:
    def f(self, text):
        d = parse_text(BASE + f"constraint {text}.", "<t>")
        return d.laws[-1].formula

    def test_precedence_chain(self):
        # - binds over &, & over ++, ++ over ->>
        f = self.f("-loc(B) = table ++ loc(B) = L & loc(B1) = L ->> loc(B) = B1")
        assert isinstance(f, ImplF)
        assert isinstance(f.left, OrF)
        assert isinstance(f.left.parts[1], AndF)

    def test_neg_of_equality_atom(self):
        f = self.f("-(loc(B) = table)")
        assert isinstance(f, Not)

    def test_impl_right_assoc(self):
        f = self.f("loc(B) = L ->> loc(B) = L ->> loc(B) = L")
        assert isinstance(f, ImplF)
        assert isinstance(f.right, ImplF)

    def test_bare_boolean_sugar(self):
        d = parse_text(":- constants p :: simpleFluent. constraint p. constraint -p.", "<t>")
        pos = d.laws[0].formula
        neg = d.laws[1].formula
        assert pos == Atom(ConstRef("p", ()), "=", None)
        # -p resolves to p = false, not to classical negation
        assert neg == Atom(ConstRef("p", ()), "=", Sym(False))

    def test_double_negation_survives(self):
        d = parse_text(":- constants p :: simpleFluent. constraint --p.", "<t>")
        f = d.laws[0].formula
        assert isinstance(f, Not)
        assert f.sub == Atom(ConstRef("p", ()), "=", Sym(False))

    def test_comparison_atoms(self):
        f = self.f("loc(B) \\= table")
        assert f.op == "\\="
        for op in ("<", ">", "=<", ">="):
            g = self.f(f"1 {op} 2")
            assert g.op == op

    def test_arith_terms(self):
        f = self.f("loc(B) = 1 + 2 * 3")
        assert isinstance(f.right, Arith)
        assert f.right.op == "+"
        assert f.right.right == Arith("*", Sym(2), Sym(3))

    def test_mod_and_division(self):
        f = self.f("1 = 7 mod 2")
        assert f.right == Arith("mod", Sym(7), Sym(2))
        g = self.f("1 = 7 / 2")
        assert g.right == Arith("/", Sym(7), Sym(2))

    def test_identifier_resolution_to_constref(self):
        # `loc` appears without parens nowhere; but bare constants resolve
        d = parse_text(":- constants p :: simpleFluent. constraint p = true.", "<t>")
        f = d.laws[0].formula
        assert f.left == ConstRef("p", ())

    def test_true_false_atoms(self):
        f = self.f("true ->> false")
        assert isinstance(f.left, TrueF)
        assert isinstance(f.right, FalseF)


class TestQueries:
    def test_full_query(self):
        d = parse_text(
            BASE
            + """
:- query
  label :: stack;
  maxstep :: 2;
  0: loc(a) = table, loc(b) = table;
  maxstep: loc(a) = b.
""",
            "<t>",
        )
        q = d.queries["stack"]
        assert (q.min_step, q.max_step) == (2, 2)
        assert len(q.lines) == 2
        t0, f0 = q.lines[0]
        assert (t0.base, t0.offset) == (0, 0)
        assert isinstance(f0, AndF)  # comma list folds into a conjunction
        t1, _ = q.lines[1]
        assert t1.base == "maxstep"

    def test_maxstep_range(self):
        d = parse_text(BASE + ":- query label :: q; maxstep :: 0..10.", "<t>")
        q = d.queries["q"]
        assert (q.min_step, q.max_step) == (0, 10)

    def test_maxstep_unbounded(self):
        d = parse_text(BASE + ":- query label :: q; maxstep :: 3..infinity.", "<t>")
        q = d.queries["q"]
        assert (q.min_step, q.max_step) == (3, None)

    def test_maxstep_offset_time(self):
        d = parse_text(
            BASE + ":- query label :: q; maxstep :: 2; maxstep-1: loc(a) = b.", "<t>"
        )
        (tref, _), = d.queries["q"].lines
        assert (tref.base, tref.offset) == ("maxstep", -1)
        assert tref.resolve(5) == 4

    def test_integer_label(self):
        d = parse_text(BASE + ":- query label :: 12; maxstep :: 1.", "<t>")
        assert "12" in d.queries

    def test_label_required(self):
        with pytest.raises(ParseError, match="label"):
            parse_text(BASE + ":- query maxstep :: 2; 0: loc(a) = b.", "<t>")

    def test_maxstep_required(self):
        with pytest.raises(ParseError, match="maxstep"):
            parse_text(BASE + ":- query label :: q; 0: loc(a) = b.", "<t>")

    def test_duplicate_label(self):
        with pytest.raises(DuplicateDeclaration):
            parse_text(
                BASE
                + ":- query label :: q; maxstep :: 1.\n:- query label :: q; maxstep :: 2.",
                "<t>",
            )

    def test_empty_range_rejected(self):
        with pytest.raises(ParseError):
            parse_text(BASE + ":- query label :: q; maxstep :: 5..2.", "<t>")


class TestIncludes:
    def test_include_merges_and_parses_once(self, tmp_path):
        (tmp_path / "base.t").write_text(
            ":- sorts s. :- objects o :: s. :- constants p :: simpleFluent(s).\n"
        )
        (tmp_path / "mid.t").write_text(":- include 'base.t'. constraint p = o.\n")
        (tmp_path / "top.t").write_text(
            ":- include 'base.t'. :- include 'mid.t'. default p = o.\n"
        )
        d = parse_files([str(tmp_path / "top.t")])
        # base.t parsed once despite the diamond: one constant, no dup error
        assert list(d.constants) == ["p"]
        assert len(d.laws) == 2

    def test_include_is_relative_to_including_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "inner.t").write_text(":- sorts s.\n")
        (tmp_path / "outer.t").write_text(":- include 'sub/inner.t'.\n")
        d = parse_files([str(tmp_path / "outer.t")])
        assert "s" in d.sorts

    def test_missing_include(self, tmp_path):
        (tmp_path / "top.t").write_text(":- include 'gone.t'.\n")
        with pytest.raises(ParseError, match="gone.t"):
            parse_files([str(tmp_path / "top.t")])


class TestQueryOverride:
    def test_query_and_maxstep(self):
        ov = parse_query_override(["query=stack", "maxstep=4"])
        assert ov.label == "stack"
        assert (ov.min_step, ov.max_step, ov.have_range) == (4, 4, True)

    def test_maxstep_range_forms(self):
        ov = parse_query_override(["maxstep=2..5"])
        assert (ov.min_step, ov.max_step) == (2, 5)
        ov = parse_query_override(["maxstep=2..infinity"])
        assert (ov.min_step, ov.max_step) == (2, None)

    def test_minstep(self):
        ov = parse_query_override(["minstep=3"])
        assert ov.min_step == 3
        assert ov.have_range is True

    def test_solution_counts(self):
        assert parse_query_override(["4"]).solutions == 4
        assert parse_query_override(["all"]).solutions == 0
        assert parse_query_override(["0"]).solutions == 0
        assert parse_query_override(["sol=7"]).solutions == 7
        assert parse_query_override(["sol=all"]).solutions == 0

    def test_last_count_wins_with_warning(self):
        ov = parse_query_override(["3", "5"])
        assert ov.solutions == 5
        assert ov.warnings

    def test_malformed(self):
        for bad in ("maxstep=x", "maxstep=5..2", "sol=-1", "minstep=", "q uery=1"):
            with pytest.raises(MalformedOverride):
                parse_query_override([bad])


class TestRoundTrip:
    def test_canonical_text_reparses_to_same_description(self):
        src = (
            BASE
            + """
constraint B \\= B1 & loc(B) = loc(B1) ->> loc(B) = table.
move(B, L) causes loc(B) = L.
nonexecutable move(B, L) if loc(B1) = B.
default loc(B) = table if loc(B) \\= B1 where 1 < 2.
caused false if loc(B) = B.
:- query label :: q; maxstep :: 0..infinity; 0: loc(a) = table; maxstep: loc(a) = b.
"""
        )
        d1 = parse_text(src, "<t>")
        text1 = description_text(d1)
        d2 = parse_text(text1, "<rt>")
        assert description_text(d2) == text1
        assert d1.sorts == d2.sorts
        assert d1.objects == d2.objects
        assert d1.constants == d2.constants
        assert d1.laws == d2.laws
        assert d1.queries == d2.queries
