"""Input language parsing: sections, laws, formulas, queries, includes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplusplan import mvpf, syntax
from cplusplan.mvpf import BOT, TOP, And, Bot, Impl, Neg, Or, is_top, join
from cplusplan.parser import (
    MalformedOverride,
    ParseError,
    parse_files,
    parse_query_override,
    parse_text,
    tokenize,
)
from cplusplan.syntax import (
    ActionDescription,
    Arith,
    Atom,
    CausedLaw,
    ConstKind,
    ConstRef,
    DuplicateDeclaration,
    ExogenousLaw,
    InertialLaw,
    LangError,
    Sym,
    UnknownSort,
    WhereCmp,
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

    def test_supersort_lattice_is_walked_once(self):
        # two sorts a layer, each below both sorts of the layer above: the
        # paths up from the bottom double with every layer
        layers = 30
        decls = [f"{p}{i - 1} >> {c}{i}" for i in range(1, layers) for p in "ab" for c in "ab"]
        d = parse_text(f":- sorts a0; b0; {'; '.join(decls)}. :- objects o :: a{layers - 1}.", "<t>")
        assert len(d.subsort_closure("a0")) == 2 * layers - 1
        assert d.sort_members("b0") == ["o"]

    def test_long_sort_chain(self):
        n = 2000
        chain = " >> ".join(f"s{i}" for i in range(n))
        d = parse_text(f":- sorts {chain}. :- objects o :: s{n - 1}.", "<t>")
        assert d.subsort_closure("s0") == [f"s{i}" for i in range(n)]
        assert d.sort_members("s0") == ["o"]

    def test_supersort_cycle_rejected(self):
        with pytest.raises(LangError, match="sort 'a' is part of a supersort cycle"):
            parse_text(":- sorts a >> b >> c; c >> a.", "<t>")

    @pytest.mark.parametrize("sorts, error", [
        # top is above the cycle a, b and c below it; a comes first
        ("top >> a >> b; b >> a; a >> c", "sort 'a' is part of a supersort cycle"),
        ("x >> y; y >> x; z >> w", "sort 'x' is part of a supersort cycle"),
    ])
    def test_cycle_error_names_the_first_sort_in_order(self, sorts, error):
        with pytest.raises(LangError, match=error):
            parse_text(f":- sorts {sorts}.", "<t>")

    def test_first_error_in_sort_order_is_reported(self):
        d = ActionDescription()
        d.sorts = {"a": ("b",), "b": ("a",), "c": ("gone",)}
        with pytest.raises(LangError, match="sort 'a' is part"):
            d.validate()
        d.sorts = {"c": ("gone",), "a": ("b",), "b": ("a",)}
        with pytest.raises(UnknownSort, match="sort 'c' extends unknown sort 'gone'"):
            d.validate()

    def test_cycle_above_a_long_chain(self):
        n = 3000
        chain = " >> ".join(f"s{i}" for i in range(n))
        with pytest.raises(LangError, match="sort 's0' is part"):
            parse_text(f":- sorts {chain}; s1 >> s0.", "<t>")

    def test_cycle_below_a_long_chain_walks_from_the_cycle_only(self, monkeypatch):
        # the two lowest sorts form a cycle; the 2,998 above it are
        # left by Kahn's pass, but not by the pass over reversed edges
        calls = []
        reach = syntax._reach
        monkeypatch.setattr(syntax, "_reach", lambda *a: calls.append(a[0]) or reach(*a))
        n = 3000
        chain = " >> ".join(f"s{i}" for i in range(n))
        with pytest.raises(LangError, match=f"sort 's{n - 2}' is part"):
            parse_text(f":- sorts {chain}; s{n - 1} >> s{n - 2}.", "<t>")
        assert calls == [f"s{n - 2}"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.lists(st.integers(0, 7), max_size=3)),
                    max_size=7))
    def test_sort_errors_match_a_walk_from_every_sort(self, decls):
        # sort 7 is never declared, so naming it is an unknown supersort
        d = ActionDescription()
        for name, supers in decls:
            d.sorts[f"s{name}"] = tuple(dict.fromkeys(f"s{s}" for s in supers))

        def reaches_itself(name):
            seen, stack = set(), [name]
            while stack:
                for s in d.sorts.get(stack.pop(), ()):
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
            return name in seen

        want = None
        for name, supers in d.sorts.items():
            gone = [s for s in supers if s not in d.sorts]
            if gone:
                want = f"sort '{name}' extends unknown sort '{gone[0]}'"
                break
            if reaches_itself(name):
                want = f"sort '{name}' is part of a supersort cycle"
                break
        try:
            d.validate()
            got = None
        except LangError as e:
            got = str(e)
        assert got == want

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
        assert is_top(law.cond)
        assert law.after is not None

    def test_caused_if_after(self):
        law = self.p("caused loc(B) = table if loc(B) = B1 after move(B, table).")
        assert not is_top(law.cond)
        assert law.after is not None

    def test_constraint(self):
        assert self.p("constraint loc(B) \\= B.") == self.p("caused false if -(loc(B) \\= B).")

    def test_default(self):
        law = self.p("default loc(B) = table.")
        assert law == self.p("caused loc(B) = table if loc(B) = table.")

    def test_inertial_list(self):
        law = self.p("inertial loc(B).")
        assert isinstance(law, InertialLaw)
        assert len(law.consts) == 1

    def test_exogenous(self):
        law = self.p("exogenous move(B, L).")
        assert isinstance(law, ExogenousLaw)

    def test_rigid_rejected_with_hint(self):
        with pytest.raises(ParseError, match="declare the constant as a statDetFluent") as e:
            self.p("rigid loc(B).")
        # at the law
        assert (e.value.span.line, e.value.span.col) == (BASE.count("\n") + 1, 1)

    def test_causes(self):
        law = self.p("move(B, L) causes loc(B) = L if loc(B) \\= L.")
        assert law == self.p("caused loc(B) = L after move(B, L) & loc(B) \\= L.")

    def test_causes_requires_keyword(self):
        with pytest.raises(ParseError, match="causes"):
            parse_text(BASE + "move(B, L) makes loc(B) = L.", "<t>")

    def test_nonexecutable_conjunction_action(self):
        law = self.p("nonexecutable move(B, L) & move(B1, L) if B \\= B1.")
        assert law == self.p("caused false after move(B, L) & move(B1, L) & B \\= B1.")
        assert len(law.after.parts) == 3

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
        d = parse_text(BASE + f"caused false if {text}.", "<t>")
        return d.laws[-1].cond

    def test_precedence_chain(self):
        # - binds over &, & over ++, ++ over ->>
        f = self.f("-loc(B) = table ++ loc(B) = L & loc(B1) = L ->> loc(B) = B1")
        assert isinstance(f, Impl)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.parts[1], And)

    def test_neg_of_equality_atom(self):
        f = self.f("-(loc(B) = table)")
        assert isinstance(f, Neg)

    def test_impl_right_assoc(self):
        f = self.f("loc(B) = L ->> loc(B) = L ->> loc(B) = L")
        assert isinstance(f, Impl)
        assert isinstance(f.right, Impl)

    def test_bare_boolean_sugar(self):
        d = parse_text(":- constants p :: simpleFluent. caused false if p. caused false if -p.", "<t>")
        pos = d.laws[0].cond
        neg = d.laws[1].cond
        assert pos == Atom(ConstRef("p", ()), "=", None)
        # -p resolves to p = false, not to classical negation
        assert neg == Atom(ConstRef("p", ()), "=", Sym(False))

    def test_double_negation_survives(self):
        d = parse_text(":- constants p :: simpleFluent. caused false if --p.", "<t>")
        f = d.laws[0].cond
        assert isinstance(f, Neg)
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
        d = parse_text(":- constants p :: simpleFluent. caused false if p = true.", "<t>")
        f = d.laws[0].cond
        assert f.left == ConstRef("p", ())

    def test_true_false_atoms(self):
        f = self.f("true ->> false")
        assert f.left == TOP
        assert f.right == BOT

    def test_spellings_of_true_and_false(self):
        # true is the negation of false, so -false is true itself
        assert self.f("true") == TOP
        assert self.f("false") == BOT
        assert self.f("-true") == Neg(TOP)
        assert self.f("-false") == TOP

    def test_connectives_share_mvpf_children(self):
        for cls in mvpf.KIDS:
            assert syntax.KIDS[cls] is mvpf.KIDS[cls]


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
        assert isinstance(f0, And)  # comma list folds into a conjunction
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

    def test_included_statements_sit_in_place_of_the_include(self, tmp_path):
        (tmp_path / "decl.t").write_text(
            ":- sorts s. :- objects o :: s. :- constants p :: simpleFluent(s).\n"
        )
        (tmp_path / "mid.t").write_text(
            "constraint p = o. :- include 'decl.t'. default p = o.\n"
        )
        (tmp_path / "top.t").write_text(
            "caused p = o if p = o. :- include 'mid.t'. constraint -(p = o).\n"
        )
        d = parse_files([str(tmp_path / "top.t")])
        assert d.laws == parse_text(
            ":- sorts s. :- objects o :: s. :- constants p :: simpleFluent(s).\n"
            "caused p = o if p = o. constraint p = o. default p = o. constraint -(p = o).\n"
        ).laws
        assert [law.span.path for law in d.laws] == [
            str(tmp_path / "top.t"), str(tmp_path / "mid.t"),
            str(tmp_path / "mid.t"), str(tmp_path / "top.t")]

    def test_error_in_an_include_names_its_file_and_line(self, tmp_path):
        (tmp_path / "bad.t").write_text(":- sorts s.\n\nconstraint = .\n")
        (tmp_path / "top.t").write_text(":- include 'bad.t'.\n")
        with pytest.raises(ParseError) as e:
            parse_files([str(tmp_path / "top.t")])
        assert e.value.span.path == str(tmp_path / "bad.t")
        assert e.value.span.line == 3


class TestQueryOverride:
    def test_query_and_maxstep(self):
        ov = parse_query_override(["query=stack", "maxstep=4"])
        assert ov.label == "stack"
        assert (ov.min_step, ov.max_step) == (4, 4)

    def test_maxstep_range_forms(self):
        ov = parse_query_override(["maxstep=2..5"])
        assert (ov.min_step, ov.max_step) == (2, 5)
        ov = parse_query_override(["maxstep=2..infinity"])
        assert (ov.min_step, ov.max_step) == (2, None)

    def test_minstep(self):
        ov = parse_query_override(["minstep=3"])
        assert ov.min_step == 3

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


# A printer local to this test: it writes the fewest parentheses that the
# grammar needs, so parsing its text back pins precedence and
# associativity: ->> is right associative, ++ and & are flat, - is a
# prefix, and *, / and mod bind tighter than + and -, all left associative.

_TERM_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "mod": 2}
_LEVEL = {Impl: 1, Or: 2, And: 3}  # 4 for the rest


def show_term(t):
    if isinstance(t, Sym):
        return str(t.name).lower() if isinstance(t.name, bool) else str(t.name)
    if isinstance(t, ConstRef):
        return f"{t.name}({', '.join(show_term(a) for a in t.args)})"
    me = _TERM_PREC[t.op]
    left, right = show_term(t.left), show_term(t.right)
    if isinstance(t.left, Arith) and _TERM_PREC[t.left.op] < me:
        left = f"({left})"
    if isinstance(t.right, Arith) and _TERM_PREC[t.right.op] <= me:
        right = f"({right})"
    return f"{left} {t.op} {right}"


def show(f):
    level = _LEVEL.get(type(f), 4)

    def operand(g, tighter_than):
        text = show(g)
        return f"({text})" if _LEVEL.get(type(g), 4) <= tighter_than else text

    if isinstance(f, Impl):
        return f"{operand(f.left, 1)} ->> {operand(f.right, 0)}"
    if isinstance(f, (And, Or)):
        sep = " & " if isinstance(f, And) else " ++ "
        return sep.join(operand(g, level) for g in f.parts)
    if is_top(f):  # TOP is a Neg, so it is looked for first
        return "true"
    if isinstance(f, Neg):
        return "-" + operand(f.sub, 3)
    if isinstance(f, Bot):
        return "false"
    if f.right is None:
        return show_term(f.left)
    return f"{show_term(f.left)} {f.op} {show_term(f.right)}"


def _terms():
    leaf = st.one_of(st.sampled_from(["x", "y", "z"]).map(Sym), st.integers(0, 9).map(Sym))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "mod"]), sub, sub).map(lambda t: Arith(*t)),
            st.lists(sub, min_size=1, max_size=2).map(lambda args: ConstRef("f", tuple(args))),
        ),
        max_leaves=6,
    )


def _atoms():
    # a formula operand that opens with '(' is a group, and one that opens
    # with true or false is that constant, so a left term may not
    left = _terms().filter(lambda t: not show_term(t).startswith("("))
    right = st.one_of(_terms(), st.booleans().map(Sym))
    return st.one_of(
        st.sampled_from(["x", "y"]).map(lambda n: Atom(Sym(n), "=", None)),
        st.tuples(left, st.sampled_from(["=", "\\=", "<", ">", "=<", ">="]), right).map(
            lambda t: Atom(*t)
        ),
    )


def _formulas():
    # `join` splices parts of the node's own class: n-ary and flat
    return st.recursive(
        st.one_of(_atoms(), st.just(TOP), st.just(BOT)),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: Impl(*t)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: join(And, ps)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: join(Or, ps)),
        ),
        max_leaves=10,
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_formulas())
    def test_printed_formula_parses_to_the_same_tree(self, f):
        text = show(f)
        d = parse_text(f"caused false if {text}.", "<rt>")
        assert repr(d.laws[0].cond) == repr(f), text

    def test_printer_uses_the_fewest_parentheses(self):
        f = Impl(Impl(Atom(Sym("x")), Atom(Sym("y"))), Or((Atom(Sym("x")), And((Atom(Sym("y")), Neg(Atom(Sym("x"))))))))
        assert show(f) == "(x ->> y) ->> x ++ y & -x"
        t = Arith("-", Arith("-", Sym(1), Sym(2)), Arith("*", Sym(3), Arith("mod", Sym(4), Sym(5))))
        assert show_term(t) == "1 - 2 - 3 * (4 mod 5)"
