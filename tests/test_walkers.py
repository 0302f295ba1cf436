"""The explicit-stack walkers against recursive references.

Each reference below is the recursive version a walker replaced: the
syntax walkers, name resolution, the grounder's term evaluation and
where terms, the connective walkers of the translator, the dumps and the
search, the reference semantics, the recursive-descent formula and term
parser, and the dump reader.  On shallow random input the new code must
give equal trees, text and values, and raise the same error type with the
same message and span.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplusplan import mvpf, reference
from cplusplan.export import FormatError, _fmt, _Interner, _Line, _parse_formula, _tokenize
from cplusplan.ground import (
    GroundError,
    WhereEvalError,
    _arith,
    _Resolver,
    _where_term,
    _where_value,
    build_symbols,
    value_name,
)
from cplusplan.mvpf import And, Bot, Impl, MvAtom, Neg, Or
from cplusplan.parser import ParseError, _Parser, _resolve, join, parse_text, tokenize
from cplusplan.solve import peval, preduct
from cplusplan.syntax import (
    ActionDescription,
    Arith,
    Atom,
    ConstRef,
    ExternalCall,
    LangError,
    RESERVED_WORDS,
    Span,
    Sym,
    UndeclaredConstant,
    WhereAnd,
    WhereCmp,
    constrefs,
    term_syms,
    term_text,
    walk,
)
from cplusplan.translate import PAtom, TAtom, map_leaves

SPAN = Span("<w>", 1, 1)


def outcome(fn, *args):
    """fn's value, or the class and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except (LangError, FormatError) as err:
        return ("raised", type(err), str(err))


# ---------------------------------------------------------------------------
# Syntax trees

NAMES = ["a", "b", "x", "X", "Y", "c", "f", "g"]


def terms(max_leaves=8):
    leaf = st.one_of(
        st.sampled_from(NAMES).map(Sym),
        st.integers(0, 3).map(Sym),
        st.booleans().map(Sym),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "mod"]), sub, sub).map(
                lambda t: Arith(*t)
            ),
            st.tuples(st.sampled_from(["f", "g", "h"]), st.lists(sub, max_size=2)).map(
                lambda t: ConstRef(t[0], tuple(t[1]))
            ),
        ),
        max_leaves=max_leaves,
    )


def atoms():
    return st.one_of(
        terms(4).map(lambda t: Atom(t, "=", None)),
        st.tuples(terms(4), st.sampled_from(["=", "\\=", "<", ">=", "=<", ">"]), terms(4)).map(
            lambda t: Atom(t[0], t[1], t[2])
        ),
    )


def formulas(max_leaves=8):
    leaf = st.one_of(atoms(), st.just(mvpf.TOP), st.just(mvpf.BOT))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: Impl(*t)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: join(And, ps)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: join(Or, ps)),
        ),
        max_leaves=max_leaves,
    )


def where_exprs():
    one = st.one_of(
        st.tuples(st.sampled_from(["=", "<", "\\="]), terms(4), terms(4)).map(
            lambda t: WhereCmp(*t)
        ),
        st.lists(terms(3), max_size=2).map(lambda ts: ExternalCall("e", tuple(ts))),
    )
    return st.lists(one, min_size=1, max_size=3).map(
        lambda ps: WhereAnd(tuple(ps)) if len(ps) > 1 else ps[0]
    )


def ref_subformulas(f):
    yield f
    if isinstance(f, Neg):
        yield from ref_subformulas(f.sub)
    elif isinstance(f, (And, Or)):
        for g in f.parts:
            yield from ref_subformulas(g)
    elif isinstance(f, Impl):
        yield from ref_subformulas(f.left)
        yield from ref_subformulas(f.right)


def ref_term_syms(t):
    if isinstance(t, Sym):
        yield t
    elif isinstance(t, ConstRef):
        for a in t.args:
            yield from ref_term_syms(a)
    elif isinstance(t, Arith):
        yield from ref_term_syms(t.left)
        yield from ref_term_syms(t.right)


def ref_term_constrefs(t):
    if isinstance(t, ConstRef):
        yield t
        for a in t.args:
            yield from ref_term_constrefs(a)
    elif isinstance(t, Arith):
        yield from ref_term_constrefs(t.left)
        yield from ref_term_constrefs(t.right)


def ref_formula_constrefs(f):
    for sub in ref_subformulas(f):
        if isinstance(sub, Atom):
            yield from ref_term_constrefs(sub.left)
            if sub.right is not None:
                yield from ref_term_constrefs(sub.right)


def ref_term_text(t):
    if isinstance(t, Sym):
        if t.name is True:
            return "true"
        if t.name is False:
            return "false"
        return str(t.name)
    if isinstance(t, ConstRef):
        if not t.args:
            return t.name
        return f"{t.name}({','.join(ref_term_text(a) for a in t.args)})"
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "mod": 2}
    me = prec[t.op]

    def side(x, tight):
        s = ref_term_text(x)
        if isinstance(x, Arith) and (prec[x.op] < me or (tight and prec[x.op] == me)):
            return f"({s})"
        return s

    op = f" {t.op} " if t.op == "mod" else t.op
    return f"{side(t.left, False)}{op}{side(t.right, True)}"


def same(xs, ys):
    """Equal sequences of nodes, booleans apart from 0 and 1."""
    xs, ys = list(xs), list(ys)
    return xs == ys and [repr(x) for x in xs] == [repr(y) for y in ys]


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_formula_walks_match(f):
    assert same(constrefs(f), ref_formula_constrefs(f))
    for sub in ref_subformulas(f):
        if isinstance(sub, Atom):
            for t in (sub.left, sub.right):
                if t is not None:
                    assert same(term_syms(t), ref_term_syms(t))
                    assert same(constrefs(t), ref_term_constrefs(t))
                    assert term_text(t) == ref_term_text(t)


# ---------------------------------------------------------------------------
# Name resolution

def ref_resolve_term(t, desc):
    if isinstance(t, Sym):
        if isinstance(t.name, str) and t.name in desc.constants:
            return ConstRef(t.name)
        return t
    if isinstance(t, ConstRef):
        return ConstRef(t.name, tuple(ref_resolve_term(a, desc) for a in t.args))
    return Arith(t.op, ref_resolve_term(t.left, desc), ref_resolve_term(t.right, desc))


def ref_resolve_formula(f, desc):
    if isinstance(f, Atom):
        left = ref_resolve_term(f.left, desc)
        right = None if f.right is None else ref_resolve_term(f.right, desc)
        return Atom(left, f.op, right)
    if isinstance(f, Neg):
        sub = ref_resolve_formula(f.sub, desc)
        # unless the constant is declared with other values than true and false
        if isinstance(sub, Atom) and sub.right is None and isinstance(sub.left, ConstRef):
            decl = desc.constants.get(sub.left.name)
            if decl is None or decl.valuesort is None:
                return Atom(sub.left, "=", Sym(False))
        return Neg(sub)
    if isinstance(f, (And, Or)):
        return type(f)(tuple(ref_resolve_formula(g, desc) for g in f.parts))
    if isinstance(f, Impl):
        return Impl(ref_resolve_formula(f.left, desc), ref_resolve_formula(f.right, desc))
    return f


def ref_resolve_where(w, desc):
    if isinstance(w, WhereCmp):
        return WhereCmp(w.op, ref_resolve_term(w.left, desc), ref_resolve_term(w.right, desc))
    if isinstance(w, WhereAnd):
        return WhereAnd(tuple(ref_resolve_where(p, desc) for p in w.parts))
    return w


DESC = parse_text(
    ":- sorts s; n. :- objects a, b :: s; 0..3 :: n. :- variables X :: s; Y :: n.\n"
    ":- constants c :: simpleFluent; f(s) :: simpleFluent(n); g(n, s) :: action.\n",
    "<w>",
)


@settings(max_examples=150, deadline=None)
@given(formulas(), where_exprs())
def test_resolution_matches(f, w):
    assert repr(_resolve(f, DESC)) == repr(ref_resolve_formula(f, DESC))
    assert repr(_resolve(w, DESC)) == repr(ref_resolve_where(w, DESC))


# ---------------------------------------------------------------------------
# Term evaluation in the grounder, and where terms

def ref_eval_term(r, t, subst, span):
    if isinstance(t, Sym):
        name = t.name
        if isinstance(name, str) and name in subst:
            return ("obj", subst[name])
        if isinstance(name, (int, bool)) or name in r.known_objects:
            return ("obj", name)
        if isinstance(name, str) and name in r.desc.variables:
            raise GroundError(f"unbound variable '{name}'", span)
        raise GroundError(f"unknown name '{name}'", span)
    if isinstance(t, ConstRef):
        decl = r.desc.constants.get(t.name)
        if decl is None:
            raise UndeclaredConstant(f"undeclared constant '{t.name}'", span)
        if len(t.args) != len(decl.argsorts):
            raise UndeclaredConstant(
                f"constant '{t.name}' takes {len(decl.argsorts)} argument(s), "
                f"got {len(t.args)}",
                span,
            )
        args = []
        for a, argsort in zip(t.args, decl.argsorts):
            tag, val = ref_eval_term(r, a, subst, span)
            if tag != "obj":
                raise GroundError(f"constant argument of '{t.name}' must be an object", span)
            if val not in r.sort_members(argsort):
                raise GroundError(
                    f"'{value_name(val)}' is not of sort '{argsort}' (argument of '{t.name}')",
                    span,
                )
            args.append(val)
        gc = r.symbols.lookup(t.name, tuple(args))
        if gc is None:
            raise GroundError(f"no ground instance '{t.name}{tuple(args)}'", span)
        return ("const", gc)
    lt, lv = ref_eval_term(r, t.left, subst, span)
    rt, rv = ref_eval_term(r, t.right, subst, span)
    if lt != "obj" or rt != "obj":
        raise GroundError("arithmetic over constants is not supported", span)
    return ("obj", _arith(t.op, lv, rv, span))


def resolved_terms():
    return terms(6).map(lambda t: _resolve(t, DESC))


@settings(max_examples=200, deadline=None)
@given(resolved_terms(), st.sampled_from(["a", "b", 0, 2]), st.integers(0, 3))
def test_term_evaluation_matches(t, x, y):
    r = _Resolver(DESC, build_symbols(DESC))
    subst = {"X": x, "Y": y}
    assert outcome(r.eval_term, t, subst, SPAN) == outcome(ref_eval_term, r, t, subst, SPAN)


def test_first_bad_argument_is_reported_before_later_ones():
    # 'a' is not of sort n; the argument after it names nothing
    t = ConstRef("g", (Sym("a"), Sym("nowhere")))
    r = _Resolver(DESC, build_symbols(DESC))
    with pytest.raises(GroundError, match="'a' is not of sort 'n'"):
        r.eval_term(t, {}, SPAN)


def ref_where_term(t, slots, span):
    """The closure a where term compiled to before op lists."""
    if isinstance(t, Arith):
        a, b = ref_where_term(t.left, slots, span), ref_where_term(t.right, slots, span)
        return lambda env: _arith(t.op, a(env), b(env), span)
    if isinstance(t, ConstRef):

        def fail(env):
            raise WhereEvalError(
                f"where clauses cannot inspect constant '{t.name}'; compare "
                "values inside the formula instead",
                span,
            )

        return fail
    i = slots.get(t.name) if isinstance(t.name, str) else None

    def value(env):
        v = t.name if i is None else env[i]
        if isinstance(v, bool) or not isinstance(v, int):
            raise WhereEvalError(f"where clauses compute over integers, got '{value_name(v)}'", span)
        return v

    return value


@settings(max_examples=200, deadline=None)
@given(resolved_terms(), st.sampled_from(["a", 0, 1, 3, True]), st.integers(-2, 3))
def test_where_terms_match(t, x, y):
    slots = {"X": 0, "Y": 1}
    env = [x, y]
    ops = _where_term(t, slots)
    assert outcome(_where_value, ops, env, SPAN) == outcome(ref_where_term(t, slots, SPAN), env)


# ---------------------------------------------------------------------------
# Connective trees: translator, dumps, search and the reference semantics

C = [(0, (2, 3)), (1, (2, 3, 4))]


def mv_formulas():
    # true itself and conjunctions of atoms, besides fresh copies of true
    # built as Neg(BOT), are the shapes map_leaves maps without the fold
    atom = st.sampled_from([MvAtom(c, v) for c, dom in C for v in dom])
    leaf = st.one_of(
        atom,
        st.just(mvpf.BOT),
        st.just(mvpf.TOP),
        st.lists(atom, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: Impl(*t)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: mvpf.join(And, ps)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ps: mvpf.join(Or, ps)),
        ),
        max_leaves=10,
    )


def ref_map_leaves(f, fn):
    cls = type(f)
    if cls is Neg:
        return Neg(ref_map_leaves(f.sub, fn))
    if cls is And or cls is Or:
        return cls(tuple([ref_map_leaves(g, fn) for g in f.parts]))
    if cls is Impl:
        return cls(ref_map_leaves(f.left, fn), ref_map_leaves(f.right, fn))
    if cls is Bot:
        return f
    return fn(f)


def ref_fmt(f, leaf):
    cls = type(f)
    if cls is Bot:
        return "false"
    if cls is Neg:
        return "-" + ref_fmt(f.sub, leaf)
    if cls is And or cls is Or:
        sep = " & " if cls is And else " | "
        return "(" + sep.join([ref_fmt(g, leaf) for g in f.parts]) + ")"
    if cls is Impl:
        return f"({ref_fmt(f.left, leaf)} -> {ref_fmt(f.right, leaf)})"
    return leaf(f)


def ref_peval(f, model):
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not ref_peval(f.sub, model)
    if isinstance(f, And):
        return all(ref_peval(g, model) for g in f.parts)
    if isinstance(f, Or):
        return any(ref_peval(g, model) for g in f.parts)
    if isinstance(f, Impl):
        return not ref_peval(f.left, model) or ref_peval(f.right, model)
    return f in model


def ref_preduct(f, model):
    if not ref_peval(f, model):
        return mvpf.BOT
    if isinstance(f, Neg):
        return Neg(ref_preduct(f.sub, model))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(ref_preduct(g, model) for g in f.parts))
    if isinstance(f, Impl):
        return Impl(ref_preduct(f.left, model), ref_preduct(f.right, model))
    return f


def ref_satisfies(interp, f):
    if isinstance(f, MvAtom):
        return interp[f.const] == f.value
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not ref_satisfies(interp, f.sub)
    if isinstance(f, And):
        return all(ref_satisfies(interp, g) for g in f.parts)
    if isinstance(f, Or):
        return any(ref_satisfies(interp, g) for g in f.parts)
    return (not ref_satisfies(interp, f.left)) or ref_satisfies(interp, f.right)


def ref_reduct(f, interp):
    if not ref_satisfies(interp, f):
        return mvpf.BOT
    if isinstance(f, (MvAtom, Bot)):
        return f
    if isinstance(f, Neg):
        return Neg(ref_reduct(f.sub, interp))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(ref_reduct(g, interp) for g in f.parts))
    return Impl(ref_reduct(f.left, interp), ref_reduct(f.right, interp))


def timed(a):
    return PAtom(0, a.const, a.value)


def text(a):
    return f"{a.const}={a.value}"


@settings(max_examples=200, deadline=None)
@given(mv_formulas(), st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]))
def test_connective_walks_match(f, v0, v1):
    interp = {0: v0, 1: v1}
    assert reference.satisfies(interp, f) == ref_satisfies(interp, f)
    assert reference.reduct(f, interp) == ref_reduct(f, interp)
    assert _fmt(f, text) == ref_fmt(f, text)
    # every subformula as a root: map_leaves maps some root shapes itself
    for sub in walk(f):
        assert map_leaves(sub, lambda a: TAtom(-1, a.const, a.value)) == ref_map_leaves(
            sub, lambda a: TAtom(-1, a.const, a.value)
        )
    g = map_leaves(f, timed)
    model = frozenset(PAtom(0, c, v) for c, v in interp.items())
    assert peval(g, model) == ref_peval(g, model)
    assert preduct(g, model) == ref_preduct(g, model)


# ---------------------------------------------------------------------------
# The formula and term parser against the recursive descent it replaced

class RecursiveParser(_Parser):
    # where clauses were read by this loop, building a left-nested binary
    # WhereAnd; it builds the n-ary node here, so the trees compare
    def where_expr(self):
        parts = [self.where_atom()]
        while self.at_sym("&"):
            self.advance()
            parts.append(self.where_atom())
        return WhereAnd(tuple(parts)) if len(parts) > 1 else parts[0]

    def formula(self):
        links = [self.disjunction()]
        while self.at_sym("->>"):
            self.advance()
            links.append(self.disjunction())
        f = links.pop()
        while links:
            f = Impl(links.pop(), f)
        return f

    def disjunction(self):
        parts = [self.conjunction()]
        while self.at_sym("++"):
            self.advance()
            parts.append(self.conjunction())
        return join(Or, parts)

    def conjunction(self):
        parts = [self.unary()]
        while self.at_sym("&"):
            self.advance()
            parts.append(self.unary())
        return join(And, parts)

    def unary(self):
        negations = 0
        while self.at_sym("-"):
            self.advance()
            negations += 1
        if self.at_sym("("):
            self.advance()
            f = self.formula()
            self.eat_sym(")")
        elif self.at_word("true"):
            self.advance()
            f = mvpf.TOP
        elif self.at_word("false"):
            self.advance()
            f = mvpf.BOT
        else:
            f = self.atom()
        for _ in range(negations):
            f = Neg(f)
        return f

    def term(self):
        t = self.arith_prod()
        while self.tok.kind == "sym" and self.tok.text in ("+", "-"):
            op = self.advance().text
            t = Arith(op, t, self.arith_prod())
        return t

    def arith_prod(self):
        t = self.arith_atom()
        while (self.tok.kind == "sym" and self.tok.text in ("*", "/")) or self.at_word("mod"):
            op = self.advance().text
            t = Arith(op, t, self.arith_atom())
        return t

    def arith_atom(self):
        if self.tok.kind == "int":
            return Sym(self.eat_int())
        if self.at_sym("("):
            self.advance()
            t = self.term()
            self.eat_sym(")")
            return t
        if self.at_word("true"):
            self.advance()
            return Sym(True)
        if self.at_word("false"):
            self.advance()
            return Sym(False)
        tok = self.eat_ident("term")
        if tok.text in RESERVED_WORDS:
            raise ParseError(f"'{tok.text}' is a reserved word", tok.span)
        if self.at_sym("("):
            self.advance()
            args = [self.term()]
            while self.at_sym(","):
                self.advance()
                args.append(self.term())
            self.eat_sym(")")
            return ConstRef(tok.text, tuple(args))
        return Sym(tok.text)


TOKENS = [
    "p", "q", "f", "1", "2", "(", "(", ")", ")", "-", "-", "&", "++", "->>",
    "+", "*", "/", "mod", "=", "<", "\\=", ",", "true", "false", "where", "@", ".",
]


def parsed(cls, method, text):
    parser = cls(tokenize(text, "<w>"), ActionDescription())
    try:
        return ("ok", repr(getattr(parser, method)()), parser.i)
    except ParseError as err:
        return ("raised", str(err), err.span)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=24), st.sampled_from(["formula", "term", "where_expr"]))
def test_parser_matches_recursive_descent(toks, method):
    text = " ".join(toks)
    assert parsed(_Parser, method, text) == parsed(RecursiveParser, method, text)


@pytest.mark.parametrize("text", [
    "-(p & q) ++ -q ->> p = 1 + 2 * 3 - f(1, 2 mod 1) ->> -(p)",
    "((p ++ q) ++ (q & p)) & (p & q) ->> ((p ->> q) ->> p)",
    "f((1 + 2) * 3, (4), g(5 / 6)) = (1 - 2) - (3 - 4) ->> true & -false",
    "p = (1 + (2 ",
    "f(1, 2 ->> q",
    "-(p & q ->> ",
])
def test_parser_matches_recursive_descent_on_examples(text):
    assert parsed(_Parser, "formula", text) == parsed(RecursiveParser, "formula", text)


# ---------------------------------------------------------------------------
# The dump reader against the recursive reader it replaced

_CONNECTIVES = {"&": And, "|": Or, "->": Impl}


def ref_parse_formula(ln, atom):
    kind, text = ln.peek()
    if text == "-":
        ln.next()
        return Neg(ref_parse_formula(ln, atom))
    if text == "(":
        ln.next()
        parts = [ref_parse_formula(ln, atom)]
        op = None
        while True:
            _, got = ln.next()
            if got == ")" and op is not None:
                break
            if got not in _CONNECTIVES:
                raise FormatError(ln.lineno, f"unknown connective {got!r}")
            if op is not None and got != op:
                raise FormatError(ln.lineno, f"{op!r} and {got!r} mixed in one group")
            op = got
            parts.append(ref_parse_formula(ln, atom))
        cls = _CONNECTIVES[op]
        if cls is not Impl:
            return mvpf.join(cls, parts)
        if len(parts) != 2:
            raise FormatError(ln.lineno, f"'->' takes two operands, found {len(parts)}")
        return Impl(*parts)
    if text == "false":
        ln.next()
        return mvpf.BOT
    return atom(ln)


DUMP_TOKENS = ['"c"="u"', '"c"="v"', '"c"="w"', "false", "-", "(", "(", ")", ")", "&", "|", "->", "."]


def read(reader, line):
    interner = _Interner()
    interner.add_const("c", "simple", ["u", "v"], 1)
    ln = _Line(_tokenize(line, 1), 1)
    try:
        return ("ok", reader(ln, interner.mv_atom), ln.pos)
    except FormatError as err:
        return ("raised", str(err))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(DUMP_TOKENS), max_size=20))
def test_dump_reader_matches_recursive_reader(toks):
    line = " ".join(toks)
    assert read(_parse_formula, line) == read(ref_parse_formula, line)


# ---------------------------------------------------------------------------
# Subsorts

def ref_reaches(sorts, sub, sup, seen=frozenset()):
    if sub in seen:
        return False
    for s in sorts.get(sub, ()):
        if s == sup or ref_reaches(sorts, s, sup, seen | {sub}):
            return True
    return False


SORTS = ["s0", "s1", "s2", "s3", "s4"]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(SORTS), st.lists(st.sampled_from(SORTS), max_size=3).map(tuple),
    min_size=1,
))
def test_subsorts_match(sorts):
    d = ActionDescription()
    d.sorts = dict(sorts)
    for name in sorts:
        want = [name] + [o for o in sorts if o != name and ref_reaches(sorts, o, name)]
        assert d.subsort_closure(name) == want
    cyclic = [n for n in sorts if ref_reaches(sorts, n, n)]
    missing = [n for n in sorts if any(s not in sorts for s in sorts[n])]
    if not cyclic and not missing:
        d.validate()
        return
    with pytest.raises(LangError) as err:
        d.validate()
    first = next(n for n in sorts if n in cyclic or n in missing)
    assert f"sort '{first}'" in str(err.value)
