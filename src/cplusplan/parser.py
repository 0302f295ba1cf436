"""Reader for CCalc-style action description files.

Hand rolled tokenizer plus descent over statements; formulas and terms
are read by precedence climbing on explicit stacks, so nesting depth
costs no recursion.  A file is a sequence of statements, each terminated
by a period: section directives introduced by ``:-`` (sorts, objects,
constants, variables, query, include) and causal laws.  ``%`` starts a
line comment.

A ``caused`` law and a law over a list of constants (``inertial``,
``exogenous``) are kept as written; the abbreviations
``constraint``, ``default``, ``causes``, ``nonexecutable`` and ``always``
are read as the ``caused`` laws CCalc defines them as (`_Parser.law`).

Includes are resolved eagerly relative to the including file and each file
is read at most once.  After all files are in, identifiers inside formulas
are resolved against the declarations: a name that matches a declared
constant becomes a constant reference, everything else stays an object or
variable symbol.
"""

from __future__ import annotations

import os
import re

from .mvpf import BOT, TOP, And, Impl, Neg, Or, Record, fold, is_top, join, rebuild
from .syntax import (
    ARITH_PREC,
    COMPARISONS,
    KIDS,
    ActionDescription,
    Arith,
    Atom,
    CausedLaw,
    ConstantDecl,
    ConstRef,
    DuplicateDeclaration,
    ExogenousLaw,
    ExternalCall,
    Formula,
    InertialLaw,
    KIND_SPELLINGS,
    LangError,
    QuerySpec,
    RESERVED_WORDS,
    Span,
    Sym,
    Term,
    TimeRef,
    WhereAnd,
    WhereCmp,
    WhereExpr,
)


class ParseError(LangError):
    pass


# the laws that take a list of constants
_CONST_LIST_LAWS = {"inertial": InertialLaw, "exogenous": ExogenousLaw}


class MalformedOverride(Exception):
    pass


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<string>'[^']*')
  | (?P<sym>:-|::|\.\.|->>|>>|=<|>=|\\=|\+\+|[-&=<>+*/(),;.:@])
    """,
    re.VERBOSE,
)


class Token(Record):
    kind: str  # ident, int, string, sym, eof
    text: str
    span: Span


def tokenize(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = Span(path, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        lexeme = m.group()
        if kind in ("ws", "comment"):
            line += lexeme.count("\n")
            if "\n" in lexeme:
                line_start = m.start() + lexeme.rfind("\n") + 1
        else:
            span = Span(path, line, m.start() - line_start + 1)
            tokens.append(Token(kind, lexeme, span))
        pos = m.end()
    tokens.append(Token("eof", "", Span(path, line, pos - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser proper

class _Parser:
    def __init__(self, tokens: list[Token], desc: ActionDescription):
        self.tokens = tokens
        self.i = 0
        self.desc = desc

    # Cursor helpers

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def peek(self, k: int = 1) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def at_sym(self, text: str) -> bool:
        return self.tok.kind == "sym" and self.tok.text == text

    def at_word(self, text: str) -> bool:
        return self.tok.kind == "ident" and self.tok.text == text

    def eat_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            raise ParseError(f"expected '{text}', found '{self.tok.text}'", self.tok.span)
        return self.advance()

    def eat_ident(self, what: str = "identifier") -> Token:
        if self.tok.kind != "ident":
            raise ParseError(f"expected {what}, found '{self.tok.text}'", self.tok.span)
        return self.advance()

    def eat_int(self) -> int:
        if self.tok.kind != "int":
            raise ParseError(f"expected integer, found '{self.tok.text}'", self.tok.span)
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # past the digits int() converts
            raise ParseError(f"integer of {len(tok.text)} digits is too long", tok.span) from None

    def eat_name(self, what: str) -> str:
        tok = self.eat_ident(what)
        if tok.text in RESERVED_WORDS:
            raise ParseError(f"'{tok.text}' is a reserved word", tok.span)
        return tok.text

    # Statements

    def parse_statements(self) -> tuple[str, Span] | None:
        """Reads statements up to the end of the input, or up to an
        include, whose file name and span it returns; a later call goes on
        after the include."""
        while self.tok.kind != "eof":
            if self.at_sym(":-"):
                self.advance()
                request = self.directive()
                if request is not None:
                    return request
            else:
                self.desc.laws.append(self.law())
        return None

    def directive(self) -> tuple[str, Span] | None:
        kw = self.eat_ident("directive name")
        if kw.text == "sorts":
            self.sorts_section()
        elif kw.text == "objects":
            self.objects_section()
        elif kw.text == "constants":
            self.constants_section()
        elif kw.text == "variables":
            self.variables_section()
        elif kw.text == "query":
            self.query_section(kw.span)
        elif kw.text == "include":
            if self.tok.kind != "string":
                raise ParseError("expected quoted file name", self.tok.span)
            name = self.advance().text[1:-1]
            self.eat_sym(".")
            return name, kw.span
        else:
            raise ParseError(f"unknown directive '{kw.text}'", kw.span)
        return None

    def sorts_section(self) -> None:
        while True:
            first = self.eat_name("sort name")
            self.desc.declare_sort(first, (), self.tok.span)
            parent = first
            while self.at_sym(">>"):
                self.advance()
                child = self.eat_name("sort name")
                self.desc.declare_sort(child, (parent,), self.tok.span)
                parent = child
            if self.at_sym(";"):
                self.advance()
                continue
            self.eat_sym(".")
            return

    def objects_section(self) -> None:
        while True:
            specs: list[str | int | tuple[int, int]] = []
            while True:
                if self.tok.kind == "int":
                    lo = self.eat_int()
                    if self.at_sym(".."):
                        self.advance()
                        hi = self.eat_int()
                        if hi < lo:
                            raise ParseError(f"empty range {lo}..{hi}", self.tok.span)
                        specs.append((lo, hi))
                    else:
                        specs.append(lo)
                else:
                    specs.append(self.eat_name("object name"))
                if self.at_sym(","):
                    self.advance()
                    continue
                break
            self.eat_sym("::")
            sort_tok = self.eat_ident("sort name")
            sort = sort_tok.text
            if sort not in self.desc.sorts:
                raise ParseError(f"unknown sort '{sort}'", sort_tok.span)
            bucket = self.desc.objects.setdefault(sort, [])
            for spec in specs:
                if isinstance(spec, tuple):
                    for v in range(spec[0], spec[1] + 1):
                        if v not in bucket:
                            bucket.append(v)
                elif spec not in bucket:
                    bucket.append(spec)
            if self.at_sym(";"):
                self.advance()
                continue
            self.eat_sym(".")
            return

    def constants_section(self) -> None:
        while True:
            sigs: list[tuple[str, tuple[str, ...], Span]] = []
            while True:
                name_tok = self.eat_ident("constant name")
                name = name_tok.text
                if name in RESERVED_WORDS:
                    raise ParseError(f"'{name}' is a reserved word", name_tok.span)
                argsorts: tuple[str, ...] = ()
                if self.at_sym("("):
                    self.advance()
                    sort_names = [self.eat_ident("sort name").text]
                    while self.at_sym(","):
                        self.advance()
                        sort_names.append(self.eat_ident("sort name").text)
                    self.eat_sym(")")
                    argsorts = tuple(sort_names)
                sigs.append((name, argsorts, name_tok.span))
                if self.at_sym(","):
                    self.advance()
                    continue
                break
            self.eat_sym("::")
            kind_tok = self.eat_ident("constant kind")
            if kind_tok.text not in KIND_SPELLINGS:
                raise ParseError(
                    f"unknown constant kind '{kind_tok.text}' (one of: "
                    + ", ".join(sorted(set(KIND_SPELLINGS))) + ")",
                    kind_tok.span,
                )
            kind = KIND_SPELLINGS[kind_tok.text]
            valuesort: str | None = None
            if self.at_sym("("):
                self.advance()
                valuesort = self.eat_ident("value sort").text
                self.eat_sym(")")
            for name, argsorts, span in sigs:
                if name in self.desc.constants:
                    raise DuplicateDeclaration(
                        f"constant '{name}' declared twice", span
                    )
                self.desc.constants[name] = ConstantDecl(
                    name, argsorts, kind, valuesort, span
                )
            if self.at_sym(";"):
                self.advance()
                continue
            self.eat_sym(".")
            return

    def variables_section(self) -> None:
        while True:
            names = [self.eat_name("variable name")]
            while self.at_sym(","):
                self.advance()
                names.append(self.eat_name("variable name"))
            self.eat_sym("::")
            sort = self.eat_ident("sort name").text
            for n in names:
                if n in self.desc.variables:
                    raise DuplicateDeclaration(f"variable '{n}' declared twice")
                self.desc.variables[n] = sort
            if self.at_sym(";"):
                self.advance()
                continue
            self.eat_sym(".")
            return

    def query_section(self, span: Span) -> None:
        label: str | None = None
        min_step = 0
        max_step: int | None = None
        have_bounds = False
        lines: list[tuple[TimeRef, Formula]] = []
        while True:
            if self.at_word("label"):
                self.advance()
                self.eat_sym("::")
                if self.tok.kind == "int":
                    label = str(self.eat_int())
                else:
                    label = self.eat_ident("query label").text
            elif self.at_word("maxstep") and self.peek().text == "::":
                self.advance()
                self.eat_sym("::")
                lo = self.eat_int()
                if self.at_sym(".."):
                    self.advance()
                    if self.at_word("infinity"):
                        self.advance()
                        min_step, max_step = lo, None
                    else:
                        hi = self.eat_int()
                        if hi < lo:
                            raise ParseError(f"empty step range {lo}..{hi}", self.tok.span)
                        min_step, max_step = lo, hi
                else:
                    min_step = max_step = lo
                have_bounds = True
            else:
                tref = self.time_ref()
                self.eat_sym(":")
                parts = [self.formula()]
                while self.at_sym(","):
                    self.advance()
                    parts.append(self.formula())
                lines.append((tref, join(And, parts)))
            if self.at_sym(";"):
                self.advance()
                continue
            self.eat_sym(".")
            break
        if label is None:
            raise ParseError("query has no label", span)
        if not have_bounds:
            raise ParseError(f"query '{label}' has no maxstep", span)
        if label in self.desc.queries:
            raise DuplicateDeclaration(f"query '{label}' declared twice", span)
        self.desc.queries[label] = QuerySpec(
            label, min_step, max_step, tuple(lines), span
        )

    def time_ref(self) -> TimeRef:
        if self.tok.kind == "int":
            return TimeRef(self.eat_int())
        if self.at_word("maxstep"):
            self.advance()
            offset = 0
            if self.at_sym("+") or self.at_sym("-"):
                sign = -1 if self.advance().text == "-" else 1
                offset = sign * self.eat_int()
            return TimeRef("maxstep", offset)
        raise ParseError(
            f"expected step index or 'maxstep', found '{self.tok.text}'",
            self.tok.span,
        )

    # Laws

    def law(self):
        """One law.  An abbreviation comes back as the `caused` law it
        stands for, as CCalc defines it; an absent or true `if` part adds
        nothing to it."""
        span = self.tok.span
        word = self.tok.text if self.tok.kind == "ident" else ""
        if word == "rigid":
            raise ParseError("rigid is not supported; declare the constant as a "
                             "statDetFluent and give static laws for it", span)
        if word in _CONST_LIST_LAWS:
            self.advance()
            return _CONST_LIST_LAWS[word](self.term_list(), self.opt_where(), span)
        head, cond, after = BOT, TOP, None
        if word in ("caused", "constraint", "default", "nonexecutable", "always"):
            self.advance()
        if word == "caused":
            head = self.formula()
            cond = self.opt_if()
            if self.at_word("after"):
                self.advance()
                after = self.formula()
        elif word == "constraint":  # caused false if -F
            cond = Neg(self.formula())
        elif word == "default":  # caused H if H & C
            head = self.formula()
            cond = _and_if(head, self.opt_if())
        elif word == "nonexecutable":  # caused false after A & C
            after = _and_if(self.formula(), self.opt_if())
        elif word == "always":  # caused false after -F
            after = Neg(self.formula())
        else:  # A causes E if C: caused E after A & C
            action = self.formula()
            if not self.at_word("causes"):
                raise ParseError(
                    f"expected 'causes' after action formula, found '{self.tok.text}'",
                    self.tok.span,
                )
            self.advance()
            head = self.formula()
            after = _and_if(action, self.opt_if())
        return CausedLaw(head, cond, after, self.opt_where(), span)

    def opt_if(self) -> Formula:
        if not self.at_word("if"):
            return TOP
        self.advance()
        return self.formula()

    def term_list(self) -> tuple[Term, ...]:
        terms = [self.term()]
        while self.at_sym(","):
            self.advance()
            terms.append(self.term())
        law_end = self.tok
        if law_end.kind == "ident" and law_end.text not in ("where",):
            raise ParseError(f"unexpected '{law_end.text}'", law_end.span)
        for t in terms:
            if isinstance(t, Arith):
                raise ParseError("expected a constant name", law_end.span)
        result = tuple(terms)
        self.expect_law_end()
        return result

    def expect_law_end(self) -> None:
        if not (self.at_sym(".") or self.at_word("where")):
            raise ParseError(
                f"expected '.' or 'where', found '{self.tok.text}'", self.tok.span
            )

    def opt_where(self) -> WhereExpr | None:
        w: WhereExpr | None = None
        if self.at_word("where"):
            self.advance()
            w = self.where_expr()
        self.eat_sym(".")
        return w

    def where_expr(self) -> WhereExpr:
        parts = [self.where_atom()]
        while self.at_sym("&"):
            self.advance()
            parts.append(self.where_atom())
        return WhereAnd(tuple(parts)) if len(parts) > 1 else parts[0]

    def where_atom(self) -> WhereExpr:
        if self.at_sym("@"):
            self.advance()
            name = self.eat_ident("external function name").text
            args: list[Term] = []
            self.eat_sym("(")
            if not self.at_sym(")"):
                args.append(self.term())
                while self.at_sym(","):
                    self.advance()
                    args.append(self.term())
            self.eat_sym(")")
            return ExternalCall(name, tuple(args))
        left = self.term()
        op_tok = self.tok
        if op_tok.kind != "sym" or op_tok.text not in COMPARISONS:
            raise ParseError(
                f"expected comparison in where clause, found '{op_tok.text}'",
                op_tok.span,
            )
        self.advance()
        right = self.term()
        return WhereCmp(op_tok.text, left, right)

    # Formulas, by precedence climbing over an explicit stack of open
    # groups: ->> is right associative and binds loosest, then ++, then &,
    # and prefix - binds tightest.  A chain of ++ or & is one flat node.

    def formula(self) -> Formula:
        # each open group: [the '-' count before it, its ->> links, the
        # parts of its open ++ chain, the parts of its open & chain]
        groups: list[list] = [[0, [], [], []]]
        while True:
            negations = 0
            while self.at_sym("-"):
                self.advance()
                negations += 1
            if self.at_sym("("):
                self.advance()
                groups.append([negations, [], [], []])
                continue
            if self.at_word("true"):
                self.advance()
                f = TOP
            elif self.at_word("false"):
                self.advance()
                f = BOT
            else:
                f = self.atom()
            for _ in range(negations):
                f = Neg(f)
            while True:  # f is an operand of the innermost group
                group = groups[-1]
                group[3].append(f)
                if self.at_sym("&"):
                    break
                group[2].append(join(And, group[3]))
                group[3] = []
                if self.at_sym("++"):
                    break
                group[1].append(join(Or, group[2]))
                group[2] = []
                if self.at_sym("->>"):
                    break
                links = group[1]
                f = links.pop()
                while links:
                    f = Impl(links.pop(), f)
                if len(groups) == 1:
                    return f
                self.eat_sym(")")
                groups.pop()
                for _ in range(group[0]):
                    f = Neg(f)
            self.advance()  # the connective

    def atom(self) -> Formula:
        left = self.term()
        if self.tok.kind == "sym" and self.tok.text in COMPARISONS:
            op = self.advance().text
            right = self.term()
            return Atom(left, op, right)
        return Atom(left, "=", None)

    # Terms, with integer arithmetic: + and - bind looser than *, / and
    # mod, and all are left associative.  One explicit stack holds the
    # operators waiting for their right operand, the open parentheses
    # (None) and the open argument lists ([name, arguments]).

    def term(self) -> Term:
        operands: list[Term] = []
        pending: list = []
        while True:
            if self.tok.kind == "int":
                operands.append(Sym(self.eat_int()))
            elif self.at_sym("("):
                self.advance()
                pending.append(None)
                continue
            elif self.at_word("true") or self.at_word("false"):
                operands.append(Sym(self.advance().text == "true"))
            else:
                tok = self.eat_ident("term")
                if tok.text in RESERVED_WORDS:
                    raise ParseError(f"'{tok.text}' is a reserved word", tok.span)
                if self.at_sym("("):
                    self.advance()
                    pending.append([tok.text, []])
                    continue
                operands.append(Sym(tok.text))
            while True:  # after an operand: an operator, or a closing
                # "mod" is a word and the other operators are symbols, so
                # a token's text tells them apart
                prec = ARITH_PREC.get(self.tok.text)
                while pending and pending[-1].__class__ is str and (
                    prec is None or ARITH_PREC[pending[-1]] >= prec
                ):
                    right = operands.pop()
                    operands[-1] = Arith(pending.pop(), operands[-1], right)
                if prec is not None:
                    pending.append(self.advance().text)
                    break
                if not pending:
                    return operands[0]
                call = pending[-1]
                if call is None:
                    self.eat_sym(")")
                    pending.pop()
                    continue
                call[1].append(operands.pop())
                if self.at_sym(","):
                    self.advance()
                    break
                self.eat_sym(")")
                pending.pop()
                operands.append(ConstRef(call[0], tuple(call[1])))


def _and_if(f: Formula, cond: Formula) -> Formula:
    """f & cond, or f alone when the `if` part cond is true."""
    return f if is_top(cond) else join(And, (f, cond))


# ---------------------------------------------------------------------------
# Identifier resolution

def _resolve(x, desc: ActionDescription):
    """A formula, term or where expression with every name of a declared
    constant made a constant reference."""
    consts = desc.constants

    def leaf(n):
        if n.__class__ is Sym and n.name.__class__ is str and n.name in consts:
            return ConstRef(n.name)
        return n

    def node(n, parts: list):
        cls = n.__class__
        if cls is Atom:
            return Atom(parts[0], n.op, parts[1] if len(parts) > 1 else None)
        if cls is ConstRef:
            return ConstRef(n.name, tuple(parts))
        if cls is WhereAnd:
            return WhereAnd(tuple(parts))
        if cls is ExternalCall:
            return n  # its arguments stay as written
        if cls is Arith or cls is WhereCmp:
            return cls(n.op, *parts)
        sub = parts[0]
        # A negated bare boolean constant means the constant takes the
        # value false; this keeps such heads definite.  A bare constant
        # declared with other values is left for the grounder to reject.
        if cls is Neg and sub.__class__ is Atom and sub.right is None and sub.left.__class__ is ConstRef:
            decl = consts.get(sub.left.name)
            if decl is None or decl.valuesort is None:
                return Atom(sub.left, "=", Sym(False))
        return rebuild(n, parts)  # a connective

    return fold(x, leaf, node, KIDS)


def _resolve_description(desc: ActionDescription) -> None:
    for i, law in enumerate(desc.laws):
        where = None if law.where is None else _resolve(law.where, desc)
        if law.__class__ is CausedLaw:
            after = None if law.after is None else _resolve(law.after, desc)
            desc.laws[i] = CausedLaw(
                _resolve(law.head, desc), _resolve(law.cond, desc), after, where, law.span
            )
        else:
            consts = tuple(_resolve(t, desc) for t in law.consts)
            desc.laws[i] = law.__class__(consts, where, law.span)
    for label, q in list(desc.queries.items()):
        desc.queries[label] = QuerySpec(
            q.label,
            q.min_step,
            q.max_step,
            tuple((t, _resolve(f, desc)) for t, f in q.lines),
            q.span,
        )


# ---------------------------------------------------------------------------
# Entry points

def parse_text(text: str, path: str = "<string>") -> ActionDescription:
    desc = ActionDescription()
    _parse_into(desc, text, path, seen=set(), base_dir=os.path.dirname(path) or ".")
    _resolve_description(desc)
    desc.validate()
    return desc


def parse_files(paths: list[str]) -> ActionDescription:
    desc = ActionDescription()
    seen: set[str] = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            continue
        seen.add(real)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        _parse_into(desc, text, path, seen, os.path.dirname(path) or ".")
    _resolve_description(desc)
    desc.validate()
    return desc


def _parse_into(
    desc: ActionDescription,
    text: str,
    path: str,
    seen: set[str],
    base_dir: str,
) -> None:
    """Parses text and, in its place, each file it includes: a stack of
    parsers, each waiting at an include for the files below it."""
    stack = [(_Parser(tokenize(text, path), desc), base_dir)]
    while stack:
        parser, base_dir = stack[-1]
        request = parser.parse_statements()
        if request is None:
            stack.pop()
            continue
        name, span = request
        inc_path = os.path.join(base_dir, name)
        real = os.path.realpath(inc_path)
        if real in seen:
            continue
        seen.add(real)
        try:
            with open(inc_path, encoding="utf-8") as fh:
                inc_text = fh.read()
        except OSError as err:
            raise ParseError(f"cannot include '{name}': {err}", span) from err
        stack.append((_Parser(tokenize(inc_text, inc_path), desc),
                      os.path.dirname(inc_path) or "."))


# ---------------------------------------------------------------------------
# Command-line query overrides

class QueryOverride:
    def __init__(self, label: str | None = None, min_step: int | None = None,
                 max_step: int | None = None, solutions: int | None = None) -> None:
        self.label = label
        self.min_step = min_step
        self.max_step = max_step
        self.solutions = solutions  # 0 means all
        self.warnings: list[str] = []


_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+|infinity)$")


def _count(value: str, token: str) -> int:
    """A count that a step or solution token gives in decimal digits."""
    try:
        return int(value)
    except ValueError:  # a digit int() does not read, or too many of them
        shown = token if len(token) <= 40 else token[:37] + "..."
        raise MalformedOverride(f"bad number in '{shown}'") from None


def parse_query_override(args: list[str]) -> QueryOverride:
    """Digest query=, maxstep=, minstep= and solution-count tokens."""
    ov = QueryOverride()

    def set_solutions(n: int, token: str) -> None:
        if ov.solutions is not None:
            ov.warnings.append(
                f"solution count given more than once, using '{token}'"
            )
        ov.solutions = n

    for raw in args:
        if raw.startswith("query="):
            label = raw[len("query="):]
            if not label:
                raise MalformedOverride("query= needs a label")
            ov.label = label
        elif raw.startswith("maxstep="):
            value = raw[len("maxstep="):]
            m = _RANGE_RE.match(value)
            if m:
                ov.min_step = _count(m.group(1), raw)
                ov.max_step = None if m.group(2) == "infinity" else _count(m.group(2), raw)
                if ov.max_step is not None and ov.max_step < ov.min_step:
                    raise MalformedOverride(f"empty step range '{value}'")
            elif value.isdigit():
                ov.min_step = ov.max_step = _count(value, raw)
            else:
                raise MalformedOverride(f"bad maxstep '{value}'")
        elif raw.startswith("minstep="):
            value = raw[len("minstep="):]
            if not value.isdigit():
                raise MalformedOverride(f"bad minstep '{value}'")
            ov.min_step = _count(value, raw)
            if ov.max_step is not None and ov.max_step < ov.min_step:
                raise MalformedOverride("minstep exceeds maxstep")
        elif raw.startswith("sol="):
            value = raw[len("sol="):]
            if value == "all":
                set_solutions(0, raw)
            elif value.isdigit():
                set_solutions(_count(value, raw), raw)
            else:
                raise MalformedOverride(f"bad solution count '{value}'")
        elif raw == "all":
            set_solutions(0, raw)
        elif raw.isdigit():
            set_solutions(_count(raw, raw), raw)
        else:
            raise MalformedOverride(f"unrecognized token '{raw}'")
    return ov
