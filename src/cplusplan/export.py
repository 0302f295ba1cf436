"""Dumps and readers for the intermediate program forms.

One line-oriented format that round-trips losslessly (up to id
interning).  Header lines declare the constants with their domains, and
thereby that each takes exactly one value per step; every rule or law is
one line, formulas fully parenthesized; a final ``#end.`` line guards
against truncation.  Older dumps also spell that constraint as ``uec-``
rules, which are redundant and still read.  The reader takes each
format's own directives only, and every directive line must be used up.

Each connective node is one group, ``(a & b & c)``, with one connective
and, for ``->``, two operands.  The reader splices nested groups of the
same connective, so the older spelling ``((a & b) & c)`` still reads.
"""

from __future__ import annotations

import re

from . import mvpf
from .ground import GroundLaw, GroundLawSet, SymbolTable
from .syntax import ExportError, LawShape, QuerySpec, TimeRef
from .translate import IncrementalProgram, PAtom, PropProgram, PropRule, TAtom


class FormatError(ExportError):
    """Malformed or truncated dump; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# ---------------------------------------------------------------------------
# Shared text helpers

_SHAPE_TEXT = {
    LawShape.STATIC: "static",
    LawShape.ACTION_DYNAMIC: "action-dynamic",
    LawShape.FLUENT_DYNAMIC: "fluent-dynamic",
}
_TEXT_SHAPE = {v: k for k, v in _SHAPE_TEXT.items()}

_SEPS = {mvpf.And: " & ", mvpf.Or: " | "}
_CONNECTIVES = {"&": mvpf.And, "|": mvpf.Or, "->": mvpf.Impl}


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt(f, leaf) -> str:
    bot = mvpf.Bot
    return mvpf.fold(f, lambda a: "false" if a.__class__ is bot else leaf(a), _fmt_node)


def _fmt_node(node, texts: list[str]) -> str:
    cls = node.__class__
    if cls is mvpf.Neg:
        return "-" + texts[0]
    if cls is mvpf.Impl:
        return f"({texts[0]} -> {texts[1]})"
    return "(" + _SEPS[cls].join(texts) + ")"


def _int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:  # past the digits int() converts
        raise FormatError(lineno, f"integer of {len(text)} digits is too long") from None


def _decode_label(label: str, lineno: int):
    """Invert the printable form of a value (booleans, ints, names)."""
    if label == "false":
        return False
    if label == "true":
        return True
    if re.fullmatch(r"-?\d+", label):
        return _int(label, lineno)
    return label


# ---------------------------------------------------------------------------
# Native writer

def _equation(symbols: SymbolTable):
    """Writes a constant and value as `"const"="value"`, each pair once."""
    memo: dict[tuple[int, int], str] = {}

    def text(const: int, value: int) -> str:
        got = memo.get((const, value))
        if got is None:
            name = symbols.by_id[const].name
            got = memo[const, value] = f"{_q(name)}={_q(symbols.value_label(value))}"
        return got

    return text


def _mv_leaf(symbols: SymbolTable):
    text = _equation(symbols)
    return lambda a: text(a.const, a.value)


def _timed_leaf(symbols: SymbolTable):
    text = _equation(symbols)
    return lambda a: f"{a.step}:{text(a.const, a.value)}"


def _template_leaf(symbols: SymbolTable):
    text = _equation(symbols)
    return lambda a: ("t:" if a.rel == 0 else "t-1:") + text(a.const, a.value)


def _const_lines(symbols: SymbolTable) -> list[str]:
    lines = []
    for gc in symbols.order:
        dom = ", ".join(_q(symbols.value_label(v)) for v in gc.dom)
        lines.append(f"#const {_q(gc.name)} {gc.kind} ({dom}).")
    return lines


def _timeref_text(tr: TimeRef) -> str:
    sign = "-" if tr.offset < 0 else "+"
    return f"{tr.base}{sign}{abs(tr.offset)}"


def _query_lines(q: QuerySpec, symbols: SymbolTable) -> list[str]:
    leaf = _mv_leaf(symbols)
    hi = "inf" if q.max_step is None else str(q.max_step)
    lines = [f"#query {_q(q.label)} {q.min_step} {hi}."]
    for tr, f in q.lines:
        lines.append(f"#qline {_q(q.label)} at {_timeref_text(tr)} {_fmt(f, leaf)}.")
    return lines


def export_ground(gls: GroundLawSet) -> str:
    leaf = _mv_leaf(gls.symbols)
    out = ["#format ground-laws 1."]
    out.extend(_const_lines(gls.symbols))
    for law in gls.laws:
        head = "false" if law.head is None else leaf(mvpf.MvAtom(*law.head))
        line = f"#law {_SHAPE_TEXT[law.shape]} {head} <- {_fmt(law.cond, leaf)}"
        if law.after is not None:
            line += f" after {_fmt(law.after, leaf)}"
        out.append(line + ".")
    for label in sorted(gls.queries):
        out.extend(_query_lines(gls.queries[label], gls.symbols))
    out.append("#end.")
    return "\n".join(out) + "\n"


def _rule_line(rule: PropRule, leaf) -> str:
    head = "false" if rule.head is None else leaf(rule.head)
    return f"#rule {rule.tag} {head} <- {_fmt(rule.body, leaf)}."


def export_prop(prog: PropProgram) -> str:
    symbols = prog.gls.symbols
    leaf = _timed_leaf(symbols)
    out = ["#format prop-program 1.", f"#horizon {prog.horizon}."]
    out.extend(_const_lines(symbols))
    out.extend(_rule_line(rule, leaf) for rule in prog.rules)
    out.append("#end.")
    return "\n".join(out) + "\n"


def export_incremental(inc: IncrementalProgram) -> str:
    symbols = inc.gls.symbols
    tleaf = _timed_leaf(symbols)
    hi = "inf" if inc.max_step is None else str(inc.max_step)
    out = [
        "#format incremental-program 1.",
        f"#range {inc.min_step} {hi}.",
        f"#query {_q(inc.query.label)}.",
    ]
    out.extend(_const_lines(symbols))
    out.append("#section base.")
    out.extend(_rule_line(rule, tleaf) for rule in inc.base)
    out.append("#section cumulative.")
    sleaf = _template_leaf(symbols)
    out.extend(_rule_line(rule, sleaf) for rule in inc.template)
    out.append("#section volatile.")
    mleaf = _mv_leaf(symbols)
    for tr, f in inc.query.lines:
        out.append(f"#qline at {_timeref_text(tr)} {_fmt(f, mleaf)}.")
    out.append("#end.")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Native reader

# Ints are unsigned: a leading '-' always tokenizes alone, so negation in
# front of a step number ("-1:...") cannot fuse into a negative integer.
# Words may contain '-' (law shapes, rule tags, "t-1", "maxstep-1").
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<str>"(?:[^"\\]|\\.)*") |
        (?P<arrow><-|->) |
        (?P<int>\d+) |
        (?P<word>[A-Za-z][A-Za-z0-9_-]*) |
        (?P<punct>[()&|:=.,;#+-])
    )""",
    re.VERBOSE,
)


def _tokenize(line: str, lineno: int) -> list[tuple[str, str]]:
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if not m:
            if line[pos:].strip() == "":
                break
            raise FormatError(lineno, f"bad character {line[pos]!r}")
        pos = m.end()
        for kind in ("str", "arrow", "int", "word", "punct"):
            text = m.group(kind)
            if text is not None:
                toks.append((kind, text))
                break
    return toks


class _Line:
    def __init__(self, toks: list[tuple[str, str]], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> tuple[str, str]:
        if self.pos >= len(self.toks):
            raise FormatError(self.lineno, "unexpected end of line")
        return self.toks[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        kind, got = self.next()
        if got != text:
            raise FormatError(self.lineno, f"expected {text!r}, found {got!r}")

    def take_str(self) -> str:
        kind, text = self.next()
        if kind != "str":
            raise FormatError(self.lineno, f"expected a quoted name, found {text!r}")
        body = text[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")

    def take_int(self) -> int:
        kind, text = self.next()
        if kind != "int":
            raise FormatError(self.lineno, f"expected an integer, found {text!r}")
        return _int(text, self.lineno)

    def take_word(self) -> str:
        kind, text = self.next()
        if kind != "word":
            raise FormatError(self.lineno, f"expected a word, found {text!r}")
        return text

    def accept(self, text: str) -> bool:
        """Takes the next token if it is text."""
        if self.pos < len(self.toks) and self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def finish(self) -> None:
        if self.pos < len(self.toks):
            raise FormatError(self.lineno, "trailing tokens")


def _parse_formula(ln: _Line, atom):
    """One formula, read with an explicit stack of open groups, each
    [its '-' count, its connective, its parts]."""
    groups: list[list] = []
    negations = 0
    while True:
        if ln.accept("-"):
            negations += 1
            continue
        if ln.accept("("):
            groups.append([negations, None, []])
            negations = 0
            continue
        f = mvpf.BOT if ln.accept("false") else atom(ln)
        for _ in range(negations):
            f = mvpf.Neg(f)
        negations = 0
        while groups:  # f is a part of the innermost group
            group = groups[-1]
            group[2].append(f)
            _, got = ln.next()
            op = group[1]
            if got == ")" and op is not None:
                groups.pop()
                f = _group(ln, op, group[2])
                for _ in range(group[0]):
                    f = mvpf.Neg(f)
                continue
            if got not in _CONNECTIVES:
                raise FormatError(ln.lineno, f"unknown connective {got!r}")
            if op is not None and got != op:
                raise FormatError(ln.lineno, f"{op!r} and {got!r} mixed in one group")
            group[1] = got
            break
        else:
            return f


def _group(ln: _Line, op: str, parts: list):
    """The node of a closed group: its parts spliced under `&` or `|`."""
    cls = _CONNECTIVES[op]
    if cls is not mvpf.Impl:
        return mvpf.join(cls, parts)
    if len(parts) != 2:
        raise FormatError(ln.lineno, f"'->' takes two operands, found {len(parts)}")
    return mvpf.Impl(*parts)


def _parse_step(ln: _Line):
    """Concrete step, or 0/-1 relative to t.  Returns ('abs'|'rel', n)."""
    kind, text = ln.peek()
    if kind == "int":
        ln.next()
        ln.expect(":")
        return ("abs", _int(text, ln.lineno))
    if text in ("t", "t-1"):
        ln.next()
        ln.expect(":")
        return ("rel", 0 if text == "t" else -1)
    raise FormatError(ln.lineno, f"expected a step, found {text!r}")


class _Interner:
    """Rebuilds a symbol table from #const lines and resolves atoms."""

    def __init__(self):
        self.symbols = SymbolTable()
        self.by_name: dict[str, object] = {}

    def add_const(self, name: str, kind: str, labels: list[str], lineno: int):
        if name in self.by_name:
            raise FormatError(lineno, f"constant {name!r} declared twice")
        dom = tuple(self.symbols.intern_value(_decode_label(l, lineno)) for l in labels)
        gc = self.symbols.add_const(name, (), kind, dom)
        self.by_name[name] = gc
        return gc

    def atom_ids(self, name: str, label: str, lineno: int) -> tuple[int, int]:
        gc = self.by_name.get(name)
        if gc is None:
            raise FormatError(lineno, f"undeclared constant {name!r}")
        vid = self.symbols.vid_of(_decode_label(label, lineno))
        if vid is None or vid not in gc.dom:
            raise FormatError(lineno, f"value {label!r} not in domain of {name!r}")
        return gc.cid, vid

    def mv_atom(self, ln: _Line):
        name = ln.take_str()
        ln.expect("=")
        label = ln.take_str()
        return mvpf.MvAtom(*self.atom_ids(name, label, ln.lineno))

    def timed_atom(self, ln: _Line):
        mode, step = _parse_step(ln)
        name = ln.take_str()
        ln.expect("=")
        label = ln.take_str()
        cid, vid = self.atom_ids(name, label, ln.lineno)
        if mode == "abs":
            return PAtom(step, cid, vid)
        return TAtom(step, cid, vid)

    def ground_law_set(self) -> GroundLawSet:
        return GroundLawSet(self.symbols, [], [], [], {})


def _parse_timeref(ln: _Line) -> TimeRef:
    kind, text = ln.peek()
    if kind == "word" and re.fullmatch(r"maxstep-\d+", text):
        # "maxstep-N" lexes as a single word; unpack it
        ln.next()
        return TimeRef("maxstep", -int(text.split("-")[1]))
    if kind == "int":
        base: object = ln.take_int()
    else:
        word = ln.take_word()
        if word != "maxstep":
            raise FormatError(ln.lineno, f"expected a step base, found {word!r}")
        base = "maxstep"
    kind, sign = ln.next()
    if sign not in ("+", "-"):
        raise FormatError(ln.lineno, f"expected an offset sign, found {sign!r}")
    off = ln.take_int()
    return TimeRef(base, off if sign == "+" else -off)


def _split_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield i, line


def _read_native(text: str, expect_format: str, directives: tuple[str, ...]):
    """Yields (_Line, directive) for each line between the format header
    and ``#end``.  Only the format's directives are taken, and each line
    must be used up by the time the next one is asked for."""
    saw_end = False
    fmt = None
    ln = _Line([], 0)
    for lineno, line in _split_lines(text):
        ln.finish()
        if saw_end:
            raise FormatError(lineno, "content after #end")
        toks = _tokenize(line, lineno)
        if not toks or toks[-1][1] != ".":
            raise FormatError(lineno, "missing final period")
        ln = _Line(toks[:-1], lineno)
        ln.expect("#")
        directive = ln.take_word()
        if fmt is None:
            if directive != "format":
                raise FormatError(lineno, "missing #format header")
            fmt = ln.take_word()
            if fmt != expect_format:
                raise FormatError(lineno, f"expected {expect_format}, found {fmt}")
            ln.take_int()  # version
        elif directive == "end":
            saw_end = True
        elif directive in directives:
            yield ln, directive
        else:
            raise FormatError(lineno, f"unknown directive #{directive}")
    ln.finish()
    if fmt is None:
        raise FormatError(1, "empty file")
    if not saw_end:
        raise FormatError(len(text.splitlines()) + 1, "truncated file: no #end")


def _read_range(ln: _Line) -> tuple[int, int | None]:
    """`lo hi`, where hi `inf` (None) leaves the range unbounded."""
    lo = ln.take_int()
    return lo, None if ln.accept("inf") else ln.take_int()


def _read_head(ln: _Line, atom):
    """`false` (None) or an atom, then `<-`."""
    head = None if ln.accept("false") else atom(ln)
    ln.expect("<-")
    return head


def _read_const(ln: _Line, interner: _Interner):
    name = ln.take_str()
    kind = ln.take_word()
    if kind not in ("simple", "sdet", "action"):
        raise FormatError(ln.lineno, f"unknown constant kind {kind!r}")
    ln.expect("(")
    labels = [ln.take_str()]
    while ln.accept(","):
        labels.append(ln.take_str())
    ln.expect(")")
    interner.add_const(name, kind, labels, ln.lineno)


def _read_rule(
    ln: _Line, interner: _Interner, leaf_cls, wrong: str, horizon: int | None = None
) -> PropRule:
    """A rule whose atoms are all of leaf_cls; any other raises wrong.
    With a horizon, each atom's step must be in 0..horizon."""

    def atom(ln: _Line):
        a = interner.timed_atom(ln)
        if a.__class__ is not leaf_cls:
            raise FormatError(ln.lineno, wrong)
        if horizon is not None and not 0 <= a.step <= horizon:
            raise FormatError(ln.lineno, f"step {a.step} outside 0..{horizon}")
        return a

    tag = ln.take_word()
    head = _read_head(ln, atom)
    return PropRule(head, _parse_formula(ln, atom), tag)


def import_ground(text: str) -> GroundLawSet:
    interner = _Interner()
    laws: dict[LawShape, list[GroundLaw]] = {shape: [] for shape in LawShape}
    queries: dict[str, QuerySpec] = {}
    qlines: dict[str, list] = {}
    for ln, directive in _read_native(text, "ground-laws", ("const", "law", "query", "qline")):
        if directive == "const":
            _read_const(ln, interner)
        elif directive == "law":
            shape_text = ln.take_word()
            shape = _TEXT_SHAPE.get(shape_text)
            if shape is None:
                raise FormatError(ln.lineno, f"unknown law shape {shape_text!r}")
            a = _read_head(ln, interner.mv_atom)
            head = None if a is None else (a.const, a.value)
            cond = _parse_formula(ln, interner.mv_atom)
            after = _parse_formula(ln, interner.mv_atom) if ln.accept("after") else None
            laws[shape].append(GroundLaw(shape, head, cond, after))
        elif directive == "query":
            label = ln.take_str()
            queries[label] = QuerySpec(label, *_read_range(ln), ())
            qlines[label] = []
        else:
            label = ln.take_str()
            if label not in queries:
                raise FormatError(ln.lineno, f"#qline before #query for {label!r}")
            ln.expect("at")
            tr = _parse_timeref(ln)
            qlines[label].append((tr, _parse_formula(ln, interner.mv_atom)))
    gls = interner.ground_law_set()
    gls.static, gls.action_dynamic, gls.fluent_dynamic = laws.values()
    gls.queries = {
        label: QuerySpec(label, q.min_step, q.max_step, tuple(qlines[label]))
        for label, q in queries.items()
    }
    return gls


def import_prop(text: str) -> PropProgram:
    interner = _Interner()
    horizon = None
    rules: list[PropRule] = []
    for ln, directive in _read_native(text, "prop-program", ("horizon", "const", "rule")):
        if directive == "horizon":
            if horizon is not None:
                raise FormatError(ln.lineno, "#horizon given twice")
            horizon = ln.take_int()
        elif directive == "const":
            _read_const(ln, interner)
        else:
            # the horizon bounds the rules' steps, so like a constant's
            # #const line it comes before the rules that use it
            if horizon is None:
                raise FormatError(ln.lineno, "#rule before #horizon")
            rules.append(_read_rule(ln, interner, PAtom, "rules take concrete steps", horizon))
    if horizon is None:
        raise FormatError(1, "missing #horizon")
    gls = interner.ground_law_set()
    return PropProgram(horizon, rules, gls)


def import_incremental(text: str) -> IncrementalProgram:
    interner = _Interner()
    lo = hi = None
    label = None
    base: list[PropRule] = []
    template: list[PropRule] = []
    # each rule section's list, with the class its atoms take
    rule_sections = {
        "base": (base, PAtom, "base rules take concrete steps"),
        "cumulative": (template, TAtom, "cumulative rules take t / t-1"),
    }
    qlines: list = []
    section = None
    directives = ("range", "query", "const", "section", "rule", "qline")
    for ln, directive in _read_native(text, "incremental-program", directives):
        if directive == "range":
            lo, hi = _read_range(ln)
        elif directive == "query":
            label = ln.take_str()
        elif directive == "const":
            _read_const(ln, interner)
        elif directive == "section":
            section = ln.take_word()
            if section not in ("base", "cumulative", "volatile"):
                raise FormatError(ln.lineno, f"unknown section {section!r}")
        elif directive == "rule":
            if section not in rule_sections:
                raise FormatError(ln.lineno, "#rule outside base/cumulative")
            rules, leaf_cls, wrong = rule_sections[section]
            rules.append(_read_rule(ln, interner, leaf_cls, wrong))
        else:
            if section != "volatile":
                raise FormatError(ln.lineno, "#qline outside the volatile section")
            ln.expect("at")
            tr = _parse_timeref(ln)
            qlines.append((tr, _parse_formula(ln, interner.mv_atom)))
    if lo is None or label is None:
        raise FormatError(1, "missing #range or #query header")
    gls = interner.ground_law_set()
    query = QuerySpec(label, lo, hi, tuple(qlines))
    gls.queries = {label: query}
    return IncrementalProgram(gls, query, base, template)


def sniff_format(text: str) -> str:
    for lineno, line in _split_lines(text):
        toks = _tokenize(line, lineno)
        ln = _Line(toks, lineno)
        ln.expect("#")
        if ln.take_word() != "format":
            raise FormatError(lineno, "missing #format header")
        return ln.take_word()
    raise FormatError(1, "empty file")
