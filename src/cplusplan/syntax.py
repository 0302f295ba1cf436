"""Abstract syntax for action descriptions.

The surface language is the CCalc-style one: sort and object declarations,
constant declarations with a kind (fluent or action flavored), variable
declarations, causal laws, and planning queries.  The parser builds these
nodes; the grounder consumes them.

Formulas are schematic: atoms compare two terms, where a term is an object
or variable symbol, an integer arithmetic expression, or a reference to a
declared constant.  Which side of an atom is the constant (if any) is only
pinned down during resolution, after all includes have been read.

The connectives are those of `mvpf`: `Neg`, the n-ary and flat `And`
and `Or`, `Impl`, and `BOT` for ``false``, with ``true`` written as
`TOP`, the negation of `BOT`.  A schematic formula differs from a ground
one only in its leaves, `Atom` here and `MvAtom` there.  `WhereAnd`, of
the integer where-language, is n-ary and flat too.  Trees of any depth
are walked on explicit stacks: `walk` visits every node in pre-order, and
`mvpf.fold` folds a tree in post-order over the children table `KIDS`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Union

from . import mvpf
from .mvpf import Record, fold

RESERVED_WORDS = frozenset(
    {
        "true", "false", "maxstep", "infinity", "caused", "constraint",
        "default", "inertial", "exogenous", "nonexecutable", "always",
        "rigid", "causes", "if", "after", "where", "mod", "label",
    }
)


class Span(Record):
    path: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


NO_SPAN = Span("<none>", 0, 0)


class Spanned(Record):
    """A record whose last field is its source `span`, which it neither
    compares nor hashes."""

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


class LangError(Exception):
    """Base for everything raised while reading or checking a description."""

    def __init__(self, message: str, span: Span = NO_SPAN):
        self.span = span
        super().__init__(f"{span}: {message}" if span is not NO_SPAN else message)


class ExportError(Exception):
    """A dump that cannot be read; `export` raises it, and the CLI
    catches it without importing `export`."""


class UndeclaredConstant(LangError):
    pass


class UnknownSort(LangError):
    pass


class DuplicateDeclaration(LangError):
    pass


# ---------------------------------------------------------------------------
# Terms

class Sym(Record):
    """An object, a variable occurrence, or a literal (int / bool)."""

    name: Union[str, int, bool]


class ConstRef(Record):
    name: str
    args: tuple["Term", ...] = ()

    def args_have_constants(self) -> bool:
        return any(True for a in self.args for _ in constrefs(a))


class Arith(Record):
    op: str  # one of + - * / mod
    left: "Term"
    right: "Term"


Term = Union[Sym, ConstRef, Arith]


# ---------------------------------------------------------------------------
# Formulas

COMPARISONS = ("=", "\\=", "<", ">", "=<", ">=")


class Atom(Record):
    """left op right, or a bare boolean constant when right is None."""

    left: Term
    op: str = "="
    right: Term | None = None


Formula = Union[Atom, mvpf.Bot, mvpf.Neg, mvpf.And, mvpf.Or, mvpf.Impl]


# ---------------------------------------------------------------------------
# Where clauses (grounding-time integer builtins)

class WhereCmp(Record):
    op: str
    left: Term
    right: Term


class WhereAnd(Record):
    parts: tuple["WhereExpr", ...]  # two or more, none a WhereAnd


class ExternalCall(Record):
    """An @name(...) escape.  Parsed for compatibility, never evaluable."""

    name: str
    args: tuple[Term, ...]


WhereExpr = Union[WhereCmp, WhereAnd, ExternalCall]


# ---------------------------------------------------------------------------
# Walks and the text of a term

# The children of each node class: the connectives' from `mvpf`, then
# those of atoms, terms and where clauses; Sym and Bot have none.
KIDS = {
    **mvpf.KIDS,
    Atom: lambda n: (n.left,) if n.right is None else (n.left, n.right),
    ConstRef: attrgetter("args"),
    Arith: attrgetter("left", "right"),
    WhereCmp: attrgetter("left", "right"),
    WhereAnd: attrgetter("parts"),
    ExternalCall: attrgetter("args"),
}


def walk(root) -> Iterator:
    """Every node of a formula, term or where expression, root first, in
    pre-order from left to right, on an explicit stack."""
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        kids = KIDS.get(n.__class__)
        if kids is not None:
            stack.extend(reversed(kids(n)))


def term_syms(x) -> Iterator[Sym]:
    return (n for n in walk(x) if n.__class__ is Sym)


def constrefs(x) -> Iterator[ConstRef]:
    """The constant references in x, in pre-order: a reference comes
    before those in its arguments."""
    return (n for n in walk(x) if n.__class__ is ConstRef)


# The binary operators of terms by binding strength
ARITH_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "mod": 2}


def term_text(t: Term) -> str:
    """t in the input syntax, with the parentheses its shape needs."""
    return fold(t, _sym_text, _term_node_text, KIDS)


def _sym_text(s: Sym) -> str:
    return "true" if s.name is True else "false" if s.name is False else str(s.name)


def _term_node_text(n, texts: list[str]) -> str:
    if n.__class__ is ConstRef:
        return f"{n.name}({','.join(texts)})" if texts else n.name
    me = ARITH_PREC[n.op]
    left, right = texts
    if n.left.__class__ is Arith and ARITH_PREC[n.left.op] < me:
        left = f"({left})"
    if n.right.__class__ is Arith and ARITH_PREC[n.right.op] <= me:
        right = f"({right})"
    return left + (" mod " if n.op == "mod" else n.op) + right


# ---------------------------------------------------------------------------
# Declarations

class ConstKind(enum.Enum):
    SIMPLE_FLUENT = "simpleFluent"
    INERTIAL_FLUENT = "inertialFluent"
    STATDET_FLUENT = "statDetFluent"
    ACTION = "action"
    EXOGENOUS_ACTION = "exogenousAction"

    @property
    def is_fluent(self) -> bool:
        return self in (
            ConstKind.SIMPLE_FLUENT,
            ConstKind.INERTIAL_FLUENT,
            ConstKind.STATDET_FLUENT,
        )

    @property
    def is_action(self) -> bool:
        return not self.is_fluent


KIND_SPELLINGS = {
    "simpleFluent": ConstKind.SIMPLE_FLUENT,
    "inertialFluent": ConstKind.INERTIAL_FLUENT,
    "statDetFluent": ConstKind.STATDET_FLUENT,
    "sdFluent": ConstKind.STATDET_FLUENT,
    "action": ConstKind.ACTION,
    "exogenousAction": ConstKind.EXOGENOUS_ACTION,
}


class ConstantDecl(Spanned):
    name: str
    argsorts: tuple[str, ...]
    kind: ConstKind
    valuesort: str | None  # None means boolean
    span: Span = NO_SPAN


# ---------------------------------------------------------------------------
# Laws as written
#
# The parser writes the abbreviations constraint, default, causes,
# nonexecutable and always as the `caused` laws they stand for, so a
# description holds only these three kinds of law.

class CausedLaw(Spanned):
    head: Formula
    cond: Formula
    after: Formula | None
    where: WhereExpr | None = None
    span: Span = NO_SPAN


class InertialLaw(Spanned):
    consts: tuple[Term, ...]
    where: WhereExpr | None = None
    span: Span = NO_SPAN


class ExogenousLaw(Spanned):
    consts: tuple[Term, ...]
    where: WhereExpr | None = None
    span: Span = NO_SPAN


Law = Union[CausedLaw, InertialLaw, ExogenousLaw]


class LawShape(enum.Enum):
    STATIC = "static"
    ACTION_DYNAMIC = "action_dynamic"
    FLUENT_DYNAMIC = "fluent_dynamic"


class CoreLaw(Spanned):
    """A causal law in one of the three primitive shapes.

    Still schematic: formulas may mention variables.  `after` is None
    exactly for the static and action dynamic shapes.
    """

    shape: LawShape
    head: Formula
    cond: Formula
    after: Formula | None
    where: WhereExpr | None = None
    span: Span = NO_SPAN


# ---------------------------------------------------------------------------
# Queries

class TimeRef(Record):
    """A step index: a literal, or maxstep plus an offset."""

    base: Union[int, str]  # int or "maxstep"
    offset: int = 0

    def resolve(self, maxstep: int) -> int:
        if self.base == "maxstep":
            return maxstep + self.offset
        return int(self.base) + self.offset


@dataclass(frozen=True)
class QuerySpec:
    label: str
    min_step: int
    max_step: int | None  # None: unbounded, a cap must come from elsewhere
    lines: tuple[tuple[TimeRef, Formula], ...]
    span: Span = field(default=NO_SPAN, compare=False)


# ---------------------------------------------------------------------------
# The description

class ActionDescription:
    def __init__(self) -> None:
        # sort name -> direct supersorts
        self.sorts: dict[str, tuple[str, ...]] = {}
        # sort name -> objects in declaration order
        self.objects: dict[str, list[Union[str, int]]] = {}
        self.constants: dict[str, ConstantDecl] = {}
        self.variables: dict[str, str] = {}
        self.laws: list[Law] = []
        self.queries: dict[str, QuerySpec] = {}

    def declare_sort(self, name: str, supersorts: tuple[str, ...], span: Span) -> None:
        if name in self.sorts:
            merged = tuple(dict.fromkeys(self.sorts[name] + supersorts))
            self.sorts[name] = merged
        else:
            self.sorts[name] = supersorts
        self.objects.setdefault(name, [])

    def subsort_closure(self, name: str) -> list[str]:
        """The sort itself plus everything below it, declaration order."""
        subs: dict[str, list[str]] = {}
        for other, supers in self.sorts.items():
            for s in supers:
                subs.setdefault(s, []).append(other)
        below = _reach(name, subs)
        return [name] + [s for s in self.sorts if s in below and s != name]

    def sort_members(self, name: str) -> list[Union[str, int]]:
        if name not in self.sorts:
            raise UnknownSort(f"unknown sort '{name}'")
        members: list[Union[str, int]] = []
        for s in self.subsort_closure(name):
            for obj in self.objects.get(s, []):
                if obj not in members:
                    members.append(obj)
        return members

    def value_domain(self, decl: ConstantDecl) -> list[Union[str, int, bool]]:
        if decl.valuesort is None:
            return [False, True]
        return list(self.sort_members(decl.valuesort))

    def object_sorts(self) -> dict[Union[str, int], list[str]]:
        out: dict[Union[str, int], list[str]] = {}
        for sort, objs in self.objects.items():
            for o in objs:
                out.setdefault(o, []).append(sort)
        return out

    def validate(self) -> None:
        """Structural checks that do not need grounding."""
        # only a sort that Kahn's algorithm cannot remove may be on a cycle;
        # a second pass over the reversed edges removes the supersorts above
        # every cycle, leaving the sorts on a cycle or between two
        left = kahn_remainder(self.sorts)
        below: dict[str, list[str]] = {}
        for name in left:
            for s in self.sorts.get(name, ()):
                if s in left:
                    below.setdefault(s, []).append(name)
        left = kahn_remainder(below)
        for name, supers in self.sorts.items():
            for s in supers:
                if s not in self.sorts:
                    raise UnknownSort(f"sort '{name}' extends unknown sort '{s}'")
            if name in left and name in _reach(name, self.sorts):
                raise LangError(f"sort '{name}' is part of a supersort cycle")
        object_names = {
            o for objs in self.objects.values() for o in objs if isinstance(o, str)
        }
        for cname, decl in self.constants.items():
            if cname in object_names:
                raise DuplicateDeclaration(
                    f"'{cname}' is declared both as an object and a constant",
                    decl.span,
                )
            for s in decl.argsorts:
                if s not in self.sorts:
                    raise UnknownSort(
                        f"constant '{cname}' takes unknown sort '{s}'", decl.span
                    )
            if decl.valuesort is not None and decl.valuesort not in self.sorts:
                raise UnknownSort(
                    f"constant '{cname}' ranges over unknown sort '{decl.valuesort}'",
                    decl.span,
                )
        for vname, vsort in self.variables.items():
            if vsort not in self.sorts:
                raise UnknownSort(f"variable '{vname}' has unknown sort '{vsort}'")
            if vname in object_names or vname in self.constants:
                raise DuplicateDeclaration(
                    f"variable '{vname}' clashes with another declaration"
                )


def _reach(start: str, edges: dict) -> set[str]:
    """Every node one or more steps from start along edges, a map from a
    node to its successors: an iterative walk over a visited set."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for n in edges.get(stack.pop(), ()):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


def kahn_remainder(edges: dict) -> set:
    """The nodes that Kahn's algorithm leaves when it has removed every
    node it can: those on a cycle and those a cycle reaches.  Empty when
    the graph, a map from a node to its successors, is acyclic."""
    indegree = dict.fromkeys(edges, 0)
    for succs in edges.values():
        for n in succs:
            indegree[n] = indegree.get(n, 0) + 1
    ready = [n for n, d in indegree.items() if not d]
    while ready:
        for n in edges.get(ready.pop(), ()):
            indegree[n] -= 1
            if not indegree[n]:
                ready.append(n)
    return {n for n, d in indegree.items() if d}


# ---------------------------------------------------------------------------
# Classification and head shape

class Classification(enum.Enum):
    CONSTANT_FREE = "constant-free"
    FLUENT = "fluent"
    ACTION = "action"
    MIXED = "mixed"


def _ref_kind(ref: ConstRef, desc: ActionDescription, span: Span) -> ConstKind:
    decl = desc.constants.get(ref.name)
    if decl is None:
        raise UndeclaredConstant(f"undeclared constant '{ref.name}'", span)
    if len(ref.args) != len(decl.argsorts):
        raise UndeclaredConstant(
            f"constant '{ref.name}' takes {len(decl.argsorts)} argument(s), "
            f"got {len(ref.args)}",
            span,
        )
    return decl.kind


def classify_formula(f: Formula, desc: ActionDescription, span: Span) -> Classification:
    """The kinds of constant f mentions; an undeclared constant or one
    with the wrong number of arguments is an error at span, the law's."""
    saw_fluent = saw_action = False
    for ref in constrefs(f):
        kind = _ref_kind(ref, desc, span)
        if kind.is_fluent:
            saw_fluent = True
        else:
            saw_action = True
    if saw_fluent and saw_action:
        return Classification.MIXED
    if saw_fluent:
        return Classification.FLUENT
    if saw_action:
        return Classification.ACTION
    return Classification.CONSTANT_FREE


def head_atom_constref(f: Formula, desc: ActionDescription) -> ConstRef | None:
    """The constant of a head, when the head is a single equality atom.

    Returns None for heads that are not of atom shape; the grounder
    rejects those as outside the definite fragment.  `false` heads are
    handled by the caller.
    """
    if not isinstance(f, Atom):
        return None
    if f.op != "=":
        return None
    left_refs = list(constrefs(f.left))
    right_refs = [] if f.right is None else list(constrefs(f.right))
    if len(left_refs) + len(right_refs) != 1:
        return None
    # The constant must be a whole side, not buried inside arithmetic,
    # and constants may not appear as arguments of other constants.
    if isinstance(f.left, ConstRef) and not f.left.args_have_constants() and not right_refs:
        return f.left
    if isinstance(f.right, ConstRef) and not f.right.args_have_constants() and not left_refs:
        return f.right
    return None
