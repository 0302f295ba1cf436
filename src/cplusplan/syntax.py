"""Abstract syntax for action descriptions.

The surface language is the CCalc-style one: sort and object declarations,
constant declarations with a kind (fluent or action flavored), variable
declarations, causal laws in shorthand form, and planning queries.  The
parser builds these nodes; the grounder consumes them.

Formulas are schematic: atoms compare two terms, where a term is an object
or variable symbol, an integer arithmetic expression, or a reference to a
declared constant.  Which side of an atom is the constant (if any) is only
pinned down during resolution, after all includes have been read.

`AndF` and `OrF` are n-ary and flat, as `And` and `Or` in `mvpf` are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union

RESERVED_WORDS = frozenset(
    {
        "true", "false", "maxstep", "infinity", "caused", "constraint",
        "default", "inertial", "exogenous", "nonexecutable", "always",
        "rigid", "causes", "if", "after", "where", "mod", "label",
    }
)


@dataclass(frozen=True, slots=True)
class Span:
    path: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


NO_SPAN = Span("<none>", 0, 0)


class LangError(Exception):
    """Base for everything raised while reading or checking a description."""

    def __init__(self, message: str, span: Span = NO_SPAN):
        self.span = span
        super().__init__(f"{span}: {message}" if span is not NO_SPAN else message)


class UndeclaredConstant(LangError):
    pass


class UnknownSort(LangError):
    pass


class DuplicateDeclaration(LangError):
    pass


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True, slots=True)
class Sym:
    """An object, a variable occurrence, or a literal (int / bool)."""

    name: Union[str, int, bool]


@dataclass(frozen=True, slots=True)
class ConstRef:
    name: str
    args: tuple["Term", ...] = ()

    def args_have_constants(self) -> bool:
        return any(
            True
            for a in self.args
            for _ in term_constrefs(a)
        )


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # one of + - * / mod
    left: "Term"
    right: "Term"


Term = Union[Sym, ConstRef, Arith]


# ---------------------------------------------------------------------------
# Formulas

COMPARISONS = ("=", "\\=", "<", ">", "=<", ">=")


@dataclass(frozen=True, slots=True)
class Atom:
    """left op right, or a bare boolean constant when right is None."""

    left: Term
    op: str = "="
    right: Term | None = None


@dataclass(frozen=True, slots=True)
class TrueF:
    pass


@dataclass(frozen=True, slots=True)
class FalseF:
    pass


@dataclass(frozen=True, slots=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True, slots=True)
class AndF:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class OrF:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class ImplF:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, TrueF, FalseF, Not, AndF, OrF, ImplF]

TRUE = TrueF()
FALSE = FalseF()


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, (AndF, OrF)):
        for g in f.parts:
            yield from subformulas(g)
    elif isinstance(f, ImplF):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def formula_terms(f: Formula) -> Iterator[Term]:
    for sub in subformulas(f):
        if isinstance(sub, Atom):
            yield sub.left
            if sub.right is not None:
                yield sub.right


def term_syms(t: Term) -> Iterator[Sym]:
    if isinstance(t, Sym):
        yield t
    elif isinstance(t, ConstRef):
        for a in t.args:
            yield from term_syms(a)
    elif isinstance(t, Arith):
        yield from term_syms(t.left)
        yield from term_syms(t.right)


def term_constrefs(t: Term) -> Iterator[ConstRef]:
    if isinstance(t, ConstRef):
        yield t
        for a in t.args:
            yield from term_constrefs(a)
    elif isinstance(t, Arith):
        yield from term_constrefs(t.left)
        yield from term_constrefs(t.right)


def formula_constrefs(f: Formula) -> Iterator[ConstRef]:
    for t in formula_terms(f):
        yield from term_constrefs(t)


# ---------------------------------------------------------------------------
# Where clauses (grounding-time integer builtins)

@dataclass(frozen=True, slots=True)
class WhereCmp:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class WhereAnd:
    left: "WhereExpr"
    right: "WhereExpr"


@dataclass(frozen=True, slots=True)
class ExternalCall:
    """An @name(...) escape.  Parsed for compatibility, never evaluable."""

    name: str
    args: tuple[Term, ...]


WhereExpr = Union[WhereCmp, WhereAnd, ExternalCall]


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


@dataclass(frozen=True)
class ConstantDecl:
    name: str
    argsorts: tuple[str, ...]
    kind: ConstKind
    valuesort: str | None  # None means boolean
    span: Span = field(default=NO_SPAN, compare=False)


# ---------------------------------------------------------------------------
# Shorthand laws

@dataclass(frozen=True)
class CausedLaw:
    head: Formula
    cond: Formula
    after: Formula | None
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class ConstraintLaw:
    formula: Formula
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class DefaultLaw:
    head: Formula  # must resolve to a single atom
    cond: Formula
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class InertialLaw:
    consts: tuple[Term, ...]
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class ExogenousLaw:
    consts: tuple[Term, ...]
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class RigidLaw:
    consts: tuple[Term, ...]
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class CausesLaw:
    action: Formula
    effect: Formula
    cond: Formula
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class NonexecutableLaw:
    action: Formula
    cond: Formula
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass(frozen=True)
class AlwaysLaw:
    formula: Formula
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


ShorthandLaw = Union[
    CausedLaw,
    ConstraintLaw,
    DefaultLaw,
    InertialLaw,
    ExogenousLaw,
    RigidLaw,
    CausesLaw,
    NonexecutableLaw,
    AlwaysLaw,
]


class LawShape(enum.Enum):
    STATIC = "static"
    ACTION_DYNAMIC = "action_dynamic"
    FLUENT_DYNAMIC = "fluent_dynamic"


@dataclass(frozen=True)
class CoreLaw:
    """A causal law in one of the three primitive shapes.

    Still schematic: formulas may mention variables.  `after` is None
    exactly for the static and action dynamic shapes.
    """

    shape: LawShape
    head: Formula
    cond: Formula
    after: Formula | None
    where: WhereExpr | None = None
    span: Span = field(default=NO_SPAN, compare=False)


# ---------------------------------------------------------------------------
# Queries

@dataclass(frozen=True, slots=True)
class TimeRef:
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

@dataclass
class ActionDescription:
    # sort name -> direct supersorts
    sorts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # sort name -> objects in declaration order
    objects: dict[str, list[Union[str, int]]] = field(default_factory=dict)
    constants: dict[str, ConstantDecl] = field(default_factory=dict)
    variables: dict[str, str] = field(default_factory=dict)
    laws: list[ShorthandLaw] = field(default_factory=list)
    queries: dict[str, QuerySpec] = field(default_factory=dict)

    def declare_sort(self, name: str, supersorts: tuple[str, ...], span: Span) -> None:
        if name in self.sorts:
            merged = tuple(dict.fromkeys(self.sorts[name] + supersorts))
            self.sorts[name] = merged
        else:
            self.sorts[name] = supersorts
        self.objects.setdefault(name, [])

    def subsort_closure(self, name: str) -> list[str]:
        """The sort itself plus everything below it, declaration order."""
        below = [name]
        for other, supers in self.sorts.items():
            if other == name:
                continue
            if self._reaches(other, name):
                below.append(other)
        return below

    def _reaches(self, sub: str, sup: str, seen: frozenset[str] = frozenset()) -> bool:
        if sub in seen:
            return False
        for s in self.sorts.get(sub, ()):
            if s == sup or self._reaches(s, sup, seen | {sub}):
                return True
        return False

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
        for name, supers in self.sorts.items():
            for s in supers:
                if s not in self.sorts:
                    raise UnknownSort(f"sort '{name}' extends unknown sort '{s}'")
            if self._reaches(name, name):
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


# ---------------------------------------------------------------------------
# Classification and head shape

class Classification(enum.Enum):
    CONSTANT_FREE = "constant-free"
    FLUENT = "fluent"
    ACTION = "action"
    MIXED = "mixed"


def _ref_kind(ref: ConstRef, desc: ActionDescription) -> ConstKind:
    decl = desc.constants.get(ref.name)
    if decl is None:
        raise UndeclaredConstant(f"undeclared constant '{ref.name}'")
    if len(ref.args) != len(decl.argsorts):
        raise UndeclaredConstant(
            f"constant '{ref.name}' takes {len(decl.argsorts)} argument(s), "
            f"got {len(ref.args)}"
        )
    return decl.kind


def classify_formula(f: Formula, desc: ActionDescription) -> Classification:
    saw_fluent = saw_action = False
    for ref in formula_constrefs(f):
        kind = _ref_kind(ref, desc)
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
    left_refs = list(term_constrefs(f.left))
    right_refs = [] if f.right is None else list(term_constrefs(f.right))
    if len(left_refs) + len(right_refs) != 1:
        return None
    # The constant must be a whole side, not buried inside arithmetic,
    # and constants may not appear as arguments of other constants.
    if isinstance(f.left, ConstRef) and not f.left.args_have_constants() and not right_refs:
        return f.left
    if isinstance(f.right, ConstRef) and not f.right.args_have_constants() and not left_refs:
        return f.right
    return None


# ---------------------------------------------------------------------------
# Pretty printing (canonical text form, reparseable)

def term_text(t: Term) -> str:
    if isinstance(t, Sym):
        if t.name is True:
            return "true"
        if t.name is False:
            return "false"
        return str(t.name)
    if isinstance(t, ConstRef):
        if not t.args:
            return t.name
        return f"{t.name}({','.join(term_text(a) for a in t.args)})"
    if isinstance(t, Arith):
        prec = {"+": 1, "-": 1, "*": 2, "/": 2, "mod": 2}
        me = prec[t.op]

        def side(x: Term, tight: bool) -> str:
            s = term_text(x)
            if isinstance(x, Arith) and (prec[x.op] < me or (tight and prec[x.op] == me)):
                return f"({s})"
            return s

        op = f" {t.op} " if t.op == "mod" else t.op
        return f"{side(t.left, False)}{op}{side(t.right, True)}"
    raise TypeError(f"not a term: {t!r}")


_LEVEL = {"impl": 1, "or": 2, "and": 3, "unary": 4}


def formula_text(f: Formula, level: int = 0) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        if f.right is None:
            return term_text(f.left)
        if (
            f.op == "="
            and isinstance(f.right, Sym)
            and f.right.name is True
        ):
            return term_text(f.left)
        if (
            f.op == "="
            and isinstance(f.right, Sym)
            and f.right.name is False
        ):
            return f"-{term_text(f.left)}"
        return f"{term_text(f.left)}{f.op}{term_text(f.right)}"
    if isinstance(f, Not):
        inner = formula_text(f.sub, _LEVEL["unary"])
        text = f"-{inner}"
    elif isinstance(f, (AndF, OrF)):
        me, sep = (_LEVEL["and"], " & ") if isinstance(f, AndF) else (_LEVEL["or"], " ++ ")
        text = sep.join(formula_text(g, me) for g in f.parts)
        if level >= me:
            text = f"({text})"
        return text
    elif isinstance(f, ImplF):
        text = (
            f"{formula_text(f.left, _LEVEL['impl'])}"
            f" ->> {formula_text(f.right, _LEVEL['impl'] - 1)}"
        )
        if level >= _LEVEL["impl"]:
            text = f"({text})"
        return text
    else:
        raise TypeError(f"not a formula: {f!r}")
    if isinstance(f, Not) and level > _LEVEL["unary"]:
        return f"({text})"
    return text


def where_text(w: WhereExpr) -> str:
    if isinstance(w, WhereCmp):
        return f"{term_text(w.left)}{w.op}{term_text(w.right)}"
    if isinstance(w, WhereAnd):
        return f"{where_text(w.left)} & {where_text(w.right)}"
    if isinstance(w, ExternalCall):
        args = ",".join(term_text(a) for a in w.args)
        return f"@{w.name}({args})"
    raise TypeError(f"not a where expression: {w!r}")


def _where_suffix(w: WhereExpr | None) -> str:
    return f" where {where_text(w)}" if w is not None else ""


def law_text(law: ShorthandLaw) -> str:
    if isinstance(law, CausedLaw):
        s = f"caused {formula_text(law.head)}"
        if not isinstance(law.cond, TrueF):
            s += f" if {formula_text(law.cond)}"
        if law.after is not None:
            s += f" after {formula_text(law.after)}"
        return s + _where_suffix(law.where) + "."
    if isinstance(law, ConstraintLaw):
        return f"constraint {formula_text(law.formula)}{_where_suffix(law.where)}."
    if isinstance(law, DefaultLaw):
        s = f"default {formula_text(law.head)}"
        if not isinstance(law.cond, TrueF):
            s += f" if {formula_text(law.cond)}"
        return s + _where_suffix(law.where) + "."
    if isinstance(law, InertialLaw):
        names = ", ".join(term_text(c) for c in law.consts)
        return f"inertial {names}{_where_suffix(law.where)}."
    if isinstance(law, ExogenousLaw):
        names = ", ".join(term_text(c) for c in law.consts)
        return f"exogenous {names}{_where_suffix(law.where)}."
    if isinstance(law, RigidLaw):
        names = ", ".join(term_text(c) for c in law.consts)
        return f"rigid {names}{_where_suffix(law.where)}."
    if isinstance(law, CausesLaw):
        s = f"{formula_text(law.action)} causes {formula_text(law.effect)}"
        if not isinstance(law.cond, TrueF):
            s += f" if {formula_text(law.cond)}"
        return s + _where_suffix(law.where) + "."
    if isinstance(law, NonexecutableLaw):
        s = f"nonexecutable {formula_text(law.action)}"
        if not isinstance(law.cond, TrueF):
            s += f" if {formula_text(law.cond)}"
        return s + _where_suffix(law.where) + "."
    if isinstance(law, AlwaysLaw):
        return f"always {formula_text(law.formula)}{_where_suffix(law.where)}."
    raise TypeError(f"not a law: {law!r}")


def _object_runs(objs: list[Union[str, int]]) -> list[str]:
    """Render objects, re-packing consecutive integers as ranges."""
    out: list[str] = []
    i = 0
    while i < len(objs):
        o = objs[i]
        if isinstance(o, int):
            j = i
            while j + 1 < len(objs) and objs[j + 1] == objs[j] + 1 and isinstance(objs[j + 1], int):
                j += 1
            if j > i:
                out.append(f"{objs[i]}..{objs[j]}")
                i = j + 1
                continue
            out.append(str(o))
        else:
            out.append(str(o))
        i += 1
    return out


def time_ref_text(t: TimeRef) -> str:
    if t.base == "maxstep":
        if t.offset == 0:
            return "maxstep"
        sign = "+" if t.offset > 0 else "-"
        return f"maxstep{sign}{abs(t.offset)}"
    return str(t.base + t.offset if isinstance(t.base, int) else t.base)


def description_text(desc: ActionDescription) -> str:
    """Canonical reparseable rendering (includes already flattened)."""
    lines: list[str] = []
    if desc.sorts:
        decls = []
        done: set[str] = set()
        for name, supers in desc.sorts.items():
            if supers:
                for s in supers:
                    decls.append(f"{s} >> {name}")
                done.add(name)
                done.update(supers)
        for name in desc.sorts:
            if name not in done:
                decls.append(name)
        lines.append(":- sorts")
        lines.append("  " + ";\n  ".join(dict.fromkeys(decls)) + ".")
    obj_decls = [
        f"{', '.join(_object_runs(objs))} :: {sort}"
        for sort, objs in desc.objects.items()
        if objs
    ]
    if obj_decls:
        lines.append(":- objects")
        lines.append("  " + ";\n  ".join(obj_decls) + ".")
    if desc.constants:
        parts = []
        for decl in desc.constants.values():
            sig = decl.name
            if decl.argsorts:
                sig += f"({','.join(decl.argsorts)})"
            kind = decl.kind.value
            if decl.valuesort is not None:
                kind += f"({decl.valuesort})"
            parts.append(f"{sig} :: {kind}")
        lines.append(":- constants")
        lines.append("  " + ";\n  ".join(parts) + ".")
    if desc.variables:
        by_sort: dict[str, list[str]] = {}
        for v, s in desc.variables.items():
            by_sort.setdefault(s, []).append(v)
        parts = [f"{', '.join(vs)} :: {s}" for s, vs in by_sort.items()]
        lines.append(":- variables")
        lines.append("  " + ";\n  ".join(parts) + ".")
    for law in desc.laws:
        lines.append(law_text(law))
    for q in desc.queries.values():
        lines.append(":- query")
        parts = [f"label :: {q.label}"]
        if q.max_step is None:
            parts.append(f"maxstep :: {q.min_step}..infinity")
        elif q.max_step == q.min_step:
            parts.append(f"maxstep :: {q.max_step}")
        else:
            parts.append(f"maxstep :: {q.min_step}..{q.max_step}")
        for tref, f in q.lines:
            parts.append(f"{time_ref_text(tref)}: {formula_text(f)}")
        lines.append("  " + ";\n  ".join(parts) + ".")
    return "\n".join(lines) + "\n"
