"""Grounding: from schematic shorthand laws to variable-free causal laws.

The steps, in order: expand every shorthand into the three primitive law
shapes (static, action dynamic, fluent dynamic), check the heads are
definite, instantiate law variables over their sorts, evaluate where
clauses, and resolve formulas into multi-valued atoms over an interned
ground signature.  A vacuous instance, one whose condition or `after`
part resolves to false, is dropped there.

Where clauses are grounding-time guards over integers only.  They never
see fluent or action values; comparing those belongs in the formula
itself, where it denotes a condition on states rather than a filter on
instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import mvpf
from .syntax import (
    ActionDescription,
    AlwaysLaw,
    Arith,
    Atom,
    AndF,
    CausedLaw,
    CausesLaw,
    Classification,
    ConstKind,
    ConstRef,
    ConstraintLaw,
    CoreLaw,
    DefaultLaw,
    ExogenousLaw,
    ExternalCall,
    FalseF,
    Formula,
    ImplF,
    InertialLaw,
    LangError,
    LawShape,
    NO_SPAN,
    NonexecutableLaw,
    Not,
    OrF,
    QuerySpec,
    RigidLaw,
    ShorthandLaw,
    Span,
    Sym,
    Term,
    TimeRef,
    TrueF,
    UndeclaredConstant,
    WhereAnd,
    WhereCmp,
    WhereExpr,
    classify_formula,
    formula_constrefs,
    formula_terms,
    head_atom_constref,
    term_syms,
    term_text,
)


class GroundError(LangError):
    pass


class EmptySort(GroundError):
    pass


class WhereEvalError(GroundError):
    pass


# ---------------------------------------------------------------------------
# Shorthand expansion

def _atom_for(const: Term, value) -> Atom:
    return Atom(const, "=", Sym(value))


def _fluent_const_decl(term: Term, desc: ActionDescription, span: Span, who: str):
    if not isinstance(term, ConstRef):
        raise GroundError(f"{who} expects a constant, got '{term_text(term)}'", span)
    decl = desc.constants.get(term.name)
    if decl is None:
        raise UndeclaredConstant(f"undeclared constant '{term.name}'", span)
    return decl


def expand_shorthand(law: ShorthandLaw, desc: ActionDescription) -> list[CoreLaw]:
    """Rewrite one shorthand law into primitive causal laws.

    The result is still schematic.  Expansion that quantifies over values
    (inertial, exogenous) happens here, over the declared value domain, so
    that one shorthand produces one law per value.
    """
    span = law.span
    if isinstance(law, CausedLaw):
        if law.after is not None:
            return [_fluent_dynamic(law.head, law.cond, law.after, law.where, span, desc)]
        head_cls = classify_formula(law.head, desc)
        if head_cls is Classification.ACTION:
            return [CoreLaw(LawShape.ACTION_DYNAMIC, law.head, law.cond, None, law.where, span)]
        return [_static(law.head, law.cond, law.where, span, desc)]
    if isinstance(law, ConstraintLaw):
        return [_static(FalseF(), Not(law.formula), law.where, span, desc)]
    if isinstance(law, DefaultLaw):
        ref = head_atom_constref(law.head, desc)
        if ref is None:
            raise GroundError("default needs a single constant atom", span)
        decl = desc.constants[ref.name]
        body = law.head if isinstance(law.cond, TrueF) else mvpf.join(AndF, (law.head, law.cond))
        if decl.kind.is_action:
            return [CoreLaw(LawShape.ACTION_DYNAMIC, law.head, body, None, law.where, span)]
        return [_static(law.head, body, law.where, span, desc)]
    if isinstance(law, InertialLaw):
        out = []
        for t in law.consts:
            decl = _fluent_const_decl(t, desc, span, "inertial")
            if not decl.kind.is_fluent:
                raise GroundError(
                    f"inertial takes fluent constants, '{decl.name}' is an action", span
                )
            for v in desc.value_domain(decl):
                a = _atom_for(t, v)
                out.append(_fluent_dynamic(a, a, a, law.where, span, desc))
        return out
    if isinstance(law, ExogenousLaw):
        out = []
        for t in law.consts:
            decl = _fluent_const_decl(t, desc, span, "exogenous")
            if not decl.kind.is_action:
                raise GroundError(
                    f"exogenous takes action constants, '{decl.name}' is a fluent",
                    span,
                )
            for v in desc.value_domain(decl):
                a = _atom_for(t, v)
                out.append(CoreLaw(LawShape.ACTION_DYNAMIC, a, a, None, law.where, span))
        return out
    if isinstance(law, RigidLaw):
        raise GroundError(
            "rigid is not supported; declare the constant as a statDetFluent "
            "and give static laws for it",
            span,
        )
    if isinstance(law, (CausesLaw, NonexecutableLaw)):
        after = law.action
        if not isinstance(law.cond, TrueF):
            after = mvpf.join(AndF, (law.action, law.cond))
        head = law.effect if isinstance(law, CausesLaw) else FalseF()
        return [_fluent_dynamic(head, TrueF(), after, law.where, span, desc)]
    if isinstance(law, AlwaysLaw):
        return [_fluent_dynamic(FalseF(), TrueF(), Not(law.formula), law.where, span, desc)]
    raise TypeError(f"not a shorthand law: {law!r}")


def _static(head, cond, where, span, desc) -> CoreLaw:
    if classify_formula(cond, desc) in (Classification.ACTION, Classification.MIXED):
        raise GroundError(
            "the condition of a static law may not mention actions "
            "(use 'nonexecutable' or 'always' for action constraints)",
            span,
        )
    if classify_formula(head, desc) is Classification.MIXED:
        raise GroundError("law head mixes fluents and actions", span)
    return CoreLaw(LawShape.STATIC, head, cond, None, where, span)


def _fluent_dynamic(head, cond, after, where, span, desc) -> CoreLaw:
    head_cls = classify_formula(head, desc)
    if head_cls in (Classification.ACTION, Classification.MIXED):
        raise GroundError("the head of a dynamic law must be a fluent formula", span)
    for ref in formula_constrefs(head):
        if desc.constants[ref.name].kind is ConstKind.STATDET_FLUENT:
            raise GroundError(
                f"statically determined fluent '{ref.name}' cannot appear in "
                "the head of a dynamic law",
                span,
            )
    if classify_formula(cond, desc) in (Classification.ACTION, Classification.MIXED):
        raise GroundError(
            "the 'if' part of a dynamic law must be a fluent formula", span
        )
    return CoreLaw(LawShape.FLUENT_DYNAMIC, head, cond, after, where, span)


def expand_description(desc: ActionDescription) -> list[CoreLaw]:
    out: list[CoreLaw] = []
    for law in desc.laws:
        out.extend(expand_shorthand(law, desc))
    return out


# ---------------------------------------------------------------------------
# Symbols

@dataclass(frozen=True)
class GroundConst:
    cid: int
    name: str  # printable, e.g. "loc(a)"
    base: str
    args: tuple
    kind: str  # "simple" | "sdet" | "action"
    dom: tuple[int, ...]


_KIND_TAG = {
    ConstKind.SIMPLE_FLUENT: "simple",
    ConstKind.INERTIAL_FLUENT: "simple",
    ConstKind.STATDET_FLUENT: "sdet",
    ConstKind.ACTION: "action",
    ConstKind.EXOGENOUS_ACTION: "action",
}


def value_name(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


class SymbolTable:
    """Interning for values and ground constants.

    A single id counter serves both, so value ids and constant ids live
    in disjoint ranges by construction.
    """

    def __init__(self) -> None:
        self._next = 0
        self._value_ids: dict = {}
        self.values: dict[int, object] = {}
        self.consts: dict[tuple, GroundConst] = {}
        self.by_id: dict[int, GroundConst] = {}
        self.order: list[GroundConst] = []

    def _fresh(self) -> int:
        n = self._next
        self._next += 1
        return n

    @staticmethod
    def _vkey(v) -> tuple:
        # True == 1 in dict keys; tag bools so 0/1 objects stay distinct
        return (v.__class__ is bool, v)

    def intern_value(self, v) -> int:
        key = self._vkey(v)
        if key not in self._value_ids:
            vid = self._fresh()
            self._value_ids[key] = vid
            self.values[vid] = v
        return self._value_ids[key]

    def vid_of(self, v) -> int | None:
        return self._value_ids.get(self._vkey(v))

    def add_const(self, base: str, args: tuple, kind: str, dom: tuple[int, ...]) -> GroundConst:
        key = (base, args)
        if key in self.consts:
            return self.consts[key]
        printable = base if not args else f"{base}({','.join(value_name(a) for a in args)})"
        gc = GroundConst(self._fresh(), printable, base, args, kind, dom)
        self.consts[key] = gc
        self.by_id[gc.cid] = gc
        self.order.append(gc)
        return gc

    def lookup(self, base: str, args: tuple) -> GroundConst | None:
        return self.consts.get((base, args))

    def value_label(self, vid: int) -> str:
        return value_name(self.values[vid])


# ---------------------------------------------------------------------------
# Ground laws

@dataclass(frozen=True)
class GroundLaw:
    shape: LawShape
    head: tuple[int, int] | None  # (constant id, value id); None is `false`
    cond: mvpf.MvFormula
    after: mvpf.MvFormula | None
    span: Span = field(compare=False, default=NO_SPAN)
    inst: tuple = ()  # substituted objects, in variable order


@dataclass(frozen=True)
class GroundQuery:
    label: str
    min_step: int
    max_step: int | None
    lines: tuple[tuple[TimeRef, mvpf.MvFormula], ...]


@dataclass
class GroundLawSet:
    symbols: SymbolTable
    signature: mvpf.Signature
    static: list[GroundLaw]
    action_dynamic: list[GroundLaw]
    fluent_dynamic: list[GroundLaw]
    queries: dict[str, GroundQuery]

    @property
    def laws(self) -> list[GroundLaw]:
        return self.static + self.action_dynamic + self.fluent_dynamic

    def fluent_ids(self) -> list[int]:
        return [c.cid for c in self.symbols.order if c.kind != "action"]

    def simple_fluent_ids(self) -> list[int]:
        return [c.cid for c in self.symbols.order if c.kind == "simple"]

    def action_ids(self) -> list[int]:
        return [c.cid for c in self.symbols.order if c.kind == "action"]


# ---------------------------------------------------------------------------
# Term and formula resolution under a substitution

class _Resolver:
    def __init__(self, desc: ActionDescription, symbols: SymbolTable):
        self.desc = desc
        self.symbols = symbols
        self.known_objects = set(desc.object_sorts().keys())
        self._members: dict[str, frozenset] = {}

    def sort_members(self, sort: str) -> frozenset:
        """The sort's objects, subsorts included; kept per sort."""
        members = self._members.get(sort)
        if members is None:
            members = self._members[sort] = frozenset(self.desc.sort_members(sort))
        return members

    def eval_term(self, t: Term, subst: dict, span: Span):
        """Returns ('const', GroundConst) or ('obj', value)."""
        if isinstance(t, Sym):
            name = t.name
            if isinstance(name, str) and name in subst:
                return ("obj", subst[name])
            if isinstance(name, (int, bool)) or name in self.known_objects:
                return ("obj", name)
            if isinstance(name, str) and name in self.desc.variables:
                raise GroundError(f"unbound variable '{name}'", span)
            raise GroundError(f"unknown name '{name}'", span)
        if isinstance(t, ConstRef):
            decl = self.desc.constants.get(t.name)
            if decl is None:
                raise UndeclaredConstant(f"undeclared constant '{t.name}'", span)
            args = []
            for a, argsort in zip(t.args, decl.argsorts):
                tag, val = self.eval_term(a, subst, span)
                if tag != "obj":
                    raise GroundError(
                        f"constant argument of '{t.name}' must be an object", span
                    )
                if val not in self.sort_members(argsort):
                    raise GroundError(
                        f"'{value_name(val)}' is not of sort '{argsort}' "
                        f"(argument of '{t.name}')",
                        span,
                    )
                args.append(val)
            gc = self.symbols.lookup(t.name, tuple(args))
            if gc is None:
                raise GroundError(f"no ground instance '{t.name}{tuple(args)}'", span)
            return ("const", gc)
        if isinstance(t, Arith):
            lt, lv = self.eval_term(t.left, subst, span)
            rt, rv = self.eval_term(t.right, subst, span)
            if lt != "obj" or rt != "obj":
                raise GroundError("arithmetic over constants is not supported", span)
            return ("obj", _arith(t.op, lv, rv, span))
        raise TypeError(f"not a term: {t!r}")

    def atom_formula(self, atom: Atom, subst: dict, span: Span) -> mvpf.MvFormula:
        left = self.eval_term(atom.left, subst, span)
        if atom.right is None:
            if left[0] != "const":
                raise GroundError(
                    f"'{term_text(atom.left)}' is not a boolean constant", span
                )
            return self._const_value_atom(left[1], True, span)
        right = self.eval_term(atom.right, subst, span)
        op = atom.op
        if left[0] == "obj" and right[0] == "obj":
            return mvpf.TOP if _compare(op, left[1], right[1], span) else mvpf.BOT
        if left[0] == "const" and right[0] == "obj":
            return self._const_obj(op, left[1], right[1], span)
        if left[0] == "obj" and right[0] == "const":
            return self._const_obj(_flip(op), right[1], left[1], span)
        return self._const_const(op, left[1], right[1], span)

    def _const_value_atom(self, gc: GroundConst, value, span: Span) -> mvpf.MvFormula:
        vid = self.symbols.vid_of(value)
        if vid is None or vid not in gc.dom:
            raise GroundError(
                f"'{value_name(value)}' is not a possible value of '{gc.name}'",
                span,
            )
        return mvpf.MvAtom(gc.cid, vid)

    def _const_obj(self, op: str, gc: GroundConst, value, span: Span) -> mvpf.MvFormula:
        if op == "=":
            return self._const_value_atom(gc, value, span)
        if op == "\\=":
            return mvpf.neg(self._const_value_atom(gc, value, span))
        # Order comparison against the constant's value: expand over the
        # domain values for which the comparison holds.
        parts = []
        for vid in gc.dom:
            if _compare(op, self.symbols.values[vid], value, span):
                parts.append(mvpf.MvAtom(gc.cid, vid))
        return mvpf.disj(*parts)

    def _const_const(self, op: str, a: GroundConst, b: GroundConst, span: Span) -> mvpf.MvFormula:
        parts = []
        for va in a.dom:
            for vb in b.dom:
                if _compare(op, self.symbols.values[va], self.symbols.values[vb], span):
                    parts.append(
                        mvpf.conj(mvpf.MvAtom(a.cid, va), mvpf.MvAtom(b.cid, vb))
                    )
        return mvpf.disj(*parts)

    def formula(self, f: Formula, subst: dict, span: Span) -> mvpf.MvFormula:
        if isinstance(f, TrueF):
            return mvpf.TOP
        if isinstance(f, FalseF):
            return mvpf.BOT
        if isinstance(f, Atom):
            return self.atom_formula(f, subst, span)
        if isinstance(f, Not):
            return mvpf.neg(self.formula(f.sub, subst, span))
        if isinstance(f, AndF):
            return mvpf.conj(*[self.formula(g, subst, span) for g in f.parts])
        if isinstance(f, OrF):
            return mvpf.disj(*[self.formula(g, subst, span) for g in f.parts])
        if isinstance(f, ImplF):
            return mvpf.impl(self.formula(f.left, subst, span), self.formula(f.right, subst, span))
        raise TypeError(f"not a formula: {f!r}")

    def head(self, f: Formula, subst: dict, span: Span) -> tuple[int, int] | None:
        if isinstance(f, FalseF):
            return None
        ref = head_atom_constref(f, self.desc)
        if ref is None:
            raise GroundError(
                "law head must be a single constant atom or 'false'", span
            )
        got = self.atom_formula(f, subst, span)
        if not isinstance(got, mvpf.MvAtom):
            raise GroundError("law head did not resolve to a single atom", span)
        return (got.const, got.value)


def _flip(op: str) -> str:
    return {"=": "=", "\\=": "\\=", "<": ">", ">": "<", "=<": ">=", ">=": "=<"}[op]


def _compare(op: str, a, b, span: Span) -> bool:
    same = a == b and (a.__class__ is bool) == (b.__class__ is bool)
    if op == "=":
        return same
    if op == "\\=":
        return not same
    if not isinstance(a, int) or not isinstance(b, int) or isinstance(a, bool) or isinstance(b, bool):
        raise GroundError(
            f"order comparison needs integers, got '{value_name(a)}' and "
            f"'{value_name(b)}'",
            span,
        )
    return {"<": a < b, ">": a > b, "=<": a <= b, ">=": a >= b}[op]


def _arith(op: str, a, b, span: Span):
    if not isinstance(a, int) or not isinstance(b, int) or isinstance(a, bool) or isinstance(b, bool):
        raise GroundError(
            f"arithmetic needs integers, got '{value_name(a)}' and '{value_name(b)}'",
            span,
        )
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise GroundError("division by zero", span)
        return a // b
    if op == "mod":
        if b == 0:
            raise GroundError("mod by zero", span)
        return a % b
    raise GroundError(f"unknown arithmetic operator '{op}'", span)


# ---------------------------------------------------------------------------
# Where clauses

def _where_value(t: Term, subst: dict, span: Span) -> int:
    if isinstance(t, Sym):
        name = t.name
        if isinstance(name, str) and name in subst:
            name = subst[name]
        if isinstance(name, bool) or not isinstance(name, int):
            raise WhereEvalError(
                f"where clauses compute over integers, got '{value_name(name)}'",
                span,
            )
        return name
    if isinstance(t, ConstRef):
        raise WhereEvalError(
            f"where clauses cannot inspect constant '{t.name}'; compare values "
            "inside the formula instead",
            span,
        )
    if isinstance(t, Arith):
        a = _where_value(t.left, subst, span)
        b = _where_value(t.right, subst, span)
        return _arith(t.op, a, b, span)
    raise TypeError(f"not a term: {t!r}")


def eval_where(w: WhereExpr | None, subst: dict, span: Span) -> bool:
    if w is None:
        return True
    if isinstance(w, WhereCmp):
        a = _where_value(w.left, subst, span)
        b = _where_value(w.right, subst, span)
        if w.op == "=":
            return a == b
        if w.op == "\\=":
            return a != b
        return {"<": a < b, ">": a > b, "=<": a <= b, ">=": a >= b}[w.op]
    if isinstance(w, WhereAnd):
        return eval_where(w.left, subst, span) and eval_where(w.right, subst, span)
    if isinstance(w, ExternalCall):
        raise WhereEvalError(
            f"external function '@{w.name}' is not available in this build", span
        )
    raise TypeError(f"not a where expression: {w!r}")


# ---------------------------------------------------------------------------
# The grounder

def _free_variables(core: CoreLaw, desc: ActionDescription) -> list[str]:
    seen: list[str] = []

    def scan_term(t: Term) -> None:
        for s in term_syms(t):
            if isinstance(s.name, str) and s.name in desc.variables and s.name not in seen:
                seen.append(s.name)

    for f in (core.head, core.cond, core.after):
        if f is None:
            continue
        for t in formula_terms(f):
            scan_term(t)
    w = core.where
    stack = [w] if w is not None else []
    while stack:
        item = stack.pop()
        if isinstance(item, WhereCmp):
            scan_term(item.left)
            scan_term(item.right)
        elif isinstance(item, WhereAnd):
            stack.extend([item.right, item.left])
        elif isinstance(item, ExternalCall):
            for t in item.args:
                scan_term(t)
    return seen


def build_symbols(desc: ActionDescription) -> SymbolTable:
    symbols = SymbolTable()
    symbols.intern_value(False)
    symbols.intern_value(True)
    for sort in desc.sorts:
        for obj in desc.objects.get(sort, []):
            symbols.intern_value(obj)
    for decl in desc.constants.values():
        domain = desc.value_domain(decl)
        if not domain:
            raise EmptySort(
                f"value sort '{decl.valuesort}' of '{decl.name}' has no objects",
                decl.span,
            )
        dom = tuple(symbols.intern_value(v) for v in domain)
        arg_members = []
        for s in decl.argsorts:
            members = desc.sort_members(s)
            if not members:
                raise EmptySort(
                    f"argument sort '{s}' of '{decl.name}' has no objects", decl.span
                )
            arg_members.append(members)
        for args in itertools.product(*arg_members):
            symbols.add_const(decl.name, args, _KIND_TAG[decl.kind], dom)
    return symbols


def ground_description(desc: ActionDescription) -> GroundLawSet:
    """Ground every law of the description over its variables' sorts.

    Vacuous instances are dropped: those whose condition or `after` part
    resolves to false.  Before the head and the constants of an instance
    are resolved, the top-level conjuncts of its condition and `after`
    part that mention no constant (``L = B1``) are tested, as the where
    clause is; one that is false skips the instance.
    """
    desc.validate()
    symbols = build_symbols(desc)
    resolver = _Resolver(desc, symbols)

    static: list[GroundLaw] = []
    action_dynamic: list[GroundLaw] = []
    fluent_dynamic: list[GroundLaw] = []
    buckets = {
        LawShape.STATIC: static,
        LawShape.ACTION_DYNAMIC: action_dynamic,
        LawShape.FLUENT_DYNAMIC: fluent_dynamic,
    }

    for core in expand_description(desc):
        variables = _free_variables(core, desc)
        member_lists = []
        for v in variables:
            members = desc.sort_members(desc.variables[v])
            if not members:
                raise EmptySort(
                    f"variable '{v}' ranges over empty sort '{desc.variables[v]}'",
                    core.span,
                )
            member_lists.append(members)
        guards = [
            g
            for f in (core.cond, core.after)
            if f is not None
            for g in (f.parts if isinstance(f, AndF) else (f,))
            if not any(formula_constrefs(g))
        ]
        for choice in itertools.product(*member_lists):
            subst = dict(zip(variables, choice))
            # every guard is resolved, so an ill-typed one raises as before
            if not eval_where(core.where, subst, core.span) or mvpf.BOT in [
                resolver.formula(g, subst, core.span) for g in guards
            ]:
                continue
            head = resolver.head(core.head, subst, core.span)
            cond = resolver.formula(core.cond, subst, core.span)
            after = (
                None
                if core.after is None
                else resolver.formula(core.after, subst, core.span)
            )
            if cond is mvpf.BOT or after is mvpf.BOT:
                continue  # `caused H if false` or `... after false`
            buckets[core.shape].append(
                GroundLaw(core.shape, head, cond, after, core.span, tuple(choice))
            )

    # inertialFluent / exogenousAction declarations carry their law with
    # them: every instance is inertial (resp. exogenous) at every value.
    for decl in desc.constants.values():
        if decl.kind is ConstKind.INERTIAL_FLUENT:
            for gc in symbols.order:
                if gc.base != decl.name:
                    continue
                for vid in gc.dom:
                    a = mvpf.MvAtom(gc.cid, vid)
                    fluent_dynamic.append(
                        GroundLaw(
                            LawShape.FLUENT_DYNAMIC, (gc.cid, vid), a, a,
                            decl.span, gc.args,
                        )
                    )
        elif decl.kind is ConstKind.EXOGENOUS_ACTION:
            for gc in symbols.order:
                if gc.base != decl.name:
                    continue
                for vid in gc.dom:
                    a = mvpf.MvAtom(gc.cid, vid)
                    action_dynamic.append(
                        GroundLaw(
                            LawShape.ACTION_DYNAMIC, (gc.cid, vid), a, None,
                            decl.span, gc.args,
                        )
                    )

    signature = mvpf.Signature(
        constants=tuple(c.cid for c in symbols.order),
        dom={c.cid: c.dom for c in symbols.order},
    )
    queries = {
        label: ground_query(q, desc, resolver)
        for label, q in desc.queries.items()
    }
    return GroundLawSet(symbols, signature, static, action_dynamic, fluent_dynamic, queries)


def ground_query(q: QuerySpec, desc: ActionDescription, resolver: _Resolver) -> GroundQuery:
    lines = []
    for tref, f in q.lines:
        for t in formula_terms(f):
            for s in term_syms(t):
                if isinstance(s.name, str) and s.name in desc.variables:
                    raise GroundError(
                        f"query '{q.label}' uses variable '{s.name}'; queries "
                        "must be variable-free",
                        q.span,
                    )
        lines.append((tref, resolver.formula(f, {}, q.span)))
    return GroundQuery(q.label, q.min_step, q.max_step, tuple(lines))
