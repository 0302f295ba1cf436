"""Grounding: from schematic laws to variable-free causal laws.

The steps, in order: expand every law into the three primitive law
shapes (static, action dynamic, fluent dynamic), check the heads are
definite, then instantiate each law schema over its variables' sorts,
resolving its formulas into multi-valued atoms over an interned ground
signature.  A vacuous instance, one whose condition or `after` part
resolves to false, is dropped.  A schematic formula already has
`mvpf`'s connectives; grounding resolves its `Atom` leaves and folds the
connectives over them.  A query grounds into a `QuerySpec` over MvAtoms.

Each schema is compiled once (`_LawPlan`).  Its variables keep the order
of their first occurrence in the head, condition, after part and where
clause; the instances come out in the product order of their sorts in
that order, and `inst` lists their objects in it.  The head, condition,
after part and guards become post-order op lists.  An atom is looked up
on the values of its own variables, and each miss is resolved, with its
sort and domain checks, by `_Resolver.atom_formula`; results are shared
by every law that has the same atom, errors are never kept.  A where
conjunct compiles into a function of the binding that checks every value
it reads is an integer.

The instances come from nested loops, one per variable, in that order:

- A where conjunct is tested at the first loop level that binds its
  variables, but never before a conjunct to its left, so it runs exactly
  where the left-to-right test of each product tuple would run it.
- The guards, the top-level conjuncts of the condition and after part
  that mention no constant (``L = B1``), all sit at one level: the
  deepest any of them needs, after the whole where clause.  All of them
  are resolved before one that is false skips the binding, so an
  ill-typed guard raises even next to a false one.

Where clauses are grounding-time guards over integers only.  They never
see fluent or action values; comparing those belongs in the formula
itself, where it denotes a condition on states rather than a filter on
instances.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial
from typing import Iterator

from . import mvpf
from .mvpf import Record
from .syntax import (
    KIDS,
    ActionDescription,
    Arith,
    Atom,
    CausedLaw,
    Classification,
    ConstKind,
    ConstRef,
    CoreLaw,
    ExogenousLaw,
    ExternalCall,
    Formula,
    InertialLaw,
    LangError,
    Law,
    LawShape,
    NO_SPAN,
    QuerySpec,
    Span,
    Spanned,
    Sym,
    Term,
    UndeclaredConstant,
    WhereAnd,
    WhereCmp,
    WhereExpr,
    classify_formula,
    constrefs,
    head_atom_constref,
    term_syms,
    term_text,
    walk,
)


class GroundError(LangError):
    pass


class EmptySort(GroundError):
    pass


class WhereEvalError(GroundError):
    pass


# ---------------------------------------------------------------------------
# Law expansion

def _atom_for(const: Term, value) -> Atom:
    return Atom(const, "=", Sym(value))


def _fluent_const_decl(term: Term, desc: ActionDescription, span: Span, who: str):
    if not isinstance(term, ConstRef):
        raise GroundError(f"{who} expects a constant, got '{term_text(term)}'", span)
    decl = desc.constants.get(term.name)
    if decl is None:
        raise UndeclaredConstant(f"undeclared constant '{term.name}'", span)
    return decl


def expand_shorthand(law: Law, desc: ActionDescription) -> list[CoreLaw]:
    """Rewrite one law into primitive causal laws: a `caused` law into the
    one its head and `after` part give the shape of, and an inertial or
    exogenous law into one per constant and value, over the declared
    value domain.  The result is still schematic.
    """
    span = law.span
    if isinstance(law, CausedLaw):
        if law.after is not None:
            return [_fluent_dynamic(law.head, law.cond, law.after, law.where, span, desc)]
        head_cls = classify_formula(law.head, desc, span)
        if head_cls is Classification.ACTION:
            return [CoreLaw(LawShape.ACTION_DYNAMIC, law.head, law.cond, None, law.where, span)]
        return [_static(law.head, law.cond, law.where, span, desc)]
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
    raise TypeError(f"not a law: {law!r}")


def _static(head, cond, where, span, desc) -> CoreLaw:
    if classify_formula(cond, desc, span) in (Classification.ACTION, Classification.MIXED):
        raise GroundError(
            "the condition of a static law may not mention actions "
            "(use 'nonexecutable' or 'always' for action constraints)",
            span,
        )
    if classify_formula(head, desc, span) is Classification.MIXED:
        raise GroundError("law head mixes fluents and actions", span)
    return CoreLaw(LawShape.STATIC, head, cond, None, where, span)


def _fluent_dynamic(head, cond, after, where, span, desc) -> CoreLaw:
    head_cls = classify_formula(head, desc, span)
    if head_cls in (Classification.ACTION, Classification.MIXED):
        raise GroundError("the head of a dynamic law must be a fluent formula", span)
    for ref in constrefs(head):
        if desc.constants[ref.name].kind is ConstKind.STATDET_FLUENT:
            raise GroundError(
                f"statically determined fluent '{ref.name}' cannot appear in "
                "the head of a dynamic law",
                span,
            )
    if classify_formula(cond, desc, span) in (Classification.ACTION, Classification.MIXED):
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

class GroundConst(Record):
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
    in disjoint ranges by construction.  ``plan_layout`` holds what
    ``plans`` derives from the table once for every plan over it; adding
    a constant or a value drops it.
    """

    def __init__(self) -> None:
        self._next = 0
        self._value_ids: dict = {}
        self.values: dict[int, object] = {}
        self.consts: dict[tuple, GroundConst] = {}
        self.by_id: dict[int, GroundConst] = {}
        self.order: list[GroundConst] = []
        self.plan_layout = None

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
            self.plan_layout = None
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
        self.plan_layout = None
        return gc

    def lookup(self, base: str, args: tuple) -> GroundConst | None:
        return self.consts.get((base, args))

    def value_label(self, vid: int) -> str:
        return value_name(self.values[vid])


# ---------------------------------------------------------------------------
# Ground laws

class GroundLaw(Spanned):
    shape: LawShape
    head: tuple[int, int] | None  # (constant id, value id); None is `false`
    cond: mvpf.MvFormula
    after: mvpf.MvFormula | None
    inst: tuple = ()  # substituted objects, in variable order
    span: Span = NO_SPAN


class GroundLawSet:
    def __init__(self, symbols: SymbolTable,
                 static: list[GroundLaw], action_dynamic: list[GroundLaw],
                 fluent_dynamic: list[GroundLaw], queries: dict[str, QuerySpec]) -> None:
        self.symbols = symbols
        self.static = static
        self.action_dynamic = action_dynamic
        self.fluent_dynamic = fluent_dynamic
        self.queries = queries  # over MvAtoms

    @property
    def laws(self) -> list[GroundLaw]:
        return self.static + self.action_dynamic + self.fluent_dynamic

    @property
    def signature(self) -> mvpf.Signature:
        order = self.symbols.order
        return mvpf.Signature(tuple(c.cid for c in order), {c.cid: c.dom for c in order})

    def simple_fluent_ids(self) -> list[int]:
        return [c.cid for c in self.symbols.order if c.kind == "simple"]

    def action_ids(self) -> list[int]:
        return [c.cid for c in self.symbols.order if c.kind == "action"]


# ---------------------------------------------------------------------------
# Atom resolution under a binding

class _Resolver:
    def __init__(self, desc: ActionDescription, symbols: SymbolTable):
        self.desc = desc
        self.symbols = symbols
        self.known_objects = set(desc.object_sorts().keys())
        self._members: dict[str, dict] = {}
        # an atom spelled out by `_atom_shape` -> {its variables' values:
        # MvFormula}
        self._atoms: dict[tuple, dict] = {}

    def sort_members(self, sort: str) -> dict:
        """The sort's objects, subsorts included, as the keys of a dict:
        they iterate in declaration order and test membership by hash.
        Kept per sort."""
        members = self._members.get(sort)
        if members is None:
            members = self._members[sort] = dict.fromkeys(self.desc.sort_members(sort))
        return members

    def eval_term(self, t: Term, subst: dict, span: Span):
        """Returns ('const', GroundConst) or ('obj', value).

        The fold carries an error as ('err', exception) up to the root, so
        the one raised is the first the left-to-right reading meets: each
        constant argument is checked before a later one is looked at."""
        if t.__class__ is Sym:
            got = self._eval_sym(subst, span, t)
        else:
            got = mvpf.fold(
                t, partial(self._eval_sym, subst, span), partial(self._eval_node, span), KIDS
            )
        if got[0] == "err":
            raise got[1]
        return got

    def _eval_sym(self, subst: dict, span: Span, sym: Sym):
        name = sym.name
        if isinstance(name, str) and name in subst:
            return ("obj", subst[name])
        if isinstance(name, (int, bool)) or name in self.known_objects:
            return ("obj", name)
        if isinstance(name, str) and name in self.desc.variables:
            return ("err", GroundError(f"unbound variable '{name}'", span))
        return ("err", GroundError(f"unknown name '{name}'", span))

    def _eval_node(self, span: Span, n, parts: list):
        if n.__class__ is Arith:
            (lt, lv), (rt, rv) = parts
            if lt == "err" or rt == "err":
                return parts[0] if lt == "err" else parts[1]
            if lt != "obj" or rt != "obj":
                return ("err", GroundError("arithmetic over constants is not supported", span))
            try:
                return ("obj", _arith(n.op, lv, rv, span))
            except GroundError as err:
                return ("err", err)
        decl = self.desc.constants.get(n.name)
        if decl is None:
            return ("err", UndeclaredConstant(f"undeclared constant '{n.name}'", span))
        if len(parts) != len(decl.argsorts):
            return ("err", UndeclaredConstant(
                f"constant '{n.name}' takes {len(decl.argsorts)} argument(s), got {len(parts)}",
                span,
            ))
        args = []
        for (tag, val), argsort in zip(parts, decl.argsorts):
            if tag == "err":
                return (tag, val)
            if tag != "obj":
                return ("err", GroundError(
                    f"constant argument of '{n.name}' must be an object", span
                ))
            if val not in self.sort_members(argsort):
                return ("err", GroundError(
                    f"'{value_name(val)}' is not of sort '{argsort}' "
                    f"(argument of '{n.name}')",
                    span,
                ))
            args.append(val)
        gc = self.symbols.lookup(n.name, tuple(args))
        if gc is None:
            return ("err", GroundError(f"no ground instance '{n.name}{tuple(args)}'", span))
        return ("const", gc)

    def atom_formula(self, atom: Atom, subst: dict, span: Span) -> mvpf.MvFormula:
        left = self.eval_term(atom.left, subst, span)
        if atom.right is None:
            vid = self.symbols.vid_of(True)
            if left[0] != "const" or vid not in left[1].dom:
                raise GroundError(
                    f"'{term_text(atom.left)}' is not a boolean constant", span
                )
            return mvpf.MvAtom._make((left[1].cid, vid))
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
        return mvpf.MvAtom._make((gc.cid, vid))

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
                parts.append(mvpf.MvAtom._make((gc.cid, vid)))
        return mvpf.disj(*parts)

    def _const_const(self, op: str, a: GroundConst, b: GroundConst, span: Span) -> mvpf.MvFormula:
        parts = []
        for va in a.dom:
            for vb in b.dom:
                if _compare(op, self.symbols.values[va], self.symbols.values[vb], span):
                    left, right = mvpf.MvAtom._make((a.cid, va)), mvpf.MvAtom._make((b.cid, vb))
                    parts.append(mvpf.conj(left, right))
        return mvpf.disj(*parts)

    def atom_lookup(self, atom: Atom, slots: dict[str, int], span: Span):
        """A function from a binding, a list indexed by `slots`, to the
        atom's MvFormula, with the atom's variables and whether it mentions
        a constant.  A variable new to `slots` gets the next slot.

        Results are kept per atom syntax and values of the atom's own
        variables, so laws sharing an atom share them; an error is kept
        nowhere and raises again on the next call."""
        key, names, has_const = _atom_shape(atom, self.desc.variables)
        memo = self._atoms.setdefault(key, {})
        idx = [slots.setdefault(n, len(slots)) for n in names]
        key_of = operator.itemgetter(*idx) if idx else lambda env: ()
        resolve = self.atom_formula

        def lookup(env: list) -> mvpf.MvFormula:
            key = key_of(env)
            got = memo.get(key)
            if got is None:
                got = memo[key] = resolve(atom, dict(zip(names, map(env.__getitem__, idx))), span)
            return got

        return lookup, names, has_const

    def compile(self, f: Formula, slots: dict[str, int], span: Span):
        """f's post-order op list for `_run`, built on an explicit stack,
        with the variables its atoms mention and whether it mentions no
        constant.  Variables new to `slots` get the next slots."""
        ops: list[tuple] = []
        names: set[str] = set()
        constant_free = True
        stack: list = [f]
        while stack:
            f = stack.pop()
            cls = f.__class__
            if cls is tuple:  # (connective, arity), its parts done
                ops.append(f)
            elif cls is Atom:
                lookup, atom_names, has_const = self.atom_lookup(f, slots, span)
                ops.append((_ATOM, lookup))
                names.update(atom_names)
                constant_free = constant_free and not has_const
            elif cls is mvpf.Bot or mvpf.is_top(f):  # true is no negation to run
                ops.append((_CONST, mvpf.BOT if cls is mvpf.Bot else mvpf.TOP))
            elif cls in _CODES:
                parts = mvpf.KIDS[cls](f)
                stack.append((_CODES[cls], len(parts)))
                stack.extend(reversed(parts))
            else:
                raise TypeError(f"not a formula: {f!r}")
        return ops, names, constant_free

    def head(self, f: Formula, slots: dict[str, int], span: Span):
        """A function from a binding to the head's (constant id, value id),
        None for a `false` head.  The head's variables get their slots."""
        if f.__class__ is mvpf.Bot:
            return lambda env: None
        if head_atom_constref(f, self.desc) is None:
            self.compile(f, slots, span)
            return _raiser(
                GroundError, "law head must be a single constant atom or 'false'", span
            )
        lookup = self.atom_lookup(f, slots, span)[0]

        def head(env: list) -> tuple[int, int]:
            got = lookup(env)
            if not isinstance(got, mvpf.MvAtom):
                raise GroundError("law head did not resolve to a single atom", span)
            return (got.const, got.value)

        return head


def _atom_shape(atom: Atom, variables: dict) -> tuple[tuple, list[str], bool]:
    """The atom spelled out node by node in pre-order, its variables in the
    order they first occur, and whether it mentions a constant.

    The spelling is a flat key, so a deep term hashes without recursion.
    A literal's class is part of it, as in `SymbolTable._vkey`, since
    Sym(1) == Sym(True): `p = 0` is not `-p`."""
    key: list[tuple] = []
    names: list[str] = []
    has_const = False
    for n in walk(atom):
        cls = n.__class__
        if cls is Sym:
            key.append((cls, n.name.__class__, n.name))
            if n.name in variables and n.name not in names:
                names.append(n.name)
        elif cls is ConstRef:
            key.append((cls, n.name, len(n.args)))
            has_const = True
        else:  # Atom, Arith
            key.append((cls, n.op, cls is Atom and n.right is None))
    return tuple(key), names, has_const


def _raiser(cls: type, message: str, span: Span):
    """A function that raises cls(message) whenever it is called."""

    def fail(env: list):
        raise cls(message, span)

    return fail


_CONST, _ATOM, _NOT, _AND, _OR, _IMPL = range(6)
_CODES = {mvpf.Neg: _NOT, mvpf.And: _AND, mvpf.Or: _OR, mvpf.Impl: _IMPL}


def _run(ops: list[tuple], env: list) -> mvpf.MvFormula:
    """The MvFormula an op list computes under a binding."""
    vals: list = []
    for code, arg in ops:
        if code == _ATOM:
            vals.append(arg(env))
        elif code == _CONST:
            vals.append(arg)
        elif code == _NOT:
            vals[-1] = mvpf.neg(vals[-1])
        elif code == _IMPL:
            right = vals.pop()
            vals[-1] = mvpf.impl(vals[-1], right)
        else:  # an n-ary connective over the last `arg` values
            parts = vals[len(vals) - arg:]
            del vals[len(vals) - arg:]
            vals.append(mvpf.conj(*parts) if code == _AND else mvpf.disj(*parts))
    return vals[0]


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
# Where clauses, compiled into functions of a binding

_COMPARE = {
    "=": operator.eq, "\\=": operator.ne, "<": operator.lt,
    ">": operator.gt, "=<": operator.le, ">=": operator.ge,
}


def _where_conjuncts(w: WhereExpr | None) -> list[WhereExpr]:
    if w is None:
        return []
    return list(w.parts) if w.__class__ is WhereAnd else [w]


_W_SLOT, _W_LITERAL, _W_ARITH, _W_FAIL = range(4)


def _where_term(t: Term, slots: dict[str, int]) -> list[tuple]:
    """Where term t as a post-order op list for `_where_value`."""

    def leaf(s: Sym) -> list[tuple]:
        i = slots.get(s.name) if isinstance(s.name, str) else None
        return [(_W_LITERAL, s.name) if i is None else (_W_SLOT, i)]

    def node(n, parts: list) -> list[tuple]:
        if n.__class__ is ConstRef:
            return [(_W_FAIL, f"where clauses cannot inspect constant '{n.name}'; "
                    "compare values inside the formula instead")]
        ops = parts[0]
        ops += parts[1]
        ops.append((_W_ARITH, n.op))
        return ops

    return mvpf.fold(t, leaf, node, KIDS)


def _where_value(ops: list[tuple], env: list, span: Span) -> int:
    """The integer a where term's op list computes under a binding: each
    symbol stands for its variable's value, or for itself."""
    vals: list[int] = []
    for code, arg in ops:
        if code == _W_ARITH:
            right = vals.pop()
            vals[-1] = _arith(arg, vals[-1], right, span)
            continue
        if code == _W_FAIL:
            raise WhereEvalError(arg, span)
        v = env[arg] if code == _W_SLOT else arg
        if isinstance(v, bool) or not isinstance(v, int):
            raise WhereEvalError(
                f"where clauses compute over integers, got '{value_name(v)}'", span
            )
        vals.append(v)
    return vals[0]


def _where_check(c: WhereExpr, slots: dict[str, int], span: Span):
    """A function from a binding to the truth of where conjunct c."""
    if isinstance(c, WhereCmp):
        left = _where_term(c.left, slots)
        right = _where_term(c.right, slots)
        compare = _COMPARE[c.op]
        return lambda env: compare(_where_value(left, env, span), _where_value(right, env, span))
    if isinstance(c, ExternalCall):
        return _raiser(
            WhereEvalError,
            f"external function '@{c.name}' is not available in this build",
            span,
        )
    raise TypeError(f"not a where expression: {c!r}")


# ---------------------------------------------------------------------------
# The grounder

def _all(checks: list):
    """One check running `checks` in order, None for no check."""
    if len(checks) < 2:
        return checks[0] if checks else None
    return lambda env: all(c(env) for c in checks)


class _LawPlan:
    """One law schema compiled for grounding by nested loops.

    `levels[d]` is (members, check): loop d binds the variable in slot d
    to each of its sort's members and keeps the bindings that pass check
    (None for none).  `top` runs before the first loop.
    """

    def __init__(self, core: CoreLaw, resolver: _Resolver):
        desc = resolver.desc
        span = core.span
        # slots in order of first occurrence: head, condition, after, where
        slots: dict[str, int] = {}
        self.head = resolver.head(core.head, slots, span)
        guards: list[list[tuple]] = []  # the constant-free top-level conjuncts
        gvars: set[str] = set()
        body = []
        for f in (core.cond, core.after):
            if f is None:
                body.append(None)
                continue
            parts = f.parts if f.__class__ is mvpf.And else (f,)
            ops: list[tuple] = []
            for g in parts:
                g_ops, g_vars, constant_free = resolver.compile(g, slots, span)
                if constant_free:
                    guards.append(g_ops)
                    gvars |= g_vars
                ops += g_ops
            if len(parts) != 1:
                ops.append((_AND, len(parts)))
            body.append(ops)
        self.cond, self.after = body
        conjuncts = _where_conjuncts(core.where)
        cvars: list[set[str]] = []
        for c in conjuncts:
            cvars.append(set())
            for t in (c.left, c.right) if isinstance(c, WhereCmp) else c.args:
                for sym in term_syms(t):
                    if sym.name in desc.variables:
                        slots.setdefault(sym.name, len(slots))
                        cvars[-1].add(sym.name)

        # slot d is bound by loop d, so the level of a test is one past
        # the highest slot it reads
        checks: list[list] = [[] for _ in range(len(slots) + 1)]
        level = 0
        for k, c in enumerate(conjuncts):
            # never before a conjunct to its left
            level = max([level] + [slots[u] + 1 for u in cvars[k]])
            checks[level].append(_where_check(c, slots, span))
        if guards:
            level = max([level] + [slots[u] + 1 for u in gvars])
            # every guard is resolved, so an ill-typed one raises as before
            checks[level].append(
                lambda env: mvpf.BOT not in [_run(ops, env) for ops in guards]
            )

        self.top = _all(checks[0])
        self.levels = []
        for v, i in slots.items():
            members = resolver.sort_members(desc.variables[v])
            if not members:
                raise EmptySort(
                    f"variable '{v}' ranges over empty sort '{desc.variables[v]}'",
                    span,
                )
            self.levels.append((members, _all(checks[i + 1])))
        self.core = core

    def instances(self) -> list[GroundLaw]:
        """The law's non-vacuous instances, in product order."""
        shape, span = self.core.shape, self.core.span
        head, cond_ops, after_ops = self.head, self.cond, self.after
        env: list = [None] * len(self.levels)
        out: list[GroundLaw] = []
        for _ in _bindings(self.top, self.levels, env):
            h = head(env)
            cond = _run(cond_ops, env)
            after = None if after_ops is None else _run(after_ops, env)
            if cond is mvpf.BOT or after is mvpf.BOT:
                continue  # `caused H if false` or `... after false`
            out.append(GroundLaw._make((shape, h, cond, after, tuple(env), span)))
        return out


def _bindings(top, levels: list[tuple], env: list) -> Iterator[None]:
    """Yields once per binding that passes every check, with env filled
    in; the nested loops keep their iterators on an explicit stack."""
    if top is not None and not top(env):
        return
    if not levels:
        yield
        return
    last = len(levels) - 1
    its = [iter(levels[0][0])]
    while its:
        d = len(its) - 1
        check = levels[d][1]
        for value in its[d]:
            env[d] = value
            if check is None or check(env):
                if d == last:
                    yield
                else:
                    its.append(iter(levels[d + 1][0]))
                    break
        else:
            its.pop()


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
    """Ground every law of the description over its variables' sorts, as
    the module docstring sets out, and then the queries, as laws without
    variables."""
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
        buckets[core.shape].extend(_LawPlan(core, resolver).instances())

    # inertialFluent / exogenousAction declarations carry their law with
    # them: every instance is inertial (resp. exogenous) at every value,
    # the inertial law's `after` part being its head.
    for decl in desc.constants.values():
        if decl.kind is ConstKind.INERTIAL_FLUENT:
            shape = LawShape.FLUENT_DYNAMIC
        elif decl.kind is ConstKind.EXOGENOUS_ACTION:
            shape = LawShape.ACTION_DYNAMIC
        else:
            continue
        bucket = buckets[shape]
        for gc in symbols.order:
            if gc.base != decl.name:
                continue
            for vid in gc.dom:
                a = mvpf.MvAtom(gc.cid, vid)
                after = a if shape is LawShape.FLUENT_DYNAMIC else None
                bucket.append(GroundLaw(shape, (gc.cid, vid), a, after, gc.args, decl.span))

    queries = {
        label: ground_query(q, desc, resolver)
        for label, q in desc.queries.items()
    }
    return GroundLawSet(symbols, static, action_dynamic, fluent_dynamic, queries)


def ground_query(q: QuerySpec, desc: ActionDescription, resolver: _Resolver) -> QuerySpec:
    """The query with its formulas resolved into MvFormulas."""
    lines = []
    for tref, f in q.lines:
        slots: dict[str, int] = {}
        ops = resolver.compile(f, slots, q.span)[0]
        if slots:
            raise GroundError(
                f"query '{q.label}' uses variable '{next(iter(slots))}'; queries "
                "must be variable-free",
                q.span,
            )
        lines.append((tref, _run(ops, [])))
    return QuerySpec(q.label, q.min_step, q.max_step, tuple(lines), q.span)
