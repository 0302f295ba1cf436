"""Multi-valued propositional formulas under the stable model semantics.

A signature assigns every constant a finite, nonempty domain of values.
An interpretation maps every constant of the signature to one value from
its domain.  Formulas are built from equality atoms ``c=v`` with the usual
connectives; ``true`` is kept as the negation of ``false`` so the connective
set stays minimal.  Every formula layer of the package uses these
connectives and differs only in the atoms at its leaves.

Conjunction and disjunction are n-ary: an `And` or `Or` holds two or more
parts, none of its own class, so a walker goes one level deep per chain.
`join`, `conj` and `disj` splice chains as they build them.

Formulas of any depth are walked on explicit stacks.  `fold` is the one
post-order fold that the parser, the translator, the dumps and the search
use; the syntax layer passes its own table of children, this module's
`KIDS` and those of its terms and where clauses.  The reference
semantics, ``satisfies`` and ``reduct`` in :mod:`cplusplan.reference`,
keeps loops of its own, so it shares no evaluator with the code it
checks.

Every immutable record of the package, these connectives among them, is
a `Record`: a tuple of its fields, built by a class statement that runs
no generated code.  A record equals only a record of its own class, so
``MvAtom(1, 2) != (1, 2)``, and hashes as the tuple of its fields.
A record is built by the checked ``Cls(...)``, which binds keywords and
defaults, except at the sites that build most of them and whose own
code fixes the field count: this module's folding constructors, the
tokenizer, the grounder's law instances and atoms, the translator's
atoms and rules, the CNF builder's atoms and the plan view.  They call
``Cls._make(fields)``, which is ``tuple.__new__``, checks nothing and
takes less than half the checked call's time.  A tuple hashes its items in C with no depth guard, so no layer hashes a
formula node above its atoms: the grounder and ``solve.StepCode`` key
their tables on flat shapes.

The stable model semantics of these formulas, which everything else is
checked against, lives in :mod:`cplusplan.reference`, off the import
path of a query.
"""

from __future__ import annotations

from collections import _tuplegetter
from operator import attrgetter
from typing import Iterable, Mapping


# ---------------------------------------------------------------------------
# Records

class _RecordType(type):
    """Builds a `Record` class from its annotations: one field per
    annotated name, in order, read by namedtuple's C getter, with the
    value assigned in the class body, if any, as its default.  It sets
    ``__slots__`` before the class exists, so no record has a
    ``__dict__``."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns[f] for f in fields if f in ns}
        for i, f in enumerate(fields):
            ns[f] = _tuplegetter(i, None)
        ns["_fields"] = fields
        ns["__slots__"] = ()
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    """An immutable record: a tuple of its fields, made with no generated
    code.  It equals only a record of its own class with equal fields,
    and hashes as the tuple of its fields, as a frozen dataclass does;
    its repr is a dataclass's.

    ``Cls(...)`` binds keywords and defaults and checks the call, in a
    Python frame.  ``Cls._make(fields)`` is ``tuple.__new__`` and runs no
    Python code: it checks nothing, so only a call site whose code fixes
    the field count uses it.  On CPython 3.11 on a 2-vCPU VM,
    ``PAtom._make((1, 2, 3))`` takes about 190 ns against 420 ns for
    ``PAtom(1, 2, 3)``."""

    def __new__(cls, *args, **kw):
        if kw or len(args) != len(cls._fields):
            args = _bind(cls, args, kw)
        return tuple.__new__(cls, args)

    _make = classmethod(tuple.__new__)

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return self.__class__ is not other.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{self.__class__.__qualname__}({shown})"

    def __getnewargs__(self) -> tuple:
        # what copy and pickle pass to __new__; the tuple's own would be
        # the one argument (fields,), a silent wrong copy of a record
        # with one field
        return tuple(self)


def _bind(cls, args: tuple, kw: dict) -> list:
    """A call's arguments in field order, defaults filled in; a wrong
    call raises TypeError, as it would on a function."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
    out = list(args)
    for f in fields[len(args):]:
        if f in kw:
            out.append(kw.pop(f))
        elif f in cls._defaults:
            out.append(cls._defaults[f])
        else:
            raise TypeError(f"{cls.__name__}() missing argument '{f}'")
    for f in kw:
        what = "multiple values for" if f in fields else "an unexpected"
        raise TypeError(f"{cls.__name__}() got {what} argument '{f}'")
    return out


class MvAtom(Record):
    const: int
    value: int


class Bot(Record):
    def __bool__(self) -> bool:  # the one record with no fields
        return True


class Neg(Record):
    sub: "MvFormula"


class And(Record):
    parts: tuple["MvFormula", ...]


class Or(Record):
    parts: tuple["MvFormula", ...]


class Impl(Record):
    # Impl(a, b) is the implication a -> b.  A rule "head if body" is
    # therefore written Impl(body, head).
    left: "MvFormula"
    right: "MvFormula"


MvFormula = MvAtom | Bot | Neg | And | Or | Impl

BOT = Bot()
TOP = Neg(BOT)


def is_top(f: MvFormula) -> bool:
    return isinstance(f, Neg) and isinstance(f.sub, Bot)


# Smart constructors.  They fold the constants true/false away so that
# generated theories stay small; folding only ever touches true/false
# subformulas, which keeps the stable models unchanged.  Double negations
# over real subformulas are load-bearing and are never simplified.

def neg(f: MvFormula) -> MvFormula:
    if isinstance(f, Bot):
        return TOP
    if is_top(f):
        return BOT
    return Neg._make((f,))


def conj(*parts: MvFormula) -> MvFormula:
    out: list[MvFormula] = []
    for p in parts:
        cls = p.__class__
        if cls is And:
            out.extend(p.parts)
        elif cls is Bot:
            return BOT
        elif cls is not Neg or p.sub.__class__ is not Bot:
            out.append(p)
    if len(out) > 1:
        return And._make((tuple(out),))
    return out[0] if out else TOP


def disj(*parts: MvFormula) -> MvFormula:
    out: list[MvFormula] = []
    for p in parts:
        cls = p.__class__
        if cls is Or:
            out.extend(p.parts)
        elif cls is Neg and p.sub.__class__ is Bot:
            return TOP
        elif cls is not Bot:
            out.append(p)
    if len(out) > 1:
        return Or._make((tuple(out),))
    return out[0] if out else BOT


def impl(left: MvFormula, right: MvFormula) -> MvFormula:
    if isinstance(left, Bot):
        return TOP
    if is_top(right):
        return TOP
    if is_top(left):
        return right
    return Impl(left, right)


def rebuild(node, parts) -> MvFormula:
    """A connective of node's class over new parts."""
    cls = node.__class__
    return cls._make((tuple(parts),) if cls is And or cls is Or else parts)


# The children of each connective class; every other node is a leaf.
KIDS = {
    Neg: lambda n: (n.sub,),
    And: attrgetter("parts"),
    Or: attrgetter("parts"),
    Impl: attrgetter("left", "right"),
}


def fold(root, leaf, node, kids=KIDS):
    """Post-order fold on an explicit stack: `leaf(x)` for each node whose
    class `kids` does not list, `node(n, values)` for every other node,
    with the values of its children, left to right.  `kids` maps a class
    to a function that gives a node's children: `KIDS` for a formula of
    any layer, `syntax.KIDS` to go on into terms and where clauses."""
    kids_of = kids.get
    get = kids_of(root.__class__)
    if get is None:
        return leaf(root)
    vals: list = []
    stack: list = []
    parts = get(root)
    n = root
    while True:
        # n's parts are `parts`: a node over leaves, the commonest shape,
        # is folded at once; any other gets a frame on the stack
        for k in parts:
            if kids_of(k.__class__) is not None:
                stack.append((n, iter(parts), len(vals)))
                break
        else:
            vals.append(node(n, list(map(leaf, parts))))
        while stack:
            n, it, base = stack[-1]
            for k in it:
                get = kids_of(k.__class__)
                if get is not None:
                    n, parts = k, get(k)
                    break
                vals.append(leaf(k))
            else:
                stack.pop()
                vals[base:] = [node(n, vals[base:])]
                continue
            break
        else:
            return vals[0]


def join(cls: type, parts: Iterable) -> object:
    """The n-ary connective `cls` (And or Or) over parts, those of class
    `cls` spliced in; true and false parts stay."""
    out: list = []
    for p in parts:
        if p.__class__ is cls:
            out.extend(p.parts)
        else:
            out.append(p)
    return cls._make((tuple(out),)) if len(out) > 1 else out[0]


class Signature(Record):
    """Ordered constants with their value domains.

    Constant ids and value ids are plain ints drawn from one shared
    counter by the symbol table, so the two id spaces never collide.
    """

    constants: tuple[int, ...]
    dom: Mapping[int, tuple[int, ...]]

    _make = None  # every signature is checked

    def __new__(cls, *args, **kw):
        self = Record.__new__(cls, *args, **kw)
        for c in self.constants:
            values = self.dom[c]
            if len(values) == 0:
                raise ValueError(f"constant {c} has an empty domain")
            if c in values:
                raise ValueError(f"constant {c} used as one of its own values")
        return self

    def space(self) -> int:
        n = 1
        for c in self.constants:
            n *= len(self.dom[c])
        return n
