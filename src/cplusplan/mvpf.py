"""Multi-valued propositional formulas under the stable model semantics.

A signature assigns every constant a finite, nonempty domain of values.
An interpretation maps every constant of the signature to one value from
its domain.  Formulas are built from equality atoms ``c=v`` with the usual
connectives; ``true`` is kept as the negation of ``false`` so the connective
set stays minimal.

Conjunction and disjunction are n-ary: an `And` or `Or` holds two or more
parts, none of its own class, so a walker goes one level deep per chain.
`join`, `conj` and `disj` splice chains as they build them.

Stability is defined through the reduct: relative to an interpretation I,
every maximal subformula that I does not satisfy is replaced by ``false``.
I is a stable model of a theory when I is the *only* interpretation that
satisfies the reduct of the theory relative to I.

Everything in this module is deliberately exhaustive.  It is the ground
truth the rest of the package is checked against, so clarity wins over
speed and the search never samples: `enumerate_stable` walks the full
space of interpretations (guarded by a size cap).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

ORACLE_CAP = 2 ** 24


class SignatureTooLarge(Exception):
    """The interpretation space exceeds the exhaustive-check cap."""


@dataclass(frozen=True, slots=True)
class MvAtom:
    const: int
    value: int


@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class Neg:
    sub: "MvFormula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["MvFormula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["MvFormula", ...]


@dataclass(frozen=True, slots=True)
class Impl:
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
    return Neg(f)


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
        return And(tuple(out))
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
        return Or(tuple(out))
    return out[0] if out else BOT


def impl(left: MvFormula, right: MvFormula) -> MvFormula:
    if isinstance(left, Bot):
        return TOP
    if is_top(right):
        return TOP
    if is_top(left):
        return right
    return Impl(left, right)


def join(cls: type, parts: Iterable) -> object:
    """The n-ary connective `cls` (And, Or, AndF or OrF) over parts, those
    of class `cls` spliced in; true and false parts stay."""
    out: list = []
    for p in parts:
        if p.__class__ is cls:
            out.extend(p.parts)
        else:
            out.append(p)
    return cls(tuple(out)) if len(out) > 1 else out[0]


@dataclass(frozen=True)
class Signature:
    """Ordered constants with their value domains.

    Constant ids and value ids are plain ints drawn from one shared
    counter by the symbol table, so the two id spaces never collide.
    """

    constants: tuple[int, ...]
    dom: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        for c in self.constants:
            values = self.dom[c]
            if len(values) == 0:
                raise ValueError(f"constant {c} has an empty domain")
            if c in values:
                raise ValueError(f"constant {c} used as one of its own values")

    def space(self) -> int:
        n = 1
        for c in self.constants:
            n *= len(self.dom[c])
        return n


Interpretation = Mapping[int, int]


@dataclass(frozen=True)
class MvTheory:
    signature: Signature
    formulas: tuple[MvFormula, ...] = field(default_factory=tuple)


def satisfies(interp: Interpretation, f: MvFormula) -> bool:
    if isinstance(f, MvAtom):
        return interp[f.const] == f.value
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not satisfies(interp, f.sub)
    if isinstance(f, And):
        return all(satisfies(interp, g) for g in f.parts)
    if isinstance(f, Or):
        return any(satisfies(interp, g) for g in f.parts)
    if isinstance(f, Impl):
        return (not satisfies(interp, f.left)) or satisfies(interp, f.right)
    raise TypeError(f"not a formula node: {f!r}")


def satisfies_all(interp: Interpretation, fs: Iterable[MvFormula]) -> bool:
    return all(satisfies(interp, f) for f in fs)


def reduct(f: MvFormula, interp: Interpretation) -> MvFormula:
    """Replace every maximal subformula not satisfied by `interp` with false.

    The walk is top down: once a subformula is replaced, nothing below it
    is inspected.  Satisfied nodes are rebuilt verbatim (no folding), so
    the shape of the reduct mirrors the original formula.
    """
    if not satisfies(interp, f):
        return BOT
    if isinstance(f, (MvAtom, Bot)):
        return f
    if isinstance(f, Neg):
        return Neg(reduct(f.sub, interp))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(reduct(g, interp) for g in f.parts))
    if isinstance(f, Impl):
        return Impl(reduct(f.left, interp), reduct(f.right, interp))
    raise TypeError(f"not a formula node: {f!r}")


def interpretations(sig: Signature, cap: int = ORACLE_CAP) -> Iterator[dict[int, int]]:
    space = sig.space()
    if space > cap:
        raise SignatureTooLarge(
            f"{space} interpretations exceed the cap of {cap}"
        )
    doms = [sig.dom[c] for c in sig.constants]
    for values in itertools.product(*doms):
        yield dict(zip(sig.constants, values))


def is_stable(interp: Interpretation, theory: MvTheory, cap: int = ORACLE_CAP) -> bool:
    """Exhaustive unique-model test.

    `interp` is stable when it satisfies the theory and no interpretation
    other than `interp` satisfies the reduct relative to `interp`.  The
    check scans the whole interpretation space on purpose.
    """
    if not satisfies_all(interp, theory.formulas):
        return False
    red = [reduct(f, interp) for f in theory.formulas]
    me = dict(interp)
    for other in interpretations(theory.signature, cap):
        if other == me:
            continue
        if satisfies_all(other, red):
            return False
    return True


def enumerate_stable(theory: MvTheory, cap: int = ORACLE_CAP) -> list[dict[int, int]]:
    """All stable models of the theory, in domain-product order."""
    models = []
    candidates = list(interpretations(theory.signature, cap))
    for cand in candidates:
        if not satisfies_all(cand, theory.formulas):
            continue
        red = [reduct(f, cand) for f in theory.formulas]
        unique = True
        for other in candidates:
            if other == cand:
                continue
            if satisfies_all(other, red):
                unique = False
                break
        if unique:
            models.append(cand)
    return models
