"""Horizon translation: ground causal laws to timed rule programs.

Two parallel routes produce the same models by design, and tests compare
them rather than trusting either implementation alone:

* a propositional program over one atom per timed constant/value pair,
  fed to the search in :mod:`cplusplan.solve` (fast), built here;
* a timed multi-valued theory, fed to the exhaustive semantics
  (slow, trustworthy).  ``reference.horizon_theory`` builds it from this
  module's `law_body` and `timed_consts_of`, with the model converters
  that compare the two, off the import path of a query.

The propositional program has one construction, the incremental one:
base rules for step 0, a per-step template of cumulative rules, and the
volatile query constraints, each a list of ``PropRule``s over ``PAtom``s
or, in the template, over ``TAtom``s relative to the step.  The
whole-horizon program for a fixed m is the base, the template placed at
steps 1..m, and the query at m.  The search compiles the template
itself, once per query, and places it at each step without building
rules (``solve.StepCode``); the placed rules are built as ``PropRule``
lists only where something reads them: the static dump (``program``),
the stability check of a program that is not known to be tight, and the
tests.  A rule list handed to the search, such as a static dump read
back, is compiled by the same compiler, as a base alone.

Fluent constants live at steps 0..m, action constants at 0..m-1.  Laws
become rules with the condition part double-negated, which keeps every
rule head free of circular justification except through the previous
step.  The bodies are built with the folding constructors of
:mod:`cplusplan.mvpf`, so a true condition leaves no ``not not true``
part; the grounder has already dropped the laws whose condition or
`after` part is false.  Initial states are opened up by choice rules
over simple fluents.

That each timed constant takes exactly one value is left to the
``TimedConst`` groups, which the search encodes.  The reduction needs at
least two values per domain to be a bijection on stable models, so
smaller domains are rejected here.
"""

from __future__ import annotations

from . import mvpf
from .ground import GroundLawSet
from .mvpf import Record
from .syntax import KIDS, LangError, NO_SPAN, QuerySpec, walk


class TranslateError(LangError):
    pass


class SingletonDomain(TranslateError):
    pass


class QueryStepOutOfRange(TranslateError):
    pass


class UnboundedRange(TranslateError):
    """A solve was requested over a range with no upper bound."""


# ---------------------------------------------------------------------------
# Propositional atoms and rules

class PAtom(Record):
    """The propositional atom for `constant = value` at a time step."""

    step: int
    const: int
    value: int


class TAtom(Record):
    """Template atom, relative to the step being instantiated.

    rel is 0 for the current step and -1 for the previous one.
    """

    rel: int
    const: int
    value: int


class PropRule(Record):
    """head <- body.  head None is a constraint (`false <- body`)."""

    head: PAtom | TAtom | None  # TAtom in a template rule
    body: object  # formula over the head's atom class, mvpf connective nodes
    tag: str


def rule_formula(rule: PropRule):
    head = mvpf.BOT if rule.head is None else rule.head
    return mvpf.Impl(rule.body, head)


def map_leaves(f, fn):
    """Rebuild a connective tree, applying fn to every leaf but false."""
    bot = mvpf.Bot
    return mvpf.fold(f, lambda a: a if a.__class__ is bot else fn(a), mvpf.rebuild)


def formula_leaves(f):
    """The atoms of f, left to right: every leaf but false."""
    return (g for g in walk(f) if g.__class__ not in KIDS and g.__class__ is not mvpf.Bot)


def at_step(f, step: int):
    return map_leaves(f, lambda a: PAtom(step, a.const, a.value))


def _atoms_at(rel: int):
    """A leaf map from c=v to the template atom at rel, which makes each
    atom once: the template's laws share most of their atoms."""
    made: dict[tuple[int, int], TAtom] = {}

    def atom(a) -> TAtom:
        got = made.get((a.const, a.value))
        if got is None:
            got = made[a.const, a.value] = TAtom._make((rel, a.const, a.value))
        return got

    return atom


# ---------------------------------------------------------------------------
# Timed constants

class TimedConst(Record):
    step: int
    const: int
    values: tuple[PAtom, ...]


def timed_consts_of(gls: GroundLawSet, m: int, after: int = -1) -> list[TimedConst]:
    """The timed constants of horizon m, in step-major order, less those
    that horizon `after` already has (none when after is -1)."""
    out = []
    for step in range(max(after, 0), m + 1):
        for gc in gls.symbols.order:
            action = gc.kind == "action"
            if (action and step == m) or (not action and step == after):
                continue
            values = tuple(PAtom._make((step, gc.cid, v)) for v in gc.dom)
            out.append(TimedConst._make((step, gc.cid, values)))
    return out


# ---------------------------------------------------------------------------
# Propositional program, static (whole-horizon) form

class PropProgram(Record):
    horizon: int
    rules: list[PropRule]
    gls: GroundLawSet

    @property
    def timed_consts(self) -> list[TimedConst]:
        return timed_consts_of(self.gls, self.horizon)


def _check_domains(gls: GroundLawSet) -> None:
    for gc in gls.symbols.order:
        if len(gc.dom) < 2:
            raise SingletonDomain(
                f"'{gc.name}' has a single-value domain; the propositional "
                "reduction needs at least two values per constant",
                NO_SPAN,
            )


def _choice_rules(gls: GroundLawSet) -> list[PropRule]:
    out = []
    simple = set(gls.simple_fluent_ids())
    for gc in gls.symbols.order:
        if gc.cid not in simple:
            continue
        for v in gc.dom:
            a = PAtom(0, gc.cid, v)
            out.append(PropRule(a, mvpf.Neg(mvpf.Neg(a)), "choice"))
    return out


def query_steps(query: QuerySpec, gls: GroundLawSet, m: int) -> list[int]:
    """The step each query line lands on at horizon m; raises when one is
    out of range."""
    actions = set(gls.action_ids())
    out = []
    for tref, f in query.lines:
        step = tref.resolve(m)
        is_action = any(leaf.const in actions for leaf in formula_leaves(f))
        limit = m - 1 if is_action else m
        if step < 0 or step > limit:
            what = "an action" if is_action else "a fluent"
            detail = (
                f"step {step} is out of range 0..{limit} for {what} "
                f"condition at horizon {m}"
            )
            if is_action and step == m:
                detail += " (actions do not exist at the final step)"
            raise QueryStepOutOfRange(f"query '{query.label}': {detail}", NO_SPAN)
        out.append(step)
    return out


def to_prop(gls: GroundLawSet, m: int, query: QuerySpec | None = None) -> PropProgram:
    """Whole-horizon propositional program for steps 0..m.

    Cut from the incremental template: the base rules, the step rules for
    1..m and the query constraints at m (see IncrementalProgram.program).
    A caller that translates one query at several horizons should build
    incremental_program once and call its program method per horizon.
    """
    if query is None:
        query = QuerySpec("", 0, None, ())
    return incremental_program(gls, query).program(m)


# ---------------------------------------------------------------------------
# Incremental program

def _instantiate(template: list[PropRule], t: int) -> list[PropRule]:
    """The template rules placed at step t."""

    def place(a: TAtom) -> PAtom:
        step = t + a.rel
        # Cumulative rules for step t may only mention steps 0..t; anything
        # later would let a later increment retroactively change this one.
        assert 0 <= step <= t, f"rule at step {t} mentions step {step}: {a}"
        return PAtom._make((step, a.const, a.value))

    out = []
    for r in template:
        head = None if r.head is None else place(r.head)
        out.append(PropRule._make((head, map_leaves(r.body, place), r.tag)))
    return out


class IncrementalProgram(Record):
    """Base rules, a per-step template, and a volatile query template.

    base covers step 0.  step_rules(t) yields the rules that extend the
    horizon from t-1 to t; they accumulate.  query_rules_at(t) yields the
    constraints that commit the accumulated program to horizon t; they
    hold only for that horizon and must be retracted before moving on.
    The search places the template and the query lines directly
    (``solve.StepCode``); it builds ``program(t)``, and through it these
    two, only to check the candidates of a program not known to be tight.
    """

    gls: GroundLawSet
    query: QuerySpec  # over MvAtoms
    base: list[PropRule]
    template: list[PropRule]  # over TAtoms

    @property
    def min_step(self) -> int:
        return self.query.min_step

    @property
    def max_step(self) -> int | None:  # None is unbounded
        return self.query.max_step

    def step_rules(self, t: int) -> list[PropRule]:
        if t < 1:
            raise TranslateError(f"step rules start at 1, got {t}", NO_SPAN)
        return _instantiate(self.template, t)

    def query_rules_at(self, t: int) -> list[PropRule]:
        return [
            PropRule(None, mvpf.Neg(at_step(f, step)), "query")
            for (_, f), step in zip(self.query.lines, query_steps(self.query, self.gls, t))
        ]

    def timed_consts(self, m: int, after: int = -1) -> list[TimedConst]:
        return timed_consts_of(self.gls, m, after)

    def program(self, m: int) -> PropProgram:
        """The whole-horizon program: base, step rules 1..m, query at m."""
        if m < 0:
            raise TranslateError(f"horizon must be at least 0, got {m}", NO_SPAN)
        rules = list(self.base)
        for t in range(1, m + 1):
            rules.extend(self.step_rules(t))
        rules.extend(self.query_rules_at(m))
        return PropProgram(m, rules, self.gls)


def law_body(cond, after=None):
    """The body of a law's rule: not not cond, and after when given.  The
    folding constructors drop a true condition."""
    body = mvpf.neg(mvpf.neg(cond))
    return body if after is None else mvpf.conj(body, after)


def incremental_program(gls: GroundLawSet, query: QuerySpec) -> IncrementalProgram:
    _check_domains(gls)
    now, before = _atoms_at(0), _atoms_at(-1)
    static = [
        PropRule._make((
            None if law.head is None else TAtom(0, *law.head),
            law_body(map_leaves(law.cond, now)),
            "static",
        ))
        for law in gls.static
    ]
    template = list(static)
    for law in gls.action_dynamic:
        head = None if law.head is None else TAtom(-1, *law.head)
        body = law_body(map_leaves(law.cond, before))
        template.append(PropRule._make((head, body, "action")))
    # the law `caused F if G after H` fires at t from t-1
    for law in gls.fluent_dynamic:
        head = None if law.head is None else TAtom(0, *law.head)
        body = law_body(map_leaves(law.cond, now), map_leaves(law.after, before))
        template.append(PropRule._make((head, body, "transition")))

    # step 0 has no actions and no predecessor: the initial-state choice
    # and the static laws
    base = _choice_rules(gls) + _instantiate(static, 0)
    return IncrementalProgram(gls, query, base, template)

