"""Model search for timed rule programs.

The search is conflict-driven clause learning (CDCL) over a Tseitin
encoding of the rules, together with support clauses: every stable model
of a program whose rules all have atomic (or false) heads is supported,
so each atom may be constrained to imply the disjunction of its rule
bodies.  Rules and support clauses together are the program's
completion.  The encoder adds what the rules leave out, that each
``TimedConst`` group takes exactly one value (clingo's ``1{...}1`` in the
paper's tool chain); the stability check needs none of it, as a
constraint the candidate satisfies reduces to true.

Each total assignment the search reaches is a candidate.  Once it has
been looked at, the search moves past it by backtracking, as clasp
enumerates answer sets without recording them (Gebser, Kaufmann, Neumann
and Schaub, "Conflict-driven answer set enumeration", 2007): the deepest
decision is flipped, its negation asserted one level down, and the
search does not backjump below that level until every assignment under
it has been met.  No clause is added per candidate, so the space stays
polynomial in the program.  The assignment is the unit-propagation
closure of its decisions and flipped literals over the clauses present,
so the flip passes that assignment and no other.  Every other variable
is a function of the atoms: a Tseitin gate is an equivalence, a
sequential counter's variables are fixed once its group has one value,
and var 1, retired guards and the gates a retired guard defined are
fixed at level 0.  So no two candidates share their atoms, and no
model is lost or met twice.  Models come in the order the search meets
them.

When the program is tight, every model of the completion is stable
(Fages' theorem, extended to nested bodies by Erdem and Lifschitz), so
candidates are models as they stand.  Every program the translator
builds is tight: positive dependencies only run from a step to the one
before it.  For any other program (read from a dump, written by hand, or
with a positive loop) each candidate must pass a stability check: it
must be the unique minimal model of the program's reduct, which the same
search decides by asking for a proper sub-model.

One driver, ``solve_horizons``, walks a query's step range with one live
solver, as iclingo does for the paper's incremental mode.  It yields
each horizon's models as the search meets them and keeps none.  Each step is
encoded once, and its clauses stay in the one search for every later
horizon, with the clauses learned from them.  An atom's support clause
joins them once no later step can add a rule for it: for the
translator's programs, step t completes the fluents at t and the
actions at t-1.  A query line at a fixed step, such as the initial
state, lands on that step at every horizon, so it joins them too, at
the range's first horizon: iclingo likewise keeps it in the cumulative
part (Gebser et al., ICLP 2008).  What it implies then sits at level 0,
and the lemmas learned from it stay.  What holds for horizon k alone
(its lines at maxstep plus or minus an offset and the support clauses
still open) is guarded by a fresh literal a_k that the search assumes
(MiniSat-style solving under assumptions), and the next horizon
asserts -a_k, which retires those clauses and the learned ones that
depended on them.  The range's last
horizon has nothing to retract, so it is asserted unguarded; a single
fixed horizon is therefore searched just as one whole-horizon program
is, and the horizon-k models are those of
``IncrementalProgram.program(k)``, so the paper's static and
incremental modes share the one driver.  Each horizon is one call of
``enumerate_models``, the one loop that searches, and every call, a
fixed rule list's included, appends one ``HorizonRecord`` to the
caller's ``Stats`` once its search ends.

``solve_horizons`` builds no rules.  The query's base, step template
and query lines are compiled once (``StepCode``) to op lists over
hash-consed formula nodes, and step t is encoded by running the
template's op list at t: no formula is built, and a gate is shared with
every earlier step, the base or the query that has the same subformula.
A constraint whose body has 2 to 8 DNF terms is encoded as one
constraint per term, without the gates of its body, as f2lp and gringo
write integrity constraints without auxiliary atoms; a body of one term,
or of more than 8, keeps its gates, and a gate that an unguarded
constraint fixes keeps only the clauses its unit can fire (``StepCode``,
``CnfBuilder``).  ``PropRule`` lists are built only for a program
whose candidates need the stability check.  A program that comes as a
rule list (a fixed-horizon dump, a reduct of the stability check) is
compiled the same way, as a base with no template and no query lines
placed at step 0: the encoder has no other path.

``peval`` and ``preduct`` evaluate and reduce a formula directly; the
stability check builds its reducts with ``preduct``.  The brute-force
enumerator that tests check the search against,
``reference.brute_force_models`` (subset minimality by exhaustion), uses
the same two and lives off the import path of a query.  The reference
semantics, ``satisfies`` and ``reduct`` in :mod:`cplusplan.reference`,
is used by neither.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence

from . import mvpf
from .mvpf import Record
from .syntax import NO_SPAN, kahn_remainder
from .translate import (
    IncrementalProgram,
    PAtom,
    PropRule,
    TAtom,
    TimedConst,
    TranslateError,
    UnboundedRange,
    formula_leaves,
    query_steps,
    rule_formula,
)


class HorizonRecord(Record):
    """The live solver after one horizon's search, and what it cost;
    ``enumerate_models`` appends one per search.  A fixed rule list's k
    is its horizon."""

    k: int
    vars: int
    clauses: int  # encoded for good so far
    learned: int  # learned clauses kept
    decisions: int
    conflicts: int
    propagations: int
    candidates: int
    rules: int  # placed at this horizon: new steps, and the query
    cnf_s: float  # compiling and encoding the horizon, handing it to the search
    search_s: float  # the rest of its search, without the caller's time between models


class Stats:
    def __init__(self) -> None:
        self.propagations = 0
        self.decisions = 0
        self.conflicts = 0
        self.models_checked = 0
        self.horizons: list[HorizonRecord] = []


class SolveConfig(Record):
    max_solutions: int = 1  # 0 enumerates every model


class SolveResult(Record):
    found_step: int | None
    models: list[frozenset[PAtom]]
    stats: Stats


# ---------------------------------------------------------------------------
# Direct formula evaluation (shared by the stability check and the
# brute-force route)

def _truth(node, truths: list[bool]) -> bool:
    cls = node.__class__
    if cls is mvpf.Neg:
        return not truths[0]
    if cls is mvpf.And:
        return all(truths)
    if cls is mvpf.Or:
        return any(truths)
    return not truths[0] or truths[1]


def peval(f, model: frozenset) -> bool:
    """Is f true in the model?  An And stops at its first false part, an
    Or at its first true one, and an implication with a false left part
    is true without its right one; the walk keeps an explicit stack."""
    stack: list = []  # (connective, its parts still to look at)
    while True:
        cls = f.__class__
        if cls is mvpf.And or cls is mvpf.Or:
            rest = iter(f.parts)
            stack.append((cls, rest))
            f = next(rest)
            continue
        if cls is mvpf.Neg:
            stack.append((cls, None))
            f = f.sub
            continue
        if cls is mvpf.Impl:
            stack.append((cls, f.right))
            f = f.left
            continue
        v = f in model  # an atom, true when in the model, or false
        while stack:
            cls, rest = stack.pop()
            if cls is mvpf.Neg:
                v = not v
            elif cls is mvpf.Impl:
                if v:  # a -> b is b when a holds
                    f = rest
                    break
                v = True
            elif v is not (cls is mvpf.Or):  # not decided by this part
                f = next(rest, None)
                if f is not None:
                    stack.append((cls, rest))
                    break
        else:
            return v


def preduct(f, model: frozenset):
    """Replace every subformula the model falsifies with false, top-down."""

    def reduced(node, parts):
        # a part is false exactly when its reduct is BOT
        if not _truth(node, [p is not mvpf.BOT for p in parts]):
            return mvpf.BOT
        return mvpf.rebuild(node, parts)

    return mvpf.fold(f, lambda a: a if a in model else mvpf.BOT, reduced)


# ---------------------------------------------------------------------------
# CNF construction

# Pairwise at-most-one up to this width, a sequential counter above it.
# ferryman-stress 0..9 (widths 2, 5, 11) met 808 conflicts with the cut at
# 5 or 6, 1,053 at 2-4, 918 with counters and 901 with pairs throughout.
_PAIRWISE_MAX = 6


class CnfBuilder:
    """Tseitin encoding.  Var 1 is reserved true; atom vars are interned
    ahead of auxiliaries so atom numbering is stable for a given program.

    Formulas reach the clauses compiled: ``place`` runs an op list of a
    ``StepCode`` at a step.  ``gate`` caches each gate's variable under
    its compiled node and step, so equal subformulas share one gate.

    New clauses collect in ``clauses`` until their owner takes them.  While
    ``guard`` is set, they go to ``guarded`` instead, each with the guard's
    negation added, and the gates first defined then are forgotten by
    ``forget_guarded``, since their definitions leave with the guard.

    A gate that a constraint's unit fixes for good keeps only the
    clauses that unit can fire: for ``false <- g`` with g the conjunction
    of x, the long clause [g, -x...], not the binaries [-g, x_i] that -g
    satisfies at level 0 (Plaisted and Greenbaum 1986 keep only the
    direction a subformula's polarity needs).  The gate stays an
    equivalence in every model, as g is false in all of them, so a later
    rule may share it.  Under a guard the unit can leave, so both
    directions stay.  The search is the same, decision for decision: a
    clause true at level 0 never propagates.  Nothing else keeps such
    binaries out of ``Dpll``'s implication lists, where propagation steps
    over them at every visit: written, they take hanoi-stress k=63 from
    71,893 to 137,098 clauses and about 10 MB more max RSS, and its search
    about 30% longer; ferryman-stress 0..9 goes from 14,822 to 18,386
    clauses and a few percent longer.
    """

    def __init__(self) -> None:
        self.nvars = 1
        self.clauses: list[list[int]] = [[1]]
        self.guard = 0
        self.guarded: list[list[int]] = []
        self.var_of: dict[PAtom, int] = {}
        self._at: dict[tuple[int, int, int], int] = {}  # var_of by (step, const, value)
        self._cache: dict = {}
        self._guarded_keys: list = []

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def atom_var(self, a: PAtom) -> int:
        v = self.var_of.get(a)
        if v is None:
            v = self.new_var()
            self.var_of[a] = v
        return v

    def _emit(self, cl: list[int]) -> None:
        if self.guard:
            cl.append(-self.guard)
            self.guarded.append(cl)
        else:
            self.clauses.append(cl)

    def gate(self, key, s: int, ops: list[int], long_first: bool = False, keep: int = 0) -> int:
        """Defines a fresh variable g as the conjunction of ops (s = 1), or
        as the disjunction of their negations (s = -1), and caches it under
        key.  An implication a -> b is the disjunction of -a and b, written
        with its long clause first.  With keep = 1 or -1, g is about to be
        fixed to -keep * g for good, and only the clauses holding keep * g,
        those the fixed literal can fire, are written: the others it
        satisfies."""
        g = self.new_var()
        if long_first and keep != -s:
            self._emit([s * g] + [-l for l in ops])
        if keep != s:
            for l in ops:
                self._emit([-s * g, l])
        if not long_first and keep != -s:
            self._emit([s * g] + [-l for l in ops])
        self._cache[key] = g
        if self.guard:
            self._guarded_keys.append(key)
        return g

    def place(self, ops: list[tuple], t: int, bodies: dict[int, list[int]] | None = None) -> None:
        """Encodes compiled rules (see ``StepCode``) placed at step t; with
        bodies, each head's variable collects its rules' body literals."""
        cache = self._cache
        at = self._at
        emit = self._emit
        regs = [0] * len(ops)
        for i, op in enumerate(ops):
            code = op[0]
            if code == _RULE:
                lb = regs[op[1]]
                if op[2] is None:
                    emit([-lb])
                    continue
                v = regs[op[2]]
                emit([v, -lb])
                if bodies is not None:
                    bodies.setdefault(v, []).append(lb)
            elif code == _GATE:
                top = op[3]
                key = (op[2], None if top is None else t + top)
                g = cache.get(key)
                if g is None:
                    s = op[1]
                    # a constraint's own gate keeps both directions under a
                    # guard, whose unit leaves with it
                    keep = 0 if self.guard else op[5]
                    if s:
                        g = self.gate(key, s, [s * regs[j] for j in op[4]], keep=keep)
                    else:
                        la, lb = op[4]
                        g = self.gate(key, -1, [regs[la], -regs[lb]], long_first=True, keep=keep)
                regs[i] = g
            elif code == _NEG:
                regs[i] = -regs[op[1]]
            elif code == _ATOM:
                key = (t + op[1], op[2], op[3])
                v = at.get(key)
                if v is None:
                    v = at[key] = self.atom_var(PAtom._make(key))
                regs[i] = v
            else:
                regs[i] = op[1]

    def forget_guarded(self) -> list[int]:
        """Drops the gates defined under the guard from the cache and
        returns their variables."""
        gates = [self._cache.pop(key) for key in self._guarded_keys]
        self._guarded_keys = []
        return gates

    def add_exactly_one(self, atoms: Sequence[PAtom]) -> None:
        """Some atom and at most one: pairwise up to _PAIRWISE_MAX atoms,
        else a sequential counter (Sinz 2005)."""
        xs = [self.atom_var(a) for a in atoms]
        if len(xs) <= _PAIRWISE_MAX:
            for x, y in itertools.combinations(xs, 2):
                self._emit([-x, -y])
        else:
            s = self.new_var()
            self._emit([-xs[0], s])
            for x in xs[1:-1]:
                t = self.new_var()
                self._emit([-x, t])
                self._emit([-s, t])
                self._emit([-x, -s])
                s = t
            self._emit([-xs[-1], -s])
        self._emit(xs)

    def add_support_clauses(self, atoms: list[PAtom], bodies: dict[int, list[int]]) -> None:
        """`atom implies some rule body`, bodies giving the body literals
        of each head variable's rules; sound for atomic-head programs."""
        for a in atoms:
            v = self.atom_var(a)
            self._emit([-v, *bodies.get(v, ())])


# ---------------------------------------------------------------------------
# The compiled program

# Op codes.  An op computes the literal of one formula node into the
# register numbered by its position; a rule op adds its rule's clause.
#   (_LIT, lit)                      a constant
#   (_ATOM, rel, const, value)       the atom's variable at step t + rel
#   (_NEG, reg)                      the negated literal of a register
#   (_GATE, s, node, top, regs, keep) a gate over registers: s is 1 for
#                                    And, -1 for Or, 0 for Impl (left,
#                                    right); keep is CnfBuilder.gate's, 1 or
#                                    -1 when the constraint right after it
#                                    fixes it, else 0
#   (_RULE, body, head)              registers; head None for a constraint
_LIT, _ATOM, _NEG, _GATE, _RULE = range(5)

# A constraint whose body has 2 to _MAX_TERMS DNF terms is placed as one
# constraint per term.  Term counts saturate at _MAX_TERMS + 1.
_MAX_TERMS = 8


def _gate_terms(s: int, kids: list[int], terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The DNF term counts of an And (s = 1) or Or (s = -1) gate and of
    its negation, from those of its parts, by their ids.  A conjunction
    multiplies its parts' counts, and its negation adds those of the
    negated parts; a disjunction is the negation of the conjunction of
    the negated parts.  ``StepCode._compile`` counts two parts itself."""
    ps = [terms[k][s < 0] for k in kids]  # the conjunction's parts
    ns = [terms[k][s > 0] for k in kids]
    if 0 not in ps:
        ps = [p for p in ps if p > 1][:4]  # four of them pass the cap
    mul = min(math.prod(ps), _MAX_TERMS + 1)
    add = min(sum(ns), _MAX_TERMS + 1)
    return (mul, add) if s > 0 else (add, mul)


def _split(ops: list[tuple], mark: int, plan: list, top: int,
           leaves: dict, negs: dict, gates: dict) -> None:
    """Replaces a constraint's body, the ops from mark on, with one
    constraint per term of its plan (``StepCode._plan``), the body's top
    at top.  The dicts are ``StepCode._compile``'s."""
    for op in ops[mark:]:
        code = op[0]
        if code == _GATE:
            del gates[op[2], op[3]]
        elif code == _NEG:
            del negs[op[1]]
        else:
            del leaves[None if code == _LIT else op[1:]]
    del ops[mark:]
    for lits, gid, gtop in plan:
        kids = []
        for rel, c, v, aid, neg_id in lits:
            key = (top + rel, c, v)
            node = leaves.get(key)
            if node is None:
                node = leaves[key] = (len(ops), aid, key[0])
                ops.append((_ATOM, key[0], c, v))
            if neg_id is not None:  # the atom's negation
                reg = node[0]
                node = negs.get(reg)
                if node is None:
                    node = negs[reg] = (len(ops), neg_id, key[0])
                    ops.append((_NEG, reg))
            kids.append(node[0])
        if gid is None:
            reg = kids[0]
        else:
            reg = gates.get((gid, top + gtop))
            if reg is None:  # made right before its constraint: fixed by it
                reg = gates[gid, top + gtop] = len(ops)
                ops.append((_GATE, 1, gid, top + gtop, tuple(kids), 1))
        ops.append((_RULE, reg, None))


class StepCode:
    """A program compiled once for the encoder: the base, the step
    template and each query line as op lists over one table of
    hash-consed formula nodes.  With inc None, the program is the fixed
    rule list rules: a base with no template and no query lines.

    The steps of a node's atoms are relative to the step t it is placed
    at: rel 0 or -1 in the template, the step itself in the base (placed
    at 0), 0 in a query line (placed at the line's step).  The table holds
    each node up to a shift of all its steps, so a compiled node is a
    table id with ``top``, the highest rel among its atoms (None when it
    has none), and a gate placed at t has the key (id, t + top): equal
    keys are equal formulas over absolute steps.  A template node whose
    atoms are all at t-1 thus meets its twin at t placed a step earlier,
    and a node without atoms is the same at every step, which shares
    gates across steps, the base and the query exactly as a cache keyed by
    the formulas over absolute steps would.

    An op list is in post-order with each node once, and a rule's op
    comes after those of its body and head, so placing it defines gates
    and atom variables in the order a walk of each rule's body, left to
    right, and then its head first meets them.  Interning walks with an
    explicit stack.

    A constraint, query lines included, needs only the clauses of its
    body's negation.  When the body's DNF has 2 to ``_MAX_TERMS`` terms,
    the constraint is compiled as one constraint per term, in the order
    of the distributive expansion, and the body's own gates are not
    compiled: f2lp and gringo likewise turn a C+ constraint into integrity
    constraints without auxiliary atoms.  The expansion can grow
    exponentially, so a body above the cap keeps its gates, which grow
    linearly.  Each node's term counts are kept with its id, and the
    walk decides with one lookup; the terms of a body are expanded once
    per id (``_plan``), which the base and the template share.  A term is
    a conjunction of literals and keeps one gate, as any conjunction
    does.  A body of one term is compiled as it stands: its gate gives
    the search one literal for the whole body, and learned clauses use
    it.  Written as a plain clause instead, ferryman-stress 0..9 went from
    657 to 945 conflicts.  The split is the same for every rule list, so
    a step of the template and the same step of a whole-horizon rule list
    get the same clauses.

    A constraint's body gate that the op list makes right before the
    constraint, used by nothing earlier, is marked (keep in its op), and
    ``place`` hands the mark to ``CnfBuilder.gate`` when it creates the
    gate unguarded.  Whether a placement creates a gate depends only on
    the formulas placed before it, over absolute steps, so the template
    placed step by step and a whole-horizon rule list choose alike.  The
    mark is the one thing that keeps a fixed gate's level-0-true binaries
    out of the solver; without it hanoi-stress k=63 has 137,098 clauses,
    not 71,893 (``CnfBuilder`` has the cost).
    """

    def __init__(self, inc: IncrementalProgram | None,
                 rules: Sequence[PropRule] = ()) -> None:
        self.inc = inc
        self.rules = rules if inc is None else inc.base
        self.template = () if inc is None else inc.template
        self._ids: dict[tuple, int] = {}
        self._shapes: list[tuple] = []  # by id: its key in _ids
        # by id: how many DNF terms the node has, and its negation
        self._terms: list[tuple[int, int]] = []
        self._plans: dict[int, list | None] = {}  # see _plan
        self.base = self._compile([(r.head, r.body) for r in self.rules])
        self.step = self._compile([(r.head, r.body) for r in self.template])
        for op in self.step:
            if op[0] == _ATOM and not -1 <= op[1] <= 0:
                # a later step would let a later increment change this one
                raise TranslateError(
                    f"template atom at step t{op[1]:+d}; only t and t-1 exist", NO_SPAN)
        lines = () if inc is None else inc.query.lines
        self.lines = [self._compile([(None, mvpf.Neg(f))]) for _, f in lines]
        # a line at a fixed step lands on it at every horizon of the query
        # (``query_steps`` raises otherwise); the others move with maxstep
        self.fixed = [tref.base != "maxstep" for tref, _ in lines]

    def _compile(self, rules) -> list[tuple]:
        """The rules' op list.  A leaf's rel is a TAtom's rel, a PAtom's
        step, and 0 for a query line's atom."""
        ids, shapes, terms, plans = self._ids, self._shapes, self._terms, self._plans
        ops: list[tuple] = []
        # each node gets one op: (register, id, top) by leaf and by the
        # register a negation negates, the register by a gate's (id, top)
        leaves: dict = {}
        negs: dict[int, tuple] = {}
        gates: dict[tuple, int] = {}
        for head, body in rules:
            mark = len(ops)
            done: list[tuple] = []  # (register, id, top) of finished nodes
            # the head is an atom like any other, after the body
            stack = [body] if head is None else [head, body]
            while stack:
                f = stack.pop()
                cls = f.__class__
                if cls is mvpf.Neg:  # a chain of n negations
                    n = 0
                    while cls is mvpf.Neg:
                        f = f.sub
                        cls = f.__class__
                        n += 1
                    stack.append(n)
                    stack.append(f)
                elif cls is int:  # negate the last node done f times
                    node = done[-1]
                    for _ in range(f):
                        reg, kid, top = node
                        node = negs.get(reg)
                        if node is None:
                            key = (_NEG, kid)
                            nid = ids.setdefault(key, len(ids))
                            if nid == len(shapes):
                                shapes.append(key)
                                terms.append(terms[kid][::-1])
                            node = negs[reg] = (len(ops), nid, top)
                            ops.append((_NEG, reg))
                    done[-1] = node
                elif cls is tuple:  # (connective, parts), its parts done
                    f, n = f
                    kids = done[len(done) - n:]
                    del done[len(done) - n:]
                    cls = f.__class__
                    s = 1 if cls is mvpf.And else -1 if cls is mvpf.Or else 0
                    tops = [k[2] for k in kids if k[2] is not None]
                    top = max(tops) if tops else None
                    shape = tuple([(kid, None if kt is None else kt - top) for _, kid, kt in kids])
                    key = (_GATE, s, shape)
                    nid = ids.setdefault(key, len(ids))
                    if nid == len(shapes):
                        shapes.append(key)
                        if n == 2:  # the common case, without building lists
                            (ap, an), (bp, bn) = terms[kids[0][1]], terms[kids[1][1]]
                            if s > 0:
                                pair = (ap * bp, an + bn)
                            elif s < 0:
                                pair = (ap + bp, an * bn)
                            else:  # -left | right
                                pair = (an + bp, ap * bn)
                            terms.append((min(pair[0], _MAX_TERMS + 1), min(pair[1], _MAX_TERMS + 1)))
                        else:
                            terms.append(_gate_terms(s, [k[1] for k in kids], terms))
                    reg = gates.get((nid, top))
                    if reg is None:
                        reg = gates[nid, top] = len(ops)
                        ops.append((_GATE, s, nid, top, tuple([k[0] for k in kids]), 0))
                    done.append((reg, nid, top))
                elif cls is mvpf.And or cls is mvpf.Or:
                    stack.append((f, len(f.parts)))
                    stack.extend(reversed(f.parts))
                elif cls is mvpf.Impl:
                    stack.append((f, 2))
                    stack.append(f.right)
                    stack.append(f.left)
                else:
                    if cls is TAtom:
                        key = (f.rel, f.const, f.value)
                    elif cls is PAtom:
                        key = (f.step, f.const, f.value)
                    else:
                        key = None if cls is mvpf.Bot else (0, f.const, f.value)
                    node = leaves.get(key)
                    if node is None:
                        if key is None:  # false has no term; its negation one
                            node = (len(ops), self._intern((_LIT,), (0, 1)), None)
                            ops.append((_LIT, -1))
                        else:
                            rel, c, v = key
                            shape = (_ATOM, c, v)
                            nid = ids.setdefault(shape, len(ids))
                            if nid == len(shapes):
                                shapes.append(shape)
                                terms.append((1, 1))
                            node = (len(ops), nid, rel)
                            ops.append((_ATOM, rel, c, v))
                        leaves[key] = node
                    done.append(node)
            if head is not None:
                ops.append((_RULE, done[0][0], done[1][0]))
                continue
            reg, nid, top = done[0]
            if 1 < terms[nid][0] <= _MAX_TERMS:
                if nid not in plans:
                    plans[nid] = self._plan(nid)
                plan = plans[nid]
                if plan is not None:
                    _split(ops, mark, plan, top, leaves, negs, gates)
                    continue
            if reg == len(ops) - 1:
                # the body's gate, under the negations just made for it, is
                # used by nothing else yet: it is this constraint's own
                g, keep = reg, 1
                while ops[g][0] == _NEG and ops[g][1] == g - 1:
                    g, keep = g - 1, -keep
                if ops[g][0] == _GATE:
                    ops[g] = ops[g][:5] + (keep,)
            ops.append((_RULE, reg, None))
        return ops

    def _intern(self, key: tuple, terms: tuple[int, int]) -> int:
        """The id of a node, which a new node takes with its term counts."""
        nid = self._ids.setdefault(key, len(self._ids))
        if nid == len(self._shapes):
            self._shapes.append(key)
            self._terms.append(terms)
        return nid

    def _plan(self, nid: int) -> list | None:
        """The terms of the body with this id, ready to compile, or None
        when one of them is empty (the body is true whenever it holds; the
        constraint is then compiled as it stands).

        A term is (literals, id, top) with the id of its conjunction and
        that conjunction's top, relative to the body's top, or id None for
        a term of one literal.  A literal is (rel, const, value, the atom's
        id, the id of its negation or None): rel is again relative to the
        body's top.  A term's literals come in the order the body holds
        them; a repeated one is dropped, and so is a term with both an
        atom and its negation.  The expansion keeps an explicit stack, and
        a term is built as a tree of joins, (left, right), over literals,
        (rel, atom id, polarity), and empty terms, (): a join takes
        constant time however deep the body nests."""
        shapes = self._shapes
        # (id, its top relative to the body's, polarity), or (n, None,
        # whether the last n parts done are conjoined)
        stack: list[tuple] = [(nid, 0, True)]
        out: list[list] = []  # the terms of each subformula done
        while stack:
            i, off, pos = stack.pop()
            if off is None:
                parts = out[len(out) - i:]
                del out[len(out) - i:]
                if pos:
                    terms = parts[0] if parts else [()]
                    for p in parts[1:]:
                        terms = [(t, u) for t in terms for u in p]
                else:
                    terms = [t for p in parts for t in p]
                out.append(terms)
                continue
            key = shapes[i]
            while key[0] == _NEG:
                i = key[1]
                key = shapes[i]
                pos = not pos
            if key[0] == _GATE:
                _, s, shape = key
                if s:
                    stack.append((len(shape), None, (s > 0) == pos))
                    stack += [(kid, off if ko is None else off + ko, pos)
                              for kid, ko in reversed(shape)]
                else:  # -left | right
                    (left, lo), (right, ro) = shape
                    stack.append((2, None, not pos))
                    stack.append((right, off if ro is None else off + ro, pos))
                    stack.append((left, off if lo is None else off + lo, not pos))
            elif key[0] == _ATOM:
                out.append([(off, i, pos)])
            else:  # false: no term, or true: one empty term
                out.append([] if pos else [()])
        plan = []
        for term in out[0]:
            signs: dict = {}  # (rel, atom id) -> polarity
            stack = [term]
            while stack:
                x = stack.pop()
                if len(x) == 2:
                    stack.append(x[1])
                    stack.append(x[0])
                elif x and signs.setdefault(x[:2], x[2]) is not x[2]:
                    break
            else:
                if not signs:
                    return None
                lits = [(rel, *shapes[aid][1:], aid, None if pos else self._intern((_NEG, aid), (1, 1)))
                        for (rel, aid), pos in signs.items()]
                if len(lits) == 1:
                    plan.append((lits, None, 0))
                    continue
                top = max([lit[0] for lit in lits])
                shape = tuple([(aid if nid is None else nid, rel - top)
                               for rel, _, _, aid, nid in lits])
                gid = self._intern((_GATE, 1, shape), (1, min(len(lits), _MAX_TERMS + 1)))
                plan.append((lits, gid, top))
        return plan


# ---------------------------------------------------------------------------
# Conflict-driven search

_RESTART_UNIT = 100  # conflicts per unit of the Luby sequence


def _luby(i: int) -> int:
    """The i-th term, from 1, of the Luby sequence 1 1 2 1 1 2 4 1 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Dpll:
    """Conflict-driven clause learning over a CNF of signed variable numbers.

    The value and watch arrays are indexed by literal: a negative index
    wraps to the far end of the list, so one list holds both polarities
    and the propagation loop needs no abs().  A two-literal clause lives
    in the implication lists of both its literals; a longer one is watched
    in place, by its first two literals.  The clause lists handed in are
    used as they are, never copied.

    A conflict is analysed to its first unique implication point; the
    learned clause is watched like the others and the search jumps back to
    the clause's second-highest level.  Decisions follow a variable
    move-to-front queue (VMTF) that starts in variable order, lowest
    first; the variables met in each analysis move to the front.  Phases
    are saved on backtracking, and the search restarts on the Luby
    sequence.  The name is kept for tools that wrap ``propagate`` and
    ``push_level`` by it; every propagation goes through ``propagate``.

    Construction and every later extension are the same two calls on an
    empty solver: ``grow`` makes room for the variables and links them
    into the queue, and ``add_clauses`` attaches the clauses and asserts
    the units at level 0.  Every level-0 addition goes through them: the
    caller's clauses, a learned unit while no flip is pending, and a
    refuted or retired assumption's negation.  While ``qhead`` is 0, no
    assigned literal has been propagated, so a clause can be watched as
    it comes.  The solver can be searched under an assumption literal; ``retire`` later asserts
    the literal false and drops every clause it guards.

    After a total assignment, ``flip`` moves the search past it with no
    clause: the deepest decision's level is undone and the decision's
    negation asserted one level down, with no reason.  That level becomes
    the backtrack level ``bl``, and the flipped literal stays until every
    assignment under the levels up to ``bl`` has been met.  A conflict at
    ``bl`` then means none is left there, so it flips the decision at
    ``bl``, one level further down, instead of being analysed.  Analysis
    never jumps below ``bl``, and restarts go back to ``bl`` at the
    least.  A unit learned while flips are pending is asserted at ``bl``
    with itself as its reason: at level 0 it would undo the flips, and
    the search would meet some assignments again.  An assignment held at
    ``bl`` above its reason's levels is undone with ``bl``, so a later
    search may miss that implication; a clause with every literal false
    is still found when its last literal falls.
    """

    def __init__(self, nvars: int, clauses: list[list[int]], stats: Stats):
        self.stats = stats
        self.nvars = 0
        self.val = [0]  # by literal: 1 true, -1 false, 0 unset
        self.implied: list[list[int]] = [[]]
        self.watches: list[list[list[int]]] = [[]]
        self.level = [0]
        # a clause, or for a two-literal clause the literal whose falsity
        # implied the variable; None for decisions and facts
        self.reason: list[list[int] | int | None] = [None]
        self.phase = [1]
        self.seen = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.conflict: list[int] | None = None
        self.conflicts = 0
        self.restarts = 0
        self.next_restart = _RESTART_UNIT
        self.learnts: list[list[int]] = []  # of two or more literals
        self.assumption = 0
        self.guarded: list[list[int]] = []  # clauses that mention -assumption
        self.bl = 0  # the backtrack level: that of the deepest flip
        # the queue runs from the front, the variable moved last, to the
        # tail: each variable's older neighbour is the next one down, and
        # stamps order the queue; 0 ends it both ways
        self.older = [0]
        self.newer = [0]
        self.stamp = [-math.inf]  # below every variable's stamp
        self.clock = 0  # no stamp is above it
        self.front = self.tail = self.search = 0
        self.ok = True
        self.grow(nvars)
        self.add_clauses(clauses)

    def _attach(self, cl: list[int]) -> None:
        if len(cl) == 2:
            self.implied[cl[0]].append(cl[1])
            self.implied[cl[1]].append(cl[0])
        else:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    def grow(self, nvars: int) -> None:
        """Makes room for variables up to nvars, queued behind all the
        others in variable order, lowest first."""
        old = self.nvars
        add = nvars - old
        if add <= 0:
            return
        # the negative half of a literal-indexed list stays at its far end
        self.val[old + 1:old + 1] = [0] * (2 * add)
        self.implied[old + 1:old + 1] = [[] for _ in range(2 * add)]
        self.watches[old + 1:old + 1] = [[] for _ in range(2 * add)]
        self.level += [0] * add
        self.reason += [None] * add
        self.phase += [1] * add
        self.seen += [0] * add
        older, newer, stamp, tail = self.older, self.newer, self.stamp, self.tail
        older += range(old + 2, nvars + 2)
        older[nvars] = 0
        newer += range(old, nvars)
        newer[old + 1] = tail
        older[tail] = old + 1  # older[0] when the queue was empty
        low = stamp[tail] if tail else 0
        stamp += range(low - 1, low - 1 - add, -1)
        if not self.front:
            self.front = old + 1
        if not self.search:
            self.search = old + 1
        self.tail = self.nvars = nvars

    def add_clauses(self, clauses: Sequence[list[int]], guarded: bool = False) -> None:
        """Adds clauses for good, at level 0, undoing any decisions first.

        Once propagation has passed a literal (qhead > 0), literals false
        at level 0 move behind the watched pair, in place, and a clause
        true there is dropped; before, each clause is attached as it
        comes.  A false unit clears ``ok``, an unset one is assigned and a
        true one is skipped.  A guarded clause mentions the negation of
        the next assumption and leaves with it (``retire``).
        """
        if self.trail_lim:
            self.backtrack(0)
        val = self.val
        get = val.__getitem__
        scan = self.qhead > 0
        for cl in clauses:
            n = len(cl)
            if scan and any(map(get, cl)):
                if 1 in map(get, cl):
                    continue
                n = 0
                for i, lit in enumerate(cl):
                    if not val[lit]:
                        cl[i] = cl[n]
                        cl[n] = lit
                        n += 1
            if n > 1:
                self._attach(cl)
                if guarded:
                    self.guarded.append(cl)
            elif not n or val[cl[0]] < 0:
                self.ok = False
            elif not val[cl[0]]:
                self._assign(cl[0], None)

    def retire(self, a: int) -> None:
        """Asserts -a for good and drops the clauses guarded by it."""
        self.backtrack(0)
        na = -a
        implied, watches = self.implied, self.watches
        for x in implied[na]:  # each two-literal clause (-a | x)
            implied[x] = [y for y in implied[x] if y != na]
        implied[na] = []
        gone = {id(cl) for cl in self.guarded}
        for lit in {lit for cl in self.guarded if len(cl) > 2 for lit in cl[:2]}:
            watches[lit] = [cl for cl in watches[lit] if id(cl) not in gone]
        self.learnts = [cl for cl in self.learnts if id(cl) not in gone]
        self.guarded = []
        self.assumption = 0
        self.add_clauses([[na]])

    def _assign(self, lit: int, reason) -> None:
        self.val[lit] = 1
        self.val[-lit] = -1
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def propagate(self) -> bool:
        """Exhausts the queue; False on conflict, with the clause kept."""
        val = self.val
        implied = self.implied
        watches = self.watches
        trail = self.trail
        push = trail.append
        level = self.level
        reason = self.reason
        dl = len(self.trail_lim)
        start = self.qhead
        # the queue is the trail from qhead on: a list iterator also yields
        # what the loop appends behind it
        queue = iter(trail)
        queue.__setstate__(start)
        for false_lit in queue:
            false_lit = -false_lit
            for lit in implied[false_lit]:
                if val[lit] == 1:
                    continue
                if val[lit]:
                    return self._conflict([lit, false_lit], queue)
                val[lit] = 1
                val[-lit] = -1
                v = lit if lit > 0 else -lit
                level[v] = dl
                reason[v] = false_lit
                push(lit)
            ws = watches[false_lit]
            if not ws:
                continue
            # compacted in place: ws[:j] keeps the clauses still watching
            # false_lit, and the ones not visited follow them on a conflict
            j = 0
            rest = iter(ws)
            for cl in rest:
                first = cl[0]
                if first == false_lit:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = false_lit
                if val[first] == 1:
                    ws[j] = cl
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if val[lk] != -1:
                        cl[1] = lk
                        cl[k] = false_lit
                        watches[lk].append(cl)
                        break
                else:
                    ws[j] = cl
                    j += 1
                    if val[first]:
                        ws[j:] = list(rest)
                        return self._conflict(cl, queue)
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = dl
                    reason[v] = cl
                    push(first)
            del ws[j:]
        self.stats.propagations += len(trail) - start
        self.qhead = len(trail)
        return True

    def _conflict(self, clause, queue) -> bool:
        """Keeps the conflicting clause, counts what the queue has passed
        (its iterator's position, from ``__reduce__``) and empties it."""
        self.conflict = clause
        self.stats.propagations += queue.__reduce__()[2] - self.qhead
        self.qhead = len(self.trail)
        return False

    def push_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def backtrack(self, lvl: int) -> None:
        """Undoes every level above lvl, saving the phases it unsets."""
        if lvl >= len(self.trail_lim):
            return
        limit = self.trail_lim[lvl]
        val, phase, stamp, trail = self.val, self.phase, self.stamp, self.trail
        search = self.search
        best = stamp[search]
        for lit in trail[limit:]:
            val[lit] = val[-lit] = 0
            if lit > 0:
                phase[lit] = 1
                v = lit
            else:
                phase[-lit] = -1
                v = -lit
            if stamp[v] > best:
                search, best = v, stamp[v]
        del trail[limit:]
        del self.trail_lim[lvl:]
        self.qhead = limit
        self.search = search
        if lvl < self.bl:
            self.bl = lvl

    def _analyze(self) -> tuple[list[int], int]:
        """The first-UIP clause of the conflict and the level to jump to.

        A flipped literal has no reason, so above the assumption's level
        the clause holds it as it holds a decision.  Under an assumption,
        the clause holds every level-1 literal as one literal, the
        assumption's negation.  The flips asserted at level 1 do not follow
        from the assumption, so the fold is sound only because the clause
        mentions -a: it is guarded, and leaves with the assumption, before
        those flips ever do.  Without an assumption, flips at level 0 count
        as facts: they stay until the search finds nothing more, and the
        solver then never searches again.
        """
        level, reason, trail, seen = self.level, self.reason, self.trail, self.seen
        dl = len(self.trail_lim)
        floor = 1 if self.assumption else 0
        fold = False
        learnt = [0]
        marked = []
        pending = 0
        earlier = reversed(trail)
        clause = self.conflict
        while True:
            for q in clause:
                v = q if q > 0 else -q
                if seen[v]:
                    continue
                lv = level[v]
                if lv:
                    seen[v] = 1
                    marked.append(v)
                    if lv == dl:
                        pending += 1
                    elif lv > floor:
                        learnt.append(q)
                    else:
                        fold = True
            for p in earlier:
                if seen[p if p > 0 else -p]:
                    break
            pending -= 1
            if not pending:
                break
            clause = reason[p if p > 0 else -p]
            if clause.__class__ is int:
                clause = (clause,)  # p itself is already seen
        learnt[0] = -p
        # drop a literal whose reason lies wholly inside the clause
        out = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q if q > 0 else -q]
            if r is None:
                out.append(q)
                continue
            if r.__class__ is int:
                r = (r,)
            for x in r:
                v = x if x > 0 else -x
                if not seen[v] and level[v] > floor:
                    out.append(q)
                    break
            else:
                if floor and not fold:
                    for x in r:
                        if level[x if x > 0 else -x] == 1:
                            fold = True
                            break
        if fold:
            out.append(-self.assumption)
        back = 0
        if len(out) > 1:
            # the first literal of the highest level after the asserted one
            q = out[1]
            top, back = 1, level[q if q > 0 else -q]
            for i in range(2, len(out)):
                q = out[i]
                lv = level[q if q > 0 else -q]
                if lv > back:
                    top, back = i, lv
            out[1], out[top] = out[top], out[1]
        for v in marked:
            seen[v] = 0
        self._bump(marked)
        return out, back

    def _bump(self, vs: list[int]) -> None:
        """Moves vs to the front of the queue, keeping their order."""
        older, newer, stamp = self.older, self.newer, self.stamp
        front, tail, search, clock = self.front, self.tail, self.search, self.clock
        vs.sort(key=stamp.__getitem__)
        for v in vs:
            if v == front:
                continue
            o, n = older[v], newer[v]
            if v == search:
                search = o  # v is assigned, so it need not stay searched
            if v == tail:
                tail = n
            older[n] = o
            newer[o] = n
            older[v] = front
            newer[front] = v
            newer[v] = 0
            front = v
            clock += 1
            stamp[v] = clock
        self.front, self.tail, self.search, self.clock = front, tail, search, clock

    def _decide(self) -> int:
        """The newest unassigned variable, or 0 when all are assigned.
        Every variable newer than ``search`` is assigned, so a total
        assignment returns before the walk, with the same decisions."""
        if len(self.trail) == self.nvars:
            return 0
        val, older = self.val, self.older
        v = self.search
        while v and val[v]:
            v = older[v]
        self.search = v
        return v

    def solve(self, assume: int = 0) -> bool:
        """Extends the assignment to a total one satisfying every clause.

        After a True, the caller may ``flip`` past the assignment and call
        again for the next one; False means there is no further one.  A
        nonzero assume is decided first, at level 1, and never undone by
        the search: restarts go back to it, and False then means no
        further assignment with it, and asserts its negation for good.
        Learned clauses that depend on it are guarded by it.
        """
        if not self.ok:
            return False
        self.assumption = assume
        floor = 1 if assume else 0
        stats = self.stats
        while True:
            if self.propagate():
                dl = len(self.trail_lim)
                if dl < floor:
                    if self.val[assume] < 0:
                        return False
                    self.push_level()
                    if not self.val[assume]:
                        self._assign(assume, None)
                    continue
                v = self._decide()
                if not v:
                    return True
                stats.decisions += 1
                self.push_level()
                self._assign(v if self.phase[v] > 0 else -v, None)
                continue
            dl = len(self.trail_lim)
            if dl <= floor:
                self._exhausted()
                return False
            if dl <= self.bl:  # nothing is left below the decisions up to bl
                self._flip(dl)
                continue
            learnt, back = self._analyze()
            if len(learnt) == 1 and not self.bl:
                self.add_clauses([learnt])
            else:
                self.backtrack(max(back, self.bl))
                if len(learnt) > 1:
                    self._attach(learnt)
                    self.learnts.append(learnt)
                    if assume and -assume in learnt:
                        self.guarded.append(learnt)
                self._assign(learnt[0], learnt)
            self.conflicts += 1
            stats.conflicts += 1
            if self.conflicts >= self.next_restart:
                self.restarts += 1
                self.next_restart += _RESTART_UNIT * _luby(self.restarts + 1)
                self.backtrack(max(floor, self.bl))

    def flip(self) -> bool:
        """Moves the search past the total assignment it holds: the deepest
        decision above the assumption's level is undone and its negation
        asserted one level down, with no reason, where it stays until
        every assignment below it has been met.  False when there is no
        such decision, and so no further assignment."""
        if len(self.trail_lim) <= (1 if self.assumption else 0):
            self._exhausted()
            return False
        self._flip(len(self.trail_lim))
        return True

    def _flip(self, lvl: int) -> None:
        """Undoes level lvl and asserts its decision's negation at lvl - 1,
        the new backtrack level."""
        d = self.trail[self.trail_lim[lvl - 1]]
        self.backtrack(lvl - 1)
        self.bl = lvl - 1
        self._assign(-d, None)

    def _exhausted(self) -> None:
        """No further assignment: under an assumption, its negation holds
        for good; without one, the solver finds nothing again."""
        if self.assumption and self.trail_lim:
            self.add_clauses([[-self.assumption]])
        else:
            self.ok = False


# ---------------------------------------------------------------------------
# Stability

def is_stable_model(rules: Sequence[PropRule], model: frozenset[PAtom], stats: Stats) -> bool:
    """Is the candidate the minimal model of the program's reduct?

    The reduct mentions only atoms the candidate makes true, so the
    search for a smaller model ranges over subsets of the candidate.
    """
    if not model:
        return True
    builder = CnfBuilder()
    for a in sorted(model, key=lambda x: (x.step, x.const, x.value)):
        builder.atom_var(a)
    # each reduct as a constraint on its negation, whose clause asserts it
    reducts = [PropRule(None, mvpf.Neg(preduct(rule_formula(r), model)), r.tag) for r in rules]
    builder.place(StepCode(None, reducts).base, 0)
    builder.clauses.append([-builder.var_of[a] for a in model])
    return not Dpll(builder.nvars, builder.clauses, stats).solve()


def _dependencies(rules) -> list[tuple] | None:
    """The positive dependency edges: from a rule's head to each body atom
    outside every negation.  None when a body has an implication outside
    every negation.  A negated subformula is true or false as a whole in
    the reduct, so what sits under it never matters; the reduct of a
    constraint that a candidate satisfies is always true, so only rules
    with a head are walked.  Template rules give edges between TAtoms."""
    edges: list[tuple] = []
    for r in rules:
        if r.head is None:
            continue
        stack = [r.body]
        while stack:
            g = stack.pop()
            cls = type(g)
            if cls is mvpf.And or cls is mvpf.Or:
                stack.extend(g.parts)
            elif cls is mvpf.Impl:
                return None
            elif cls is PAtom or cls is TAtom:
                edges.append((r.head, g))
    return edges


def _step_ordered(rules) -> bool:
    """Does every positive dependency run to an earlier step?  Then so
    does every one of any union of such rule lists, which is tight.  For
    template rules, whose steps are relative, the answer holds at every
    step they are placed at."""
    edges = _dependencies(rules)
    return edges is not None and all(_step(body) < _step(head) for head, body in edges)


def _step(a) -> int:
    return a.step if a.__class__ is PAtom else a.rel


def is_tight(rules: list[PropRule]) -> bool:
    """Is the program tight, so that every model of its completion is stable?

    True when no body has an implication outside every negation and the
    positive dependency graph is acyclic: Fages' theorem, which Erdem and
    Lifschitz extend to nested bodies.
    """
    edges = _dependencies(rules)
    if edges is None:
        return False
    if all(body.step < head.step for head, body in edges):
        return True
    succ: dict[PAtom, list[PAtom]] = {}
    for head, body in edges:
        succ.setdefault(head, []).append(body)
    return not kahn_remainder(succ)


# ---------------------------------------------------------------------------
# Enumeration

class LiveSolver:
    """One query's CNF and search, carried from horizon to horizon.

    The caller sets ``horizon`` before each horizon's call.  The program
    comes compiled (``code``): the solver places the base and each step
    up to the horizon once, building no formula.  They follow the
    exactly-one clauses of the groups new to that horizon, which are
    added for good.  An atom's support clause is added for good once no
    later step can give it a rule: for an atom at step s, that is after
    step s, or s+1 when its constant heads a template rule at t-1.  A
    query line at a fixed step is placed for good at the first horizon,
    and never again.  Until its support closes, an atom's support clause
    is guarded by a fresh literal a_k, which the search assumes, and so
    are horizon k's lines at maxstep plus or minus an offset, with the
    clauses that define their bodies; the next horizon retires a_k.
    Nothing is guarded at horizon ``last``, as no horizon follows it; a
    LiveSolver at its last horizon thus solves a fixed program, compiled
    as a base alone with an empty template, as it stands.

    Tightness is decided once, from the steps of the base and template
    rules: when every positive dependency runs to an earlier step, so does
    every one of the union of their placed copies.  Only otherwise is the
    whole program, built as ``PropRule`` lists, walked again at each
    horizon.
    """

    def __init__(self, code: StepCode, last: int) -> None:
        self.builder = CnfBuilder()
        self.solver: Dpll | None = None
        self.code = code
        self.placed = -1  # the last step placed; the base is step 0
        self.bodies: dict[int, list[int]] = {}
        self.natoms = 0  # atoms of the groups and atoms added so far
        self.unsupported: list[PAtom] = []  # support still open
        self.clauses = 0  # handed to the solver for good
        self.rules = 0  # placed in the last extend: steps and query lines
        self.lag = {r.head.const: 1 for r in code.template
                    if r.head is not None and r.head.rel < 0}
        self.ordered = _step_ordered(code.rules) and _step_ordered(code.template)
        self.horizon = self.last = last
        self.guard = 0

    def place_step(self, t: int) -> None:
        """Places the compiled base (t = 0) or template at step t."""
        code = self.code
        self.builder.place(code.step if t else code.base, t, self.bodies)

    def extend(self, groups, atoms, stats: Stats) -> Sequence[PropRule] | None:
        """Adds the horizon's new groups and atoms, its steps and query
        lines and the support clauses.  Returns the program its candidates
        must be checked against, or None when they need no stability
        check.  groups and atoms are those new to the solver."""
        code = self.code
        inc = code.inc
        steps = () if inc is None else query_steps(inc.query, inc.gls, self.horizon)
        first = self.placed < 0
        b = self.builder
        if self.guard:
            self.solver.retire(self.guard)
            # no clause is left on the retired gates; fixed false, they are
            # never decided, so no two candidates differ in them alone
            self.solver.add_clauses([[-g] for g in b.forget_guarded()])
        for a in atoms:
            b.atom_var(a)
        self.natoms += len(atoms)
        for tc in groups:
            b.add_exactly_one(tc.values)
        rules = 0
        while self.placed < self.horizon:
            self.placed += 1
            self.place_step(self.placed)
            rules += len(code.template if self.placed else code.rules)
        bodies = self.bodies
        final = self.horizon == self.last
        closed, still = [], []
        for a in self.unsupported + list(atoms):
            if final or a.step + self.lag.get(a.const, 0) <= self.horizon:
                closed.append(a)
            else:
                still.append(a)
        b.add_support_clauses(closed, bodies)
        self.unsupported = still
        # a fixed-step line is placed for good at the first horizon only,
        # and at the last horizon every line is, in order.  Lines placed
        # for good go first: a gate shared with a guarded line would leave
        # with its guard
        lines = [(step, ops, final or fixed)
                 for step, ops, fixed in zip(steps, code.lines, code.fixed)
                 if first or not fixed]
        self.rules = rules + len(lines)
        for step, ops, good in lines:
            if good:
                b.place(ops, step)
        self.guard = b.guard = 0 if final else b.new_var()
        for step, ops, good in lines:
            if not good:
                b.place(ops, step)
        b.add_support_clauses(still, bodies)
        b.guard = 0

        self.clauses += len(b.clauses)
        if self.solver is None:
            self.solver = Dpll(b.nvars, b.clauses, stats)
        else:
            self.solver.grow(b.nvars)
            self.solver.add_clauses(b.clauses)
        self.solver.add_clauses(b.guarded, guarded=True)
        b.clauses, b.guarded = [], []

        # every atom has a support clause only when the rules add no atom
        supported = len(b.var_of) == self.natoms
        if supported and self.ordered:
            return None
        program = code.rules if inc is None else inc.program(self.horizon).rules
        return None if supported and is_tight(program) else program


def enumerate_models(
    rules: Sequence[PropRule],
    groups: list[TimedConst] | None,
    config: SolveConfig,
    stats: Stats,
    live: LiveSolver | None = None,
):
    """Yields stable models.

    groups gives the timed constants in step order, each to take exactly
    one value; without it the atoms are those the rules mention,
    unconstrained (arbitrary atomic-head programs).  Each
    total assignment of the search is a candidate; after its check the
    search flips its deepest decision (``Dpll.flip``), which passes that
    assignment alone (see the module docstring), so every model is met
    once, in the order the search meets it.  Under a live solver's guard
    the flips sit at the guard's level, 1, or above it, and conflict
    analysis folds those at level 1 into the guard's negation
    (``Dpll._analyze``).  That is sound only because those clauses are
    guarded: the next horizon's retire drops them with the flips.  The
    stability check runs only when the program is not known to be
    tight.

    Without live, rules is a fixed program, compiled as a base alone and
    searched as it stands, at its own horizon: the highest step of its
    groups, 0 without groups.  With live, the call searches the live
    solver's next horizon of the program it holds, and rules is not
    read; groups are only those new to it and stay for later horizons.

    When the search ends, or the caller has read ``max_solutions``
    models, the call appends its ``HorizonRecord`` to stats: ``cnf_s``
    until the search starts, ``search_s`` its own time after that,
    without the caller's.
    """
    start = time.perf_counter()
    before = (stats.decisions, stats.conflicts, stats.propagations, stats.models_checked)
    if live is None:
        # at the program's own horizon: steps above 0 place an empty template
        live = LiveSolver(StepCode(None, rules), max((tc.step for tc in groups or ()), default=0))
    if groups is not None:
        atom_universe = [a for tc in groups for a in tc.values]
    else:
        seen = dict()
        for r in rules:
            if r.head is not None:
                seen[r.head] = True
            for a in formula_leaves(r.body):
                seen[a] = True
        atom_universe = sorted(seen, key=lambda a: (a.step, a.const, a.value))
    program = live.extend(groups or (), atom_universe, stats)
    t = time.perf_counter()
    cnf_s, search_s = t - start, 0.0

    solver = live.solver
    guard = live.guard
    atoms = None  # listed at the first candidate: most horizons have none
    val = solver.val
    yielded = 0
    while solver.solve(guard):
        if atoms is None:
            atoms = list(live.builder.var_of.items())
        model = frozenset(a for a, v in atoms if val[v] == 1)
        stats.models_checked += 1
        if program is None or is_stable_model(program, model, stats):
            search_s += time.perf_counter() - t
            yield model
            t = time.perf_counter()
            yielded += 1
            if config.max_solutions and yielded >= config.max_solutions:
                break
        if not solver.flip():
            break
    search_s += time.perf_counter() - t
    stats.horizons.append(HorizonRecord(
        live.horizon, solver.nvars, live.clauses, len(solver.learnts),
        stats.decisions - before[0], stats.conflicts - before[1],
        stats.propagations - before[2], stats.models_checked - before[3],
        live.rules, cnf_s, search_s,
    ))


# ---------------------------------------------------------------------------
# Drivers

def solve_horizons(inc: IncrementalProgram, config: SolveConfig, stats: Stats):
    """Yields (k, models) for each horizon k in the query's step range,
    models an iterator over horizon k's models as the search meets them.

    One LiveSolver serves the whole range, as the module docstring
    describes, with the query's program compiled once (``StepCode``).
    What the caller leaves unread of a horizon is searched before the
    next one, so each is added to the search once.  The caller decides
    when to stop.
    """
    if inc.max_step is None:
        raise UnboundedRange(
            "no upper step bound; set maxstep explicitly", NO_SPAN
        )
    live = LiveSolver(StepCode(inc), inc.max_step)
    prev = -1  # the previous horizon
    for k in range(inc.min_step, inc.max_step + 1):
        live.horizon = k
        models = enumerate_models((), inc.timed_consts(k, prev), config, stats, live=live)
        prev = k
        yield k, models
        for _ in models:
            pass


def solve_incremental(inc: IncrementalProgram, config: SolveConfig) -> SolveResult:
    """The first horizon in the query's step range that has models."""
    stats = Stats()
    for k, models in solve_horizons(inc, config, stats):
        found = list(models)
        if found:
            return SolveResult(k, found, stats)
    return SolveResult(None, [], stats)
