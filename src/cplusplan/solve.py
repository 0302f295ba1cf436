"""Model search for timed rule programs.

The search is conflict-driven clause learning (CDCL) over a Tseitin
encoding of the rules, together with support clauses: every stable model
of a program whose rules all have atomic (or false) heads is supported,
so each atom may be constrained to imply the disjunction of its rule
bodies.  Rules and support clauses together are the program's
completion.

Each total assignment the search reaches is a candidate, and is blocked
once it has been looked at.  When the program is tight, every model of
the completion is stable (Fages' theorem, extended to nested bodies by
Erdem and Lifschitz), so candidates are models as they stand.  Every
program the translator builds is tight: positive dependencies only run
from a step to the one before it.  For any other program (read from a
dump, written by hand, or with a positive loop) each candidate must pass
a stability check: it must be the unique minimal model of the program's
reduct, which the same search decides by asking for a proper sub-model.

One driver, ``solve_horizons``, walks a query's step range.  It grows a
single rule list, each step's rules instantiated once, and searches
horizon k with the query rules for k added.  That list is
``IncrementalProgram.program(k)`` rule for rule, so the paper's static
and incremental modes share the one driver.

A separate brute-force enumerator (direct formula evaluation, subset
minimality by exhaustion) serves as the oracle in tests.  It shares the
formula node types and nothing else.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import mvpf
from .syntax import NO_SPAN
from .translate import (
    IncrementalProgram,
    PAtom,
    PropRule,
    TimedConst,
    UnboundedRange,
    formula_leaves,
    rule_formula,
)


@dataclass
class Stats:
    grounded_rules: int = 0
    steps_grounded: int = 0
    propagations: int = 0
    models_checked: int = 0


@dataclass
class SolveConfig:
    max_solutions: int = 1  # 0 enumerates every model
    seed: int = 0
    max_checked: int = 0  # 0 means no cap on candidate models checked


class ResourceLimit(Exception):
    """Raised when the configured models-checked cap is exceeded."""


@dataclass
class SolveResult:
    found_step: int | None
    models: list[frozenset[PAtom]]
    stats: Stats


# ---------------------------------------------------------------------------
# Direct formula evaluation (shared by the stability check and the oracle)

def peval(f, model: frozenset) -> bool:
    if isinstance(f, mvpf.Bot):
        return False
    if isinstance(f, mvpf.Neg):
        return not peval(f.sub, model)
    if isinstance(f, mvpf.And):
        return all(peval(g, model) for g in f.parts)
    if isinstance(f, mvpf.Or):
        return any(peval(g, model) for g in f.parts)
    if isinstance(f, mvpf.Impl):
        return not peval(f.left, model) or peval(f.right, model)
    return f in model  # anything else is an atom


def preduct(f, model: frozenset):
    """Replace every subformula the model falsifies with false, top-down."""
    if not peval(f, model):
        return mvpf.BOT
    if isinstance(f, mvpf.Neg):
        return mvpf.Neg(preduct(f.sub, model))
    if isinstance(f, (mvpf.And, mvpf.Or)):
        return type(f)(tuple(preduct(g, model) for g in f.parts))
    if isinstance(f, mvpf.Impl):
        return mvpf.Impl(preduct(f.left, model), preduct(f.right, model))
    return f  # atom true in the model, or a satisfied leaf


# ---------------------------------------------------------------------------
# Brute-force oracle

def brute_force_models(formulas: list, atoms: list[PAtom]) -> list[frozenset[PAtom]]:
    """Stable models by exhaustion: every subset, direct checks only."""
    out = []
    universe = list(dict.fromkeys(atoms))
    for bits in itertools.product((False, True), repeat=len(universe)):
        m = frozenset(a for a, b in zip(universe, bits) if b)
        if all(peval(f, m) for f in formulas) and _minimal(formulas, m):
            out.append(m)
    return out


def _minimal(formulas: list, model: frozenset) -> bool:
    reducts = [preduct(f, model) for f in formulas]
    members = sorted(model, key=repr)
    for r in range(len(members)):
        for keep in itertools.combinations(members, r):
            sub = frozenset(keep)
            if all(peval(f, sub) for f in reducts):
                return False
    return True


# ---------------------------------------------------------------------------
# CNF construction

class CnfBuilder:
    """Tseitin encoding.  Var 1 is reserved true; atom vars are interned
    ahead of auxiliaries so atom numbering is stable for a given program."""

    def __init__(self) -> None:
        self.nvars = 1
        self.clauses: list[list[int]] = [[1]]
        self.var_of: dict[PAtom, int] = {}
        self.atom_of: dict[int, PAtom] = {}
        self._cache: dict = {}

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def atom_var(self, a: PAtom) -> int:
        v = self.var_of.get(a)
        if v is None:
            v = self.new_var()
            self.var_of[a] = v
            self.atom_of[v] = a
        return v

    def lit(self, f) -> int:
        if isinstance(f, PAtom):
            return self.atom_var(f)
        if isinstance(f, mvpf.Bot):
            return -1
        if isinstance(f, mvpf.Neg):
            return -self.lit(f.sub)
        cached = self._cache.get(f)
        if cached is not None:
            return cached
        if isinstance(f, (mvpf.And, mvpf.Or)):
            # an Or is the And of the negated parts, negated
            s = 1 if isinstance(f, mvpf.And) else -1
            ops = [s * self.lit(g) for g in f.parts]
            g = self.new_var()
            for l in ops:
                self.clauses.append([-s * g, l])
            self.clauses.append([s * g] + [-l for l in ops])
        elif isinstance(f, mvpf.Impl):
            la, lb = self.lit(f.left), self.lit(f.right)
            g = self.new_var()
            self.clauses.append([-g, -la, lb])
            self.clauses.append([g, la])
            self.clauses.append([g, -lb])
        else:
            raise TypeError(f"not a propositional formula: {f!r}")
        self._cache[f] = g
        return g

    def add_rule(self, rule: PropRule) -> None:
        lb = self.lit(rule.body)
        if rule.head is None:
            self.clauses.append([-lb])
        else:
            self.clauses.append([self.atom_var(rule.head), -lb])

    def add_formula(self, f) -> None:
        self.clauses.append([self.lit(f)])

    def add_support_clauses(self, rules: list[PropRule], atoms: list[PAtom]) -> None:
        """`atom implies some rule body`; sound for atomic-head programs."""
        by_head: dict[PAtom, list[int]] = {}
        for r in rules:
            if r.head is not None:
                by_head.setdefault(r.head, []).append(self.lit(r.body))
        for a in atoms:
            self.clauses.append([-self.atom_var(a)] + by_head.get(a, []))


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
    ``push_level`` by it.
    """

    def __init__(self, nvars: int, clauses: list[list[int]], stats: Stats):
        self.stats = stats
        size = 2 * nvars + 1
        self.val = [0] * size  # by literal: 1 true, -1 false, 0 unset
        self.implied: list[list[int]] = [[] for _ in range(size)]
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.level = [0] * (nvars + 1)
        # a clause, or for a two-literal clause the literal whose falsity
        # implied the variable; None for decisions and facts
        self.reason: list[list[int] | int | None] = [None] * (nvars + 1)
        self.phase = [1] * (nvars + 1)
        self.seen = [0] * (nvars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.conflict: list[int] | None = None
        self.conflicts = 0
        self.restarts = 0
        self.next_restart = _RESTART_UNIT
        # the queue: variable 1 is the front, each variable's older
        # neighbour is the next one up; stamps order the queue
        self.older = [v + 1 for v in range(nvars + 1)]
        self.older[0] = self.older[nvars] = 0
        self.newer = [v - 1 for v in range(nvars + 1)]
        self.newer[0] = 0
        self.stamp = [nvars + 1 - v for v in range(nvars + 1)]
        self.stamp[0] = 0
        self.clock = nvars
        self.front = self.search = 1 if nvars else 0
        self.ok = True
        for cl in clauses:
            if len(cl) > 1:
                self._attach(cl)
            elif not cl or self.val[cl[0]] < 0:
                self.ok = False
                return
            elif not self.val[cl[0]]:
                self._assign(cl[0], None)

    def _attach(self, cl: list[int]) -> None:
        if len(cl) == 2:
            self.implied[cl[0]].append(cl[1])
            self.implied[cl[1]].append(cl[0])
        else:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

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
        level = self.level
        reason = self.reason
        dl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            for lit in implied[false_lit]:
                x = val[lit]
                if x == 1:
                    continue
                if x:
                    self.conflict = [lit, false_lit]
                    self.qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return False
                val[lit] = 1
                val[-lit] = -1
                v = lit if lit > 0 else -lit
                level[v] = dl
                reason[v] = false_lit
                trail.append(lit)
            ws = watches[false_lit]
            n = len(ws)
            i = j = 0
            while i < n:
                cl = ws[i]
                i += 1
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
                        del ws[j:i]
                        self.conflict = cl
                        self.qhead = len(trail)
                        self.stats.propagations += qhead - start
                        return False
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = dl
                    reason[v] = cl
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return True

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
        for i in range(limit, len(trail)):
            lit = trail[i]
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

    def _analyze(self) -> tuple[list[int], int]:
        """The first-UIP clause of the conflict and the level to jump to."""
        level, reason, trail, seen = self.level, self.reason, self.trail, self.seen
        dl = len(self.trail_lim)
        learnt = [0]
        marked = []
        pending = 0
        idx = len(trail)
        clause = self.conflict
        while True:
            for q in clause:
                v = q if q > 0 else -q
                if not seen[v] and level[v]:
                    seen[v] = 1
                    marked.append(v)
                    if level[v] == dl:
                        pending += 1
                    else:
                        learnt.append(q)
            idx -= 1
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            pending -= 1
            if not pending:
                break
            clause = reason[abs(p)]
            if clause.__class__ is int:
                clause = (clause,)  # p itself is already seen
        learnt[0] = -p
        # drop a literal whose reason lies wholly inside the clause
        out = [learnt[0]]
        for q in learnt[1:]:
            r = reason[abs(q)]
            if r.__class__ is int:
                r = (r,)
            if r is None or any(not seen[abs(x)] and level[abs(x)] for x in r):
                out.append(q)
        back = 0
        if len(out) > 1:
            top = max(range(1, len(out)), key=lambda i: level[abs(out[i])])
            out[1], out[top] = out[top], out[1]
            back = level[abs(out[1])]
        for v in marked:
            seen[v] = 0
        self._bump(marked)
        return out, back

    def _bump(self, vs: list[int]) -> None:
        """Moves vs to the front of the queue, keeping their order."""
        older, newer, stamp = self.older, self.newer, self.stamp
        vs.sort(key=stamp.__getitem__)
        for v in vs:
            if v == self.front:
                continue
            o, n = older[v], newer[v]
            if v == self.search:
                self.search = o  # v is assigned, so it need not stay searched
            older[n] = o
            newer[o] = n
            older[v] = self.front
            newer[self.front] = v
            newer[v] = 0
            self.front = v
            self.clock += 1
            stamp[v] = self.clock

    def _decide(self) -> int:
        """The newest unassigned variable, or 0 when all are assigned."""
        val, older = self.val, self.older
        v = self.search
        while v and val[v]:
            v = older[v]
        self.search = v
        return v

    def solve(self) -> bool:
        """Extends the assignment to a total one satisfying every clause.

        After a True, the caller may ``block`` the assignment and call
        again for the next one; False means there is no further one.
        """
        if not self.ok:
            return False
        while True:
            if self.propagate():
                v = self._decide()
                if not v:
                    return True
                self.push_level()
                self._assign(v if self.phase[v] > 0 else -v, None)
                continue
            if not self.trail_lim:
                self.ok = False
                return False
            learnt, back = self._analyze()
            self.backtrack(back)
            if len(learnt) > 1:
                self._attach(learnt)
            self._assign(learnt[0], learnt)
            self.conflicts += 1
            if self.conflicts >= self.next_restart:
                self.restarts += 1
                self.next_restart += _RESTART_UNIT * _luby(self.restarts + 1)
                self.backtrack(0)

    def block(self, clause: list[int]) -> bool:
        """Adds a clause that the total assignment falsifies and jumps back
        far enough for search to go on; False when nothing is left."""
        level = self.level
        clause.sort(key=lambda l: level[abs(l)], reverse=True)
        if not clause or not level[abs(clause[0])]:
            self.ok = False
            return False
        if len(clause) == 1:
            self.backtrack(0)
            self._assign(clause[0], None)
            return True
        top, second = level[abs(clause[0])], level[abs(clause[1])]
        self.backtrack(second if second < top else top - 1)
        self._attach(clause)
        if second < top:
            self._assign(clause[0], clause)
        return True


# ---------------------------------------------------------------------------
# Stability

def is_stable_model(rules: list[PropRule], model: frozenset[PAtom], stats: Stats) -> bool:
    """Is the candidate the minimal model of the program's reduct?

    The reduct mentions only atoms the candidate makes true, so the
    search for a smaller model ranges over subsets of the candidate.
    """
    if not model:
        return True
    builder = CnfBuilder()
    for a in sorted(model, key=lambda x: (x.step, x.const, x.value)):
        builder.atom_var(a)
    for r in rules:
        builder.add_formula(preduct(rule_formula(r), model))
    builder.clauses.append([-builder.var_of[a] for a in model])
    return not Dpll(builder.nvars, builder.clauses, stats).solve()


def is_tight(rules: list[PropRule]) -> bool:
    """Is the program tight, so that every model of its completion is stable?

    True when no body has an implication outside every negation and the
    positive dependency graph (an edge from a head to each body atom
    outside every negation) is acyclic: Fages' theorem, which Erdem and
    Lifschitz extend to nested bodies.  A negated subformula is true or
    false as a whole in the reduct, so what sits under it never matters;
    the reduct of a constraint that a candidate satisfies is always true,
    so only rules with a head are walked.
    """
    edges: list[tuple[PAtom, PAtom]] = []
    by_step = True  # every edge runs to an earlier step: acyclic at once
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
                return False
            elif cls is PAtom:
                edges.append((r.head, g))
                by_step = by_step and g.step < r.head.step
    if by_step:
        return True
    # Kahn's algorithm: the graph is acyclic when every node gets removed
    succ: dict[PAtom, list[PAtom]] = {}
    indegree: dict[PAtom, int] = {}
    for head, body in edges:
        succ.setdefault(head, []).append(body)
        indegree.setdefault(head, 0)
        indegree[body] = indegree.get(body, 0) + 1
    ready = [a for a, d in indegree.items() if not d]
    removed = 0
    while ready:
        removed += 1
        for a in succ.get(ready.pop(), ()):
            indegree[a] -= 1
            if not indegree[a]:
                ready.append(a)
    return removed == len(indegree)


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_models(
    rules: list[PropRule],
    groups: list[TimedConst] | None,
    config: SolveConfig,
    stats: Stats,
    extra_atoms: list[PAtom] | None = None,
):
    """Yields stable models.

    groups gives the atoms of the one-value-per-constant structure in
    step order; without it the atoms are those the rules and extra_atoms
    mention (arbitrary atomic-head programs, e.g. read from dumps).  Each
    total assignment of the search is a candidate; it is blocked after
    its check, so every candidate is met once.  The stability check runs
    only when the program is not known to be tight.
    """
    builder = CnfBuilder()
    atom_universe: list[PAtom] = []
    if groups is not None:
        for tc in groups:
            atom_universe.extend(tc.values)
    else:
        seen = dict()
        for r in rules:
            if r.head is not None:
                seen[r.head] = True
            for a in formula_leaves(r.body):
                seen[a] = True
        for a in extra_atoms or []:
            seen[a] = True
        atom_universe = sorted(seen, key=lambda a: (a.step, a.const, a.value))
    for a in atom_universe:
        builder.atom_var(a)
    for r in rules:
        builder.add_rule(r)
    builder.add_support_clauses(rules, atom_universe)
    # every atom has a support clause only when the rules add no atom
    check = not (len(builder.var_of) == len(atom_universe) and is_tight(rules))

    solver = Dpll(builder.nvars, builder.clauses, stats)
    if config.seed:
        rng = random.Random(config.seed)
        solver.phase = [rng.choice((-1, 1)) for _ in solver.phase]
    atoms = list(builder.var_of.items())
    val = solver.val
    yielded = 0
    while solver.solve():
        model = frozenset(a for a, v in atoms if val[v] == 1)
        stats.models_checked += 1
        if config.max_checked and stats.models_checked > config.max_checked:
            raise ResourceLimit(
                f"models-checked cap exceeded ({config.max_checked})"
            )
        if not check or is_stable_model(rules, model, stats):
            yield model
            yielded += 1
            if config.max_solutions and yielded >= config.max_solutions:
                return
        if not solver.block([-v if val[v] == 1 else v for _, v in atoms]):
            return


# ---------------------------------------------------------------------------
# Drivers

def solve_horizons(inc: IncrementalProgram, config: SolveConfig, stats: Stats):
    """Yields (k, models) for each horizon k in the query's step range.

    Each step's rules are instantiated once and kept for every later
    horizon; the query rules for horizon k are added for that horizon
    only.  The caller decides when to stop.
    """
    if inc.max_step is None:
        raise UnboundedRange(
            "no upper step bound; set maxstep explicitly", NO_SPAN
        )
    persistent = list(inc.base)
    stats.grounded_rules += len(persistent)
    grounded_to = 0
    for k in range(inc.min_step, inc.max_step + 1):
        while grounded_to < k:
            grounded_to += 1
            step_rules = inc.step_rules(grounded_to)
            persistent.extend(step_rules)
            stats.grounded_rules += len(step_rules)
        stats.steps_grounded += 1
        volatile = inc.query_rules_at(k)
        stats.grounded_rules += len(volatile)
        yield k, list(
            enumerate_models(persistent + volatile, inc.timed_consts(k), config, stats)
        )


def solve_incremental(inc: IncrementalProgram, config: SolveConfig) -> SolveResult:
    """The first horizon in the query's step range that has models."""
    stats = Stats()
    for k, models in solve_horizons(inc, config, stats):
        if models:
            return SolveResult(k, models, stats)
    return SolveResult(None, [], stats)
