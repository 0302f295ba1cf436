"""Model search for timed rule programs.

The search is classical DPLL over a Tseitin encoding of the rules, with
two program-level additions:

* support clauses: every stable model of a program whose rules all have
  atomic (or false) heads is supported, so each atom may be constrained
  to imply the disjunction of its rule bodies.  This is pruning, not the
  semantics; it never removes a stable model.
* a stability check on every total candidate: the candidate must be the
  unique minimal model of the program's reduct.  The check runs a small
  independent SAT search asking for a proper sub-model of the reduct.

Both are needed: the clauses make the search practical, the check keeps
it exact for non-tight programs.

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
        return peval(f.left, model) and peval(f.right, model)
    if isinstance(f, mvpf.Or):
        return peval(f.left, model) or peval(f.right, model)
    if isinstance(f, mvpf.Impl):
        return not peval(f.left, model) or peval(f.right, model)
    return f in model  # anything else is an atom


def preduct(f, model: frozenset):
    """Replace every subformula the model falsifies with false, top-down."""
    if not peval(f, model):
        return mvpf.BOT
    if isinstance(f, mvpf.Neg):
        return mvpf.Neg(preduct(f.sub, model))
    if isinstance(f, mvpf.And):
        return mvpf.And(preduct(f.left, model), preduct(f.right, model))
    if isinstance(f, mvpf.Or):
        return mvpf.Or(preduct(f.left, model), preduct(f.right, model))
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
        if isinstance(f, mvpf.And):
            ops = [self.lit(g) for g in _flatten(f, mvpf.And)]
            g = self.new_var()
            for l in ops:
                self.clauses.append([-g, l])
            self.clauses.append([g] + [-l for l in ops])
        elif isinstance(f, mvpf.Or):
            ops = [self.lit(g) for g in _flatten(f, mvpf.Or)]
            g = self.new_var()
            for l in ops:
                self.clauses.append([g, -l])
            self.clauses.append([-g] + ops)
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


def _flatten(f, cls):
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# DPLL with watched literals

_UNSET = 0


class Dpll:
    def __init__(self, nvars: int, clauses: list[list[int]], stats: Stats):
        self.stats = stats
        self.assign = [0] * (nvars + 1)  # 0 unset, 1 true, -1 false
        self.watches: dict[int, list[int]] = {}
        self.clauses = clauses
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        for ci, cl in enumerate(clauses):
            if not cl:
                self.ok = False
                return
            if len(cl) == 1:
                if not self.enqueue(cl[0]):
                    self.ok = False
                    return
            else:
                self.watches.setdefault(cl[0], []).append(ci)
                self.watches.setdefault(cl[1], []).append(ci)

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def enqueue(self, lit: int) -> bool:
        v = self.value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    def propagate(self) -> bool:
        """Exhausts the queue; False on conflict."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            falsified = -lit
            ws = self.watches.get(falsified)
            if not ws:
                continue
            kept: list[int] = []
            i = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                cl = self.clauses[ci]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if self.value(first) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches.setdefault(cl[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if not self.enqueue(first):
                    kept.extend(ws[i:])
                    self.watches[falsified] = kept
                    return False
            self.watches[falsified] = kept
        return True

    def push_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def backtrack(self, level: int) -> None:
        if level >= len(self.trail_lim):
            return
        limit = self.trail_lim[level]
        for lit in reversed(self.trail[limit:]):
            self.assign[abs(lit)] = 0
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)


def _plain_sat(nvars: int, clauses: list[list[int]], stats: Stats) -> bool:
    """Satisfiability only, first-var branching.  Used by the stability check."""
    solver = Dpll(nvars, clauses, stats)
    if not solver.ok or not solver.propagate():
        return False
    decisions: list[tuple[int, bool]] = []
    while True:
        branch = 0
        for v in range(2, nvars + 1):
            if solver.assign[v] == 0:
                branch = v
                break
        if branch == 0:
            return True
        solver.push_level()
        solver.enqueue(branch)
        decisions.append((branch, False))
        while not solver.propagate():
            while decisions and decisions[-1][1]:
                solver.backtrack(len(decisions) - 1)
                decisions.pop()
            if not decisions:
                return False
            var, _ = decisions[-1]
            solver.backtrack(len(decisions) - 1)
            decisions[-1] = (var, True)
            solver.push_level()
            solver.enqueue(-var)


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
    return not _plain_sat(builder.nvars, builder.clauses, stats)


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_models(
    rules: list[PropRule],
    groups: list[TimedConst] | None,
    config: SolveConfig,
    stats: Stats,
    extra_atoms: list[PAtom] | None = None,
    support: bool = True,
):
    """Yields stable models.  groups gives the one-value-per-constant
    structure used for branching; without it every atom is branched on
    both ways (arbitrary atomic-head programs, e.g. read from dumps)."""
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
    if support:
        builder.add_support_clauses(rules, atom_universe)

    solver = Dpll(builder.nvars, builder.clauses, stats)
    if not solver.ok or not solver.propagate():
        return

    rng = random.Random(config.seed)

    if groups is not None:
        group_vars = [
            (tc.step, tc.const, [builder.var_of[a] for a in tc.values])
            for tc in groups
        ]
    else:
        group_vars = [
            (a.step, a.const, [builder.var_of[a]]) for a in atom_universe
        ]

    def pick():
        best = None
        best_key = None
        for step, cid, vs in group_vars:
            if len(vs) == 1:
                # plain atom: undecided while unassigned
                if solver.assign[vs[0]] != 0:
                    continue
                alts = [vs[0], -vs[0]]
            else:
                if any(solver.value(v) == 1 for v in vs):
                    continue
                alts = [v for v in vs if solver.value(v) == 0]
            key = (len(alts), step, cid)
            if best_key is None or key < best_key:
                best, best_key = alts, key
        return best

    def extract() -> frozenset[PAtom]:
        return frozenset(a for a, v in builder.var_of.items() if solver.assign[v] == 1)

    decisions: list[list] = []  # [alternatives, index]

    def advance() -> bool:
        while decisions:
            alts, idx = decisions[-1]
            solver.backtrack(len(decisions) - 1)
            idx += 1
            while idx < len(alts) and solver.value(alts[idx]) == -1:
                idx += 1
            if idx == len(alts):
                decisions.pop()
                continue
            decisions[-1][1] = idx
            solver.push_level()
            solver.enqueue(alts[idx])
            if solver.propagate():
                return True
        return False

    yielded = 0
    while True:
        alts = pick()
        if alts is None:
            model = extract()
            stats.models_checked += 1
            if config.max_checked and stats.models_checked > config.max_checked:
                raise ResourceLimit(
                    f"models-checked cap exceeded ({config.max_checked})"
                )
            if is_stable_model(rules, model, stats):
                yield model
                yielded += 1
                if config.max_solutions and yielded >= config.max_solutions:
                    return
            if not advance():
                return
            continue
        if not alts:
            # every value currently false: dead branch
            if not advance():
                return
            continue
        if config.seed:
            alts = list(alts)
            rng.shuffle(alts)
        decisions.append([alts, 0])
        solver.push_level()
        solver.enqueue(alts[0])
        if not solver.propagate():
            if not advance():
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
