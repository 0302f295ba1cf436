"""The independent routes that the planner's answers are checked against.

Three routes, each with an evaluator of its own, so none shares its
checks with the code it checks:

* the stable model semantics of multi-valued theories (`satisfies`,
  `reduct`, `enumerate_stable`), fed by `horizon_theory`, the
  translation written as a timed multi-valued theory;
* `brute_force_models`, stable models of a propositional theory by
  trying every subset of its atoms, which shares the formula nodes and
  ``solve.peval``/``preduct`` with the solver's stability check and
  nothing with the search;
* the suite's oracles, each domain's transition system coded by hand
  from the same reading of its laws, with no pass through the pipeline.
  Breadth-first search over that relation gives an independent minimum
  plan length; ``suite.replay_plan`` checks plans edge by edge against it.

Everything in this module is deliberately exhaustive.  It is the ground
truth the rest of the package is checked against, so clarity wins over
speed and the search never samples: `enumerate_stable` walks the full
space of interpretations (guarded by a size cap).

No query runs any of it, so nothing on a query's import path imports
this module: a command line run or an API solve does not compile it.
The tests import it, and ``suite.oracle_for`` loads it on its first call.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Mapping

from . import mvpf
from .ground import GroundLawSet
from .mvpf import KIDS, And, Bot, MvAtom, MvFormula, Neg, Or, Record, Signature
from .solve import peval, preduct
from .suite import ExampleCase, load_example
from .syntax import NO_SPAN, QuerySpec
from .translate import (
    PAtom,
    SingletonDomain,
    TranslateError,
    law_body,
    map_leaves,
    query_steps,
    timed_consts_of,
)

ORACLE_CAP = 2 ** 24


class SignatureTooLarge(Exception):
    """The interpretation space exceeds the exhaustive-check cap."""


# ---------------------------------------------------------------------------
# The stable model semantics of multi-valued theories
#
# Stability is defined through the reduct: relative to an interpretation I,
# every maximal subformula that I does not satisfy is replaced by ``false``.
# I is a stable model of a theory when I is the *only* interpretation that
# satisfies the reduct of the theory relative to I.  `satisfies` and
# `reduct` keep loops of their own, on explicit stacks.

Interpretation = Mapping[int, int]


class MvTheory(Record):
    signature: Signature
    formulas: tuple[MvFormula, ...] = ()


def _holds(cls: type, truths: list[bool]) -> bool:
    """The truth of a connective of class cls over its parts' truths."""
    if cls is Neg:
        return not truths[0]
    if cls is And:
        return all(truths)
    if cls is Or:
        return any(truths)
    return not truths[0] or truths[1]


def _pending(f: MvFormula, todo: list) -> None:
    """Push connective f for the loops below: a (class, arity) marker,
    then its parts, the first on top."""
    parts = KIDS[f.__class__](f)
    todo.append((f.__class__, len(parts)))
    todo.extend(reversed(parts))


def satisfies(interp: Interpretation, f: MvFormula) -> bool:
    todo: list = [f]
    truths: list[bool] = []
    while todo:
        g = todo.pop()
        cls = g.__class__
        if cls is MvAtom:
            truths.append(interp[g.const] == g.value)
        elif cls is Bot:
            truths.append(False)
        elif cls is tuple:  # (connective, arity): its parts are done
            parts = truths[len(truths) - g[1]:]
            del truths[len(truths) - g[1]:]
            truths.append(_holds(g[0], parts))
        elif cls in KIDS:
            _pending(g, todo)
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return truths[0]


def satisfies_all(interp: Interpretation, fs: Iterable[MvFormula]) -> bool:
    return all(satisfies(interp, f) for f in fs)


def reduct(f: MvFormula, interp: Interpretation) -> MvFormula:
    """Replace every maximal subformula not satisfied by `interp` with false.

    The walk is top down: once a subformula is replaced, nothing below it
    is inspected.  Satisfied nodes are rebuilt verbatim (no folding), so
    the shape of the reduct mirrors the original formula.
    """
    todo: list = [f]
    done: list[MvFormula] = []  # reducts, BOT exactly for a false subformula
    while todo:
        g = todo.pop()
        cls = g.__class__
        if cls is MvAtom:
            done.append(g if interp[g.const] == g.value else mvpf.BOT)
        elif cls is Bot:
            done.append(mvpf.BOT)
        elif cls is tuple:  # (connective, arity): its parts are done
            c, k = g
            parts = done[len(done) - k:]
            del done[len(done) - k:]
            if _holds(c, [p is not mvpf.BOT for p in parts]):
                done.append(c(tuple(parts)) if c is And or c is Or else c(*parts))
            else:
                done.append(mvpf.BOT)
        elif cls in KIDS:
            _pending(g, todo)
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return done[0]


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


# ---------------------------------------------------------------------------
# The translation as a timed multi-valued theory

class TimedIndex:
    """Interns (step, constant) pairs as fresh multi-valued constants.

    next_id is the id the next new pair gets.  horizon_theory starts it
    above every value id so that, as in the symbol table, constant ids and
    value ids never collide.
    """

    def __init__(self) -> None:
        self._fwd: dict[tuple[int, int], int] = {}
        self._rev: dict[int, tuple[int, int]] = {}
        self._dom: dict[int, tuple[int, ...]] = {}
        self.next_id = 0

    def timed(self, step: int, const: int, dom: tuple[int, ...]) -> int:
        key = (step, const)
        if key not in self._fwd:
            tid = self.next_id
            self.next_id += 1
            self._fwd[key] = tid
            self._rev[tid] = key
            self._dom[tid] = dom
        return self._fwd[key]

    def decode(self, tid: int) -> tuple[int, int]:
        return self._rev[tid]

    def signature(self) -> Signature:
        consts = tuple(sorted(self._rev))
        return Signature(consts, {c: self._dom[c] for c in consts})


def horizon_theory(
    gls: GroundLawSet, m: int, query: QuerySpec | None = None
) -> tuple[MvTheory, TimedIndex]:
    """The translation as an MvTheory, for the exhaustive-semantics route.

    Identical rule structure to ``translate.to_prop``; the multi-valued
    signature does the job of to_prop's TimedConst groups.
    """
    if m < 0:
        raise TranslateError(f"horizon must be at least 0, got {m}", NO_SPAN)
    index = TimedIndex()
    doms = {gc.cid: gc.dom for gc in gls.symbols.order}
    index.next_id = 1 + max((v for dom in doms.values() for v in dom), default=-1)

    def timed_f(f, step: int):
        return map_leaves(
            f,
            lambda a: MvAtom(index.timed(step, a.const, doms[a.const]), a.value),
        )

    def timed_head(head, step: int):
        if head is None:
            return mvpf.BOT
        cid, vid = head
        return MvAtom(index.timed(step, cid, doms[cid]), vid)

    # intern in the same step-major order as the propositional route
    for tc in timed_consts_of(gls, m):
        index.timed(tc.step, tc.const, doms[tc.const])

    formulas: list = []
    simple = set(gls.simple_fluent_ids())
    for gc in gls.symbols.order:
        if gc.cid not in simple:
            continue
        for v in gc.dom:
            a = MvAtom(index.timed(0, gc.cid, gc.dom), v)
            formulas.append(mvpf.Impl(Neg(Neg(a)), a))
    for step in range(m + 1):
        for law in gls.static:
            formulas.append(
                mvpf.Impl(law_body(timed_f(law.cond, step)), timed_head(law.head, step))
            )
    for step in range(m):
        for law in gls.action_dynamic:
            formulas.append(
                mvpf.Impl(law_body(timed_f(law.cond, step)), timed_head(law.head, step))
            )
    for step in range(1, m + 1):
        for law in gls.fluent_dynamic:
            body = law_body(timed_f(law.cond, step), timed_f(law.after, step - 1))
            formulas.append(mvpf.Impl(body, timed_head(law.head, step)))
    if query is not None:
        for (_, f), step in zip(query.lines, query_steps(query, gls, m)):
            formulas.append(mvpf.Impl(Neg(timed_f(f, step)), mvpf.BOT))

    theory = MvTheory(index.signature(), tuple(formulas))
    return theory, index


def theory_to_prop(theory: MvTheory) -> tuple[list, list[PAtom]]:
    """Reduce an arbitrary multi-valued theory to propositional formulas.

    Every constant/value pair becomes an atom at step 0; uniqueness and
    existence constraints pin one value per constant.  Returns the formula
    list and the atom universe.  Domains of fewer than two values are
    rejected, as in ``translate.to_prop``.
    """
    sig = theory.signature
    atoms: list[PAtom] = []
    formulas: list = []
    for c in sig.constants:
        dom = sig.dom[c]
        if len(dom) < 2:
            raise SingletonDomain(
                f"constant {c} has a single-value domain; the propositional "
                "reduction needs at least two values per constant",
                NO_SPAN,
            )
        catoms = [PAtom(0, c, v) for v in dom]
        atoms.extend(catoms)
        for i in range(len(catoms)):
            for j in range(i + 1, len(catoms)):
                formulas.append(mvpf.Impl(And((catoms[i], catoms[j])), mvpf.BOT))
        formulas.append(mvpf.Impl(Neg(mvpf.disj(*catoms)), mvpf.BOT))
    for f in theory.formulas:
        formulas.append(map_leaves(f, lambda a: PAtom(0, a.const, a.value)))
    return formulas, atoms


def prop_model_to_interp(model: frozenset[PAtom]) -> dict[int, int]:
    return {a.const: a.value for a in model}


def interp_to_prop_model(interp, sig: Signature) -> frozenset[PAtom]:
    return frozenset(PAtom(0, c, interp[c]) for c in sig.constants)


def decode_prop_model(model: frozenset[PAtom]) -> dict[tuple[int, int], int]:
    return {(a.step, a.const): a.value for a in model}


def decode_mv_model(interp, index: TimedIndex) -> dict[tuple[int, int], int]:
    return {index.decode(tid): vid for tid, vid in interp.items()}


def model_key(traj: dict[tuple[int, int], int]) -> tuple:
    return tuple(sorted(traj.items()))


# ---------------------------------------------------------------------------
# Brute-force stable models

def brute_force_models(formulas: list, atoms: list[PAtom]) -> list[frozenset[PAtom]]:
    """Stable models by exhaustion: every subset, direct checks only.

    The atoms are numbered once, so the checks look ints up in sets of
    ints; an atom outside `atoms` becomes -1, which no model holds."""
    universe = list(dict.fromkeys(atoms))
    number = {a: i for i, a in enumerate(universe)}
    numbered = [map_leaves(f, lambda a: number.get(a, -1)) for f in formulas]
    out = []
    for bits in itertools.product((False, True), repeat=len(universe)):
        m = frozenset(i for i, b in enumerate(bits) if b)
        if all(peval(f, m) for f in numbered) and _minimal(numbered, m):
            out.append(frozenset(universe[i] for i in m))
    return out


def _minimal(formulas: list, model: frozenset) -> bool:
    reducts = [preduct(f, model) for f in formulas]
    members = sorted(model)
    for r in range(len(members)):
        for keep in itertools.combinations(members, r):
            sub = frozenset(keep)
            if all(peval(f, sub) for f in reducts):
                return False
    return True


# ---------------------------------------------------------------------------
# The suite's oracles: each domain's transition system by hand

STATE_LIMIT = 10**6


class StateSpaceTooLarge(Exception):
    """The oracle refused to enumerate more states than the cap."""


_MOVE = re.compile(r"move\((\w+),(\w+)\)")


def move_actions(names: set[str]) -> frozenset:
    """The (object, target) pairs of a step's move actions, for the
    blocks and towers oracles alike."""
    out = []
    for name in names:
        m = _MOVE.fullmatch(name)
        assert m, name
        out.append((m.group(1), m.group(2)))
    return frozenset(out)


class BwOracle:
    """Concurrent stacking: states are location tuples, one per block."""

    def __init__(self, blocks: tuple[str, ...], init: dict | None, goal: list):
        self.blocks = blocks
        self.locs = blocks + ("table",)
        self.init = init
        self.goal = goal

    def _legal(self, s: tuple) -> bool:
        for i, j in itertools.combinations(range(len(s)), 2):
            if s[i] == s[j] and s[i] != "table":
                return False
        return True

    def initial_states(self):
        for s in itertools.product(self.locs, repeat=len(self.blocks)):
            if not self._legal(s):
                continue
            if self.init is not None and any(
                s[self.blocks.index(b)] != l for b, l in self.init.items()
            ):
                continue
            yield s

    def is_goal(self, s: tuple) -> bool:
        return all(s[self.blocks.index(b)] == l for b, l in self.goal)

    def candidate_actions(self, s: tuple):
        options = [(None,) + self.locs] * len(self.blocks)
        for choice in itertools.product(*options):
            yield frozenset(
                (b, l) for b, l in zip(self.blocks, choice) if l is not None
            )

    def step(self, s: tuple, moves: frozenset) -> tuple | None:
        movers = {b for b, _ in moves}
        if len(movers) != len(moves):
            return None  # one block, two targets: effects clash
        targets = dict(moves)
        for b, l in moves:
            if any(x == b for x in s):
                return None  # mover is covered
            if l != "table" and l in s:
                return None  # target is covered
            if l in movers:
                return None  # target is itself in motion
        nxt = tuple(
            targets.get(b, s[i]) for i, b in enumerate(self.blocks)
        )
        return nxt if self._legal(nxt) else None

    def state_of(self, fluents: dict[str, str]) -> tuple:
        return tuple(fluents[f"loc({b})"] for b in self.blocks)

    actions_of = staticmethod(move_actions)


class HanoiOracle:
    """Serial moves; disk order on a peg is implied by disk size."""

    PEGS = ("p1", "p2", "p3")

    def __init__(self, ndisks: int):
        self.disks = tuple(str(d) for d in range(1, ndisks + 1))

    def initial_states(self):
        yield ("p1",) * len(self.disks)

    def is_goal(self, s: tuple) -> bool:
        return all(p == "p3" for p in s)

    def candidate_actions(self, s: tuple):
        yield frozenset()
        for d in self.disks:
            for p in self.PEGS:
                yield frozenset({(d, p)})

    def step(self, s: tuple, moves: frozenset) -> tuple | None:
        if not moves:
            return s
        if len({d for d, _ in moves}) != len(moves):
            return None  # same disk, two targets
        if len(moves) > 1:
            return None  # one disk at a time
        ((d, p),) = moves
        i = self.disks.index(d)
        if any(s[j] == s[i] for j in range(i)):
            return None  # a smaller disk covers it
        if any(s[j] == p for j in range(i)):
            return None  # a smaller disk tops the target
        return s[:i] + (p,) + s[i + 1 :]

    def state_of(self, fluents: dict[str, str]) -> tuple:
        return tuple(fluents[f"loc({d})"] for d in self.disks)

    actions_of = staticmethod(move_actions)


_CARRY = re.compile(r"carry\((\w+)\)")


class FerrymanOracle:
    """States pair the boat side with one side per item."""

    def __init__(
        self,
        items: tuple[str, ...],
        capacity: int,
        chain: tuple[tuple[str, str], ...] = (),
    ):
        self.items = items
        self.capacity = capacity
        self.chain = chain  # (eater, eaten) pairs needing the boat nearby

    def _safe(self, boat: str, pos: tuple) -> bool:
        at = dict(zip(self.items, pos))
        return all(
            not (at[a] == at[b] and at[b] != boat) for a, b in self.chain
        )

    def initial_states(self):
        yield ("l", ("l",) * len(self.items))

    def is_goal(self, s: tuple) -> bool:
        return all(p == "r" for p in s[1])

    def candidate_actions(self, s: tuple):
        yield frozenset()
        boat, pos = s
        aboard = [i for i, p in zip(self.items, pos) if p == boat]
        for k in range(self.capacity + 1):
            for chosen in itertools.combinations(aboard, k):
                yield frozenset({"cross", *chosen})

    def step(self, s: tuple, acts: frozenset) -> tuple | None:
        boat, pos = s
        carried = acts - {"cross"}
        if not acts:
            return s
        if "cross" not in acts:
            return None  # cargo rides the boat only
        if len(carried) > self.capacity:
            return None
        at = dict(zip(self.items, pos))
        if any(at[i] != boat for i in carried):
            return None  # item on the far bank
        flip = {"l": "r", "r": "l"}
        nboat = flip[boat]
        npos = tuple(
            flip[p] if i in carried else p for i, p in zip(self.items, pos)
        )
        if not self._safe(nboat, npos):
            return None
        return (nboat, npos)

    def state_of(self, fluents: dict[str, str]) -> tuple:
        return (
            fluents["boat"],
            tuple(fluents[f"pos({i})"] for i in self.items),
        )

    def actions_of(self, names: set[str]) -> frozenset:
        out = set()
        for name in names:
            if name == "cross":
                out.add("cross")
                continue
            m = _CARRY.fullmatch(name)
            assert m, name
            out.add(m.group(1))
        return frozenset(out)


class HeadcountOracle:
    """Wolves and sheep counted by head, as in ferryman-stress.

    States are (boat side, wolves, sheep) with the counts on the left
    bank; an action is (cross, wolves riding, sheep riding).
    """

    def __init__(self, heads: int, load: int):
        self.heads = heads
        self.load = load

    def _safe(self, wolves: int, sheep: int) -> bool:
        # sheep outnumbered but not absent, on the left or the right bank
        return not (0 < sheep < wolves or wolves < sheep < self.heads)

    def initial_states(self):
        yield ("l", self.heads, self.heads)

    def is_goal(self, s: tuple) -> bool:
        return s[1] == 0 and s[2] == 0

    def candidate_actions(self, s: tuple):
        yield (False, 0, 0)
        for w in range(self.load + 1):
            for sh in range(self.load + 1 - w):
                yield (True, w, sh)

    def step(self, s: tuple, act: tuple) -> tuple | None:
        boat, wolves, sheep = s
        cross, w, sh = act
        if not cross:
            return s if w == sh == 0 else None  # riders need a crossing
        if w + sh > self.load:
            return None
        if boat == "l":
            if w > wolves or sh > sheep:
                return None  # more riders than the bank holds
            nxt = ("r", wolves - w, sheep - sh)
        else:
            if w > self.heads - wolves or sh > self.heads - sheep:
                return None
            nxt = ("l", wolves + w, sheep + sh)
        return nxt if self._safe(nxt[1], nxt[2]) else None

    def state_of(self, fluents: dict[str, str]) -> tuple:
        return (fluents["boat"], int(fluents["wolves"]), int(fluents["sheep"]))

    def actions_of(self, names: set[str]) -> tuple:
        riders = {"wride": 0, "sride": 0}
        cross = False
        for name in names:
            if name == "cross":
                cross = True
                continue
            const, _, value = name.partition("=")
            assert const in riders, name
            riders[const] = int(value)
        return (cross, riders["wride"], riders["sride"])


def run_oracle_bfs(oracle, limit: int = STATE_LIMIT) -> int | None:
    frontier = list(oracle.initial_states())
    seen = set(frontier)
    if len(seen) > limit:
        raise StateSpaceTooLarge(f"over {limit} states")
    if any(oracle.is_goal(s) for s in frontier):
        return 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for s in frontier:
            for acts in oracle.candidate_actions(s):
                s2 = oracle.step(s, acts)
                if s2 is None or s2 in seen:
                    continue
                seen.add(s2)
                if len(seen) > limit:
                    raise StateSpaceTooLarge(f"over {limit} states")
                if oracle.is_goal(s2):
                    return depth
                nxt.append(s2)
        frontier = nxt
    return None


def run_oracle_exhaustive(case: ExampleCase) -> tuple[int | None, int]:
    """First step in the query range with a stable model, by brute force.

    Goes through the semantics directly (reduct over every interpretation
    of the timed signature), so it shares nothing with the solver route
    beyond the law set itself.
    """
    gls = load_example(case.name)
    query = gls.queries[case.query]
    assert query.max_step is not None, "exhaustive oracle needs a bound"
    for k in range(query.min_step, query.max_step + 1):
        theory, _ = horizon_theory(gls, k, query)
        models = enumerate_stable(theory)
        if models:
            return k, len(models)
    return None, 0
