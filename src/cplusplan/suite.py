"""Bundled planning domains with independent oracles.

Each oracle codes its domain's transition system by hand: states,
executability, and effects are written straight from the same reading of
the laws, without touching the translation pipeline.  Breadth-first
search over that relation gives an independent minimum plan length, and
replay validates solver plans edge by edge against it.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

from . import mvpf
from .ground import GroundLawSet, ground_description
from .mvpf import Record
from .parser import parse_files
from .plans import PlanStep, PlanView
from .solve import SolveConfig, SolveResult, solve_incremental
from .translate import horizon_theory, incremental_program

EXAMPLES_DIR = Path(__file__).parent / "examples"
EXPECTED_DIR = EXAMPLES_DIR / "expected"

STATE_LIMIT = 10**6


class StateSpaceTooLarge(Exception):
    """The oracle refused to enumerate more states than the cap."""


class ExampleCase(Record):
    name: str
    query: str
    oracle: str  # "bfs-transition-system" or "exhaustive-stable-models"
    expected_found_step: int | None
    stress: bool = False

    @property
    def description_file(self) -> Path:
        return EXAMPLES_DIR / self.name


CASES: tuple[ExampleCase, ...] = (
    ExampleCase("bw-pair", "tower", "exhaustive-stable-models", 1),
    ExampleCase("bw-test", "simple", "bfs-transition-system", 2),
    ExampleCase("bw-test", "impossible", "bfs-transition-system", None),
    ExampleCase("hanoi", "transfer", "bfs-transition-system", 7),
    ExampleCase("ferryman", "cross", "bfs-transition-system", 7),
    ExampleCase("hanoi-stress", "transfer", "bfs-transition-system", 63, stress=True),
    ExampleCase("ferryman-stress", "cross", "bfs-transition-system", 9, stress=True),
)


def default_cases() -> list[ExampleCase]:
    return [c for c in CASES if not c.stress]


def load_example(name: str) -> GroundLawSet:
    return ground_description(parse_files([str(EXAMPLES_DIR / name)]))


def run_case(
    case: ExampleCase, config: SolveConfig | None = None
) -> tuple[GroundLawSet, SolveResult]:
    gls = load_example(case.name)
    query = gls.queries[case.query]
    result = solve_incremental(
        incremental_program(gls, query), config or SolveConfig(max_solutions=1)
    )
    return gls, result


# ---------------------------------------------------------------------------
# View adapters shared by all oracles

def view_fluents(step: PlanStep) -> dict[str, str]:
    return {a.const: a.value for a in step.fluents}

def view_actions(step: PlanStep) -> set[str]:
    """True boolean actions by name, every other action as `name=value`."""
    return {
        a.const if a.boolean else f"{a.const}={a.value}"
        for a in step.actions
        if a.truth or not a.boolean
    }


# ---------------------------------------------------------------------------
# Blocks world

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


# ---------------------------------------------------------------------------
# Towers puzzle

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


# ---------------------------------------------------------------------------
# River crossing

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


# ---------------------------------------------------------------------------
# Oracle registry, BFS, and plan replay

def oracle_for(case: ExampleCase):
    key = (case.name, case.query)
    if key == ("bw-test", "simple"):
        return BwOracle(
            ("a", "b", "c", "d"),
            {"a": "b", "b": "table", "c": "d", "d": "table"},
            [("b", "a"), ("d", "c"), ("a", "table"), ("c", "table")],
        )
    if key == ("bw-test", "impossible"):
        return BwOracle(
            ("a", "b", "c", "d"), None, [("a", "table"), ("a", "b")]
        )
    if key == ("bw-pair", "tower"):
        return BwOracle(
            ("a", "b"), {"a": "table", "b": "table"}, [("a", "b")]
        )
    if key == ("hanoi", "transfer"):
        return HanoiOracle(3)
    if key == ("hanoi-stress", "transfer"):
        return HanoiOracle(6)
    if key == ("ferryman", "cross"):
        return FerrymanOracle(
            ("wolf", "sheep", "cabbage"),
            1,
            (("wolf", "sheep"), ("sheep", "cabbage")),
        )
    if key == ("ferryman-stress", "cross"):
        return HeadcountOracle(10, 4)
    raise KeyError(key)


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
        models = mvpf.enumerate_stable(theory)
        if models:
            return k, len(models)
    return None, 0


def replay_plan(oracle, view: PlanView) -> bool:
    """Walks the plan through the explicit relation, edge by edge."""
    state = oracle.state_of(view_fluents(view.steps[0]))
    for i in range(view.horizon):
        acts = oracle.actions_of(view_actions(view.steps[i]))
        nxt = oracle.step(state, acts)
        if nxt is None:
            return False
        if nxt != oracle.state_of(view_fluents(view.steps[i + 1])):
            return False
        state = nxt
    return oracle.is_goal(state)
