"""Bundled planning domains: the case registry and the plan replay.

Each case names a shipped description, one of its queries, the oracle
that checks it and the step at which its shortest plan is found.
`run_case` solves a case through the API.  The oracles themselves, each
domain's transition system coded by hand, live in
:mod:`cplusplan.reference` with the other independent routes; a query
does not compile them, so `oracle_for` imports them on its first call.
`replay_plan` walks a solver plan through an oracle's relation, edge by
edge.
"""

from __future__ import annotations

from pathlib import Path

from .ground import GroundLawSet, ground_description
from .mvpf import Record
from .parser import parse_files
from .plans import PlanStep, PlanView
from .solve import SolveConfig, SolveResult, solve_incremental
from .translate import incremental_program

EXAMPLES_DIR = Path(__file__).parent / "examples"
EXPECTED_DIR = EXAMPLES_DIR / "expected"


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
# Oracle registry and plan replay

def oracle_for(case: ExampleCase):
    """The hand-written oracle of a case, from :mod:`cplusplan.reference`."""
    from .reference import BwOracle, FerrymanOracle, HanoiOracle, HeadcountOracle

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
