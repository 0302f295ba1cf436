"""Independent references and the correctness gate of the benchmark.

The workload process only times the pipeline and hands back what a user
would see: found steps, rendered plan text, exit codes and stage dumps.
This module decides whether those answers are right, from routes that do
not run the solver under test:

* ``ferryman-stress``: a breadth-first search over bank headcounts
  written here from the description's laws (load at most four, sheep
  never outnumbered on either bank).  ``suite.oracle_for`` and the
  committed ``expected/ferryman-stress.cross.json`` model a different
  problem and are not read.
* fixed-horizon enumeration: the number of length-k paths through
  ``suite.BwOracle``/``FerrymanOracle``; every plan must also replay
  under ``suite.replay_plan`` and no plan may repeat.
* CLI answers: ``examples/expected/*.json`` for the found step (or exit
  code 1 where no plan exists), plus a replay of the printed plan.

Everything here runs in the parent process, outside the timed and
memory-measured workload process, once per distinct answer.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, deque

from cplusplan import suite
from cplusplan.export import import_incremental
from cplusplan.plans import Assignment, PlanStep, PlanView
from cplusplan.solve import SolveConfig, solve_incremental

# ---------------------------------------------------------------------------
# Headcount model of ferryman-stress

HEADS = 10
LOAD = 4
START = ("l", HEADS, HEADS)  # boat side, wolves and sheep on the left bank


def _safe(wolves: int, sheep: int) -> bool:
    """Neither bank has sheep outnumbered by wolves, unless it has none."""
    left_bad = 0 < sheep < wolves
    right_bad = wolves < sheep < HEADS  # (HEADS - sheep) < (HEADS - wolves)
    return not (left_bad or right_bad)


def headcount_step(state: tuple, cross: bool, wride: int, sride: int) -> tuple | None:
    """Successor of a state under one action, or None when not executable."""
    boat, wolves, sheep = state
    if not cross:
        return state if wride == sride == 0 else None
    if wride < 0 or sride < 0 or wride + sride > LOAD:
        return None
    here_w, here_s = (wolves, sheep) if boat == "l" else (HEADS - wolves, HEADS - sheep)
    if wride > here_w or sride > here_s:
        return None
    sign = -1 if boat == "l" else 1
    nxt = ("r" if boat == "l" else "l", wolves + sign * wride, sheep + sign * sride)
    return nxt if _safe(nxt[1], nxt[2]) else None


def headcount_goal(state: tuple) -> bool:
    return state[1] == 0 and state[2] == 0


def headcount_bfs() -> tuple[int | None, int]:
    """(shortest plan length, number of states reachable from the start)."""
    depth = {START: 0}
    queue = deque([START])
    found = 0 if headcount_goal(START) else None
    while queue:
        s = queue.popleft()
        for w in range(LOAD + 1):
            for sh in range(LOAD + 1 - w):
                nxt = headcount_step(s, True, w, sh)
                if nxt is not None and nxt not in depth:
                    depth[nxt] = depth[s] + 1
                    if found is None and headcount_goal(nxt):
                        found = depth[nxt]
                    queue.append(nxt)
    return found, len(depth)


def replay_headcount(view: PlanView) -> bool:
    """Walks a ferryman-stress plan through the headcount model."""

    def state(step: PlanStep) -> tuple:
        f = {a.const: a.value for a in step.fluents}
        return (f["boat"], int(f["wolves"]), int(f["sheep"]))

    s = state(view.steps[0])
    if s != START:
        return False
    for i in range(view.horizon):
        acts = {a.const: a for a in view.steps[i].actions}
        cross = "cross" in acts and acts["cross"].truth
        nxt = headcount_step(s, cross, int(acts["wride"].value), int(acts["sride"].value))
        if nxt is None or nxt != state(view.steps[i + 1]):
            return False
        s = nxt
    return headcount_goal(s)


# ---------------------------------------------------------------------------
# Path counts over the suite oracles

def count_paths(oracle, k: int) -> int:
    """Trajectories of exactly k transitions from an initial to a goal state.

    Each (state, action set) sequence is one stable model of the timed
    program at horizon k, so this is the expected model count.
    """
    counts = Counter(oracle.initial_states())
    for _ in range(k):
        nxt: Counter = Counter()
        for s, c in counts.items():
            for acts in oracle.candidate_actions(s):
                s2 = oracle.step(s, acts)
                if s2 is not None:
                    nxt[s2] += c
        counts = nxt
    return sum(c for s, c in counts.items() if oracle.is_goal(s))


def suite_case(name: str, query: str) -> suite.ExampleCase:
    for case in suite.CASES:
        if (case.name, case.query) == (name, query):
            return case
    raise KeyError((name, query))


def expected_found_step(name: str, query: str) -> int | None:
    path = suite.EXPECTED_DIR / f"{name}.{query}.json"
    return json.loads(path.read_text())["found_step"]


# ---------------------------------------------------------------------------
# Rendered plan text back to a view

def parse_plan_text(text: str, label: str) -> PlanView:
    """Inverse of ``render_plan_view(view, hide_false=True)``.

    Boolean constants appear by name when true and are hidden when false;
    every other constant appears as ``name=value``.
    """
    steps: list[tuple[list, list]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        head, _, rest = line.partition(":")
        if head == "ACTIONS":
            steps[-1][1].extend(_assignments(rest))
        elif head.isdigit() and int(head) == len(steps):
            steps.append((_assignments(rest), []))
        else:
            raise ValueError(f"unexpected plan line {line!r}")
    if not steps:
        raise ValueError("empty plan")
    return PlanView(
        label,
        len(steps) - 1,
        tuple(PlanStep(i, tuple(f), tuple(a)) for i, (f, a) in enumerate(steps)),
    )


def _assignments(text: str) -> list[Assignment]:
    out = []
    for tok in text.split():
        const, eq, value = tok.partition("=")
        out.append(Assignment(const, value, False, False) if eq
                   else Assignment(tok, "true", True, True))
    return out


def split_cli_output(out: str) -> tuple[list[tuple[int, str]], str | None]:
    """(step, plan text) per printed solution, and the summary line."""
    plans: list[tuple[int, list[str]]] = []
    summary = None
    for line in out.splitlines():
        if summary is not None:
            break  # only the timing line follows the summary
        if line.startswith("SOLUTION "):
            step = int(line.rsplit("step ", 1)[1].rstrip(")"))
            plans.append((step, []))
        elif line.startswith("query '"):
            summary = line
        elif plans and line.strip():
            plans[-1][1].append(line)
    return [(s, "\n".join(ls) + "\n") for s, ls in plans], summary


def summary_found_step(summary: str | None) -> int | None:
    if summary is None or "found step " not in summary:
        return None
    return int(summary.split("found step ", 1)[1].split(",", 1)[0])


# ---------------------------------------------------------------------------
# The gate

def _replays(replay, view: PlanView) -> bool:
    """False also when the plan lacks a constant or names an unknown action."""
    try:
        return replay(view)
    except (KeyError, ValueError, IndexError, AttributeError, AssertionError):
        return False


def check_answer(spec: dict, answer: dict) -> str | None:
    """None when the answer is right, else the reason it is rejected."""
    if spec["kind"] == "api":
        return _check_api(spec, answer)
    return _check_cli(spec, answer)


def _check_api(spec: dict, answer: dict) -> str | None:
    name, query = spec["example"], spec["query"]
    plans = answer["plans"]
    if len(set(plans)) != len(plans):
        return "a plan is reported twice"
    try:
        views = [parse_plan_text(p, query) for p in plans]
    except (ValueError, KeyError) as e:
        return f"unreadable plan: {e}"
    if name == "ferryman-stress":
        want, _ = headcount_bfs()
        if answer["found_step"] != want:
            return f"found step {answer['found_step']}, headcount search says {want}"
        if len(plans) != spec["sol"]:
            return f"{len(plans)} plans, asked for {spec['sol']}"
        if not all(v.horizon == want and _replays(replay_headcount, v) for v in views):
            return "a plan does not replay under the headcount model"
        return None
    k = spec["hi"]
    if spec["lo"] != k or spec["sol"] != 0:
        raise ValueError(f"no reference for {spec}")
    oracle = suite.oracle_for(suite_case(name, query))
    want = count_paths(oracle, k)
    if answer["found_step"] != (k if want else None):
        return f"found step {answer['found_step']}, expected {k if want else None}"
    if len(plans) != want:
        return f"{len(plans)} models, {want} paths of length {k}"
    replay = functools.partial(suite.replay_plan, oracle)
    if not all(v.horizon == k and _replays(replay, v) for v in views):
        return "a plan does not replay under the suite oracle"
    return None


def _check_cli(spec: dict, answer: dict) -> str | None:
    name, query = spec["example"], spec["query"]
    want = expected_found_step(name, query)
    rc, out = answer["rc"], answer["out"]
    if spec["mode"] == "--to-grounder":
        if rc != 0:
            return f"exit code {rc} from --to-grounder"
        try:
            got = solve_incremental(import_incremental(out), SolveConfig()).found_step
        except Exception as e:  # any failure to read the dump rejects it
            return f"dump does not load: {e!r}"
        if got != want:
            return f"the dump solves at step {got}, expected {want}"
        return None
    plans, summary = split_cli_output(out)
    if want is None:
        if rc != 1 or plans or summary is None or "no models" not in summary:
            return f"expected no plan and exit code 1, got exit code {rc}"
        return None
    found = summary_found_step(summary)
    if rc != 0 or found != want:
        return f"exit code {rc}, found step {found}, expected {want}"
    if len(plans) != 1:
        return f"{len(plans)} plans printed, asked for 1"
    oracle = suite.oracle_for(suite_case(name, query))
    step, text = plans[0]
    try:
        view = parse_plan_text(text, query)
    except (ValueError, KeyError) as e:
        return f"unreadable plan: {e}"
    replay = functools.partial(suite.replay_plan, oracle)
    if step != want or view.horizon != want or not _replays(replay, view):
        return "the printed plan does not replay under the suite oracle"
    return None
