"""Turns stable models of the timed encoding back into readable plans.

A model assigns one value to every timed constant.  The view groups those
assignments by step, splits fluents from actions, and renders them in a
fixed order so the same model always produces the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ground import GroundLawSet
from .translate import PAtom


class NonFunctionalModel(Exception):
    """A constant had zero or several values at some step."""

    def __init__(self, const: str, step: int, count: int):
        self.const = const
        self.step = step
        self.count = count
        super().__init__(f"'{const}' has {count} values at step {step}")


@dataclass(frozen=True)
class Assignment:
    const: str
    value: str
    boolean: bool
    truth: bool


@dataclass(frozen=True)
class PlanStep:
    index: int
    fluents: tuple[Assignment, ...]
    actions: tuple[Assignment, ...]


@dataclass(frozen=True)
class PlanView:
    label: str
    horizon: int
    steps: tuple[PlanStep, ...]


def to_plan_view(
    model: frozenset[PAtom], gls: GroundLawSet, horizon: int, label: str
) -> PlanView:
    by_key: dict[tuple[int, int], list[int]] = {}
    for atom in model:
        by_key.setdefault((atom.step, atom.const), []).append(atom.value)

    symbols = gls.symbols
    actions = set(gls.action_ids())
    true_vid = symbols.vid_of(True)
    truth_values = {symbols.vid_of(False), true_vid}
    # (constant, is an action, is boolean), once per view
    consts = [(gc, gc.cid in actions, set(gc.dom) == truth_values) for gc in symbols.order]
    steps = []
    for i in range(horizon + 1):
        fl, ac = [], []
        for gc, is_action, boolean in consts:
            if is_action and i == horizon:
                continue
            vids = by_key.get((i, gc.cid), [])
            if len(vids) != 1:
                raise NonFunctionalModel(gc.name, i, len(vids))
            vid = vids[0]
            a = Assignment(gc.name, symbols.value_label(vid), boolean, boolean and vid == true_vid)
            (ac if is_action else fl).append(a)
        fl.sort(key=lambda a: a.const)
        ac.sort(key=lambda a: a.const)
        steps.append(PlanStep(i, tuple(fl), tuple(ac)))
    return PlanView(label, horizon, tuple(steps))


def _atom_text(a: Assignment) -> str:
    if a.boolean:
        return a.const if a.truth else "-" + a.const
    return f"{a.const}={a.value}"


def render_plan_view(
    view: PlanView, hide_false: bool = False, hide_inertial: bool = False
) -> str:
    """With the defaults every assignment in the view is printed."""
    lines = []
    prev: dict[str, str] = {}
    for step in view.steps:
        shown = []
        for a in step.fluents:
            if hide_false and a.boolean and not a.truth:
                continue
            if hide_inertial and step.index > 0 and prev.get(a.const) == a.value:
                continue
            shown.append(_atom_text(a))
        prev = {a.const: a.value for a in step.fluents}
        lines.append(f"{step.index}:" + ("  " + "  ".join(shown) if shown else ""))
        acts = [
            _atom_text(a)
            for a in step.actions
            if not (hide_false and a.boolean and not a.truth)
        ]
        if acts:
            lines.append("ACTIONS:  " + "  ".join(acts))
    return "\n".join(lines) + "\n"


def model_atom_names(model: frozenset[PAtom], gls: GroundLawSet) -> str:
    """One line of space-separated `step:const=value` atoms, sorted."""
    names = {gc.cid: gc.name for gc in gls.symbols.order}
    parts = sorted(
        (a.step, names[a.const], gls.symbols.value_label(a.value)) for a in model
    )
    return " ".join(f"{s}:{c}={v}" for s, c, v in parts)
