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
    # fluents and actions by name, and one Assignment per (constant,
    # value), once per call
    by_name = sorted(symbols.order, key=lambda gc: gc.name)
    fluents = [gc for gc in by_name if gc.cid not in actions]
    acts = [gc for gc in by_name if gc.cid in actions]
    made: dict[tuple[int, int], Assignment] = {}

    def row(consts, i: int) -> tuple[Assignment, ...]:
        out = []
        for gc in consts:
            vids = by_key.get((i, gc.cid))
            if vids is None or len(vids) != 1:
                raise _first_fault(by_key, symbols.order, actions, i, horizon)
            key = (gc.cid, vids[0])
            a = made.get(key)
            if a is None:
                boolean = set(gc.dom) == truth_values
                a = made[key] = Assignment(
                    gc.name, symbols.value_label(vids[0]), boolean,
                    boolean and vids[0] == true_vid)
            out.append(a)
        return tuple(out)

    steps = tuple(
        PlanStep(i, row(fluents, i), row(acts, i) if i < horizon else ())
        for i in range(horizon + 1)
    )
    return PlanView(label, horizon, steps)


def _first_fault(by_key, order, actions, i: int, horizon: int) -> NonFunctionalModel:
    """The error for step i's first constant, in symbol order, that has
    other than one value."""
    counts = (
        (gc, len(by_key.get((i, gc.cid), ())))
        for gc in order
        if i < horizon or gc.cid not in actions
    )
    gc, n = next((gc, n) for gc, n in counts if n != 1)
    return NonFunctionalModel(gc.name, i, n)


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
