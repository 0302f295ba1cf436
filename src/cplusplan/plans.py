"""Turns stable models of the timed encoding back into readable plans.

A model assigns one value to every timed constant.  The view groups those
assignments by step, splits fluents from actions, and renders them in a
fixed order so the same model always produces the same bytes.

What every plan over one symbol table shares is its ``PlanLayout``,
made at the first plan and kept by the table, which drops it when a
constant or a value is added: the fluents and the actions sorted by
name, the one ``Assignment`` of each (constant, value), and each
(constant, value)'s rank in name order.  Its keys are ints: with
``stride`` above every id, (constant, value) is ``const * stride +
value`` and a timed constant is ``step * stride + const``.  A view
places a model's atoms in one dict pass and reads each step's fluent and
action rows with one ``itemgetter`` each, made once per horizon.  Only a
model that this refuses, for a timed constant with no value or two, is
counted step by step to name the fault.
"""

from __future__ import annotations

from operator import itemgetter

from .ground import GroundLawSet, SymbolTable
from .mvpf import Record
from .translate import PAtom


class NonFunctionalModel(Exception):
    """A constant had zero or several values at some step."""

    def __init__(self, const: str, step: int, count: int):
        self.const = const
        self.step = step
        self.count = count
        super().__init__(f"'{const}' has {count} values at step {step}")


class Assignment(Record):
    const: str
    value: str
    boolean: bool
    truth: bool


class PlanStep(Record):
    index: int
    fluents: tuple[Assignment, ...]
    actions: tuple[Assignment, ...]


class PlanView(Record):
    label: str
    horizon: int
    steps: tuple[PlanStep, ...]


class PlanLayout:
    """What every plan over one symbol table shares (see the module
    docstring); built by ``plan_layout``."""

    def __init__(self, symbols: SymbolTable):
        # one id counter serves values and constants, so every id is
        # below their total count
        self.stride = s = len(symbols.values) + len(symbols.by_id)
        true_vid = symbols.vid_of(True)
        truth_values = {symbols.vid_of(False), true_vid}
        by_name = sorted(symbols.order, key=lambda gc: gc.name)
        self.fluents = [gc.cid for gc in by_name if gc.kind != "action"]
        self.actions = [gc.cid for gc in by_name if gc.kind == "action"]
        self.cells: dict[int, Assignment] = {}
        for gc in symbols.order:
            boolean = set(gc.dom) == truth_values
            for vid in gc.dom:
                self.cells[gc.cid * s + vid] = Assignment(
                    gc.name, symbols.value_label(vid), boolean,
                    boolean and vid == true_vid)
        ranked = sorted(self.cells.items(), key=lambda kv: (kv[1].const, kv[1].value))
        self.rank = {key: r for r, (key, _) in enumerate(ranked)}
        self.texts = [f"{a.const}={a.value}" for _, a in ranked]
        self._rows: dict[int, list] = {}

    def rows(self, horizon: int) -> list:
        """Per step, the getters of its fluent row and of its action row
        from a placed model; made once per horizon."""
        rows = self._rows.get(horizon)
        if rows is None:
            s = self.stride
            rows = self._rows[horizon] = [
                (_getter([i * s + c for c in self.fluents]),
                 _getter([i * s + c for c in self.actions] if i < horizon else []))
                for i in range(horizon + 1)
            ]
        return rows


def _getter(keys: list[int]):
    """The function that takes a dict to the tuple of its values at keys."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        get = itemgetter(keys[0])
        return lambda d: (get(d),)
    return lambda d: ()


def plan_layout(symbols: SymbolTable) -> PlanLayout:
    """The table's layout, made at the first plan over it."""
    if symbols.plan_layout is None:
        symbols.plan_layout = PlanLayout(symbols)
    return symbols.plan_layout


def to_plan_view(
    model: frozenset[PAtom], gls: GroundLawSet, horizon: int, label: str
) -> PlanView:
    layout = plan_layout(gls.symbols)
    s, cells = layout.stride, layout.cells
    try:
        at = {a.step * s + a.const: cells[a.const * s + a.value] for a in model}
    except KeyError:  # a value outside its constant's domain
        at = None
    if at is None or len(at) != len(model):  # ... or a timed constant met twice
        at = _functional(model, gls.symbols, layout, horizon)
    try:
        steps = tuple(
            PlanStep._make((i, fluents(at), actions(at)))
            for i, (fluents, actions) in enumerate(layout.rows(horizon))
        )
    except KeyError:  # a timed constant with no value
        _functional(model, gls.symbols, layout, horizon)
        raise
    return PlanView._make((label, horizon, steps))


def _functional(model, symbols: SymbolTable, layout: PlanLayout, horizon: int) -> dict:
    """The placed model, if each step's constants have one value each.

    Otherwise the error for the first step, counting up, that has a
    constant with none or several, naming the first such constant in
    symbol order.  A value outside its constant's domain counts as none.
    """
    s, cells = layout.stride, layout.cells
    found: dict[int, list[Assignment]] = {}
    for a in model:
        cell = cells.get(a.const * s + a.value)
        if cell is not None:
            found.setdefault(a.step * s + a.const, []).append(cell)
    for i in range(horizon + 1):
        for gc in symbols.order:
            if i < horizon or gc.kind != "action":
                n = len(found.get(i * s + gc.cid, ()))
                if n != 1:
                    raise NonFunctionalModel(gc.name, i, n)
    return {key: got[0] for key, got in found.items() if len(got) == 1}


def _atom_text(a: Assignment) -> str:
    if a.boolean:
        return a.const if a.truth else "-" + a.const
    return f"{a.const}={a.value}"


def render_plan_view(view: PlanView, hide_false: bool = False) -> str:
    """With the default every assignment in the view is printed."""
    lines = []
    for step in view.steps:
        shown = [
            _atom_text(a)
            for a in step.fluents
            if not (hide_false and a.boolean and not a.truth)
        ]
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
    layout = plan_layout(gls.symbols)
    s, rank, texts = layout.stride, layout.rank, layout.texts
    n = len(texts)
    # step * n + rank orders by step, then by constant name and value
    keys = sorted([a.step * n + rank[a.const * s + a.value] for a in model])
    return " ".join([f"{k // n}:{texts[k % n]}" for k in keys])
