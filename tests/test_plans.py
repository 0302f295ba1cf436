"""Plan views: grouping, ordering, and deterministic rendering."""

import dataclasses

import pytest

from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.plans import (
    NonFunctionalModel,
    model_atom_names,
    render_plan_view,
    to_plan_view,
)
from cplusplan.solve import SolveConfig, solve_incremental
from cplusplan.translate import PAtom, incremental_program

BW = """
:- sorts location >> block.
:- objects a, b :: block; table :: location.
:- constants
  loc(block) :: inertialFluent(location);
  move(block, location) :: exogenousAction.
:- variables B, B1 :: block; L :: location.
constraint B \\= B1 & loc(B) = loc(B1) ->> loc(B) = table.
move(B, L) causes loc(B) = L.
nonexecutable move(B, L) if loc(B1) = B.
nonexecutable move(B, L) if loc(B1) = L & L \\= table.
:- query label :: tower; maxstep :: 0..4;
   0: loc(a) = table, loc(b) = table; maxstep: loc(a) = b.
"""


@pytest.fixture(scope="module")
def solved():
    """The plan at step 1 that executes exactly one move.

    Step 1 has other plans too (a no-op move may ride along), and which
    comes first depends on the search, so all of them are enumerated.
    """
    gls = ground_description(parse_text(BW, "<t>"))
    res = solve_incremental(
        incremental_program(gls, gls.queries["tower"]), SolveConfig(max_solutions=0)
    )
    assert res.found_step == 1
    actions = set(gls.action_ids())
    true = gls.symbols.vid_of(True)
    one_move = [
        m for m in res.models
        if sum(a.const in actions and a.value == true for a in m) == 1
    ]
    assert one_move
    return gls, dataclasses.replace(res, models=one_move)


def test_view_shape(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    assert view.label == "tower"
    assert view.horizon == 1
    assert len(view.steps) == 2
    # two fluent constants at every step, six move atoms before the last
    assert [a.const for a in view.steps[0].fluents] == ["loc(a)", "loc(b)"]
    assert len(view.steps[0].actions) == 6
    assert view.steps[1].actions == ()


def test_fluents_sorted_then_actions(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    for step in view.steps:
        names = [a.const for a in step.fluents]
        assert names == sorted(names)
        names = [a.const for a in step.actions]
        assert names == sorted(names)


def test_default_render_prints_everything(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    text = render_plan_view(view)
    # every timed constant appears: 2 fluents x 2 steps + 6 actions
    assert text.count("loc(") == 4
    assert text.count("move(") == 6
    assert text.startswith("0:  loc(a)=table  loc(b)=table\n")
    assert "ACTIONS:  " in text
    assert text.endswith("\n")


def test_boolean_atoms_render_bare(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    text = render_plan_view(view)
    assert "move(a,b)" in text
    assert "=true" not in text and "=false" not in text
    # exactly one move is executed, the other five show negated
    actions_line = [l for l in text.splitlines() if l.startswith("ACTIONS")][0]
    assert actions_line.count("-move(") == 5


def test_hide_false_drops_false_booleans(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    text = render_plan_view(view, hide_false=True)
    assert "-move(" not in text
    assert text.count("move(") == 1
    assert "loc(a)=table" in text  # non-booleans stay


def test_hide_inertial_drops_unchanged_fluents(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    text = render_plan_view(view, hide_inertial=True)
    lines = text.splitlines()
    assert lines[0] == "0:  loc(a)=table  loc(b)=table"
    # only loc(a) changes between steps 0 and 1
    step1 = [l for l in lines if l.startswith("1:")][0]
    assert step1 == "1:  loc(a)=b"


def test_render_is_deterministic(solved):
    gls, res = solved
    view = to_plan_view(res.models[0], gls, res.found_step, "tower")
    assert render_plan_view(view) == render_plan_view(view)
    assert render_plan_view(view, hide_false=True) == render_plan_view(
        view, hide_false=True
    )


def test_non_functional_model_missing_value(solved):
    gls, res = solved
    cid = gls.symbols.order[0].cid
    broken = frozenset(a for a in res.models[0] if not (a.step == 0 and a.const == cid))
    with pytest.raises(NonFunctionalModel) as e:
        to_plan_view(broken, gls, res.found_step, "tower")
    assert e.value.count == 0


def test_non_functional_model_extra_value(solved):
    gls, res = solved
    gc = gls.symbols.order[0]
    both = frozenset(
        res.models[0] | {PAtom(0, gc.cid, gc.dom[0]), PAtom(0, gc.cid, gc.dom[1])}
    )
    with pytest.raises(NonFunctionalModel):
        to_plan_view(both, gls, res.found_step, "tower")


def test_model_atom_names_sorted_line(solved):
    gls, res = solved
    line = model_atom_names(res.models[0], gls)
    parts = line.split(" ")
    assert parts == sorted(parts, key=lambda p: (int(p.split(":")[0]), p))
    assert all(":" in p and "=" in p for p in parts)
