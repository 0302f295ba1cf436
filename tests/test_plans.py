"""Plan views: grouping, ordering, and deterministic rendering."""

import dataclasses
import gc
import hashlib
import weakref

import pytest

from cplusplan import suite
from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.plans import (
    NonFunctionalModel,
    model_atom_names,
    plan_layout,
    render_plan_view,
    to_plan_view,
)
from cplusplan.solve import SolveConfig, SolveResult, solve_incremental
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
    return gls, SolveResult(res.found_step, one_move, res.stats)


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


def test_first_faulty_step_counts_up_on_a_built_layout(solved):
    gls, res = solved
    model = res.models[0]
    to_plan_view(model, gls, res.found_step, "tower")  # the layout exists now
    assert gls.symbols.plan_layout is not None
    loc_a, loc_b = gls.symbols.order[:2]
    # loc(b) doubled at step 0, loc(a) missing at step 1: step 0 is named
    other = next(v for v in loc_b.dom if PAtom(0, loc_b.cid, v) not in model)
    broken = frozenset(
        {a for a in model if not (a.step == 1 and a.const == loc_a.cid)}
        | {PAtom(0, loc_b.cid, other)}
    )
    with pytest.raises(NonFunctionalModel) as e:
        to_plan_view(broken, gls, res.found_step, "tower")
    assert (e.value.const, e.value.step, e.value.count) == ("loc(b)", 0, 2)
    # both at step 0: the first in symbol order is named, missing or not
    broken = frozenset(
        {a for a in model if not (a.step == 0 and a.const == loc_a.cid)}
        | {PAtom(0, loc_b.cid, other)}
    )
    with pytest.raises(NonFunctionalModel) as e:
        to_plan_view(broken, gls, res.found_step, "tower")
    assert (e.value.const, e.value.step, e.value.count) == ("loc(a)", 0, 0)


def test_atoms_the_rows_do_not_read_are_ignored(solved):
    gls, res = solved
    model = res.models[0]
    view = to_plan_view(model, gls, res.found_step, "tower")
    move, loc = next(c for c in gls.symbols.order if c.kind == "action"), gls.symbols.order[0]
    # both values of an action at the last step, and a fluent past it
    extra = {PAtom(1, move.cid, v) for v in move.dom} | {PAtom(5, loc.cid, loc.dom[0])}
    assert to_plan_view(model | extra, gls, res.found_step, "tower") == view


def test_layout_is_dropped_when_the_table_grows():
    symbols = ground_description(parse_text(BW, "<t>")).symbols
    layout = plan_layout(symbols)
    assert symbols.plan_layout is layout
    symbols.intern_value(True)  # already interned: the layout stays
    assert symbols.plan_layout is layout
    symbols.intern_value("new value")
    assert symbols.plan_layout is None
    assert plan_layout(symbols) is not layout
    symbols.add_const("extra", (), "simple", (symbols.vid_of(True),))
    assert symbols.plan_layout is None
    assert "extra" in [a.const for a in plan_layout(symbols).cells.values()]


def test_a_dropped_law_set_is_freed_with_its_layout():
    gls = ground_description(parse_text(BW, "<t>"))
    res = solve_incremental(incremental_program(gls, gls.queries["tower"]), SolveConfig())
    to_plan_view(res.models[0], gls, res.found_step, "tower")
    model_atom_names(res.models[0], gls)
    assert gls.symbols.plan_layout is not None
    ref = weakref.ref(gls)
    layout = weakref.ref(gls.symbols.plan_layout)
    del gls, res
    gc.collect()
    assert ref() is None and layout() is None


# Every plan at enumerate-plans' fixed horizons, digested: the defaults,
# hide_false, then the model_atom_names lines.  Taken
# before the plan layout existed, when each view rebuilt its tables, and
# re-taken when enumeration moved from blocking clauses to flipped
# decisions, which changed the order of the same plans.
PLAN_DIGESTS = {
    ("bw-pair", "tower", 3): (23, "a610570446b08e61", "bafe2ee300661fa3",
                              "19bca0daf44aa82c"),
    ("bw-test", "simple", 3): (36, "38cd929510817487", "2dbc7d483ff7f3a9",
                               "36769b1e02dfb78d"),
    ("ferryman", "cross", 9): (90, "7faeec1defe397c3", "23caff13fb83c366",
                               "cbac1c1441418b55"),
}


@pytest.mark.parametrize("name, label, k", sorted(PLAN_DIGESTS))
def test_every_plan_renders_as_pinned(name, label, k):
    gls = suite.load_example(name)
    query = dataclasses.replace(gls.queries[label], min_step=k, max_step=k)
    res = solve_incremental(incremental_program(gls, query), SolveConfig(max_solutions=0))
    views = [to_plan_view(m, gls, k, label) for m in res.models]
    texts = [
        "".join(render_plan_view(v) for v in views),
        "".join(render_plan_view(v, hide_false=True) for v in views),
        "".join(model_atom_names(m, gls) + "\n" for m in res.models),
    ]
    digests = tuple(hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts)
    assert (len(res.models), *digests) == PLAN_DIGESTS[name, label, k]
