"""N-ary conjunction and disjunction: flat by construction, any width.

Chains are built flat, so every walker goes one level deep per chain
however long it is.  The wide descriptions here are generated; each was
past the interpreter's recursion limit when chains were binary trees.
"""

import io

from hypothesis import given, settings, strategies as st

from cplusplan import cli, export, mvpf
from cplusplan.ground import GroundLaw, GroundLawSet, ground_description
from cplusplan.parser import parse_text
from cplusplan.solve import CnfBuilder, SolveConfig, StepCode, peval, preduct, solve_incremental
from cplusplan.syntax import LawShape
from cplusplan.translate import PAtom, PropRule, formula_leaves, incremental_program, map_leaves


def spliced(f) -> bool:
    """No And or Or in f has under two parts or a part of its own class."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (mvpf.And, mvpf.Or)):
            if len(g.parts) < 2 or any(type(p) is type(g) for p in g.parts):
                return False
            stack.extend(g.parts)
        elif isinstance(g, mvpf.Neg):
            stack.append(g.sub)
        elif isinstance(g, mvpf.Impl):
            stack.extend((g.left, g.right))
    return True


def run(args):
    out = io.StringIO()
    rc = cli.main(args, out, io.StringIO(), io.StringIO())
    return rc, [l for l in out.getvalue().splitlines() if not l.startswith("timings:")]


# ---------------------------------------------------------------------------
# Flat construction

SMALL = ground_description(parse_text("""
:- sorts s.
:- objects 1, 2 :: s.
:- constants c, d :: simpleFluent(s).
"""))
LEAVES = [
    mvpf.MvAtom(gc.cid, v) for gc in SMALL.symbols.order for v in gc.dom
]
INTERPS = list(mvpf.interpretations(SMALL.signature))


def built():
    """Formulas from the folding constructors, true and false included."""
    leaves = st.sampled_from(LEAVES + [mvpf.TOP, mvpf.BOT])
    return st.recursive(leaves, lambda children: st.one_of(
        children.map(mvpf.neg),
        st.lists(children, min_size=1, max_size=4).map(lambda ps: mvpf.conj(*ps)),
        st.lists(children, min_size=1, max_size=4).map(lambda ps: mvpf.disj(*ps)),
        st.tuples(children, children).map(lambda t: mvpf.impl(*t)),
    ), max_leaves=16)


def nested():
    """Formulas with chains nested in any grouping, through the raw nodes."""
    return st.recursive(st.sampled_from(LEAVES), lambda children: st.one_of(
        children.map(mvpf.Neg),
        st.tuples(children, children).map(mvpf.And),
        st.tuples(children, children).map(mvpf.Or),
        st.tuples(children, children).map(lambda t: mvpf.Impl(*t)),
    ), max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(ps=st.lists(built(), min_size=1, max_size=4))
def test_constructors_splice_and_keep_the_meaning(ps):
    for f, meaning in ((mvpf.conj(*ps), all), (mvpf.disj(*ps), any)):
        assert spliced(f)
        for interp in INTERPS:
            assert mvpf.satisfies(interp, f) == meaning(mvpf.satisfies(interp, p) for p in ps)


def truth_table(f, gls):
    name = {gc.cid: gc.name for gc in gls.symbols.order}
    return sorted(
        (sorted((name[c], gls.symbols.value_label(v)) for c, v in interp.items()),
         mvpf.satisfies(interp, f))
        for interp in mvpf.interpretations(gls.signature)
    )


@settings(max_examples=200, deadline=None)
@given(f=nested())
def test_reader_splices_any_grouping(f):
    one_law = GroundLawSet(SMALL.symbols, [GroundLaw(LawShape.STATIC, None, f, None)],
                           SMALL.action_dynamic, SMALL.fluent_dynamic, SMALL.queries)
    gls = export.import_ground(export.export_ground(one_law))
    (law,) = gls.static
    assert spliced(law.cond)
    assert truth_table(law.cond, gls) == truth_table(f, SMALL)


# ---------------------------------------------------------------------------
# Wide formulas through every layer

def test_wide_disjunction_passes_every_walker():
    n = 5000
    gls = ground_description(parse_text(f"""
:- sorts s.
:- objects 1..{n} :: s.
:- constants c :: simpleFluent(s).
constraint c > 0.
"""))
    (law,) = gls.static
    wide = law.cond.sub
    assert isinstance(wide, mvpf.Or) and len(wide.parts) == n and spliced(wide)
    assert hash(wide) == hash(mvpf.Or(tuple(wide.parts)))

    cid = gls.symbols.order[0].cid
    vid = wide.parts[-1].value
    interp = {cid: vid}
    assert mvpf.satisfies(interp, wide)
    assert mvpf.reduct(wide, interp).parts[-1] == wide.parts[-1]

    timed = map_leaves(wide, lambda a: PAtom(0, a.const, a.value))
    assert len(list(formula_leaves(timed))) == n
    model = frozenset({PAtom(0, cid, vid)})
    assert peval(timed, model)
    assert preduct(timed, model).parts.count(mvpf.BOT) == n - 1
    builder = CnfBuilder()
    builder.place(StepCode(None, [PropRule(None, timed, "wide")]).base, 0)
    assert builder.nvars == 1 + n + 1  # true, the atoms, one gate

    text = export.export_ground(gls)
    again = export.import_ground(text)
    assert export.export_ground(again) == text
    assert len(again.static[0].cond.sub.parts) == n


# a \= b over two 50-value constants is a 2,450-part disjunction
DISTINCT = """
:- sorts s.
:- objects 1..50 :: s.
:- constants
  a, b :: inertialFluent(s);
  set :: exogenousAction.
constraint a \\= b.
set causes b = 2.
:- query
  label :: test;
  maxstep :: 0..2;
  0: a = 1, b = 3;
  maxstep: b = 2.
"""


def test_pairwise_distinct_wide_constants(tmp_path):
    gls = ground_description(parse_text(DISTINCT))
    res = solve_incremental(incremental_program(gls, gls.queries["test"]), SolveConfig())
    assert res.found_step == 1

    path = tmp_path / "distinct"
    path.write_text(DISTINCT)
    rc, direct = run([str(path), "query=test"])
    assert rc == 0
    assert "query 'test': found step 1, 1 model" in direct
    _, dump = run(["--to-grounder", str(path), "query=test"])
    dump_path = tmp_path / "distinct.dump"
    dump_path.write_text("\n".join(dump) + "\n")
    assert run(["--from-grounder", str(dump_path)]) == (0, direct)


def test_long_initial_state_line(tmp_path):
    n = 1200
    switches = ", ".join(f"s{i}" for i in range(n))
    path = tmp_path / "switches"
    path.write_text(f"""
:- constants
  {switches} :: inertialFluent;
  go :: exogenousAction.
go causes -s0.
:- query
  label :: test;
  maxstep :: 0..1;
  0: {switches};
  maxstep: -s0.
""")
    rc, out = run([str(path), "query=test"])
    assert rc == 0
    assert "query 'test': found step 1, 1 model" in out
