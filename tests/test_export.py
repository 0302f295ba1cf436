"""Dump round trips and format errors."""

import io

import pytest

from cplusplan import export, mvpf
from cplusplan.cli import main
from cplusplan.export import FormatError
from cplusplan.ground import ground_description
from cplusplan.parser import parse_text
from cplusplan.plans import model_atom_names
from cplusplan.solve import (
    SolveConfig,
    Stats,
    enumerate_models,
    solve_incremental,
)
from cplusplan.translate import incremental_program, to_prop

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
:- query label :: open; maxstep :: 0..infinity; maxstep: loc(a) = b.
"""

CHAIN = """
:- sorts s.
:- objects 1, 2 :: s.
:- constants c :: inertialFluent(s).
:- query label :: q; maxstep :: 0..1; 0: c = 1.
"""

ALL = SolveConfig(max_solutions=0)


@pytest.fixture(scope="module")
def bw():
    return ground_description(parse_text(BW, "<t>"))


@pytest.fixture(scope="module")
def chain():
    return ground_description(parse_text(CHAIN, "<t>"))


def signature_fingerprint(gls):
    return [
        (gc.name, gc.kind, tuple(gls.symbols.value_label(v) for v in gc.dom))
        for gc in gls.symbols.order
    ]


class TestNativeGround:
    def test_round_trip_is_identity_on_text(self, bw):
        text = export.export_ground(bw)
        again = export.export_ground(export.import_ground(text))
        assert text == again

    def test_signature_and_counts_survive(self, bw):
        gls2 = export.import_ground(export.export_ground(bw))
        assert signature_fingerprint(gls2) == signature_fingerprint(bw)
        assert len(gls2.static) == len(bw.static)
        assert len(gls2.action_dynamic) == len(bw.action_dynamic)
        assert len(gls2.fluent_dynamic) == len(bw.fluent_dynamic)

    def test_queries_survive_including_unbounded(self, bw):
        gls2 = export.import_ground(export.export_ground(bw))
        assert set(gls2.queries) == {"tower", "open"}
        assert gls2.queries["tower"].max_step == 4
        assert gls2.queries["open"].max_step is None
        assert len(gls2.queries["tower"].lines) == len(bw.queries["tower"].lines)

    def test_reimported_dump_solves_identically(self, bw):
        res = solve_incremental(incremental_program(bw, bw.queries["tower"]), ALL)
        gls2 = export.import_ground(export.export_ground(bw))
        res2 = solve_incremental(incremental_program(gls2, gls2.queries["tower"]), ALL)
        assert res2.found_step == res.found_step == 1
        assert sorted(model_atom_names(m, gls2) for m in res2.models) == sorted(
            model_atom_names(m, bw) for m in res.models
        )

    def test_zero_law_program_header_only(self):
        gls = ground_description(
            parse_text(":- sorts s. :- objects 1, 2 :: s. :- constants c :: simpleFluent(s).", "<t>")
        )
        text = export.export_ground(gls)
        body = [l for l in text.splitlines() if not l.startswith(("#format", "#const", "#end"))]
        assert body == []
        gls2 = export.import_ground(text)
        assert gls2.laws == []
        assert gls2.queries == {}
        assert signature_fingerprint(gls2) == signature_fingerprint(gls)


class TestFormatErrors:
    def test_truncated_file(self, bw):
        text = export.export_ground(bw)
        cut = "\n".join(text.splitlines()[:-1])
        with pytest.raises(FormatError):
            export.import_ground(cut)

    def test_truncated_line(self, bw):
        text = export.export_ground(bw)
        lines = text.splitlines()
        lines[3] = lines[3].rstrip(".")
        with pytest.raises(FormatError) as e:
            export.import_ground("\n".join(lines))
        assert e.value.line == 4

    def test_content_after_end(self, bw):
        text = export.export_ground(bw) + "#law static false <- false.\n"
        with pytest.raises(FormatError):
            export.import_ground(text)

    def test_missing_format_header(self):
        with pytest.raises(FormatError):
            export.import_ground('#const "c" simple ("1", "2").\n#end.\n')

    def test_wrong_format_name(self, bw):
        with pytest.raises(FormatError):
            export.import_prop(export.export_ground(bw))

    def test_undeclared_constant(self):
        text = (
            "#format ground-laws 1.\n"
            '#law static "c"="1" <- false.\n'
            "#end.\n"
        )
        with pytest.raises(FormatError) as e:
            export.import_ground(text)
        assert e.value.line == 2

    def test_value_outside_domain(self):
        text = (
            "#format ground-laws 1.\n"
            '#const "c" simple ("1", "2").\n'
            '#law static "c"="3" <- false.\n'
            "#end.\n"
        )
        with pytest.raises(FormatError):
            export.import_ground(text)

    def test_bad_character(self):
        with pytest.raises(FormatError):
            export.import_ground("#format ground-laws 1.\n#law ?!.\n#end.\n")

    def test_empty_file(self):
        with pytest.raises(FormatError):
            export.import_ground("")

    @pytest.mark.parametrize("fmt, directive", [
        (fmt, directive)
        for fmt, directives in [
            ("ground", ["format", "const", "law", "query", "qline", "end"]),
            ("prop", ["format", "horizon", "const", "rule", "end"]),
            ("incremental", ["format", "range", "query", "const", "section", "rule", "qline", "end"]),
        ]
        for directive in directives
    ])
    def test_stray_token_after_each_directive(self, bw, chain, fmt, directive):
        text, read = {
            "ground": (export.export_ground(bw), export.import_ground),
            "prop": (export.export_prop(to_prop(chain, 1, chain.queries["q"])), export.import_prop),
            "incremental": (export.export_incremental(incremental_program(bw, bw.queries["tower"])),
                            export.import_incremental),
        }[fmt]
        lines = text.splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("#" + directive))
        lines[i] = lines[i][:-1] + ' "stray".'
        with pytest.raises(FormatError, match="trailing tokens") as e:
            read("\n".join(lines) + "\n")
        assert e.value.line == i + 1

    def test_directive_of_another_format(self, bw):
        lines = export.export_ground(bw).splitlines()
        lines.insert(1, "#horizon 1.")
        with pytest.raises(FormatError, match="unknown directive #horizon") as e:
            export.import_ground("\n".join(lines) + "\n")
        assert e.value.line == 2

    # a template atom in a fixed-horizon program would land on step 0 or -1
    TEMPLATE_IN_PROP = (
        "#format prop-program 1.\n"
        "#horizon 1.\n"
        '#const "p" simple ("false", "true").\n'
        '#const "a" action ("false", "true").\n'
        '#rule transition t:"p"="true" <- t-1:"a"="true".\n'
        "#end.\n"
    )

    def test_prop_program_rejects_template_atoms(self, tmp_path):
        with pytest.raises(FormatError, match="concrete steps") as e:
            export.import_prop(self.TEMPLATE_IN_PROP)
        assert e.value.line == 5
        path = tmp_path / "prop.dump"
        path.write_text(self.TEMPLATE_IN_PROP)
        err = io.StringIO()
        assert main(["--from-grounder", str(path)], io.StringIO(), err) == 2
        assert "line 5: rules take concrete steps" in err.getvalue()

    # a step past the horizon has no group and no rule, so the constraint
    # on it would be silently vacuous
    PAST_HORIZON = (
        "#format prop-program 1.\n"
        "#horizon 1.\n"
        '#const "p" simple ("false", "true").\n'
        '#rule x false <- 1:"p"="true".\n'
        '#rule x false <- (0:"p"="true" & STEP:"p"="true").\n'
        "#end.\n"
    )

    @pytest.mark.parametrize("step", ["5", "2"])
    def test_prop_program_rejects_steps_outside_the_horizon(self, tmp_path, step):
        text = self.PAST_HORIZON.replace("STEP", step)
        with pytest.raises(FormatError, match=f"step {step} outside 0..1") as e:
            export.import_prop(text)
        assert e.value.line == 5
        path = tmp_path / "prop.dump"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        assert main(["--from-grounder", str(path), "--to-solver", "sol=all"], out, err) == 2
        assert f"line 5: step {step} outside 0..1" in err.getvalue()
        assert out.getvalue() == ""
        assert len(export.import_prop(self.PAST_HORIZON.replace("STEP", "0")).rules) == 2

    def test_prop_program_horizon_comes_once_before_the_rules(self):
        lines = self.PAST_HORIZON.replace("STEP", "1").splitlines()
        late = lines[:1] + lines[2:4] + lines[1:2] + lines[4:]
        with pytest.raises(FormatError, match="#rule before #horizon") as e:
            export.import_prop("\n".join(late) + "\n")
        assert e.value.line == 3
        twice = lines[:4] + lines[1:2] + lines[4:]
        with pytest.raises(FormatError, match="#horizon given twice") as e:
            export.import_prop("\n".join(twice) + "\n")
        assert e.value.line == 5


GROUP_HEAD = "".join(
    ["#format ground-laws 1.\n"]
    + [f'#const "{n}" simple ("1", "2").\n' for n in "abc"]
)
A, B, C = '"a"="1"', '"b"="1"', '"c"="1"'


def read_cond(formula: str):
    """The condition of a one-law ground dump; the law sits on line 5."""
    text = GROUP_HEAD + f"#law static false <- {formula}.\n#end.\n"
    return export.import_ground(text).static[0].cond


class TestGroups:
    def test_nested_spelling_reads_spliced(self):
        flat_or = read_cond(f"({A} | {B} | {C})")
        assert read_cond(f"(({A} | {B}) | {C})") == flat_or
        assert len(flat_or.parts) == 3
        flat_and = read_cond(f"({A} & {B} & {C})")
        assert read_cond(f"({A} & ({B} & {C}))") == flat_and
        assert len(flat_and.parts) == 3

    def test_other_connectives_stay_nested(self):
        f = read_cond(f"({A} & -({B} & {C}))")
        assert len(f.parts) == 2
        assert len(f.parts[1].sub.parts) == 2

    @pytest.mark.parametrize(
        "formula", [f"({A} & {B} | {C})", f"({A} -> {B} -> {C})"],
        ids=["mixed", "three-operand-impl"],
    )
    def test_malformed_group(self, formula):
        with pytest.raises(FormatError) as e:
            read_cond(formula)
        assert e.value.line == 5


class TestNativeProp:
    def test_round_trip(self, bw):
        prog = to_prop(bw, 2, bw.queries["tower"])
        text = export.export_prop(prog)
        again = export.export_prop(export.import_prop(text))
        assert text == again

    def test_horizon_and_rule_count(self, bw):
        prog = to_prop(bw, 2, bw.queries["tower"])
        prog2 = export.import_prop(export.export_prop(prog))
        assert prog2.horizon == 2
        assert len(prog2.rules) == len(prog.rules)
        assert [r.tag for r in prog2.rules] == [r.tag for r in prog.rules]

    def test_reimported_prop_enumerates_identically(self, chain):
        prog = to_prop(chain, 1, chain.queries["q"])
        prog2 = export.import_prop(export.export_prop(prog))
        a = {
            model_atom_names(m, prog.gls)
            for m in enumerate_models(list(prog.rules), prog.timed_consts, ALL, Stats())
        }
        b = {
            model_atom_names(m, prog2.gls)
            for m in enumerate_models(list(prog2.rules), prog2.timed_consts, ALL, Stats())
        }
        assert a == b


class TestNativeIncremental:
    def test_round_trip(self, bw):
        inc = incremental_program(bw, bw.queries["tower"])
        text = export.export_incremental(inc)
        again = export.export_incremental(export.import_incremental(text))
        assert text == again

    def test_sections_present(self, bw):
        text = export.export_incremental(incremental_program(bw, bw.queries["tower"]))
        lines = text.splitlines()
        assert "#section base." in lines
        assert "#section cumulative." in lines
        assert "#section volatile." in lines

    def test_reimported_incremental_solves_identically(self, bw):
        inc = incremental_program(bw, bw.queries["tower"])
        res = solve_incremental(inc, ALL)
        inc2 = export.import_incremental(export.export_incremental(inc))
        res2 = solve_incremental(inc2, ALL)
        assert res2.found_step == res.found_step
        assert sorted(model_atom_names(m, inc2.gls) for m in res2.models) == sorted(
            model_atom_names(m, inc.gls) for m in res.models
        )

    def test_unbounded_range_survives(self, bw):
        inc = incremental_program(bw, bw.queries["open"])
        inc2 = export.import_incremental(export.export_incremental(inc))
        assert inc2.max_step is None

    TOGGLE = """
:- sorts obj.
:- objects x, y :: obj.
:- constants at :: inertialFluent(obj); go(obj) :: exogenousAction; p :: simpleFluent.
:- variables O :: obj.
go(O) causes at = O.
caused p if true.
%s
:- query label :: q; maxstep :: 0..3; 0: at = x; maxstep: at = y, p.
"""

    @pytest.mark.parametrize("extra, found", [("", 1), ("caused false if true.", None)])
    def test_folded_true_bodies_round_trip(self, tmp_path, extra, found):
        path = tmp_path / "toggle"
        path.write_text(self.TOGGLE % extra)
        gls = ground_description(parse_text(path.read_text(), "<t>"))
        inc = incremental_program(gls, gls.queries["q"])
        # `caused p if true` and `caused false if true` have body true
        folded = [r for r in inc.template if r.tag == "static"]
        assert [r.body for r in folded] == [mvpf.TOP] * (1 + bool(extra))
        out, err = io.StringIO(), io.StringIO()
        assert main(["--to-grounder", str(path), "query=q"], out, err) == 0
        assert out.getvalue() == export.export_incremental(inc)
        again = export.import_incremental(out.getvalue())
        assert solve_incremental(inc, ALL).found_step == found
        assert solve_incremental(again, ALL).found_step == found


def test_sniff_format(bw, chain):
    prog = to_prop(chain, 1, chain.queries["q"])
    inc = incremental_program(bw, bw.queries["tower"])
    assert export.sniff_format(export.export_ground(bw)) == "ground-laws"
    assert export.sniff_format(export.export_prop(prog)) == "prop-program"
    assert (
        export.sniff_format(export.export_incremental(inc)) == "incremental-program"
    )
    with pytest.raises(FormatError):
        export.sniff_format("")
