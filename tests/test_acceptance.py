"""Acceptance gate: eight checks, one visible pass/fail line each.

Every check pits the production path against an independent route
(hand-computed anchors, exhaustive enumeration, breadth-first search over
hand-coded transition systems, or byte-level dump comparison) and fails
loudly if they disagree.
"""

import dataclasses
import io
import random
import sys
import time

from cplusplan import mvpf, reference, suite
from cplusplan.cli import main
from cplusplan.plans import to_plan_view
from cplusplan.reference import (
    brute_force_models,
    decode_mv_model,
    decode_prop_model,
    horizon_theory,
    interp_to_prop_model,
    model_key,
    prop_model_to_interp,
    theory_to_prop,
)
from cplusplan.solve import (
    LiveSolver,
    SolveConfig,
    Stats,
    enumerate_models,
    solve_incremental,
)
from cplusplan.syntax import QuerySpec, TimeRef
from cplusplan.translate import (
    PAtom,
    PropRule,
    TimedConst,
    incremental_program,
    map_leaves,
    rule_formula,
    to_prop,
)

ALL = SolveConfig(max_solutions=0)


def report(n, slug, ok, elapsed):
    line = f"acceptance {n} {slug}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    print(line, file=sys.__stdout__, flush=True)


class criterion:
    """Times the body and prints the verdict even when an assert fires."""

    def __init__(self, n, slug, budget=None):
        self.n, self.slug, self.budget = n, slug, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        over = self.budget is not None and elapsed > self.budget
        report(self.n, self.slug, exc_type is None and not over, elapsed)
        if over and exc_type is None:
            raise AssertionError(
                f"criterion {self.n} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


# ---------------------------------------------------------------------------
# 1. The anchor theories, by exhaustion and by the production solver

def test_criterion_1_anchor_theories():
    with criterion(1, "anchor-theories-dual-route", budget=1.0):
        # domain widths on both sides of the encoder's pairwise/counter cut
        for width in (2, 3, 5, 11):
            _anchor_theories(tuple(range(1, width + 1)))


def _anchor_theories(values):
    sig = mvpf.Signature((0,), {0: values})
    c1, c2 = mvpf.MvAtom(0, 1), mvpf.MvAtom(0, 2)
    self_rule = mvpf.Impl(c1, c1)
    closed_rule = mvpf.Impl(mvpf.Neg(mvpf.Neg(c1)), c1)
    anchors = [
        (reference.MvTheory(sig, (self_rule,)), []),
        (reference.MvTheory(sig, (closed_rule,)), [{0: 1}]),
        (reference.MvTheory(sig, (closed_rule, c2)), [{0: 2}]),
        # a choice for every value: at most one value still holds
        (reference.MvTheory(sig, tuple(
            mvpf.Impl(mvpf.Neg(mvpf.Neg(mvpf.MvAtom(0, v))), mvpf.MvAtom(0, v))
            for v in values
        )), [{0: v} for v in values]),
    ]
    groups = [TimedConst(0, 0, tuple(PAtom(0, 0, v) for v in values))]
    for theory, expected in anchors:
        want = {frozenset(e.items()) for e in expected}
        got_mv = {
            frozenset(i.items()) for i in reference.enumerate_stable(theory)
        }
        assert got_mv == want, (len(values), theory.formulas)
        # compared as atom sets, so that two values of one constant show
        want_prop = {interp_to_prop_model(e, sig) for e in expected}

        # same theory as atomic-head rules through the search path
        rules = []
        for f in theory.formulas:
            e = map_leaves(f, lambda a: PAtom(0, a.const, a.value))
            if isinstance(e, mvpf.Impl):
                rules.append(PropRule(e.right, e.left, "law"))
            else:
                rules.append(PropRule(e, mvpf.Neg(mvpf.BOT), "fact"))
        got_prop = set(enumerate_models(rules, groups, ALL, Stats()))
        assert got_prop == want_prop, (len(values), theory.formulas)

        # and the formula-level reduction agrees too
        formulas, funiverse = theory_to_prop(theory)
        got_brute = set(brute_force_models(formulas, funiverse))
        assert got_brute == want_prop, (len(values), theory.formulas)


# ---------------------------------------------------------------------------
# 2. Random multi-valued theories against the propositional reduction

def test_criterion_2_random_theory_bijection():
    with criterion(2, "random-theory-bijection", budget=60.0):
        rng = random.Random(416)
        nonempty = 0
        for trial in range(1000):
            n_consts = rng.randint(1, 3)
            doms = {
                c: tuple(range(10, 10 + rng.randint(2, 3)))
                for c in range(n_consts)
            }
            sig = mvpf.Signature(tuple(range(n_consts)), doms)

            def formula(depth):
                roll = rng.random()
                if depth == 0 or roll < 0.35:
                    c = rng.randrange(n_consts)
                    return mvpf.MvAtom(c, rng.choice(doms[c]))
                if roll < 0.42:
                    return mvpf.BOT
                if roll < 0.56:
                    return mvpf.Neg(formula(depth - 1))
                if roll < 0.7:
                    return mvpf.And((formula(depth - 1), formula(depth - 1)))
                if roll < 0.84:
                    return mvpf.Or((formula(depth - 1), formula(depth - 1)))
                return mvpf.Impl(formula(depth - 1), formula(depth - 1))

            theory = reference.MvTheory(
                sig,
                tuple(
                    formula(rng.randint(1, 4))
                    for _ in range(rng.randint(1, 4))
                ),
            )
            mv = reference.enumerate_stable(theory)
            formulas, atoms = theory_to_prop(theory)
            prop = brute_force_models(formulas, atoms)

            # forward: every stable interpretation maps to a stable model
            prop_set = set(prop)
            for interp in mv:
                assert interp_to_prop_model(interp, sig) in prop_set, trial
            # backward: every stable model decodes to a stable interpretation
            mv_set = {frozenset(i.items()) for i in mv}
            for m in prop:
                assert frozenset(prop_model_to_interp(m).items()) in mv_set, trial
            assert len(mv) == len(prop), trial
            nonempty += bool(mv)
        assert nonempty > 100  # the sample has to carry real weight


# ---------------------------------------------------------------------------
# 3. Accumulated increments against from-scratch translation

def test_criterion_3_incremental_static_equivalence():
    with criterion(3, "incremental-static-equivalence", budget=120.0):
        for case in suite.default_cases():
            gls = suite.load_example(case.name)
            q = gls.queries[case.query]
            inc = incremental_program(gls, q)
            acc = list(inc.base)
            for k in range(0, 4):
                if k:
                    acc.extend(inc.step_rules(k))
                inc_models = set(
                    enumerate_models(
                        acc + inc.query_rules_at(k),
                        inc.timed_consts(k),
                        ALL,
                        Stats(),
                    )
                )
                static = to_prop(gls, k, q)
                static_models = set(
                    enumerate_models(static.rules, static.timed_consts, ALL, Stats())
                )
                assert inc_models == static_models, (case.name, case.query, k)

        # semantics-level desk check on the smallest bundled instance
        gls = suite.load_example("bw-pair")
        q = gls.queries["tower"]
        for k in (0, 1):
            theory, index = horizon_theory(gls, k, q)
            mv_keys = {
                model_key(decode_mv_model(i, index))
                for i in reference.enumerate_stable(theory)
            }
            static = to_prop(gls, k, q)
            prop_keys = {
                model_key(decode_prop_model(m))
                for m in enumerate_models(static.rules, static.timed_consts, ALL, Stats())
            }
            assert mv_keys == prop_keys, k
        assert mv_keys  # k=1 really has a model


# ---------------------------------------------------------------------------
# 4. Random ground programs against exhaustive enumeration

def test_criterion_4_random_program_enumeration():
    with criterion(4, "random-program-enumeration", budget=120.0):
        rng = random.Random(517)
        total = 0
        for trial in range(500):
            n = rng.randint(3, 12)
            atoms = [PAtom(0, i, 0) for i in range(n)]

            def body(depth):
                roll = rng.random()
                if depth == 0 or roll < 0.45:
                    return rng.choice(atoms)
                if roll < 0.5:
                    return mvpf.BOT
                if roll < 0.7:
                    return mvpf.Neg(body(depth - 1))
                if roll < 0.85:
                    return mvpf.And((body(depth - 1), body(depth - 1)))
                return mvpf.Or((body(depth - 1), body(depth - 1)))

            rules = []
            for r in range(rng.randint(2, 8)):
                head = None if rng.random() < 0.3 else rng.choice(atoms)
                rules.append(PropRule(head, body(rng.randint(1, 3)), f"r{r}"))

            produced = set(
                enumerate_models(rules, None, ALL, Stats())
            )
            oracle = set(
                brute_force_models([rule_formula(r) for r in rules], atoms)
            )
            assert produced == oracle, trial
            total += len(oracle)
        assert total > 100


# ---------------------------------------------------------------------------
# 5. The planning benchmarks, with plan replay

def test_criterion_5_planning_benchmarks():
    with criterion(5, "planning-benchmarks", budget=120.0):
        pinned = {
            ("hanoi", "transfer"): 7,
            ("ferryman", "cross"): 7,
            ("bw-test", "simple"): 2,
        }
        for (name, label), steps in pinned.items():
            (case,) = [
                c for c in suite.CASES if (c.name, c.query) == (name, label)
            ]
            assert case.expected_found_step == steps
            gls, res = suite.run_case(case, ALL)
            assert res.found_step == steps, (name, label)
            assert res.models
            oracle = suite.oracle_for(case)
            for m in res.models:
                view = to_plan_view(m, gls, res.found_step, label)
                assert suite.replay_plan(oracle, view), (name, label)


# ---------------------------------------------------------------------------
# 6. Grounding accounting: each increment once, never rebuilt

def test_criterion_6_grounding_accounting(monkeypatch):
    with criterion(6, "grounding-accounting", budget=120.0):
        blocked = (TimeRef("maxstep", 0), mvpf.BOT)
        placed = []
        place_step = LiveSolver.place_step

        def counted(live, t):
            placed.append(t)
            place_step(live, t)

        monkeypatch.setattr(LiveSolver, "place_step", counted)
        for case in suite.default_cases():
            gls = suite.load_example(case.name)
            q = gls.queries[case.query]
            dead: QuerySpec = dataclasses.replace(
                q, min_step=0, max_step=3, lines=q.lines + (blocked,)
            )
            inc = incremental_program(gls, dead)
            inc_res = solve_incremental(inc, SolveConfig())
            assert inc_res.found_step is None
            assert len(inc_res.stats.horizons) == 4, case.name

            # every step's rules counted exactly once, and so the query's
            # fixed-step lines, placed for good at horizon 0
            fixed = sum(tref.base != "maxstep" for tref, _ in dead.lines)
            expected_rules = (
                len(inc.base)
                + sum(len(inc.step_rules(t)) for t in range(1, 4))
                + sum(len(inc.query_rules_at(k)) for k in range(0, 4))
                - 3 * fixed
            )
            assert sum(h.rules for h in inc_res.stats.horizons) == expected_rules, case.name

            # static mode, too, places the base and each step once per query
            placed.clear()
            src = str(suite.EXAMPLES_DIR / case.name)
            rc = main(["--mode=static", src, f"query={case.query}"],
                      io.StringIO(), io.StringIO(), io.StringIO())
            found = case.expected_found_step
            assert rc == (1 if found is None else 0), case.name
            last = q.max_step if found is None else found
            assert placed == list(range(0, last + 1)), case.name


# ---------------------------------------------------------------------------
# 7. Dump round trip through the command line

def test_criterion_7_stage_dump_round_trip(tmp_path):
    with criterion(7, "stage-dump-round-trip", budget=120.0):
        for case in suite.default_cases():
            src = str(suite.EXAMPLES_DIR / case.name)
            direct_models = tmp_path / f"{case.name}.{case.query}.direct"
            refeed_models = tmp_path / f"{case.name}.{case.query}.refeed"

            out, err = io.StringIO(), io.StringIO()
            rc_direct = main(
                [src, f"query={case.query}", f"--solver-output={direct_models}", "all"],
                out, err, io.StringIO(),
            )
            direct_summary = [
                l for l in out.getvalue().splitlines() if l.startswith("query ")
            ]

            out2, err2 = io.StringIO(), io.StringIO()
            assert main(["--to-pre-processor", src], out2, err2, io.StringIO()) == 0
            dump = tmp_path / f"{case.name}.dump"
            dump.write_text(out2.getvalue())

            out3, err3 = io.StringIO(), io.StringIO()
            rc_refeed = main(
                [
                    "--from-grounder", str(dump), f"query={case.query}",
                    f"--solver-output={refeed_models}", "all",
                ],
                out3, err3, io.StringIO(),
            )
            refeed_summary = [
                l for l in out3.getvalue().splitlines() if l.startswith("query ")
            ]

            assert rc_direct == rc_refeed, case.name
            assert direct_summary == refeed_summary, case.name
            assert sorted(direct_models.read_text().splitlines()) == sorted(
                refeed_models.read_text().splitlines()
            ), case.name


# ---------------------------------------------------------------------------
# 8. A scripted interactive session against its golden transcript

SESSION = """\
help
config
queries
frobnicate
sol=all
maxstep=1
minstep=0
query=nosuch
query=tower
exit
"""

GOLDEN = """\
interactive mode; 'help' lists commands, 'exit' leaves
> help
Commands:
  help            Displays the list of available commands
  config          Displays the current configuration
  queries         Displays the list of available queries to run
  minstep=[#]     Moves the lower end of the step range
  maxstep=[#]     Sets the step range to #, or to a window with lo..hi
  sol=[#]         Sets how many solutions to report; 0 or 'all' for every one
  query=[QUERY]   Runs the named query with the session overrides
  exit            Leaves interactive mode
> config
  minstep   (query default)
  maxstep   (query default)
  sol       1
  mode      incremental
  language  cplus
> queries
  tower  steps 0..4
> frobnicate
unknown command 'frobnicate'; try 'help'
> sol=all
sol set to 0
> maxstep=1
step range set to 1..1
> minstep=0
minstep set to 0
> query=nosuch
error: no query named 'nosuch'; 'queries' lists them
> query=tower
SOLUTION 1 (step 1)
0:  loc(a)=table  loc(b)=table
ACTIONS:  move(a,b)
1:  loc(a)=b  loc(b)=table
query 'tower': found step 1, 1 model
> exit
"""


def test_criterion_8_interactive_session():
    with criterion(8, "interactive-session", budget=120.0):
        out, err = io.StringIO(), io.StringIO()
        rc = main(
            [str(suite.EXAMPLES_DIR / "bw-pair")],
            out, err, io.StringIO(SESSION),
        )
        assert rc == 0
        assert err.getvalue() == ""
        assert out.getvalue() == GOLDEN
        # the unknown command was answered mid-session and the two
        # commands after it still ran, so it did not end the loop
        assert "unknown command 'frobnicate'" in out.getvalue()
        assert "found step 1" in out.getvalue()
