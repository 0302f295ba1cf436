"""The search's trace, pinned: a change that only makes the solver cheaper
keeps every decision, conflict, propagation and learned clause, and the
order of the models.

A change that alters the search on purpose (a new heuristic, a new
encoding) updates the pins below in the same commit, with the reason.
"""

import dataclasses
import functools
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from cplusplan import suite
from cplusplan.plans import model_atom_names
from cplusplan.solve import Dpll, SolveConfig, Stats, solve_incremental
from cplusplan.translate import incremental_program
from horizons import listed_horizons


@functools.cache
def _solved(name, label, lo, hi, sol):
    """The description and the search's result; lo and hi replace the
    query's range.  Cached, as the trace and the size pins read one
    search."""
    gls = suite.load_example(name)
    query = gls.queries[label]
    if lo is not None:
        query = dataclasses.replace(query, min_step=lo, max_step=hi)
    return gls, solve_incremental(incremental_program(gls, query), SolveConfig(max_solutions=sol))


def search_trace(name, label, lo=None, hi=None, sol=1):
    """Per horizon (k, decisions, conflicts, propagations, candidates,
    learned), the found step, and a digest of the models' atoms in the
    order the search yields them."""
    gls, res = _solved(name, label, lo, hi, sol)
    records = [(h.k, h.decisions, h.conflicts, h.propagations, h.candidates, h.learned)
               for h in res.stats.horizons]
    text = "\n".join(model_atom_names(m, gls) for m in res.models)
    return records, res.found_step, hashlib.sha256(text.encode()).hexdigest()[:16]


# (name, query, lo, hi, sol): per-horizon records, found step, model digest.
# The default cases enumerate every model at the found step; the fixed
# horizons are enumerate-plans', and ferryman-stress is search-stress'.
PINNED = {
    ("bw-pair", "tower", None, None, 0): (
        [(0, 0, 0, 12, 0, 0), (1, 0, 0, 57, 1, 0)], 1, "1126a375d8e2f3bd"),
    ("bw-test", "simple", None, None, 0): (
        [(0, 0, 0, 70, 0, 0), (1, 0, 0, 315, 0, 0), (2, 0, 0, 359, 1, 0)],
        2, "c91bdb78e57e8a4e"),
    ("bw-test", "impossible", None, None, 0): (
        [(0, 0, 0, 51, 0, 0), (1, 0, 0, 258, 0, 0)], None, "e3b0c44298fc1c14"),
    ("hanoi", "transfer", None, None, 0): (
        [(0, 0, 0, 11, 0, 0), (1, 0, 0, 117, 0, 0), (2, 0, 0, 105, 0, 0),
         (3, 0, 0, 120, 0, 0), (4, 3, 1, 218, 0, 1), (5, 4, 4, 305, 0, 4),
         (6, 24, 9, 609, 0, 9), (7, 21, 4, 778, 1, 11)],
        7, "d92f5034116e577f"),
    ("ferryman", "cross", None, None, 0): (
        [(0, 0, 0, 18, 0, 0), (1, 0, 0, 50, 0, 0), (2, 1, 1, 115, 0, 1),
         (3, 3, 3, 209, 0, 3), (4, 11, 4, 344, 0, 3), (5, 17, 15, 715, 0, 15),
         (6, 44, 33, 1680, 0, 35), (7, 39, 22, 1395, 2, 40)],
        7, "fa85e98db27ea043"),
    ("bw-pair", "tower", 3, 3, 0): ([(3, 32, 1, 683, 23, 0)], 3, "33aab5b9107e1491"),
    ("bw-test", "simple", 3, 3, 0): ([(3, 64, 4, 2052, 36, 0)], 3, "fa5e7065ef43ee79"),
    ("ferryman", "cross", 9, 9, 0): ([(9, 319, 117, 14867, 90, 115)], 9, "147b0db3a24aee9a"),
    ("ferryman-stress", "cross", 0, 9, 1): (
        [(0, 0, 0, 136, 0, 0), (1, 0, 0, 353, 0, 0), (2, 0, 0, 265, 0, 0),
         (3, 1, 1, 583, 0, 1), (4, 11, 8, 1461, 0, 8), (5, 55, 21, 5011, 0, 21),
         (6, 203, 102, 18529, 0, 103), (7, 482, 177, 35877, 0, 217),
         (8, 441, 180, 39097, 0, 290), (9, 536, 168, 30019, 1, 364)],
        9, "1d9a3c4ce4500505"),
}

HANOI_STRESS = (("hanoi-stress", "transfer", None, None, 1),
                ([(63, 34011, 13064, 1628353, 1, 13020)], 63, "179e69480b1d98af"))

# (vars, clauses) at the last horizon.  The trace cannot see the binaries
# of a gate its own unit fixes (``CnfBuilder.gate``'s keep): true at level
# 0, they never propagate, so writing them back leaves the search as it is.
SIZES = {
    ("bw-pair", "tower", 3, 3, 0): (179, 476),
    ("bw-test", "simple", 3, 3, 0): (1077, 2625),
    ("ferryman", "cross", 9, 9, 0): (566, 1506),
    ("ferryman-stress", "cross", 0, 9, 1): (3834, 14822),
}

HANOI_STRESS_SIZE = (32905, 71893)


def encoded_size(spec):
    h = _solved(*spec)[1].stats.horizons[-1]
    return h.vars, h.clauses


class TestPinnedTrace:
    def test_every_default_query_is_pinned(self):
        pinned = {(name, label) for name, label, lo, _, _ in PINNED if lo is None}
        assert pinned == {(c.name, c.query) for c in suite.default_cases()}

    @pytest.mark.parametrize("spec", sorted(PINNED, key=repr), ids=repr)
    def test_search_repeats_step_for_step(self, spec):
        assert search_trace(*spec) == PINNED[spec]

    def test_search_stress_totals(self):
        records, _, _ = PINNED["ferryman-stress", "cross", 0, 9, 1]
        assert sum(r[2] for r in records) == 657
        assert sum(r[3] for r in records) == 131_331

    @pytest.mark.stress
    def test_hanoi_stress_repeats_step_for_step(self):
        spec, pin = HANOI_STRESS
        assert search_trace(*spec) == pin


class TestEncodedSize:
    @pytest.mark.parametrize("spec", sorted(SIZES, key=repr), ids=repr)
    def test_fixed_gates_write_only_what_their_unit_can_fire(self, spec):
        assert encoded_size(spec) == SIZES[spec]

    @pytest.mark.stress
    def test_hanoi_stress_size(self):
        assert encoded_size(HANOI_STRESS[0]) == HANOI_STRESS_SIZE


class TestTracerEntryPoints:
    """The benchmark's tracer wraps ``Dpll.propagate`` and ``push_level``
    by name and skips an entry point that is gone, reading zeros."""

    def test_wrapped_propagate_sees_every_propagation(self, monkeypatch):
        assert callable(getattr(Dpll, "propagate", None))
        assert callable(getattr(Dpll, "push_level", None))
        seen = {"propagations": 0, "levels": 0}
        propagate, push_level = Dpll.propagate, Dpll.push_level

        def counted_propagate(self):
            before = self.stats.propagations
            ok = propagate(self)
            seen["propagations"] += self.stats.propagations - before
            return ok

        def counted_push_level(self):
            seen["levels"] += 1
            push_level(self)

        monkeypatch.setattr(Dpll, "propagate", counted_propagate)
        monkeypatch.setattr(Dpll, "push_level", counted_push_level)
        case = next(c for c in suite.CASES if c.name == "ferryman")
        _, res = suite.run_case(case)
        assert seen["propagations"] == res.stats.propagations > 0
        # a level for each decision, and one for each horizon's assumption
        assert seen["levels"] >= res.stats.decisions > 0


def _rounds(nvars, clauses, rounds):
    """Each round adds its units at level 0 and enumerates up to three
    assignments, flipping the deepest decision after each.  Returns the
    assignments by round."""
    solver = Dpll(nvars, [list(cl) for cl in clauses], Stats())
    out = []
    for units in rounds:
        solver.add_clauses([[u] for u in units])
        got = []
        while len(got) < 3 and solver.solve():
            got.append(tuple(solver.val[1:nvars + 1]))
            if not solver.flip():
                break
        out.append(got)
    return out


def _literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))


# (variables, clauses, the units each round adds)
CNFS = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(_literals(n), min_size=1, max_size=4, unique_by=abs), max_size=24),
    st.lists(st.lists(_literals(n), max_size=2), min_size=1, max_size=4)))


class TestUnitsBetweenRounds:
    """A unit added at level 0 between rounds of ``solve`` and ``flip``
    undoes the pending flips, and the next round enumerates afresh."""

    @settings(max_examples=200, deadline=None)
    @given(CNFS)
    def test_each_round_lists_distinct_models_of_all_added(self, cnf):
        nvars, clauses, rounds = cnf
        added = [list(cl) for cl in clauses]
        for units, got in zip(rounds, _rounds(nvars, clauses, rounds)):
            added += [[u] for u in units]
            assert len(set(got)) == len(got)
            for a in got:
                assert all(any(a[abs(lit) - 1] == (1 if lit > 0 else -1) for lit in cl)
                           for cl in added)


def _queue(solver):
    """The decision queue, walked from its front."""
    out, v = [], solver.front
    while v:
        out.append(v)
        v = solver.older[v]
    return out


def _every_model(solver, stats):
    """Every assignment in the order the search meets it, each passed by
    a flip, and the search's counters."""
    got = []
    while solver.solve():
        assert solver.tail == _queue(solver)[-1]  # conflicts move variables
        got.append(tuple(solver.val[1:solver.nvars + 1]))
        if not solver.flip():
            break
    return got, (stats.decisions, stats.conflicts, stats.propagations)


# (variables, clauses, batches): a batch is the clause index it ends
# before and a variable count to grow to first, at least
BATCHED = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(_literals(n), max_size=4, unique_by=abs), max_size=24).flatmap(
    lambda clauses: st.tuples(st.just(n), st.just(clauses), st.lists(
        st.tuples(st.integers(0, len(clauses)), st.integers(0, n)), max_size=4))))


class TestOneIntake:
    """``Dpll(n, clauses)`` is ``grow(n)`` and ``add_clauses(clauses)`` on
    an empty solver, so any split into batches before the first search
    gives the same search."""

    @settings(max_examples=200, deadline=None)
    @given(BATCHED)
    @example((5, [[-4, -5], [-4, 5, -1]], []))  # its first conflict moves the tail, 5
    def test_batches_search_as_one_construction(self, cnf):
        nvars, clauses, batches = cnf
        stats = Stats()
        want = _every_model(Dpll(nvars, [list(cl) for cl in clauses], stats), stats)

        stats = Stats()
        solver = Dpll(0, [], stats)
        done = 0
        for end, extra in sorted(batches):
            batch = clauses[done:end]
            solver.grow(max([extra, *(abs(lit) for cl in clauses[:end] for lit in cl)]))
            solver.add_clauses([list(cl) for cl in batch])
            done = max(done, end)
            assert _queue(solver) == list(range(1, solver.nvars + 1))
        solver.grow(nvars)
        solver.add_clauses([list(cl) for cl in clauses[done:]])
        assert solver.tail == _queue(solver)[-1] == nvars
        assert _every_model(solver, stats) == want
        solver.grow(nvars + 2)  # behind the tail that the search left
        assert sorted(_queue(solver)) == list(range(1, nvars + 3))
        assert solver.tail == _queue(solver)[-1] == nvars + 2

    def test_tail_pointer_ends_the_queue_at_every_horizon(self, monkeypatch):
        solvers = []
        init = Dpll.__init__

        def kept(self, *args):
            init(self, *args)
            solvers.append(self)

        monkeypatch.setattr(Dpll, "__init__", kept)
        gls = suite.load_example("ferryman")
        query = dataclasses.replace(gls.queries["cross"], min_step=0, max_step=9)
        for _ in listed_horizons(incremental_program(gls, query), SolveConfig(), Stats()):
            (solver,) = solvers  # the live one; ferryman needs no stability check
            queue = _queue(solver)
            assert sorted(queue) == list(range(1, solver.nvars + 1))
            assert solver.tail == queue[-1]
