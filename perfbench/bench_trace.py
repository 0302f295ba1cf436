"""Spans and counters recorded around the pipeline's public entry points.

Tracing is done from the benchmark's own files: ``install`` replaces each
entry point with a wrapper, both in its defining module and in every
``cplusplan`` module that imported it by name (``cli`` imports
``solve_incremental``, ``enumerate_models``, ``export_*`` and ``to_prop``
directly), and ``uninstall`` puts the originals back.  Nothing under
``src/`` knows about it.

A span covers one call.  Its self time is its duration minus the time its
child spans cover, so the self times of all spans in a pass add up to the
traced part of the pass, and every ``*_s`` layer metric is a sum of self
times.  The stability check and ``_persistent_units`` open no child
spans, so their self time is the whole check.  CNF building is timed only
inside the model search, where it is rebuilt for every horizon.

Solver counters (propagations, decisions, conflicts, CNF size) are taken
only while the model search itself runs, not inside a stability check.
Each call of ``enumerate_models`` searches one horizon and gets a
per-horizon record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Per-layer metric -> (end-to-end metric it should move, on which workload).
LAYER_MAP = {
    "solve.propagations": ("wall_s", "search-stress; flat on cli-batch"),
    "solve.decisions": ("wall_s", "search-stress; flat on cli-batch"),
    "solve.conflicts": ("wall_s", "search-stress; flat on cli-batch"),
    "solve.search_s": ("wall_s", "search-stress; flat on cli-batch"),
    "solve.stability_s": ("wall_s, query_p90_s", "enumerate-plans"),
    "solve.stability_checks": ("wall_s, query_p90_s", "enumerate-plans"),
    "solve.models_checked": ("wall_s, query_p90_s", "enumerate-plans"),
    "solve.stable_ratio": ("wall_s, query_p90_s", "enumerate-plans"),
    "solve.cnf_s": ("wall_s", "cli-batch, enumerate-plans"),
    "solve.units_s": ("wall_s", "cli-batch, enumerate-plans"),
    "solve.learned_units": ("wall_s", "cli-batch, enumerate-plans"),
    "solve.horizons": ("wall_s", "cli-batch, enumerate-plans"),
    "translate.translate_s": ("wall_s", "cli-batch, enumerate-plans"),
    "translate.rules": ("wall_s", "cli-batch, enumerate-plans"),
    "solve.vars": ("peak_rss_mb", "search-stress"),
    "solve.clauses": ("peak_rss_mb", "search-stress"),
    "parser.parse_s": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "ground.ground_s": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "ground.laws": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "export.export_s": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "export.bytes": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "plans.render_s": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
    "cli.self_s": ("query_p50_s, query_p90_s", "cli-batch; negligible on search-stress"),
}

# Span name -> layer metric that sums its self time.
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "parser.parse": "parser.parse_s",
    "ground.ground": "ground.ground_s",
    "translate.translate": "translate.translate_s",
    "solve.solve": None,  # the horizon loop; its children carry the work
    "solve.units": "solve.units_s",
    "solve.enumerate": "solve.search_s",
    "solve.cnf": "solve.cnf_s",
    "solve.stability": "solve.stability_s",
    "export.export": "export.export_s",
    "plans.render": "plans.render_s",
}

COUNTERS = (
    "solve.propagations", "solve.decisions", "solve.conflicts",
    "solve.stability_checks", "solve.models_checked", "solve.models",
    "solve.learned_units", "solve.horizons", "translate.rules",
    "ground.laws", "export.bytes",
)
PEAKS = ("solve.vars", "solve.clauses")
HORIZON_SPANS = {"solve.cnf": "cnf_s", "solve.enumerate": "search_s",
                 "solve.stability": "stability_s"}


class Span:
    __slots__ = ("sid", "name", "parent", "query", "start", "end", "child", "horizon")

    def __init__(self, sid, name, parent, query, start, horizon):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.query = query
        self.start = start
        self.end = None
        self.child = 0.0
        self.horizon = horizon

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Open spans form a stack; closed spans are totalled by layer.

    ``keep_spans`` also keeps each closed span (except the many short CNF
    spans) and every per-horizon record, to be written out at the end.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[Span] = []
        self.next_id = 0
        self.query = None
        self.keep_spans = False
        self.spans: list[dict] = []
        self.horizons: list[dict] = []
        self.reset_pass()

    def reset_pass(self) -> None:
        self.self_time = {m: 0.0 for m in SPAN_METRIC.values() if m}
        self.counts = {c: 0 for c in COUNTERS}
        self.peaks = {p: 0 for p in PEAKS}

    def begin_query(self, query: str) -> None:
        self.query = query
        self.stack.clear()  # a query cut off by the time cap leaves spans open

    def open(self, name: str, horizon: dict | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        if horizon is None and parent is not None:
            horizon = parent.horizon
        span = Span(self.next_id, name, parent.sid if parent else None,
                    self.query, self.clock(), horizon)
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start
        own = span.self_time
        metric = SPAN_METRIC[span.name]
        if metric:
            self.self_time[metric] += own
        if span.horizon is not None and span.name in HORIZON_SPANS:
            span.horizon[HORIZON_SPANS[span.name]] += own
        if self.keep_spans and span.name != "solve.cnf":
            self.spans.append({
                "id": span.sid, "parent": span.parent, "query": span.query,
                "name": span.name, "start": span.start, "end": span.end,
                "self": own,
            })

    def in_search(self) -> bool:
        """True while the innermost open span is the model search itself."""
        return bool(self.stack) and self.stack[-1].name == "solve.enumerate"

    def new_horizon(self, k: int, rules: int) -> dict:
        rec = {"query": self.query, "k": k, "rules": rules, "vars": 0,
               "clauses": 0, "decisions": 0, "conflicts": 0,
               "propagations": 0, "candidates": 0, "models": 0}
        rec.update({f: 0.0 for f in HORIZON_SPANS.values()})
        if self.keep_spans:
            self.horizons.append(rec)
        return rec

    def count(self, name: str, n: int, field: str | None = None) -> None:
        self.counts[name] += n
        if field is not None and self.stack and self.stack[-1].horizon is not None:
            self.stack[-1].horizon[field] += n

    def peak(self, name: str, n: int, field: str) -> None:
        self.peaks[name] = max(self.peaks[name], n)
        if self.stack and self.stack[-1].horizon is not None:
            self.stack[-1].horizon[field] = max(self.stack[-1].horizon[field], n)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since ``reset_pass``."""
        out: dict[str, float] = dict(self.self_time)
        for c in COUNTERS:
            if c != "solve.models":
                out[c] = self.counts[c]
        out.update(self.peaks)
        checked = self.counts["solve.models_checked"]
        out["solve.stable_ratio"] = self.counts["solve.models"] / checked if checked else 0.0
        return out


# ---------------------------------------------------------------------------
# Wrappers

def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(result)
        return result
    return wrapper


def _cnf_spanned(tracer: Tracer, fn):
    """CNF building, timed only when the search builds its own CNF."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.in_search():
            return fn(*args, **kwargs)
        span = tracer.open("solve.cnf")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _enumerate_spanned(tracer: Tracer, fn):
    """One span per resumption of the model generator, one horizon per call."""
    @functools.wraps(fn)
    def wrapper(rules, groups, config, stats, *args, **kwargs):
        k = max((tc.step for tc in groups), default=-1) if groups is not None else -1
        rec = tracer.new_horizon(k, len(rules))
        tracer.count("solve.horizons", 1)
        gen = fn(rules, groups, config, stats, *args, **kwargs)
        while True:
            before = stats.models_checked
            span = tracer.open("solve.enumerate", rec)
            try:
                model = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(span)
                tracer.counts["solve.models_checked"] += stats.models_checked - before
                rec["candidates"] += stats.models_checked - before
            tracer.counts["solve.models"] += 1
            rec["models"] += 1
            yield model
    return wrapper


def _dpll_init(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, nvars, clauses, *args, **kwargs):
        if tracer.in_search():
            tracer.peak("solve.vars", nvars, "vars")
            tracer.peak("solve.clauses", len(clauses), "clauses")
        fn(self, nvars, clauses, *args, **kwargs)
    return wrapper


def _dpll_propagate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        if not tracer.in_search():
            return fn(self)
        before = self.stats.propagations
        ok = fn(self)
        tracer.count("solve.propagations", self.stats.propagations - before, "propagations")
        if not ok:
            tracer.count("solve.conflicts", 1, "conflicts")
        return ok
    return wrapper


def _dpll_push_level(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        if tracer.in_search():
            tracer.count("solve.decisions", 1, "decisions")
        fn(self)
    return wrapper


class Installation:
    """The replaced attributes, so that ``uninstall`` can restore them.

    An entry point that a later version of the program no longer has is
    skipped, and its layer metrics stay at zero.
    """

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is not None:
            self.replaced.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def patch_everywhere(self, module, attr: str, make) -> None:
        """Replace a function in its module and wherever it was imported."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cplusplan" or name.startswith("cplusplan.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replaced.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _module(name: str):
    try:
        return importlib.import_module(f"cplusplan.{name}")
    except ImportError:
        return None


def install(tracer: Tracer) -> Installation:
    cli, export, ground, parser, plans, solve, translate = map(
        _module, ("cli", "export", "ground", "parser", "plans", "solve", "translate"))
    inst = Installation()
    t = tracer

    def spanned(name, after=None):
        return lambda fn: _spanned(t, name, fn, after)

    def count_rules(rules):
        t.count("translate.rules", len(rules))

    functions = [
        (cli, "main", spanned("cli.main")),
        (parser, "parse_files", spanned("parser.parse")),
        (parser, "parse_text", spanned("parser.parse")),
        (ground, "ground_description", spanned(
            "ground.ground", lambda gls: t.count("ground.laws", len(gls.laws)))),
        (translate, "incremental_program", spanned(
            "translate.translate", lambda inc: count_rules(inc.base))),
        (translate, "to_prop", spanned(
            "translate.translate", lambda prog: count_rules(prog.rules))),
        (solve, "solve_incremental", spanned("solve.solve")),
        (solve, "solve_static", spanned("solve.solve")),
        (solve, "_persistent_units", spanned(
            "solve.units", lambda fresh: t.count("solve.learned_units", len(fresh)))),
        (solve, "is_stable_model", spanned(
            "solve.stability", lambda _: t.count("solve.stability_checks", 1))),
        (solve, "enumerate_models", lambda fn: _enumerate_spanned(t, fn)),
    ]
    for name in ("export_ground", "export_prop", "export_incremental"):
        functions.append((export, name, spanned(
            "export.export", lambda text: t.count("export.bytes", len(text.encode())))))
    for name in ("to_plan_view", "render_plan_view", "model_atom_names"):
        functions.append((plans, name, spanned("plans.render")))
    for module, attr, make in functions:
        inst.patch_everywhere(module, attr, make)

    program = getattr(translate, "IncrementalProgram", None)
    for method in ("step_rules", "query_rules_at"):
        inst.patch(program, method, spanned("translate.translate", count_rules))
    builder = getattr(solve, "CnfBuilder", None)
    for method in ("add_rule", "add_formula", "add_support_clauses", "atom_var"):
        inst.patch(builder, method, lambda fn: _cnf_spanned(t, fn))
    dpll = getattr(solve, "Dpll", None)
    inst.patch(dpll, "__init__", lambda fn: _dpll_init(t, fn))
    inst.patch(dpll, "propagate", lambda fn: _dpll_propagate(t, fn))
    inst.patch(dpll, "push_level", lambda fn: _dpll_push_level(t, fn))
    return inst
