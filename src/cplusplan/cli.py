"""Command line front end for the planning pipeline.

The pipeline has four stages:

  pre-processor    parse and ground the description
  grounder         translate to timed rules
  solver           enumerate stable models
  post-processor   render plans

``--to-STAGE`` stops after a stage and emits its payload on stdout;
``--from-STAGE`` starts from a dump produced earlier; ``--STAGE-output=FILE``
writes a stage's payload without stopping there.  When no query is named
on the command line the tool drops into an interactive loop instead
(:mod:`cplusplan.repl`, which only such a run imports).

The solver and post-processor payloads are written as the search meets
each model, and no model is kept (`_write_models`), so the first plan
shows before the search ends.  Their output files are opened before the
search starts.  Each payload's bytes are those of writing it all at the
end, with one exception: when ``--solver-output`` goes to stdout next to
the plans, each model's line comes right before its plan, not all lines
before the first plan.

A query's work, from loading the input to the last printed line, runs
with the cyclic garbage collector paused (`collector_paused`).  Every
record, formula, clause and op list the pipeline builds is acyclic, so
reference counting frees all of it: over a pass of each benchmark
workload the collector's runs freed 0 objects, and on the cli-batch
workload they took about 8% of a pass.  The caller's setting comes back
on every way out, and the interactive loop waits for input with it.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
from pathlib import Path

from .ground import GroundLawSet, ground_description
from .parser import (
    MalformedOverride,
    QueryOverride,
    parse_files,
    parse_query_override,
)
from .plans import model_atom_names, render_plan_view, to_plan_view
from .solve import SolveConfig, Stats, enumerate_models, solve_horizons
from .syntax import ExportError, LangError, QuerySpec
from .translate import IncrementalProgram, PropProgram, incremental_program

STAGES = ("pre-processor", "grounder", "solver", "post-processor")

USAGE = """\
usage: cplusplan [FLAGS] FILE... [OVERRIDE...] [COUNT]

Finds shortest plans for multi-valued action descriptions.

flags:
  --mode=incremental|static   grounder dump format (default incremental)
  --language=cplus            input language (only cplus in this build)
  --to-STAGE                  stop after STAGE; its payload goes to stdout
  --from-STAGE                treat FILE as a STAGE dump
                              (pre-processor and grounder dumps are accepted)
  --STAGE-output[=FILE]       also write STAGE's payload to FILE
  --all-steps                 with --mode=static, report every step in range
  --help                      print this text

overrides (doubling as interactive commands):
  query=LABEL    run the named query
  maxstep=N      solve at step N exactly; lo..hi searches that window
  minstep=N      move the lower end of the step range
  sol=N          solutions to report; 0 or 'all' for every one

A trailing bare number is shorthand for sol=N.  Without query=LABEL the
tool enters an interactive loop; 'help' there lists the commands.
stages: pre-processor, grounder, solver, post-processor
"""

class UsageError(Exception):
    pass


class RunConfig:
    def __init__(self) -> None:
        self.input_files: list[str] = []
        self.override = QueryOverride()
        self.stage_from = "pre-processor"
        self.stage_to = "post-processor"
        self.stage_outputs: dict = {}  # stage -> path | None
        self.mode = "incremental"
        self.language = "cplus"
        self.all_steps = False
        self.want_help = False


# ---------------------------------------------------------------------------
# Argument classification

# reading a stage's dump means starting at the stage after it
_FROM_ALIASES = {"pre-processor": "grounder", "grounder": "solver"}

OVERRIDE_PREFIXES = ("query=", "minstep=", "maxstep=", "sol=")


def parse_args(argv: list[str]) -> tuple[RunConfig, list[str]]:
    cfg = RunConfig()
    override_tokens: list[str] = []
    for tok in argv:
        if tok == "--help":
            cfg.want_help = True
        elif tok == "--all-steps":
            cfg.all_steps = True
        elif tok.startswith("--mode="):
            mode = tok[len("--mode=") :]
            if mode not in ("incremental", "static"):
                raise UsageError(f"unknown mode '{mode}'")
            cfg.mode = mode
        elif tok.startswith("--language="):
            cfg.language = tok[len("--language=") :]
        elif tok.startswith("--to-"):
            stage = tok[len("--to-") :]
            if stage not in STAGES:
                raise UsageError(f"unknown stage '{stage}'")
            cfg.stage_to = stage
            cfg.stage_outputs.setdefault(stage, None)
        elif tok.startswith("--from-"):
            stage = tok[len("--from-") :]
            if stage not in _FROM_ALIASES:
                raise UsageError(f"cannot start from '{stage}' output")
            cfg.stage_from = _FROM_ALIASES[stage]
        elif tok.startswith("--") and "-output" in tok:
            head, sep, path = tok.partition("=")
            stage = head[2 : -len("-output")]
            if stage not in STAGES:
                raise UsageError(f"unknown stage '{stage}'")
            cfg.stage_outputs[stage] = path if sep else None
        elif tok.startswith("--"):
            raise UsageError(f"unknown flag '{tok}'")
        elif tok.startswith(OVERRIDE_PREFIXES) or tok == "all" or tok.isdigit():
            override_tokens.append(tok)
        elif "=" in tok and tok[: tok.index("=")].isidentifier():
            raise UsageError(f"unknown override '{tok[: tok.index('=')]}'")
        else:
            cfg.input_files.append(tok)

    try:
        cfg.override = parse_query_override(override_tokens)
    except MalformedOverride as e:
        raise UsageError(str(e)) from e

    if cfg.want_help:
        return cfg, cfg.override.warnings
    if cfg.language != "cplus":
        raise UsageError("language mode not supported in this build")
    if STAGES.index(cfg.stage_from) > STAGES.index(cfg.stage_to):
        raise UsageError(
            f"stage order: cannot run from '{cfg.stage_from}' to '{cfg.stage_to}'"
        )
    for stage in cfg.stage_outputs:
        if STAGES.index(stage) > STAGES.index(cfg.stage_to):
            raise UsageError(f"--{stage}-output: the run stops after '{cfg.stage_to}'")
    if cfg.all_steps and cfg.mode != "static":
        raise UsageError("--all-steps requires --mode=static")
    if not cfg.input_files:
        raise UsageError("no input files")
    return cfg, cfg.override.warnings


# ---------------------------------------------------------------------------
# Stage plumbing

def _export():
    """The dump module: only a run that reads or writes a dump imports it."""
    from . import export
    return export


def _emit(cfg: RunConfig, stage: str, render, out) -> None:
    """Writes render()'s text where the stage's payload goes, if anywhere;
    render runs only for a stage whose payload was asked for."""
    if stage not in cfg.stage_outputs:
        return
    text = render()
    target = cfg.stage_outputs[stage]
    if target is None:
        out.write(text)
    else:
        Path(target).write_text(text)


@contextlib.contextmanager
def collector_paused():
    """Runs the block with the cyclic collector off, then gives back the
    caller's setting."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def _solve_config(ov: QueryOverride) -> SolveConfig:
    return SolveConfig(max_solutions=ov.solutions if ov.solutions is not None else 1)


def _apply_range(query: QuerySpec, ov: QueryOverride, need_bound: bool) -> QuerySpec:
    q = query
    if ov.min_step is not None:  # every range token sets it
        # an explicit 'lo..infinity' cannot unbound a query that has a bound
        hi = ov.max_step if ov.max_step is not None else q.max_step
        q = QuerySpec(q.label, ov.min_step, hi, q.lines, q.span)
    if q.max_step is not None and q.min_step > q.max_step:
        raise UsageError(f"minstep {q.min_step} exceeds maxstep {q.max_step}")
    if need_bound and q.max_step is None:
        raise UsageError(
            f"query '{q.label}' has no upper step bound; set maxstep=N"
        )
    return q


def run_query(gls: GroundLawSet, query: QuerySpec, cfg: RunConfig, ov: QueryOverride,
              timings: dict, out, err, quiet: bool,
              pre_inc: IncrementalProgram | None = None) -> int:
    """Grounder stage for one query, then its search and payloads when
    the run goes on to the solver."""
    solving = STAGES.index(cfg.stage_to) >= STAGES.index("solver")
    q = _apply_range(query, ov, need_bound=solving)

    t0 = time.perf_counter()
    if pre_inc is not None:
        inc = IncrementalProgram(pre_inc.gls, q, pre_inc.base, pre_inc.template)
    else:
        inc = incremental_program(gls, q)
    timings["grounder"] = timings.get("grounder", 0.0) + time.perf_counter() - t0

    if cfg.mode == "incremental":
        _emit(cfg, "grounder", lambda: _export().export_incremental(inc), out)
    else:
        _emit(cfg, "grounder", lambda: _export().export_prop(inc.program(q.min_step)), out)
    if not solving:
        return 0
    horizons = solve_horizons(inc, _solve_config(ov), Stats())
    return _write_models(gls, horizons, q, cfg, timings, out, err, quiet)


def _write_models(gls, horizons, q: QuerySpec, cfg: RunConfig, timings: dict,
                  out, err, quiet: bool) -> int:
    """Solver and post-processor payloads, each model's written as the
    search meets it, then the summary.  horizons yields (step, models)
    over q's range; without --all-steps the first step with models is
    the last one read."""
    plans = cfg.stage_to == "post-processor"
    reported = []  # (step, model count) of every step reported
    n = 0
    shown = 0.0  # rendering and writing plans
    t0 = time.perf_counter()
    with contextlib.ExitStack() as files:
        def sink(stage: str):
            path = cfg.stage_outputs[stage]
            return out if path is None else files.enter_context(open(path, "w"))

        line_to = sink("solver") if "solver" in cfg.stage_outputs else None
        plan_to = [out] if plans else []
        # stdout has the plans; only a named file needs a copy
        if plans and cfg.stage_outputs.get("post-processor") is not None:
            plan_to.append(sink("post-processor"))
        for step, models in horizons:
            count = 0
            for m in models:
                n += 1
                count += 1
                if n > 1:
                    for f in plan_to:
                        f.write("\n")  # a blank line between plans
                if line_to is not None:
                    line_to.write(model_atom_names(m, gls) + "\n")
                if plans:
                    t1 = time.perf_counter()
                    view = to_plan_view(m, gls, step, q.label)
                    text = f"SOLUTION {n} (step {step})\n" + render_plan_view(view, hide_false=True)
                    for f in plan_to:
                        f.write(text)
                    shown += time.perf_counter() - t1
            if count or cfg.all_steps:
                reported.append((step, count))
            if count and not cfg.all_steps:
                break
    timings["solver"] = timings.get("solver", 0.0) + time.perf_counter() - t0 - shown
    if plans:
        timings["post-processor"] = timings.get("post-processor", 0.0) + shown

    summary_to = out if plans else err
    for step, count in reported if cfg.all_steps else ():
        shown_count = f"{count} model{'' if count == 1 else 's'}" if count else "no models"
        print(f"step {step}: {shown_count}", file=summary_to)
    found = next((step for step, count in reported if count), None)
    total = sum(count for _, count in reported)
    if found is None:
        summary = f"no models in steps {q.min_step}..{q.max_step}"
    else:
        summary = f"found step {found}, {total} model{'' if total == 1 else 's'}"
    print(f"query '{q.label}': {summary}", file=summary_to)
    if not quiet:
        parts = [f"{s} {timings[s]:.3f}s" for s in STAGES if s in timings]
        print("timings: " + "  ".join(parts), file=summary_to)
    return 0 if found is not None else 1


# ---------------------------------------------------------------------------
# Entry points

def _load(cfg: RunConfig, timings: dict):
    """Returns (gls, pre-translated program or None)."""
    if cfg.stage_from == "pre-processor":
        t0 = time.perf_counter()
        gls = ground_description(parse_files(cfg.input_files))
        timings["pre-processor"] = time.perf_counter() - t0
        return gls, None
    if len(cfg.input_files) != 1:
        raise UsageError("exactly one dump file when starting from a stage output")
    text = Path(cfg.input_files[0]).read_text()
    export = _export()
    kind = export.sniff_format(text)
    if kind == "ground-laws":
        return export.import_ground(text), None
    if kind == "prop-program":
        prog = export.import_prop(text)
        return prog.gls, prog
    if kind == "incremental-program":
        inc = export.import_incremental(text)
        return inc.gls, inc
    raise UsageError(f"unrecognized dump format '{kind}'")


def _run(cfg: RunConfig, out, err, repl_source) -> int:
    timings: dict[str, float] = {}
    with collector_paused():
        gls, pre = _load(cfg, timings)
        _emit(cfg, "pre-processor", lambda: _export().export_ground(gls), out)
        if cfg.stage_to == "pre-processor":
            return 0

        if isinstance(pre, PropProgram):
            # a fixed-horizon program: solve it as it stands
            ov = cfg.override
            for name, value in (("query", ov.label), ("maxstep", ov.max_step),
                                ("minstep", ov.min_step)):
                if value is not None:
                    raise UsageError(f"{name}= does not apply to a fixed-horizon "
                                     f"program, which is at step {pre.horizon}")
            models = enumerate_models(pre.rules, pre.timed_consts, _solve_config(ov), Stats())
            program = QuerySpec("program", pre.horizon, pre.horizon, ())
            return _write_models(gls, [(pre.horizon, models)], program, cfg, timings,
                                 out, err, quiet=False)

        label = cfg.override.label
        if label is None and isinstance(pre, IncrementalProgram):
            label = pre.query.label
        if label is not None:
            query = gls.queries.get(label)
            if query is None:
                known = ", ".join(sorted(gls.queries)) or "none"
                raise UsageError(f"no query named '{label}' (available: {known})")
            return run_query(
                gls, query, cfg, cfg.override, timings, out, err, quiet=False,
                pre_inc=pre if isinstance(pre, IncrementalProgram) else None,
            )
        if cfg.stage_to not in ("solver", "post-processor"):
            raise UsageError("translation requires a query; pass query=LABEL")
    # the loop waits for input with the caller's setting; each query it
    # runs pauses the collector again
    from .repl import interact  # only a run that names no query loads it
    return interact(gls, cfg, timings, out, err, repl_source)


def main(argv: list[str], out=None, err=None, repl_source=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    repl_source = repl_source if repl_source is not None else sys.stdin
    try:
        cfg, warnings = parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=err)
        print(USAGE.rstrip(), file=err)
        return 2
    for w in warnings:
        print(f"warning: {w}", file=err)
    if cfg.want_help:
        print(USAGE.rstrip(), file=out)
        return 0
    try:
        return _run(cfg, out, err, repl_source)
    except UsageError as e:
        print(f"error: {e}", file=err)
        return 2
    except (LangError, ExportError, OSError) as e:
        print(f"error: {e}", file=err)
        return 2


def console_main() -> int:
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(console_main())
