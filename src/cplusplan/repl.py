"""The command line tool's interactive loop.

A run that names no query on the command line reads commands from its
input instead.  A batch run never enters the loop, so `cli` imports this
module only when it does, as it imports the dump module only for a run
that reads or writes a dump: a batch query does not compile either.

An override line holds one or more tokens separated by whitespace.  Each
setting token (``minstep=``, ``maxstep=``, ``sol=``) updates the session
as it would on a line of its own, left to right, and a ``query=`` token
runs last, with the updated session; of several, the last one runs.  A
token that is not an override, or a query the description lacks,
rejects the whole line before the session changes.
"""

from __future__ import annotations

from .cli import OVERRIDE_PREFIXES, UsageError, collector_paused, run_query
from .parser import MalformedOverride, QueryOverride, parse_query_override
from .syntax import LangError

REPL_HELP = """\
Commands:
  help            Displays the list of available commands
  config          Displays the current configuration
  queries         Displays the list of available queries to run
  minstep=[#]     Moves the lower end of the step range
  maxstep=[#]     Sets the step range to #, or to a window with lo..hi
  sol=[#]         Sets how many solutions to report; 0 or 'all' for every one
  query=[QUERY]   Runs the named query with the session overrides
  exit            Leaves interactive mode\
"""


def _override_line(tokens: list[str]) -> tuple[list[tuple[str, QueryOverride]], str | None]:
    """The setting tokens of an override line, each parsed on its own,
    and the label of its last query= token, or None; a token that is not
    an override raises MalformedOverride."""
    settings = []
    label = None
    for tok in tokens:
        if not tok.startswith(OVERRIDE_PREFIXES):
            raise MalformedOverride(f"unrecognized token '{tok}'")
        ov = parse_query_override([tok])
        if ov.label is None:
            settings.append((tok, ov))
        else:
            label = ov.label
    return settings, label


def interact(gls, cfg, timings, out, err, source) -> int:
    ov = cfg.override
    session = QueryOverride(ov.label, ov.min_step, ov.max_step, ov.solutions)
    print("interactive mode; 'help' lists commands, 'exit' leaves", file=out)
    echo = not getattr(source, "isatty", lambda: False)()
    while True:
        out.write("> ")
        out.flush()
        raw = source.readline()
        if not raw:
            out.write("\n")
            return 0
        line = raw.strip()
        if echo:
            print(line, file=out)
        if not line:
            continue
        if line == "exit":
            return 0
        if line == "help":
            print(REPL_HELP, file=out)
        elif line == "config":
            for key, val in (("minstep", session.min_step), ("maxstep", session.max_step)):
                shown = "(query default)" if val is None else val
                print(f"  {key:9} {shown}", file=out)
            sol = session.solutions if session.solutions is not None else 1
            print(f"  {'sol':9} {sol}", file=out)
            print(f"  {'mode':9} {cfg.mode}", file=out)
            print(f"  {'language':9} {cfg.language}", file=out)
        elif line == "queries":
            for label, q in gls.queries.items():
                hi = "infinity" if q.max_step is None else q.max_step
                print(f"  {label}  steps {q.min_step}..{hi}", file=out)
        elif line.startswith(OVERRIDE_PREFIXES):
            try:
                settings, label = _override_line(line.split())
            except MalformedOverride as e:
                print(f"error: {e}; try 'help'", file=out)
                continue
            query = None if label is None else gls.queries.get(label)
            if label is not None and query is None:
                print(f"error: no query named '{label}'; 'queries' lists them", file=out)
                continue
            for tok, ov in settings:
                if ov.solutions is not None:
                    session.solutions = ov.solutions
                    print(f"sol set to {ov.solutions}", file=out)
                elif tok.startswith("minstep="):
                    session.min_step = ov.min_step
                    print(f"minstep set to {ov.min_step}", file=out)
                else:
                    session.min_step = ov.min_step
                    session.max_step = ov.max_step
                    hi = "infinity" if ov.max_step is None else ov.max_step
                    print(f"step range set to {ov.min_step}..{hi}", file=out)
            if query is None:
                continue
            try:
                with collector_paused():
                    run_query(gls, query, cfg, session, timings, out, err, quiet=True)
            except (UsageError, LangError) as e:
                print(f"error: {e}", file=out)
        elif "=" in line and line[: line.index("=")].strip().isidentifier():
            print(f"error: unknown override '{line[: line.index('=')].strip()}'; try 'help'", file=out)
        else:
            print(f"unknown command '{line}'; try 'help'", file=out)
