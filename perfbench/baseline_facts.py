"""Reproduces the solver facts ROADMAP.md records, from the trace.

    python3 perfbench/baseline_facts.py

A check on the tracer, not on the program: the figures below describe the
chronological DPLL search that ROADMAP.md measured, and a faster search is
expected to change them.  Exits 1 when a fact does not hold.

* ``learned_units`` is 0 on every shipped query that finishes
  (hanoi-stress does not).
* ferryman-stress propagations grow about 5x per horizon: about 5.2k at
  k=5, 14k, 74k, 423k and 2.26M at k=9.
* per-horizon solver counts, and the program's own ``Stats.propagations``
  (search and stability checks together: 75,335 on hanoi, 1,741 on
  bw-test), repeat exactly across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import bench_trace
import bench_workload

ROADMAP_PROPAGATIONS = {5: 5_200, 6: 14_000, 7: 74_000, 8: 423_000, 9: 2_260_000}
SHIPPED = [("bw-pair", "tower"), ("bw-test", "simple"), ("bw-test", "impossible"),
           ("hanoi", "transfer"), ("ferryman", "cross"), ("ferryman-stress", "cross")]
HASH_SEEDS = ("0", "1")
STATS_PROPAGATIONS = {("hanoi", "transfer"): 75_335, ("bw-test", "simple"): 1_741}


def traced_horizons(example: str, query: str) -> tuple[list[dict], int]:
    """Per-horizon records and learned units of one shortest-plan query."""
    runner = bench_workload.Runner()
    gls = runner.api.ground_description(runner.api.parse_files(
        [str(runner.examples / example)]))
    q = gls.queries[query]
    spec = bench_workload.api_query(example, query, q.min_step, q.max_step, 1)
    tracer = bench_trace.Tracer()
    tracer.keep_spans = True
    tracer.begin_query(spec["id"])
    inst = bench_trace.install(tracer)
    try:
        runner.run(spec)
    finally:
        inst.uninstall()
    return tracer.horizons, tracer.counts["solve.learned_units"]


def counts_only(horizons: list[dict]) -> list[list[int]]:
    keys = ("k", "rules", "vars", "clauses", "decisions", "conflicts", "propagations")
    return [[h[k] for k in keys] for h in horizons]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--counts"]:
        horizons, _ = traced_horizons(argv[1], argv[2])
        from cplusplan import suite  # importable once the Runner has set the path

        case = next(c for c in suite.CASES if (c.name, c.query) == (argv[1], argv[2]))
        print(json.dumps([counts_only(horizons), suite.run_case(case)[1].stats.propagations]))
        return 0
    ok = True
    for example, query in SHIPPED:
        horizons, learned = traced_horizons(example, query)
        total = sum(h["propagations"] for h in horizons)
        print(f"{example}/{query}: {len(horizons)} horizons, {total} search "
              f"propagations, learned_units {learned}")
        ok &= learned == 0
        if example == "ferryman-stress":
            for h in horizons:
                want = ROADMAP_PROPAGATIONS.get(h["k"])
                note = "" if want is None else f" (ROADMAP: about {want})"
                print(f"  k={h['k']}: {h['propagations']} propagations{note}")
                if want is not None:
                    ok &= abs(h["propagations"] - want) <= 0.05 * want
    for (example, query), want in STATS_PROPAGATIONS.items():
        runs = set()
        for seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--counts", example, query],
                env=env, capture_output=True, text=True, check=True).stdout
            runs.add(out.strip())
        same = len(runs) == 1
        total = json.loads(runs.pop())[1]
        print(f"{example}/{query}: counts identical under PYTHONHASHSEED "
              f"{', '.join(HASH_SEEDS)}: {same}; Stats.propagations {total} (expected {want})")
        ok &= same and total == want
    print("all facts hold" if ok else "a fact does not hold")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
