"""The benchmark's workloads and the process that runs one of them.

Each workload is a fixed list of planning queries over the shipped
examples, run as a single-client closed loop: one process, no threads,
each query starts when the previous one has returned.  The seed only
shuffles the order of the queries within each pass.

* ``search-stress``: ferryman-stress, shortest plan over horizons 0..9
  through the API.  Model search is over 95% of the time.
* ``enumerate-plans``: every plan at one fixed horizon through the API
  (bw-pair k=3, bw-test k=3, ferryman k=9), so the per-candidate
  stability check and the enumeration dominate.
* ``cli-batch``: ``cli.main`` in-process on three small queries, each as
  ``--mode=incremental``, ``--mode=static`` and ``--to-grounder``:
  front end, translation, CNF rebuilds and stage dumps dominate.

hanoi-stress (horizon 63, about 159k clauses) is left out: the solver
cannot finish it within any per-query cap this benchmark could afford.

Run as a script, this module is the workload process: it imports the
package from ``src/``, runs passes for the given number of seconds and
prints its timings and answers as one JSON line.  With ``--setup-only``
it stops once it could send the first query.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

import bench_clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def api_query(example, query, lo, hi, sol):
    return {"id": f"{example}/{query} k={lo}..{hi} sol={sol}", "kind": "api",
            "example": example, "query": query, "lo": lo, "hi": hi, "sol": sol}


def cli_query(example, query, mode):
    return {"id": f"{example}/{query} {mode}", "kind": "cli",
            "example": example, "query": query, "mode": mode}


_CLI_MODES = ("--mode=incremental", "--mode=static", "--to-grounder")

WORKLOADS = {
    "search-stress": [api_query("ferryman-stress", "cross", 0, 9, 1)],
    "enumerate-plans": [
        api_query("bw-pair", "tower", 3, 3, 0),
        api_query("bw-test", "simple", 3, 3, 0),
        api_query("ferryman", "cross", 9, 9, 0),
    ],
    "cli-batch": [
        cli_query(example, query, mode)
        for example, query in (("bw-pair", "tower"), ("bw-test", "simple"),
                               ("bw-test", "impossible"))
        for mode in _CLI_MODES
    ],
}

# One untimed pass before measuring, so that lazy set-up and allocator
# growth do not land in the first timed pass.  search-stress warms up on
# a shorter horizon range, as its own query takes many seconds.
WARMUP = {
    "search-stress": [api_query("ferryman-stress", "cross", 0, 7, 1)],
    "enumerate-plans": WORKLOADS["enumerate-plans"],
    "cli-batch": WORKLOADS["cli-batch"],
}

# Per-query time cap; a query that reaches it counts as failed.
QUERY_CAP_S = {"search-stress": 120.0, "enumerate-plans": 30.0, "cli-batch": 30.0}
# No query runs past this point of the process's life, so that the run
# ends well within the three minutes a run may take.
PROCESS_LIMIT_S = 150.0


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


class Runner:
    """Runs one query the way a user of the API or the CLI would."""

    def __init__(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import cplusplan
        from cplusplan import cli, suite

        if not Path(cplusplan.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"cplusplan was imported from {cplusplan.__file__}, not {SRC}")
        self.api = cplusplan
        self.cli = cli
        self.examples = suite.EXAMPLES_DIR

    def run(self, spec: dict) -> dict:
        path = str(self.examples / spec["example"])
        if spec["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            rc = self.cli.main([path, f"query={spec['query']}", spec["mode"]],
                               out=out, err=err, repl_source=io.StringIO())
            return {"rc": rc, "out": out.getvalue()}
        api = self.api
        gls = api.ground_description(api.parse_files([path]))
        label = spec["query"]
        query = dataclasses.replace(gls.queries[label], min_step=spec["lo"], max_step=spec["hi"])
        res = api.solve_incremental(api.incremental_program(gls, query),
                                    api.SolveConfig(max_solutions=spec["sol"]))
        plans = [api.render_plan_view(api.to_plan_view(m, gls, res.found_step, label),
                                      hide_false=True) for m in res.models]
        return {"found_step": res.found_step, "plans": plans}


def canonical(answer: dict) -> dict:
    """The answer without the CLI's timing line, which varies run to run."""
    if "out" not in answer:
        return answer
    lines = [ln for ln in answer["out"].splitlines(keepends=True)
             if not ln.startswith("timings: ")]
    return {"rc": answer["rc"], "out": "".join(lines)}


def digest(answer: dict) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


class Measurement:
    """Timed passes over one workload, with answers kept by digest."""

    def __init__(self, workload: str, seed: int, born: float) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.born = born
        self.runner = Runner()
        self.passes: list[dict] = []
        self.errors: list[dict] = []
        self.distinct: dict[str, dict] = {}
        self.seen: dict[str, dict[str, int]] = {}

    def _run_capped(self, spec: dict):
        """(latency, answer or None, error or None) for one query."""
        cap = min(QUERY_CAP_S[self.workload],
                  PROCESS_LIMIT_S - (time.perf_counter() - self.born))
        if cap <= 0:
            return 0.0, None, "process time limit reached before the query"
        answer = error = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            answer = self.runner.run(spec)
        except QueryTimeout:
            error = f"time cap of {cap:.0f}s reached"
        except Exception as e:  # a crash is a failed query, not a failed benchmark
            error = repr(e)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, answer, error

    def run_pass(self, specs: list[dict], tracer=None, record: bool = True) -> dict:
        """Raw times of one pass, and the host-speed factor that corrects them."""
        order = self.rng.sample(specs, len(specs))
        results = []
        sampler = bench_clock.Sampler()
        sampler.start()
        start = time.perf_counter()
        for spec in order:
            if tracer is not None:
                tracer.begin_query(spec["id"])
            results.append((spec, *self._run_capped(spec)))
        wall = time.perf_counter() - start
        factor = sampler.stop()
        if not record:
            return {}
        done = {"wall_s": wall, "factor": factor, "traced": tracer is not None,
                "latencies": [lat for _, lat, _, _ in results]}
        for spec, _, answer, error in results:
            if error is not None:
                self.errors.append({"query": spec["id"], "error": error})
                continue
            answer = canonical(answer)
            key = digest(answer)
            self.distinct.setdefault(key, answer)
            per_query = self.seen.setdefault(spec["id"], {})
            per_query[key] = per_query.get(key, 0) + 1
        self.passes.append(done)
        return done

    def result(self) -> dict:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"passes": self.passes, "errors": self.errors,
                "answers": self.distinct, "seen": self.seen,
                "peak_rss_mb": peak_kb / 1024.0}


def measure(workload: str, seed: int, seconds: float, trace: bool, born: float) -> dict:
    """Passes until ``seconds`` have gone by.  When tracing, traced and
    untraced passes alternate, so that their difference is the overhead."""
    m = Measurement(workload, seed, born)
    m.run_pass(WARMUP[workload], record=False)
    tracer = None
    if trace:
        import bench_trace

        tracer = bench_trace.Tracer()
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None and i % 2 == 1:
            tracer.reset_pass()
            tracer.keep_spans = i == 1
            inst = bench_trace.install(tracer)
            try:
                done = m.run_pass(WORKLOADS[workload], tracer=tracer)
            finally:
                inst.uninstall()
            done["layers"] = tracer.layer_metrics()
        else:
            m.run_pass(WORKLOADS[workload])
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
            break
    out = m.result()
    if tracer is not None:
        out["spans"] = tracer.spans
        out["horizons"] = tracer.horizons
    return out


def main(argv: list[str]) -> int:
    born = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_only:
        Runner()
        print("ready", flush=True)
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), born)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
