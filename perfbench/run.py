"""Benchmark of the cplusplan planning pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process
(``bench_workload.py``) that only times the pipeline; this process
computes the independent references, checks every answer against them and
prints one JSON line last.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, whose
spans and per-horizon records also go to ``perfbench/out/``.

Reported times are corrected for the speed of the shared host (see
``bench_clock.py``); the raw ones are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median over this many fresh processes before the workload
# and as many after it, so that a short burst of load on the machine does
# not decide it.  One more process before them warms the file cache.
SETUP_SAMPLES = 8
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"solve.stable_ratio": "ratio", "export.bytes": "bytes"}.get(name, "count")


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks; q=0.5 is the median."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _worker(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "bench_workload.py"), *args]


def measure_setup(workload: str, skip: int = 0) -> list[tuple[float, float]]:
    """(raw seconds, host-speed factor) from starting a fresh process until
    it could send a query, for ``SETUP_SAMPLES`` processes after ``skip``
    unmeasured ones."""
    samples = []
    for _ in range(skip + SETUP_SAMPLES):
        factor = bench_clock.burst_factor()
        t0 = time.perf_counter()
        with subprocess.Popen(_worker("--workload", workload, "--setup-only"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("the set-up probe failed")
        samples.append((elapsed, factor))
    return samples[skip:]


def run_workload(args, deadline: float) -> dict:
    cmd = _worker("--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("the workload process ran out of time")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"the workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check(workload: str, result: dict) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, reasons) over every recorded answer."""
    import bench_reference
    import bench_workload

    specs = {s["id"]: s for s in bench_workload.WORKLOADS[workload]}
    attempted = sum(len(p["latencies"]) for p in result["passes"])
    failed = len(result["errors"])
    reasons = [f"{e['query']}: {e['error']}" for e in result["errors"]]
    wrong = 0
    for qid, seen in result["seen"].items():
        for key, n in seen.items():
            why = bench_reference.check_answer(specs[qid], result["answers"][key])
            if why is not None:
                wrong += n
                reasons.append(f"{qid}: {why}")
    verified = sum(n for seen in result["seen"].values() for n in seen.values()) - wrong
    return attempted, failed + wrong, wrong == 0 and verified > 0, reasons


def end_to_end_metrics(result: dict, setup: list[tuple[float, float]],
                       corrected: bool = True) -> dict[str, float]:
    """Medians over passes.  Latency percentiles are taken within each pass
    first, so a pass of one query gives its latency for both."""
    passes = [p for p in result["passes"] if not p["traced"]]

    def med(values):
        return statistics.median(v * f if corrected else v for v, f in values)

    return {
        "setup_s": med(setup),
        "wall_s": med((p["wall_s"], p["factor"]) for p in passes),
        "query_p50_s": med((percentile(p["latencies"], 0.5), p["factor"]) for p in passes),
        "query_p90_s": med((percentile(p["latencies"], 0.9), p["factor"]) for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result: dict) -> dict[str, float]:
    """Medians over traced passes, times corrected for host speed."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]

    def value(p, name):
        v = p["layers"][name]
        return v * p["factor"] if layer_unit(name) == "s" else v

    out = {name: statistics.median(value(p, name) for p in traced)
           for name in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall_s"] * p["factor"] for p in traced)
    out["bench.traced_wall_s"] = traced_wall
    out["bench.trace_overhead_s"] = traced_wall - statistics.median(
        p["wall_s"] * p["factor"] for p in plain)
    return out


def write_trace(args, result: dict, metrics: dict) -> Path:
    import bench_trace

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in bench_trace.LAYER_MAP.items()},
        "per_layer": metrics,
        "passes": result["passes"],
        "horizons": result["horizons"],
        "spans": result["spans"],
    }, indent=1))
    return path


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import bench_workload

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench_workload.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cplusplan" / "__init__.py").is_file():
        print(f"error: no cplusplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = started + RUN_LIMIT_S

    try:
        setup = [] if args.trace else measure_setup(args.workload, skip=1)
        result = run_workload(args, deadline)
        if not args.trace:
            setup += measure_setup(args.workload)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted, failed, correct, reasons = check(args.workload, result)
    for reason in reasons:
        print(f"rejected: {reason}")

    samples = sum(len(p["latencies"]) for p in result["passes"] if not p["traced"])
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{samples} untraced query samples, {attempted} attempted, {failed} failed")
    if args.trace:
        metrics = per_layer_metrics(result)
        units = {name: layer_unit(name) for name in metrics}
        print("per horizon, first traced pass, raw times:")
        for h in result["horizons"]:
            print(f"  {h['query']} k={h['k']}: rules {h['rules']} vars {h['vars']} "
                  f"clauses {h['clauses']} decisions {h['decisions']} conflicts "
                  f"{h['conflicts']} propagations {h['propagations']} cnf "
                  f"{h['cnf_s']:.4f}s search {h['search_s']:.4f}s stability "
                  f"{h['stability_s']:.4f}s")
        print(f"tracing overhead {metrics['bench.trace_overhead_s']:+.4f}s per pass; "
              f"trace in {write_trace(args, result, metrics).relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(result, setup)
        units = END_TO_END_UNITS
        raw = end_to_end_metrics(result, setup, corrected=False)
        print("raw: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        factors = [p["factor"] for p in result["passes"]]
        print(f"host-speed factors {min(factors):.3f}..{max(factors):.3f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
