"""Benchmark: seeded streams of CLI jobs, run in-process and checked.

    python3 bench/run.py --workload finite-solve --seed 1 --seconds 20 --trace 0

Run it from the repository root (it changes there itself). The library is
imported from src/ of the same checkout, never from an installed copy. One
process, one closed-loop client, no threads: each job is one call of
twisted_derivations.cli.main(argv) with stdout and stderr captured, timed
from the call to its return, then checked outside the timed region.

--trace 0 measures the end-to-end metrics: jobs are run in whole rounds
(see workloads.py) until the measured time reaches --seconds. --trace 1
installs the per-layer tracer and runs exactly one round, so its counts
depend only on the seed and the program; it then replays the same jobs
untraced to state the tracing overhead.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics; the lines before it list every figure by name and
unit. A fuller record, with per-job digests and every per-layer figure,
is written under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ".bench_work"
SETUP_SPAWNS = 9

# the figures of the result line, as listed in BENCHMARK.json; every
# other figure goes to the results file only
END_TO_END = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    "linalg.int_rows_fed", "linalg.int_rows_useful", "linalg.int_useful_ratio",
    "linalg.int_rank_total", "linalg.field_eqs_fed",
    "derivations.is_inner_calls", "derivations.leibniz_pairs",
    "derivations.value_calls", "algebra.scalar_new", "algebra.element_ops",
    "groups.multiply_calls", "groups.endo_calls", "groups.ball_size",
    "groupoid.components_count", "cli.stdout_bytes", "cli.parse_s",
    "cli.render_s", "groups.build_s", "groups.endo_build_s",
    "derivations.self_s", "groups.self_s", "cli.self_s", "trace.unspanned_s",
    "trace.overhead_s",
]


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "from twisted_derivations.cli import build_parser; build_parser()")


def load_package():
    """Import twisted_derivations from this checkout's src/, or exit non-zero."""
    init = os.path.join(ROOT, "src", "twisted_derivations", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: {init} not found; run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twisted_derivations
    import twisted_derivations.cli
    if os.path.abspath(twisted_derivations.__file__) != init:
        sys.exit(f"bench: imported {twisted_derivations.__file__}, not {init}")
    return twisted_derivations


def measure_setup():
    """Median wall time of a fresh interpreter importing the CLI."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed: {proc.stderr.decode()[-500:]}")
        if i:  # the first spawn may compile bytecode; users pay that once
            times.append(elapsed)
    return statistics.median(times), times


def call_cli(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call.

    A traceback is a failed job, not the end of the run: its exit code is
    None and stderr carries the traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs jobs one at a time, checks each, and keeps what the metrics need."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.durations = []
        self.records = []
        self.failures = []

    def run(self, job):
        gc.collect()
        result = {}

        def call():
            result["out"] = call_cli(self.main, job.argv)

        if self.tracer is not None:
            duration = self.tracer.run_job(len(self.records), call)
        else:
            start = perf_counter()
            call()
            duration = perf_counter() - start
        code, stdout, stderr = result["out"]
        reason = checks.check(job, code, stdout, stderr)
        if reason is not None:
            self.failures.append({"job": len(self.records), "argv": job.argv,
                                  "reason": reason})
        self.durations.append(duration)
        self.records.append({
            "kind": job.kind, "band": job.band, "seconds": duration,
            "exit": code, "ok": reason is None, "stdout_bytes": len(stdout),
            "digest": hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest(),
        })
        return duration


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize_stream(jobs, records):
    seen = set()
    repeats = 0
    for job in jobs:
        repeats += job.group_spec in seen
        seen.add(job.group_spec)
    mix = {}
    for rec in records:
        key = f"{rec['kind']}/{rec['band']}"
        mix.setdefault(key, []).append(rec["seconds"])
    return {
        "repeat_share": repeats / len(jobs),
        "mix": {key: {"jobs": len(v), "median_s": statistics.median(v)}
                for key, v in sorted(mix.items())},
    }


def run_untraced(main, stream, seconds):
    runner = Runner(main)
    jobs = []
    measured = 0.0
    # stop only at a round boundary, so every run has the same mix
    while measured < seconds:
        for job in stream.next_round():
            jobs.append(job)
            measured += runner.run(job)
    failed = len(runner.failures)
    durations = runner.durations
    metrics = {
        "jobs_per_s": (len(jobs) - failed) / measured,
        "job_p50_s": statistics.median(durations),
        "job_p90_s": percentile(durations, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"error_ratio": failed / len(jobs), "measured_s": measured,
             "rounds": stream.rounds, "jobs_beyond_p90": sum(
                 d > metrics["job_p90_s"] for d in durations)}
    return jobs, runner, metrics, extra


def run_traced(package, stream):
    tracer = tracing.Tracer()
    jobs = stream.next_round()
    tracer.install(package)
    try:
        traced = Runner(package.cli.main, tracer)
        for job in jobs:
            traced.run(job)
    finally:
        tracer.uninstall()
    plain = Runner(package.cli.main)
    for job in jobs:
        plain.run(job)
    layer = tracer.metrics()
    traced_s, untraced_s = sum(traced.durations), sum(plain.durations)
    layer["trace.untraced_s"] = untraced_s
    layer["trace.overhead_s"] = traced_s - untraced_s
    layer["trace.overhead_ratio"] = traced_s / untraced_s - 1
    failures = traced.failures + plain.failures
    for i, (a, b) in enumerate(zip(traced.records, plain.records)):
        if a["digest"] != b["digest"]:
            failures.append({"job": i, "argv": jobs[i].argv,
                             "reason": "tracing changed the output"})
    return jobs, traced, layer, failures, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    package = load_package()
    inputs = os.path.join(WORK, "inputs", f"{args.workload}-{args.seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)

    stream = workloads.Stream(args.workload, args.seed, inputs)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.platform()}}
    if args.trace:
        jobs, runner, metrics, failures, spans = run_traced(package, stream)
        names = PER_LAYER
        result["per_layer"] = metrics
        spans_path = os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"job": j, "name": n, "start": s, "end": e, "depth": d}
                       for j, n, s, e, d in spans], fh)
    else:
        setup_s, setup_samples = measure_setup()
        metrics = {"setup_s": setup_s}
        jobs, runner, run_metrics, extra = run_untraced(package.cli.main, stream,
                                                        args.seconds)
        metrics.update(run_metrics)
        failures = runner.failures
        names = list(END_TO_END)
        result.update(extra, setup_samples=setup_samples)
    result.update(summarize_stream(jobs, runner.records))
    result["failures"] = failures
    result["jobs"] = [dict(rec, argv=job.argv)
                      for job, rec in zip(jobs, runner.records)]
    shutil.rmtree(inputs, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, metrics=metrics), fh, indent=1)

    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g} {unit_of(key)}")
    if not args.trace:
        print(f"error_ratio {result['error_ratio']:.6g}")
    print(f"repeat_share {result['repeat_share']:.4f}")
    for failure in failures[:10]:
        print(f"FAILED job {failure['job']}: {failure['reason']}", file=sys.stderr)
    failed = len({f["job"] for f in failures})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit_of(key)}
                    for key in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
