"""Runs one workload's job list in this fresh, single-threaded process.

Usage: python3 bench/worker.py JOBS_JSON --seconds S --trace 0|1 --trace-file F

Imports pgk from the checkout's src/, runs the jobs back to back (a
closed loop with one client), checks every output, and prints one JSON
object with the raw measurements as its last stdout line.  The job list
is repeated until S seconds have passed; the first pass is a warm-up,
and each job's time is its median over the other passes.  Each job
starts with pgk's functools caches cleared, as in a fresh `pgk` process,
and after one run of the reference loop in calibrate.py; the untraced
times are reported at reference speed (see calibrate.py).  Peak memory
is this process's, so the set-up's memory is not in it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import calibrate
import check
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_pgk():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pgk.cli

    elapsed = time.perf_counter() - start
    if not os.path.abspath(pgk.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"pgk was imported from {pgk.cli.__file__}, not from {src}")
    return pgk.cli, elapsed


def program_caches():
    """cache_clear of every functools cache in pgk's modules."""
    clears = []
    for name, module in list(sys.modules.items()):
        if name == "pgk" or name.startswith("pgk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    clears.append(value.cache_clear)
    return clears


class Runner:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.cache_clears = program_caches()
        self.calibration: list[float] = []

    def run_job(self, job, tracer):
        if job["out"] and os.path.exists(job["out"]):
            os.remove(job["out"])  # a job that writes nothing must not pass
        out, err = io.StringIO(), io.StringIO()
        # each job starts as a fresh `pgk` process would: empty caches
        for clear in self.cache_clears:
            clear()
        gc.collect()
        self.calibration.append(calibrate.sample())
        start = time.perf_counter()
        if tracer is not None:
            tracer.job = job["id"]
            span = tracer.open("job")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "raised"
            err.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.close(span)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        reason = check.check(job, rc, out.getvalue())
        if reason is not None:
            self.failures.append(f"{job['id']}: {reason}")
            print(f"FAILED {job['id']}: {reason}\n{err.getvalue()}", file=sys.stderr)
        return elapsed

    def run_pass(self, tracer=None):
        """Seconds per job for one pass over the job list.  The pass's
        reference-loop times are left in self.calibration."""
        self.calibration = []
        restore = None
        if tracer is not None:
            restore, missing = tracer.install()
            for name in missing:
                print(f"trace: {name} not found, not traced", file=sys.stderr)
        try:
            return [self.run_job(job, tracer) for job in self.jobs]
        finally:
            if restore is not None:
                restore()


def per_job(passes):
    """Median seconds of each job over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def repeat(run, seconds, at_least):
    """Call run() at least `at_least` times, and again while another call
    is expected to end within `seconds` of the start."""
    start = time.perf_counter()
    last = 0.0
    results = []
    while len(results) < at_least or time.perf_counter() + last <= start + seconds:
        t = time.perf_counter()
        results.append(run())
        last = time.perf_counter() - t
    return results


def untraced(runner, seconds):
    """The first pass warms the interpreter up and is not timed.  Each
    pass's job times are scaled to reference speed by that pass's
    median reference-loop time."""

    def scaled_pass():
        times = runner.run_pass()
        f = calibrate.factor(runner.calibration)
        return [t * f for t in times], times, f

    passes = repeat(scaled_pass, seconds, 2)[1:]
    jobs = per_job([p[0] for p in passes])
    measured = per_job([p[1] for p in passes])
    return {
        "wall_s": sum(jobs),
        "job_s.p50": statistics.median(jobs),
        "measured_wall_s": sum(measured),
        "speed": [round(p[2], 4) for p in passes],
        "passes": len(passes),
        "jobs": len(jobs),
    }


def traced(runner, seconds, trace_file):
    """After a warm-up pass, alternate untraced passes and span-only
    passes for the time given, then run one pass with tracemalloc for
    the memory peaks."""
    start = time.perf_counter()
    runner.run_pass()
    plain, tracers = [], []

    def pair():
        # alternate which pass goes first, so drift in machine speed
        # does not bias the overhead
        tracer = tracing.Tracer(memory=False)
        if len(tracers) % 2:
            runner.run_pass(tracer)
            plain.append(runner.run_pass())
        else:
            plain.append(runner.run_pass())
            runner.run_pass(tracer)
        tracers.append(tracer)

    repeat(pair, seconds - (time.perf_counter() - start), 1)
    per_pass = [tracing.times_and_counts(t.spans) for t in tracers]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    traced_passes = [[s.duration for s in t.spans if s.name == "job"] for t in tracers]
    metrics["trace.overhead_s"] = sum(per_job(traced_passes)) - sum(per_job(plain))

    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        runner.run_pass(memory)
    finally:
        tracemalloc.stop()
    metrics.update(tracing.peaks(memory.spans))

    report = layer_report(runner.jobs, tracers[-1].spans)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "metrics": metrics,
                "share": report["share"],
                "jobs": report["jobs"],
                "spans": [s.as_dict(i) for i, s in enumerate(tracers[-1].spans)],
                "memory_spans": [s.as_dict(i) for i, s in enumerate(memory.spans)],
            },
            fh,
            indent=1,
        )
    print_report(report)
    return metrics


def layer_report(jobs, spans):
    """Share of job time per layer, and per-job sizes, from one pass."""
    total = sum(s.duration for s in spans if s.name == "job")
    share = {}
    for s in spans:
        key = "cli.other" if s.name == "job" else s.name
        share[key] = share.get(key, 0.0) + s.self_s / total
    sizes = {job["id"]: dict(job["sizes"]) for job in jobs}
    for s in spans:
        for key, value in s.counts.items():
            row = sizes[s.job]
            row[key] = row.get(key, 0) + value
        if s.name == "job":
            sizes[s.job]["job_s"] = s.duration
    return {"share": dict(sorted(share.items(), key=lambda kv: -kv[1])), "jobs": sizes}


def print_report(report):
    print("share of job time per layer (self time):", file=sys.stderr)
    for name, frac in report["share"].items():
        print(f"  {name:24s} {100 * frac:6.2f}%", file=sys.stderr)
    print("per-job sizes:", file=sys.stderr)
    for jid, row in report["jobs"].items():
        cells = " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items())
        print(f"  {jid:32s} {cells}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    cli, import_s = import_pgk()
    import_s *= calibrate.factor([calibrate.sample() for _ in range(5)])
    with open(args.jobs, encoding="utf-8") as fh:
        runner = Runner(cli, json.load(fh))
    if args.trace:
        metrics = traced(runner, args.seconds, args.trace_file)
    else:
        metrics = untraced(runner, args.seconds)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["import_s"] = import_s
    print(
        json.dumps(
            {
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "failures": runner.failures[:20],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
