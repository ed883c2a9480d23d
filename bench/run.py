"""The pgk benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pow-reconstruct, epow-reconstruct, table-generate, dpow-iso
(see README.md).  The set-up writes the seeded inputs and their reference
answers under .bench_work/, five times, and reports the median as
setup_s, plus the time the measuring process took to import pgk.  A
fresh worker process then runs the job list for S seconds and checks
every output.  The untraced times (setup_s, wall_s, job_s.p50) are
seconds at reference speed: each is scaled by the reference loop of
calibrate.py timed next to it, so that the host's changes of speed do
not show as changes of the program.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics from a traced run and writes the spans to
.bench_out/trace-NAME-N.json.  Exits non-zero without a result when the
checkout has no pgk sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "job_s.p50": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def setup(workload, seed, work):
    """Write the inputs SETUP_REPEATS times; keep the last copy.  Each
    time is scaled to reference speed by the reference loop run right
    after it."""
    times = []
    for i in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d)
        start = time.perf_counter()
        workloads.setup(workload, seed, d)
        elapsed = time.perf_counter() - start
        times.append(elapsed * calibrate.factor([calibrate.sample() for _ in range(5)]))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(d)
    return d, statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "pgk", "cli.py")):
        print(f"error: no pgk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        d, setup_s = setup(args.workload, args.seed, work)
        trace_file = None
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            trace_file = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-{args.seed}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(d, "jobs.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=TIME_LIMIT_S - (time.perf_counter() - start))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print("error: the worker did not finish in time", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
            return 3
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    m = raw["metrics"]
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in units.items()}
    else:
        m["setup_s"] = setup_s + m["import_s"]
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted, failed = raw["attempted"], raw["failed"]
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: {m['passes']} timed passes of {m['jobs']} jobs")
        print(f"measured wall_s {m['measured_wall_s']:.4f} s; host speed per pass vs reference: {m['speed']}")
    print(f"{attempted} jobs attempted, {failed} failed, failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for reason in raw["failures"]:
        print(f"  failed: {reason}")
    for name, v in metrics.items():
        print(f"  {name:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
