"""Self-test of the output checks: a correct run counts no failure, and
each corrupted output or wrong verdict counts exactly one.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs a few small jobs through the same Runner the benchmark uses, once
as they are and then once per corruption, with the corruption applied
to one job's output after pgk wrote it.  Exits 0 if every case is
counted as expected.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import workloads
from worker import ROOT, Runner, import_pgk


# Each damage takes a job's exit code and output path, and returns the
# exit code the checker will see.


def drop_last_arc(rc, path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    return rc


def reverse_one_arc(rc, path):
    """Turn one non-loop arc u->v into v->u: counts stay, degrees do not."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for i in range(2, len(lines)):
        u, v = lines[i].split()
        if u != v:
            lines[i] = f"{v} {u}\n"
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return rc


def recolor_one_vertex(rc, path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    colors = lines[1].split()
    colors[-1] = str(int(colors[-1]) + 1)
    lines[1] = " ".join(colors) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return rc


def truncate(rc, path):
    open(path, "w", encoding="utf-8").close()
    return rc


def flip_exit_code(rc, path):
    return 1 - rc


class CorruptingCli:
    """Calls pgk's real CLI, then damages the result of one job."""

    def __init__(self, cli, victim, damage):
        self.cli = cli
        self.victim = victim
        self.damage = damage

    def main(self, argv):
        rc = self.cli.main(argv)
        if argv == self.victim["argv"]:
            rc = self.damage(rc, self.victim["out"])
        return rc


def main():
    cli, _ = import_pgk()
    d = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(d)
    try:
        rng = random.Random("selftest")
        jobs = workloads.reconstruct_jobs(["Q8xZ3"], "pow", rng, d)
        jobs += workloads.generate_jobs([("spec", "D6", "cdpow")], rng, d)
        jobs += workloads.iso_jobs([("Z12", "Z2xZ6")], rng, d)
        reconstruct, generate, iso = jobs
        cases = [
            ("no damage", None, None, 0),
            ("reconstruct output loses its last arc", reconstruct, drop_last_arc, 1),
            ("reconstruct output has one arc reversed", reconstruct, reverse_one_arc, 1),
            ("generate output has one wrong color", generate, recolor_one_vertex, 1),
            ("generate output is empty", generate, truncate, 1),
            ("iso verdict is inverted", iso, flip_exit_code, 1),
        ]
        ok = True
        for label, victim, damage, want in cases:
            runner = Runner(CorruptingCli(cli, victim, damage) if victim else cli, jobs)
            runner.run_pass()
            got = len(runner.failures)
            ok &= got == want and runner.attempted == len(jobs)
            print(f"{'ok  ' if got == want else 'FAIL'} {label}: {got} of {runner.attempted} failed, expected {want}")
    finally:
        shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(d))
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
