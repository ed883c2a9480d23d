"""The host's current speed, from a fixed pure-Python reference loop.

On a shared host the vCPUs change speed by up to 1.9x over minutes, and
every job slows by the same factor.  The benchmark therefore times this
loop next to the jobs and reports their seconds at reference speed:
measured seconds times REFERENCE_S over the loop's measured seconds.
The loop is the benchmark's own code and imports nothing from pgk, so a
change to pgk moves the reported times exactly as it moves the measured
ones.  The loop does the kind of work pgk does: integer arithmetic,
sets and dicts of ints, tuples, sorting.
"""

from __future__ import annotations

import statistics
import time

# Seconds one loop() takes at reference speed.  Any constant would do; on
# a shared 2-vCPU Xeon host the loop took 6 to 11 ms, so reported seconds
# there are at or above measured ones.
REFERENCE_S = 0.012


def loop(n=2400):
    """Fixed work: sets of multiples mod n, sorted by size and intersected."""
    adj = {}
    for v in range(1, n):
        adj[v] = {(v * k) % n for k in range(1, 13)}
    total = 0
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    for v in order[:400]:
        nb = adj[v]
        for u in (v + 1, v + 7, v + 31):
            other = adj.get(u % n or 1)
            total += len(nb & other) + len(nb | other)
    pairs = {(v, (v * v) % 97): v % 5 for v in range(n)}
    return total + sum(pairs.values())


def sample():
    """Seconds one loop() takes now: the faster of two runs, which drops
    most interruptions of a single run."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times)


def factor(samples):
    """The scale from measured seconds to seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)
