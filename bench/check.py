"""Per-job output checks.

An output file is read into the same summary the set-up computed from the
group (see groups.py): vertex count, edge or arc count, colors, a degree
multiset and, where the reference has one, the undirected shadow.  A job
passes only if its exit code, its stdout and its summary all match.
"""

from __future__ import annotations

from groups import multiset


def summarize(path: str, shadow: bool) -> dict:
    """Summary of a graph file; shadow=True adds the undirected shadow of
    a digraph (edge {u, v}, u != v, for an arc either way)."""
    with open(path, encoding="utf-8") as fh:
        kind, n = fh.readline().split()
        n = int(n)
        directed = kind == "digraph"
        ctok = fh.readline().split()
        colors = [int(c) for c in ctok[1:]] if ctok[0] == "colors" else None
        if colors is not None and len(colors) != n:
            raise ValueError(f"{len(colors)} colors for {n} vertices")
        out = [0] * n
        inn = [0] * n
        near = [set() for _ in range(n)] if shadow else None
        m = 0
        for line in fh:
            u, v = map(int, line.split())
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in {line!r}")
            m += 1
            out[u] += 1
            inn[v] += 1
            if shadow and u != v:
                near[u].add(v)
                near[v].add(u)
    summary = {"directed": directed, "n": n, "m": m}
    if directed:
        summary["colors"] = sorted(colors) if colors is not None else None
        col = colors or [None] * n
        summary["deg"] = multiset(zip(col, out, inn))
    else:
        summary["colors"] = colors
        summary["deg"] = multiset(out[v] + inn[v] for v in range(n))
    if shadow:
        degs = [len(s) for s in near]
        summary["shadow_m"] = sum(degs) // 2
        summary["shadow_deg"] = multiset(degs)
    return summary


def check(job: dict, rc, stdout: str) -> str | None:
    """None if the job's result is correct, else the reason it is not."""
    if rc != job["rc"]:
        return f"exit code {rc}, expected {job['rc']}"
    if job["stdout"] is not None and stdout.strip() != job["stdout"]:
        return f"stdout {stdout.strip()!r}, expected {job['stdout']!r}"
    expect = job["expect"]
    if expect is None:
        return None
    try:
        got = summarize(job["out"], shadow="shadow_m" in expect)
    except (OSError, ValueError, IndexError) as exc:  # IndexError: no colors line
        return f"unreadable output: {exc!r}"
    for key, want in expect.items():
        if got[key] != want:
            return f"{key} differs from the reference"
    return None
