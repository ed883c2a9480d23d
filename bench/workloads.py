"""The four workloads: fixed job lists, and the seeded set-up that writes
their input files and reference answers.

A job is one `pgk` command line.  The seed only relabels: it permutes
vertex ids in graph files and element indices in Cayley tables, so every
seed runs the same groups at the same sizes.  Detection cost depends on
vertex order, so compare two commits on the same seeds.
"""

from __future__ import annotations

import json
import os
import random

import groups

# Each workload loads a different layer; README.md gives the per-layer table.
POW_RECONSTRUCT = [
    # non-cyclic groups with a large cyclic factor: mark_ccg_power dominates
    # and m <= 46, so R3 gluing is cheap
    "Q8xZ15", "Q8xZ21", "Q8xZ45", "Z2xZ2xZ45", "ElemAb(3,3)xZ20", "D45xZ7",
    # cyclic: detection is fast, parsing and CDPow expansion dominate
    "Z360", "Z420",
]
EPOW_RECONSTRUCT = [
    # many maximal cyclic subgroups: r3_from_r4 dominates
    "D90", "D180", "ElemAb(2,7)", "ElemAb(2,8)", "ElemAb(3,5)", "D60xZ5",
]
TABLE_GENERATE = [
    # (Cayley-table file or spec, kind); tables make validation dominate
    ("file", "D50", "pow"),
    ("file", "Q8xZ15", "epow"),
    ("file", "D75", "cdpow"),
    ("file", "D100", "pow"),
    ("file", "D125", "epow"),
    # a large spec: construction and format_graph dominate, 3.5 MB output
    ("spec", "Z1000", "pow"),
]
DPOW_ISO = [
    # (group 1, group 2); equal names are two relabelings of one group
    ("Z360", "Z360"),
    ("Z360", "Z2xZ180"),
    ("Q8xZ45", "Q8xZ45"),
    ("Q8xZ45", "Z2xZ2xZ2xZ45"),
    ("Z420", "Z420"),
    ("D8xZ45", "D8xZ45"),
    ("Z720", "Z720"),
    ("Heis5", "Heis5"),
    ("Heis3xZ9", "Heis3xZ9"),
    ("ElemAb(2,8)", "ElemAb(2,8)"),
]

NAMES = ("pow-reconstruct", "epow-reconstruct", "table-generate", "dpow-iso")


def _job(jid, argv, *, rc=0, stdout=None, out=None, expect=None, sizes=None):
    return {
        "id": jid,
        "argv": argv,
        "rc": rc,
        "stdout": stdout,
        "out": out,
        "expect": expect,
        "sizes": sizes or {},
    }


def reconstruct_jobs(names, kind, rng, d):
    jobs = []
    for i, name in enumerate(names):
        G = groups.Group(name)
        edges = G.power_edges() if kind == "pow" else G.enhanced_edges()
        src = os.path.join(d, f"in{i}.txt")
        groups.write_graph(src, G.order, edges, groups.permutation(G.order, rng), directed=False)
        out = os.path.join(d, f"out{i}.txt")
        jobs.append(
            _job(
                f"{kind}:{name}",
                ["reconstruct", src, "--kind", kind, "--out", out, "--emit-stage", "cdpow"],
                out=out,
                expect=groups.cdpow_summary(G, shadow=True),
                sizes={"n": G.order, "E": len(edges)},
            )
        )
    return jobs


def generate_jobs(entries, rng, d):
    summary = {
        "pow": groups.power_summary,
        "epow": groups.enhanced_summary,
        "cdpow": lambda G: groups.cdpow_summary(G, shadow=False),
    }
    jobs = []
    for i, (source, name, kind) in enumerate(entries):
        G = groups.Group(name)
        if source == "file":
            table = os.path.join(d, f"table{i}.txt")
            groups.write_cayley(table, G, groups.permutation(G.order, rng, identity_off_zero=True))
            spec = "file:" + table
        else:
            spec = name
        out = os.path.join(d, f"out{i}.txt")
        expect = summary[kind](G)
        jobs.append(
            _job(
                f"{source}:{name}:{kind}",
                ["generate", spec, "--kind", kind, "--out", out],
                out=out,
                expect=expect,
                sizes={"n": G.order, "E": expect["m"]},
            )
        )
    return jobs


def iso_jobs(pairs, rng, d):
    jobs = []
    for i, (name1, name2) in enumerate(pairs):
        paths = []
        arcs = 0
        for side, name in enumerate((name1, name2)):
            G = groups.Group(name)
            pairs = G.directed_arcs()
            arcs += len(pairs)
            path = os.path.join(d, f"in{i}{'ab'[side]}.txt")
            groups.write_graph(path, G.order, pairs, groups.permutation(G.order, rng), directed=True)
            paths.append(path)
        iso = name1 == name2
        if not iso and _order_multiset(name1) == _order_multiset(name2):
            # the element-order multiset is an invariant of the directed
            # power graph; pairs must differ in it for the verdict to be known
            raise ValueError(f"{name1} vs {name2}: verdict is not known")
        jobs.append(
            _job(
                f"iso:{name1}:{name2}",
                ["iso", paths[0], paths[1], "--kind", "dpow"],
                rc=0 if iso else 1,
                stdout="isomorphic" if iso else "non-isomorphic",
                sizes={"n": groups.Group(name1).order, "E": arcs},
            )
        )
    return jobs


def _order_multiset(name):
    return sorted(groups.Group(name).structure()[0])


def setup(workload: str, seed: int, d: str) -> list[dict]:
    """Write the workload's inputs into directory d and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pow-reconstruct":
        jobs = reconstruct_jobs(POW_RECONSTRUCT, "pow", rng, d)
    elif workload == "epow-reconstruct":
        jobs = reconstruct_jobs(EPOW_RECONSTRUCT, "epow", rng, d)
    elif workload == "table-generate":
        jobs = generate_jobs(TABLE_GENERATE, rng, d)
    elif workload == "dpow-iso":
        jobs = iso_jobs(DPOW_ISO, rng, d)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(d, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return jobs
