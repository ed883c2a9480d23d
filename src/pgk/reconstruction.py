"""Recovering the directed power graph from a power graph or an enhanced
power graph, and converting between the directed and enhanced forms.

The pipeline is: mark a CCG-set, summarize into R4, rebuild R3 by gluing
the divisor lattice of each CCG color, orient back to R2, close up to
R1, and expand twin classes into the full colored directed power graph;
`check_dpow` then rejects a result whose vertex count differs from the
input's, whose element orders break Frobenius's count, or, in one degree
comparison, whose shadow (from a power graph) or enhanced power graph
(from an enhanced power graph) has another degree multiset than the
input.  Every stage from R3 on reads and writes bitmask adjacency.  The
output is an isomorphic copy, not a relabeling of the input vertices:
closed twins are interchangeable and the reconstruction does not try to
tell them apart.  R4 is a record of the
CCG colors and, per g_j, the pairs (i, j) of intersection color other
than 1, so R4 and R3 cost those pairs, not m(m-1)/2; only `format_r4`,
which writes R4 as its bipartite graph file, visits every pair.  The
per-step gluing records and the Hasse-diagram oracle that `r3_from_r4`
is checked against live in tests/helpers.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .ccg_detection import CcgMarking, mark_ccg_enhanced, mark_ccg_power
from .errors import PipelineError
from .graph_core import ColoredDiGraph, ColoredGraph, bits, format_rows, reach, scatter
from .numtheory import divisors, euler_phi, is_prime, prime_factorization

__all__ = [
    "R4Graph",
    "format_r4",
    "r4_from_marked_graph",
    "r3_from_r4",
    "r2_from_r3",
    "r1_from_r2",
    "cdpow_from_r1",
    "check_dpow",
    "dpow_from_power_graph",
    "dpow_from_enhanced_graph",
    "epow_from_dpow",
    "pow_from_dpow",
]


@dataclass(frozen=True)
class R4Graph:
    """Bipartite summary: CCG vertices g_0..g_{m-1} with their colors,
    and one intersection vertex per pair (i, j), i < j, whose color is
    below[j][i] if stored, else 1.  Only pairs of color other than 1 are
    stored."""

    ccg_colors: tuple[int, ...]
    below: list[dict[int, int]]  # below[j] = {i: color of (i, j)}, i < j
    # the marked input graph's CC vertex behind each g_i (R3's, if built from R3)
    ccg_vertices: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.ccg_colors)


def format_r4(X: R4Graph) -> str:
    """R4 as graph-file text: A-side vertices 0..m-1, then one B-side
    vertex per pair (i, j) in i-major order, (i, i + 1) at first[i].
    g_i's neighbors are the pairs (s, i), s < i, then (i, i + 1) ..
    (i, m - 1); a B-side vertex has none above it."""
    m = X.m
    first = [m + i * m - i * (i + 1) // 2 for i in range(m + 1)]
    pair_colors = [X.below[j].get(i, 1) for i in range(m) for j in range(i + 1, m)]
    # each row's names are formed as it is written, not kept for all pairs
    rows = (
        [str(first[s] + i - s - 1) for s in range(i)]
        + list(map(str, range(first[i], first[i + 1])))
        for i in range(m)
    )
    return format_rows(X.ccg_colors + tuple(pair_colors), rows)


def r4_from_marked_graph(Gamma: ColoredGraph, marking: CcgMarking) -> R4Graph:
    """Build R4 from a marked power/enhanced power graph.

    Each CC vertex g contributes an A-vertex of color deg(g)+1 (its
    closed neighborhood corresponds to the cyclic subgroup it generates);
    the B-vertex for a pair is colored by the size of the two closed
    neighborhoods' intersection.  CC vertices are ordered ascending by
    (color, index).  Only pairs sharing a vertex other than z, the lowest
    in every closed neighborhood (the identity), are stored; if no vertex
    is in all of them, the others are disjoint and refused.
    """
    cc = sorted(marking.cc_vertices, key=lambda v: (Gamma.degree(v) + 1, v))
    if not cc:
        raise PipelineError("marking contains no CC vertex")
    closed = [Gamma.masks[g] for g in cc]
    z = reduce(int.__and__, closed)
    z &= -z
    # owners[v]: the CC indices whose closed neighborhood holds v
    owners = scatter(((nb & ~z, 1 << i) for i, nb in enumerate(closed)), Gamma.n)
    shared = dict.fromkeys(o for o in owners if o & (o - 1))
    partners = scatter(zip(shared, shared), len(cc))
    for i, p in enumerate(partners if not z else ()):
        if apart := ~p & ((1 << len(cc)) - (2 << i)):  # non-partners above i
            raise PipelineError(
                "not a power graph: CC vertices "
                f"{cc[i]} and {cc[bits(apart)[0]]} have disjoint closed neighborhoods"
            )
    below = [
        {i: (closed[i] & nb).bit_count() for i in bits(p & ((1 << j) - 1))}
        for j, (nb, p) in enumerate(zip(closed, partners))
    ]
    return R4Graph(
        ccg_colors=tuple(nb.bit_count() for nb in closed),
        below=below,
        ccg_vertices=tuple(cc),
    )


def r3_from_r4(X: R4Graph) -> ColoredGraph:
    """Rebuild an isomorphic copy of R3 from its R4 summary by gluing the
    divisor lattice of each CCG color in turn; vertex ids are given out
    in creation order.

    A cyclic group has exactly one subgroup per divisor of its order, so
    in R3 the descendants of g_s are one vertex per divisor of col(g_s).
    `lattices[s]` maps each such divisor to its vertex, and the lattice
    of g_j shares with g_s exactly the divisors of their intersection
    color c: gluing reads them off `lattices[s]`, with no search of the
    graph.  Each divisor d is joined to d // p for each prime p | d.  A
    pair of color 1 shares divisor 1 alone, so only stored pairs are read.
    """
    if X.m == 0:
        raise PipelineError("R4 graph with no CCG vertices")
    colors: list[int] = []
    masks: list[int] = []
    lattices: list[dict[int, int]] = []  # per g_s: divisor -> vertex id
    for j, cj in enumerate(X.ccg_colors):
        if cj < 1:
            raise PipelineError(f"CCG vertex {j} has color {cj}, below 1")
        lattice = {1: lattices[0][1]} if j else {}
        for s, c in X.below[j].items():
            cs = X.ccg_colors[s]
            if c is None or c < 1 or cs % c or cj % c:
                raise PipelineError(
                    f"CCG pair ({s}, {j}) needs an intersection color "
                    f"dividing both colors {cs} and {cj}, got {c}"
                )
            for d, u in lattices[s].items():
                if c % d == 0 and lattice.setdefault(d, u) != u:
                    raise PipelineError(
                        "conflicting identification: R4 violates the "
                        "pairwise-intersection divisibility structure"
                    )
        primes = [p for p, _ in prime_factorization(cj)]
        for d in divisors(cj):
            if d not in lattice:
                lattice[d] = len(colors)
                colors.append(d)
                masks.append(1 << len(masks))
            u = lattice[d]
            for v in [lattice[d // p] for p in primes if d % p == 0]:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        lattices.append(lattice)
    return ColoredGraph._from_masks(len(colors), tuple(colors), masks)


def r2_from_r3(X: ColoredGraph) -> ColoredDiGraph:
    """Orient every R3 edge from the larger color to the smaller."""
    out = [0] * X.n
    for u, m in enumerate(X.masks):
        for v in bits(m & -(2 << u)):
            cu, cv = X.colors[u], X.colors[v]
            hi, lo = (u, v) if cu > cv else (v, u)
            if X.colors[hi] % X.colors[lo] or not is_prime(X.colors[hi] // X.colors[lo]):
                raise PipelineError(
                    f"edge ({u}, {v}) joins colors {cu} and {cv} without prime ratio"
                )
            out[hi] |= 1 << lo
    return ColoredDiGraph._from_masks(X.n, X.colors, out)


def r1_from_r2(X: ColoredDiGraph) -> ColoredDiGraph:
    """Reflexive and transitive closure."""
    masks = [reach(X.out_masks, v) for v in range(X.n)]
    return ColoredDiGraph._from_masks(X.n, X.colors, masks)


def cdpow_from_r1(X: ColoredDiGraph) -> ColoredDiGraph:
    """Blow each R1 vertex u up into a cluster of euler_phi(col(u))
    mutually adjacent closed twins (with self-loops), preserving
    inter-cluster arcs: every member of u's cluster points at the
    clusters of N+[u]."""
    sizes = [euler_phi(c) for c in X.colors]
    clusters = []
    colors: list[int] = []
    for c, size in zip(X.colors, sizes):
        clusters.append(((1 << size) - 1) << len(colors))
        colors += [c] * size
    out: list[int] = []
    for u, (m, size) in enumerate(zip(X.out_masks, sizes)):
        mask = 0
        for v in bits(m | 1 << u):
            mask |= clusters[v]
        out += [mask] * size
    return ColoredDiGraph._from_masks(len(colors), tuple(colors), out)


def check_dpow(Gamma: ColoredGraph, D: ColoredDiGraph, kind: str) -> ColoredDiGraph:
    """Return D if it passes the necessary checks against the input
    Gamma, else raise PipelineError: equal vertex counts; for each d | n,
    a multiple of d colors (element orders) dividing d, as in every group
    of order n (Frobenius 1895); and Gamma's degree multiset in D's
    undirected shadow (kind "pow") or enhanced power graph (kind "epow").
    Passing does not prove that a group exists.  Other kinds: ValueError."""
    if kind not in ("pow", "epow"):
        raise ValueError(f"unknown kind {kind!r}")
    if D.n != Gamma.n:
        raise PipelineError(
            f"reconstruction has {D.n} vertices, the input has {Gamma.n}"
        )
    orders = Counter(D.colors)
    for d in divisors(D.n or 1):
        if (k := sum(c for o, c in orders.items() if d % o == 0)) % d:
            raise PipelineError(
                f"reconstruction has {k} elements x with x^{d} = 1, not a multiple of {d}"
            )
    build = pow_from_dpow if kind == "pow" else epow_from_dpow
    graph = "shadow" if kind == "pow" else "enhanced power graph"
    got, want = (Counter(m.bit_count() - 1 for m in X.masks) for X in (build(D), Gamma))
    if got != want:
        d = min(k for k in got | want if got[k] != want[k])
        raise PipelineError(
            f"reconstruction's {graph} has {got[d]} vertices "
            f"of degree {d}, the input has {want[d]}"
        )
    return D


def _dpow_pipeline(Gamma: ColoredGraph, marking: CcgMarking, kind: str):
    r4 = r4_from_marked_graph(Gamma, marking)
    r3 = r3_from_r4(r4)
    r2 = r2_from_r3(r3)
    r1 = r1_from_r2(r2)
    return check_dpow(Gamma, cdpow_from_r1(r1), kind)


def dpow_from_power_graph(Gamma: ColoredGraph) -> ColoredDiGraph:
    """Recover a colored directed power graph from an undirected power
    graph (isomorphic copy; twin classes are interchangeable).  Input
    colors are ignored."""
    return _dpow_pipeline(Gamma, mark_ccg_power(Gamma), "pow")


def dpow_from_enhanced_graph(Gamma: ColoredGraph) -> ColoredDiGraph:
    """Recover a colored directed power graph from an enhanced power
    graph (isomorphic copy)."""
    return _dpow_pipeline(Gamma, mark_ccg_enhanced(Gamma), "epow")


def epow_from_dpow(D: ColoredDiGraph) -> ColoredGraph:
    """Edge {u, v} iff some vertex's closed out-neighborhood contains
    both; the result is the enhanced power graph, uncolored.  N[u] is the
    union of the closed out-neighborhoods that contain u, and each
    distinct one is spread over its members once."""
    closed = dict.fromkeys(m | 1 << w for w, m in enumerate(D.out_masks))
    return ColoredGraph._from_masks(D.n, (1,) * D.n, scatter(zip(closed, closed), D.n))


def pow_from_dpow(D: ColoredDiGraph) -> ColoredGraph:
    """Undirected shadow without self-loops, uncolored."""
    return ColoredGraph._from_masks(D.n, (1,) * D.n, D.undirected_shadow().masks)
