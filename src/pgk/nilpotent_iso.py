"""Polynomial-time isomorphism of directed power graphs of nilpotent
groups: split into per-prime components, reduce each to its colored
tree, and compare canonical tree codes.  One sweep groups each input's
vertices by color, and each distinct color is tested against each prime
once; the Sylow vertex lists serve the shape check and the subgraphs.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from operator import or_

from .errors import PipelineError
from .graph_core import ColoredDiGraph, ColoredGraph, bits, induced_subgraph, reach
from .numtheory import is_power_of, prime_factorization
from .reconstruction import dpow_from_enhanced_graph, dpow_from_power_graph
from .reductions import reduce_r1, reduce_r2, reduce_r3

__all__ = [
    "canonical_tree_code",
    "dpow_iso_nilpotent",
    "graph_iso_nilpotent",
]


def canonical_tree_code(T: ColoredGraph) -> str:
    """Canonical string for a colored tree rooted at its unique color-1
    vertex; equal codes iff color-preserving isomorphic."""
    if T.n == 0:
        raise PipelineError("empty graph is not a tree")
    masks = T.masks
    degree_sum = sum(m.bit_count() - 1 for m in masks)
    if degree_sum != 2 * (T.n - 1) or reach(masks, 0) != (1 << T.n) - 1:
        raise PipelineError("input is not a tree")
    roots = [v for v in range(T.n) if T.colors[v] == 1]
    if len(roots) != 1:
        raise PipelineError(f"expected exactly one color-1 vertex, found {len(roots)}")

    # breadth-first from the root, then each code from its children's
    order, kids, seen = [roots[0]], [0] * T.n, 1 << roots[0]
    for v in order:
        kids[v] = masks[v] & ~seen
        seen |= kids[v]
        order += bits(kids[v])
    codes = [""] * T.n
    for v in reversed(order):
        children = sorted(codes[w] for w in bits(kids[v]))
        codes[v] = f"({T.colors[v]}:{','.join(children)})"
    return codes[roots[0]]


def _r3_of(D: ColoredDiGraph) -> ColoredGraph:
    return reduce_r3(reduce_r2(reduce_r1(D).graph))


def _sylow_vertices(D: ColoredDiGraph, primes, i: int) -> list[list[int]]:
    """Per prime p, input i's vertices of p-power color (a Sylow subgroup,
    for a nilpotent group; color 1 in every list).  Sizes must multiply to D.n."""
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(D.colors):
        by_color.setdefault(c, []).append(v)
    parts = [
        [v for c, vs in by_color.items() if is_power_of(c, p) for v in vs] for p in primes
    ]
    if (size := prod(map(len, parts))) != D.n:
        raise PipelineError(
            f"input {i}: input not recognized as the directed power graph of a "
            f"nilpotent group: per-prime component sizes multiply to {size}, not {D.n}"
        )
    return parts


def dpow_iso_nilpotent(D1: ColoredDiGraph, D2: ColoredDiGraph) -> bool:
    """Isomorphism test for colored directed power graphs of nilpotent
    groups.  Colors must be out-degrees (element orders), which any
    isomorphism keeps, so once every per-prime tree matches the verdict
    is whether the two color multisets agree."""
    if D1.n != D2.n:
        return False
    primes = [p for p, _ in prime_factorization(D1.n)] if D1.n > 1 else []
    for s1, s2 in zip(_sylow_vertices(D1, primes, 1), _sylow_vertices(D2, primes, 2)):
        t1 = _r3_of(induced_subgraph(D1, s1)[0])
        t2 = _r3_of(induced_subgraph(D2, s2)[0])
        if canonical_tree_code(t1) != canonical_tree_code(t2):
            return False
    return sorted(D1.colors) == sorted(D2.colors)


def graph_iso_nilpotent(X1, X2, kind: str) -> bool:
    """Isomorphism of power / enhanced power / directed power graphs of
    nilpotent groups.  Undirected kinds are first lifted to directed
    power graphs; directed inputs are recolored by out-degree."""
    lift = {
        "pow": dpow_from_power_graph,
        "epow": dpow_from_enhanced_graph,
        "dpow": _recolor_by_out_degree,
    }.get(kind)
    if lift is None:
        raise ValueError(f"unknown kind {kind!r}")
    lifted = []
    for i, X in enumerate((X1, X2), 1):
        try:
            lifted.append(lift(X))
        except PipelineError as exc:
            raise PipelineError(f"input {i}: {exc}") from None
    D1, D2 = lifted
    iso = dpow_iso_nilpotent(D1, D2)
    for i, D in enumerate((D1, D2) if iso and kind == "dpow" else (), 1):
        _check_transitive(D.out_masks, f"input {i}")
    return iso


def _recolor_by_out_degree(D: ColoredDiGraph) -> ColoredDiGraph:
    if D.n == 0:
        raise PipelineError("empty graph")
    if loopless := [v for v, m in enumerate(D.out_masks) if not m >> v & 1]:
        raise PipelineError(
            "directed power graphs have a self-loop at every vertex; "
            f"vertex {loopless[0]} has none"
        )
    colors = tuple(m.bit_count() for m in D.out_masks)
    return ColoredDiGraph._from_masks(D.n, colors, D.out_masks)


def _check_transitive(out, name: str) -> None:
    """Raise unless each distinct out-mask holds its members', as in any
    DPow; a "non-isomorphic" needs no check (every step is an invariant)."""
    for m in dict.fromkeys(out):
        if reduce(or_, bits(m, out), 0) & ~m:  # some member's row leaves m: name one
            w = next(w for w in bits(m) if out[w] & ~m)
            v, u = out.index(m), bits(out[w] & ~m)[0]
            arcs = f"arcs ({v}, {w}) and ({w}, {u}) but no arc ({v}, {u})"
            raise PipelineError(f"{name} is not a directed power graph: {arcs}")
