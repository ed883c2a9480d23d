"""Polynomial-time isomorphism of directed power graphs of nilpotent
groups: split into per-prime components, reduce each to its colored
tree, and compare canonical tree codes.
"""

from __future__ import annotations

from .errors import PipelineError
from .graph_core import ColoredDiGraph, ColoredGraph, induced_subgraph
from .numtheory import is_power_of, is_prime, prime_factorization
from .reconstruction import dpow_from_enhanced_graph, dpow_from_power_graph
from .reductions import reduce_r1, reduce_r2, reduce_r3

__all__ = [
    "p_component",
    "canonical_tree_code",
    "dpow_iso_nilpotent",
    "graph_iso_nilpotent",
]


def p_component(D: ColoredDiGraph, p: int) -> ColoredDiGraph:
    """Induced subgraph on the vertices of p-power color (identity, color
    1, included).  For a nilpotent underlying group this is the directed
    power graph of a Sylow subgroup."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    keep = [v for v in range(D.n) if is_power_of(D.colors[v], p)]
    sub, _ = induced_subgraph(D, keep)
    return sub


def canonical_tree_code(T: ColoredGraph) -> str:
    """Canonical string for a colored tree rooted at its unique color-1
    vertex; equal codes iff color-preserving isomorphic."""
    if T.n == 0:
        raise PipelineError("empty graph is not a tree")
    degree_sum = sum(m.bit_count() - 1 for m in T.masks)
    if degree_sum != 2 * (T.n - 1) or not _is_connected(T):
        raise PipelineError("input is not a tree")
    roots = [v for v in range(T.n) if T.colors[v] == 1]
    if len(roots) != 1:
        raise PipelineError(f"expected exactly one color-1 vertex, found {len(roots)}")

    def code(v: int, parent: int) -> str:
        children = sorted(
            code(w, v) for w in T.neighbors(v) if w != parent
        )
        return f"({T.colors[v]}:{','.join(children)})"

    return code(roots[0], -1)


def _is_connected(X: ColoredGraph) -> bool:
    if X.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in X.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == X.n


def _r3_of(D: ColoredDiGraph) -> ColoredGraph:
    return reduce_r3(reduce_r2(reduce_r1(D).graph))


def _check_nilpotent_shape(D: ColoredDiGraph, primes) -> None:
    prod = 1
    for p in primes:
        prod *= sum(1 for c in D.colors if is_power_of(c, p))
    if prod != D.n:
        raise PipelineError(
            "input not recognized as the directed power graph of a nilpotent "
            f"group: per-prime component sizes multiply to {prod}, not {D.n}"
        )


def dpow_iso_nilpotent(D1: ColoredDiGraph, D2: ColoredDiGraph) -> bool:
    """Isomorphism test for colored directed power graphs of nilpotent
    groups.  Colors must be out-degrees (element orders)."""
    if D1.n != D2.n:
        return False
    primes = [p for p, _ in prime_factorization(D1.n)] if D1.n > 1 else []
    _check_nilpotent_shape(D1, primes)
    _check_nilpotent_shape(D2, primes)
    for p in primes:
        t1 = _r3_of(p_component(D1, p))
        t2 = _r3_of(p_component(D2, p))
        if canonical_tree_code(t1) != canonical_tree_code(t2):
            return False
    return True


def graph_iso_nilpotent(X1, X2, kind: str) -> bool:
    """Isomorphism of power / enhanced power / directed power graphs of
    nilpotent groups.  Undirected kinds are first lifted to directed
    power graphs; directed inputs are recolored by out-degree."""
    if kind == "pow":
        return dpow_iso_nilpotent(
            dpow_from_power_graph(X1), dpow_from_power_graph(X2)
        )
    if kind == "epow":
        return dpow_iso_nilpotent(
            dpow_from_enhanced_graph(X1), dpow_from_enhanced_graph(X2)
        )
    if kind == "dpow":
        return dpow_iso_nilpotent(_recolor_by_out_degree(X1), _recolor_by_out_degree(X2))
    raise ValueError(f"unknown kind {kind!r}")


def _recolor_by_out_degree(D: ColoredDiGraph) -> ColoredDiGraph:
    colors = tuple(D.out_degree(v) for v in range(D.n))
    if any(c < 1 for c in colors):
        raise PipelineError(
            "directed power graphs have a self-loop at every vertex; "
            "found a vertex with empty out-neighborhood"
        )
    return ColoredDiGraph._from_masks(D.n, colors, D.out_masks)
