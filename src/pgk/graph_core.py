"""Colored graph and digraph values, twin partitions, products, and a
small brute-force color-preserving isomorphism oracle.

Graphs are immutable: edges live in frozensets, and each graph kind has
one cached adjacency, as int bitmasks (nauty's set words): closed
neighborhoods for an undirected graph, out- and in-neighborhoods for a
digraph.  Vertex colors are positive integers (in context, the order of
the group element behind the vertex); an "uncolored" graph simply
carries color 1 everywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphFormatError, SizeCapError

__all__ = [
    "ColoredGraph",
    "ColoredDiGraph",
    "TwinPartition",
    "bits",
    "closed_twin_partition_undirected",
    "closed_twin_partition_directed",
    "induced_subgraph",
    "strong_product",
    "brute_force_color_iso",
    "relabel",
    "format_graph",
    "parse_graph",
    "load_graph",
    "save_graph",
]

ISO_CAP_DEFAULT = 30


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected graph with a positive integer color per vertex.

    Edges are stored as (u, v) pairs with u < v; no self-loops.
    """

    n: int
    colors: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if len(self.colors) != self.n:
            raise ValueError("colors length must equal vertex count")
        if any(c < 1 for c in self.colors):
            raise ValueError("colors must be positive integers")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Bit u of masks[v] is set iff u == v or {u, v} is an edge."""
        masks = [1 << v for v in range(self.n)]
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.masks[v] ^ (1 << v)))

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count() - 1

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def universal_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.degree(v) == self.n - 1]


@dataclass(frozen=True)
class ColoredDiGraph:
    """Directed graph with vertex colors; self-loops permitted."""

    n: int
    colors: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if len(self.colors) != self.n:
            raise ValueError("colors length must equal vertex count")
        if any(c < 1 for c in self.colors):
            raise ValueError("colors must be positive integers")
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad arc ({u}, {v}) for n={self.n}")

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Bit w of out_masks[v] is set iff (v, w) is an arc."""
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[u] |= 1 << v
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Bit u of in_masks[v] is set iff (u, v) is an arc."""
        masks = [0] * self.n
        for u, v in self.arcs:
            masks[v] |= 1 << u
        return tuple(masks)

    def closed_out_neighborhood(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.out_masks[v] | 1 << v))

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def undirected_shadow(self) -> ColoredGraph:
        """Forget directions and drop self-loops."""
        edges = {(min(u, v), max(u, v)) for u, v in self.arcs if u != v}
        return ColoredGraph(self.n, self.colors, frozenset(edges))


@dataclass(frozen=True)
class TwinPartition:
    """Partition of [0, n) into closed-twin classes.

    Classes are sorted by smallest member; members ascend within a class.
    """

    classes: tuple[tuple[int, ...], ...]

    @cached_property
    def class_of(self) -> dict[int, tuple[int, ...]]:
        return {v: cls for cls in self.classes for v in cls}

    def sizes(self) -> list[int]:
        return sorted(len(c) for c in self.classes)


def bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _partition_by_key(n, key) -> TwinPartition:
    groups: dict[object, list[int]] = {}
    for v in range(n):
        groups.setdefault(key(v), []).append(v)
    classes = sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])
    return TwinPartition(tuple(classes))


def closed_twin_partition_undirected(X: ColoredGraph) -> TwinPartition:
    """u, v share a class iff N[u] = N[v] and col(u) = col(v)."""
    return _partition_by_key(X.n, lambda v: (X.colors[v], X.masks[v]))


def closed_twin_partition_directed(X: ColoredDiGraph) -> TwinPartition:
    """u, v share a class iff their closed in- and out-neighborhoods and
    colors all agree."""
    out, inn = X.out_masks, X.in_masks
    return _partition_by_key(
        X.n, lambda v: (X.colors[v], out[v] | 1 << v, inn[v] | 1 << v)
    )


def induced_subgraph(X, S):
    """Induced subgraph on vertex set S, relabeled to [0, |S|).

    Returns (graph, mapping) where mapping[i] is the original vertex now
    labeled i.  Works for both graph kinds.
    """
    mapping = tuple(sorted(S))
    for v in mapping:
        if not (0 <= v < X.n):
            raise ValueError(f"vertex {v} out of range")
    index = {old: new for new, old in enumerate(mapping)}
    keep = sum(1 << v for v in mapping)
    directed = isinstance(X, ColoredDiGraph)
    masks = X.out_masks if directed else X.masks
    pairs = frozenset(
        (i, index[w])
        for i, v in enumerate(mapping)
        for w in bits(masks[v] & keep)
        if directed or i < index[w]
    )
    colors = tuple(X.colors[v] for v in mapping)
    return type(X)(len(mapping), colors, pairs), mapping


def strong_product(X: ColoredDiGraph, Y: ColoredDiGraph) -> ColoredDiGraph:
    """Strong product of two digraphs, row-major vertex indexing.

    Distinct pairs follow the three standard clauses; a self-loop appears
    at (u, u') exactly when both u and u' carry self-loops (so products
    of directed power graphs keep their loops).  Colors multiply.
    """
    ny = Y.n
    n = X.n * ny
    colors = tuple(
        X.colors[u] * Y.colors[up] for u in range(X.n) for up in range(ny)
    )
    arcs = set()
    for u in range(X.n):
        for up in range(ny):
            src = u * ny + up
            for v in range(X.n):
                for vp in range(ny):
                    if u == v and up == vp:
                        if X.has_arc(u, u) and Y.has_arc(up, up):
                            arcs.add((src, src))
                        continue
                    ok = (
                        (u == v and Y.has_arc(up, vp))
                        or (up == vp and X.has_arc(u, v))
                        or (X.has_arc(u, v) and Y.has_arc(up, vp))
                    )
                    if ok:
                        arcs.add((src, v * ny + vp))
    return ColoredDiGraph(n, colors, frozenset(arcs))


def relabel(X, perm):
    """Apply a permutation (perm[old] = new) to the vertices of X."""
    if sorted(perm) != list(range(X.n)):
        raise ValueError("perm must be a permutation of the vertex set")
    colors = [0] * X.n
    for old, new in enumerate(perm):
        colors[new] = X.colors[old]
    if isinstance(X, ColoredDiGraph):
        arcs = frozenset((perm[u], perm[v]) for u, v in X.arcs)
        return ColoredDiGraph(X.n, tuple(colors), arcs)
    edges = frozenset(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in X.edges
    )
    return ColoredGraph(X.n, tuple(colors), edges)


def _signature(X, v):
    if isinstance(X, ColoredDiGraph):
        return (X.colors[v], X.out_degree(v), X.in_degree(v))
    return (X.colors[v], X.degree(v))


def _compatible(X, Y, mapping, v, w):
    # check adjacency between v and the already-mapped vertices
    if isinstance(X, ColoredDiGraph):
        if X.has_arc(v, v) != Y.has_arc(w, w):
            return False
        for x, y in mapping.items():
            if X.has_arc(v, x) != Y.has_arc(w, y):
                return False
            if X.has_arc(x, v) != Y.has_arc(y, w):
                return False
    else:
        for x, y in mapping.items():
            if X.has_edge(v, x) != Y.has_edge(w, y):
                return False
    return True


def brute_force_color_iso(X, Y, cap: int = ISO_CAP_DEFAULT):
    """Search for a color- and adjacency-preserving bijection X -> Y.

    Returns the bijection as a list (index = X vertex) or None.  This is
    a desk-scale test oracle: it refuses inputs larger than `cap`.
    """
    if type(X) is not type(Y):
        raise ValueError("inputs must be the same graph kind")
    if X.n != Y.n:
        return None
    if X.n > cap:
        raise SizeCapError(f"iso oracle cap exceeded: {X.n} > {cap}")
    if Counter(_signature(X, v) for v in range(X.n)) != Counter(
        _signature(Y, v) for v in range(Y.n)
    ):
        return None
    if isinstance(X, ColoredDiGraph):
        if len(X.arcs) != len(Y.arcs):
            return None
    elif len(X.edges) != len(Y.edges):
        return None

    candidates = {
        v: [w for w in range(Y.n) if _signature(Y, w) == _signature(X, v)]
        for v in range(X.n)
    }
    # most-constrained vertices first
    order = sorted(range(X.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not _compatible(X, Y, mapping, v, w):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if extend(0):
        return [mapping[v] for v in range(X.n)]
    return None


# --- text serialization ---------------------------------------------------
#
# line 1:  "graph N" or "digraph N"
# line 2:  "colors c0 c1 ... c{N-1}"  or  "nocolors"
# then one edge per line, "u v", sorted ascending by (u, v); undirected
# edges satisfy u < v.  Self-loops only in digraphs.


def format_graph(X, with_colors: bool = True) -> str:
    directed = isinstance(X, ColoredDiGraph)
    lines = [f"{'digraph' if directed else 'graph'} {X.n}"]
    if with_colors:
        lines.append("colors " + " ".join(str(c) for c in X.colors))
    else:
        lines.append("nocolors")
    pairs = X.arcs if directed else X.edges
    for u, v in sorted(pairs):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("graph", "digraph"):
        raise GraphFormatError(f"bad header line: {lines[0]!r}")
    directed = head[0] == "digraph"
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"bad vertex count: {head[1]!r}") from None
    if n < 0:
        raise GraphFormatError(f"bad vertex count: {n}")
    if len(lines) < 2:
        raise GraphFormatError("missing colors line")
    ctok = lines[1].split()
    if ctok[0] == "colors":
        try:
            colors = tuple(int(c) for c in ctok[1:])
        except ValueError:
            raise GraphFormatError("colors must be integers") from None
    elif ctok[0] == "nocolors" and len(ctok) == 1:
        colors = (1,) * n
    else:
        raise GraphFormatError(f"bad colors line: {lines[1]!r}")
    pairs = set()
    for ln in lines[2:]:
        tok = ln.split()
        if len(tok) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise GraphFormatError(f"bad edge line: {ln!r}") from None
        pairs.add((u, v) if directed or u < v else (v, u))
    # the constructor checks colors and every edge, self-loops included
    try:
        return (ColoredDiGraph if directed else ColoredGraph)(
            n, colors, frozenset(pairs)
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def load_graph(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(X, path, with_colors: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(X, with_colors=with_colors))
