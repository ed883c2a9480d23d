"""Colored graph and digraph values, twin partitions, products, and a
small brute-force color-preserving isomorphism oracle.

Graphs are immutable and store their adjacency as int bitmasks, one per
vertex (nauty's set words): closed neighborhoods for an undirected
graph, out-neighborhoods for a digraph.  Every builder, parser and
stage in pgk reads and writes these masks; the edge and arc sets, and a
digraph's in-neighborhoods, are views computed on first use.  Vertex
colors are positive integers (in context, the order of the group
element behind the vertex); an "uncolored" graph simply carries color 1
everywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, count, islice, repeat
from operator import or_

from .errors import GraphFormatError, SizeCapError
from .group_core import MAX_GROUP_ORDER, open_text

__all__ = [
    "ColoredGraph",
    "ColoredDiGraph",
    "TwinPartition",
    "bits",
    "reach",
    "scatter",
    "transpose",
    "closed_twin_partition_undirected",
    "closed_twin_partition_directed",
    "induced_subgraph",
    "strong_product",
    "brute_force_color_iso",
    "relabel",
    "format_graph",
    "format_rows",
    "parse_graph",
    "load_graph",
]

ISO_CAP_DEFAULT = 30


def _check_colors(n, colors) -> None:
    if len(colors) != n:
        raise ValueError("colors length must equal vertex count")
    if min(colors, default=1) < 1:
        raise ValueError("colors must be positive integers")


class _MaskGraph:
    @classmethod
    def _from_masks(cls, n, colors, masks):
        """Unchecked constructor: colors and masks must already be a valid
        graph of this kind on n vertices."""
        self = object.__new__(cls)
        vars(self).update(zip(cls.__dataclass_fields__, (n, colors, tuple(masks))))
        return self


@dataclass(frozen=True, init=False)
class ColoredGraph(_MaskGraph):
    """Simple undirected graph with a positive integer color per vertex.

    Bit u of masks[v] is set iff u == v or {u, v} is an edge.  The
    constructor takes the edges as (u, v) pairs with u < v; no
    self-loops.
    """

    n: int
    colors: tuple[int, ...]
    masks: tuple[int, ...]

    def __init__(self, n, colors, edges):
        _check_colors(n, colors)
        masks = [1 << v for v in range(n)]
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        vars(self).update(n=n, colors=colors, masks=tuple(masks))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs with u < v, built from the masks."""
        return frozenset(
            (u, v) for u, m in enumerate(self.masks) for v in bits(m & -(2 << u))
        )

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count() - 1

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self.masks[u] >> v & 1 == 1

    def is_complete(self) -> bool:
        return self.masks.count((1 << self.n) - 1) == self.n

    def universal_vertices(self) -> list[int]:
        full = (1 << self.n) - 1
        return [v for v, m in enumerate(self.masks) if m == full]


@dataclass(frozen=True, init=False)
class ColoredDiGraph(_MaskGraph):
    """Directed graph with vertex colors; self-loops permitted.

    Bit w of out_masks[v] is set iff (v, w) is an arc.
    """

    n: int
    colors: tuple[int, ...]
    out_masks: tuple[int, ...]

    def __init__(self, n, colors, arcs):
        _check_colors(n, colors)
        masks = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad arc ({u}, {v}) for n={n}")
            masks[u] |= 1 << v
        vars(self).update(n=n, colors=colors, out_masks=tuple(masks))

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs, built from the masks."""
        return frozenset(
            (u, v) for u, m in enumerate(self.out_masks) for v in bits(m)
        )

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Bit u of in_masks[v] is set iff (u, v) is an arc.  Vertices
        with equal out-masks are transposed together, so a directed power
        graph costs one pass per cyclic subgroup, not per element."""
        sources: dict[int, int] = {}
        for u, m in enumerate(self.out_masks):
            sources[m] = sources.get(m, 0) | 1 << u
        return tuple(scatter(sources.items(), self.n))

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return self.out_masks[u] >> v & 1 == 1

    def undirected_shadow(self) -> ColoredGraph:
        """Forget directions and drop self-loops."""
        pairs = enumerate(zip(self.out_masks, self.in_masks))
        masks = [o | i | 1 << v for v, (o, i) in pairs]
        return ColoredGraph._from_masks(self.n, self.colors, masks)


@dataclass(frozen=True)
class TwinPartition:
    """Partition of [0, n) into closed-twin classes.

    Classes are sorted by smallest member; members ascend within a class.
    """

    classes: tuple[tuple[int, ...], ...]


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int, items=None) -> list:
    """Positions of the set bits of a non-negative mask, ascending, or the
    items at those positions when a sequence of items is given."""
    flags = bin(mask)[:1:-1].encode().translate(_BIT_VALUES)
    return list(compress(count() if items is None else items, flags))


def scatter(pairs, n: int) -> list[int]:
    """n masks: each (set, value) pair's value ORed into each set member."""
    masks = [0] * n
    for members, value in pairs:
        for u in bits(members):
            masks[u] |= value
    return masks


def transpose(masks, width=None) -> list[int]:
    """The width masks of the reversed arcs: bit u of the v-th is bit v of
    masks[u], for masks below 1 << width (len(masks) if not given)."""
    w = len(masks) if width is None else width
    # rows last to first, each digit string most significant bit first:
    # column v is then every w-th digit from w - 1 - v, high bit first
    flat = "".join(map(format, reversed(masks), repeat(f"0{w}b", len(masks))))
    return [int(flat[w - 1 - v :: w], 2) for v in range(w)]


def reach(masks, v: int) -> int:
    """Bit w is set iff w is reachable from v (v included) along masks."""
    seen = todo = 1 << v
    while todo:
        u = (todo & -todo).bit_length() - 1
        todo ^= 1 << u
        new = masks[u] & ~seen
        seen |= new
        todo |= new
    return seen


def _partition_by_key(n, key) -> TwinPartition:
    groups: dict[object, list[int]] = {}
    for v in range(n):
        groups.setdefault(key(v), []).append(v)
    # each class is met first at its smallest member, so they come sorted
    return TwinPartition(tuple(map(tuple, groups.values())))


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


def _masks(X):
    return X.out_masks if isinstance(X, ColoredDiGraph) else X.masks


def induced_subgraph(X, S):
    """Induced subgraph on vertex set S, relabeled to [0, |S|).

    Returns (graph, mapping) where mapping[i] is the original vertex now
    labeled i.  Works for both graph kinds.
    """
    mapping = tuple(sorted(S))
    for v in mapping:
        if not (0 <= v < X.n):
            raise ValueError(f"vertex {v} out of range")
    new_bit = dict(zip(mapping, (1 << i for i in range(len(mapping)))))
    keep = sum(1 << v for v in mapping)
    masks = _masks(X)
    sub = tuple(
        sum(map(new_bit.__getitem__, bits(masks[v] & keep))) for v in mapping
    )
    colors = tuple(X.colors[v] for v in mapping)
    return type(X)._from_masks(len(mapping), colors, sub), mapping


def strong_product(X: ColoredDiGraph, Y: ColoredDiGraph) -> ColoredDiGraph:
    """Strong product of two digraphs, row-major vertex indexing.

    Distinct pairs follow the three standard clauses, so (v, v') is an
    out-neighbor of (u, u') iff v is in N+[u] and v' in N+[u'].  A
    self-loop appears at (u, u') exactly when both u and u' carry
    self-loops (so products of directed power graphs keep their loops).
    Colors multiply.
    """
    ny = Y.n
    colors = tuple(cx * cy for cx in X.colors for cy in Y.colors)
    masks = []
    for u, mx in enumerate(X.out_masks):
        row = bits(mx | 1 << u)
        for up, my in enumerate(Y.out_masks):
            out = sum((my | 1 << up) << v * ny for v in row)
            if not (X.has_arc(u, u) and Y.has_arc(up, up)):
                out &= ~(1 << u * ny + up)
            masks.append(out)
    return ColoredDiGraph._from_masks(X.n * ny, colors, masks)


def relabel(X, perm):
    """Apply a permutation (perm[old] = new) to the vertices of X.  Each
    distinct row is moved once: a group's graph has at most one per
    cyclic subgroup."""
    if sorted(perm) != list(range(X.n)):
        raise ValueError("perm must be a permutation of the vertex set")
    old = sorted(range(X.n), key=perm.__getitem__)  # old[new] is the old vertex
    masks = _masks(X)
    rows = dict.fromkeys(masks)
    # move the columns of the distinct rows as rows of their transpose
    columns = transpose(list(rows), X.n)
    rows = dict(zip(rows, transpose([columns[v] for v in old], len(rows))))
    moved = [rows[masks[v]] for v in old]
    return type(X)._from_masks(X.n, tuple(X.colors[v] for v in old), moved)


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
    # equal degree signatures imply equal edge (arc) counts
    if Counter(_signature(X, v) for v in range(X.n)) != Counter(
        _signature(Y, v) for v in range(Y.n)
    ):
        return None

    candidates = {
        v: [w for w in range(Y.n) if _signature(Y, w) == _signature(X, v)]
        for v in range(X.n)
    }
    # most-constrained vertices first
    order = sorted(range(X.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used = set()
    # depth-first on an explicit stack, not by recursion: tries[-1] holds
    # the untried candidates of order[len(mapping)]
    tries = [iter(candidates[v]) for v in order[:1]]
    while tries and len(mapping) < X.n:
        v = order[len(mapping)]
        fits = (w for w in tries[-1] if w not in used)
        w = next((w for w in fits if _compatible(X, Y, mapping, v, w)), None)
        if w is None:
            tries.pop()
            if mapping:  # back to the previous vertex's next candidate
                used.remove(mapping.popitem()[1])
        else:
            mapping[v] = w
            used.add(w)
            if len(mapping) < X.n:
                tries.append(iter(candidates[order[len(mapping)]]))
    if len(mapping) == X.n:
        return [mapping[v] for v in range(X.n)]
    return None


# --- text serialization ---------------------------------------------------
#
# line 1:  "graph N" or "digraph N"
# line 2:  "colors c0 c1 ... c{N-1}"  or  "nocolors"
# then one edge per line, "u v", sorted ascending by (u, v); undirected
# edges satisfy u < v.  Self-loops only in digraphs.


def format_graph(X, with_colors: bool = True, out=None) -> str | None:
    """X's text, each row's names picked out of its bit string once per
    distinct row: a digraph's equal out-rows (in a DPow, one cyclic
    subgroup's generators) are one pick, and so are a graph's closed
    twins, whose rows are slices of the pick above the first of them.
    Given a text file out, it is written there, as format_rows does."""
    directed = isinstance(X, ColoredDiGraph)
    names = [str(v) for v in range(X.n)]
    if directed:
        picked = {m: bits(m, names) for m in set(X.out_masks)}
        rows = map(picked.__getitem__, X.out_masks)
    else:
        # a mask's names above its smallest vertex (zip's last write) are
        # picked once; each twin u's row is the tail of that list above u
        first = dict(zip(reversed(X.masks), range(X.n - 1, -1, -1)))
        picked = {m: bits(m & -(2 << u), names) for m, u in first.items()}
        rows = (
            row[len(row) - (m >> u + 1).bit_count() :]
            for u, m in enumerate(X.masks)
            for row in (picked[m],)
        )
    return format_rows(X.colors, rows, directed, with_colors, out)


def format_rows(
    colors, rows, directed: bool = False, with_colors: bool = True, out=None
) -> str | None:
    """The text of a graph on len(colors) vertices whose u-th row lists
    the names (str(v)) of u's out-neighbors (undirected: its neighbors
    above it) ascending; a vertex with no row has none.  Given a text
    file out, the header and then each row are written into it as they
    are formed, one write each, and None is returned."""
    colors_line = "colors " + " ".join(map(str, colors)) if with_colors else "nocolors"
    header = f"{'digraph' if directed else 'graph'} {len(colors)}\n{colors_line}\n"
    # one string per vertex with a neighbor in its row
    lines = chain(
        [header],
        (f"{u} " + f"\n{u} ".join(row) + "\n" for u, row in enumerate(rows) if row),
    )
    if out is None:
        return "".join(lines)
    out.writelines(lines)


def parse_graph(text: str):
    """Read format_graph's text into masks, one run of lines with one head
    at a time.  A run of head u = str(v) is guessed to end where v + 1's
    first line begins, within n lines of the longest spelling, or else
    after the last line with head u within that reach; a looked-up head
    (not carried on from v - 1's run) whose next line has another head is
    one line.  A guess is taken only if, with each "\n" + u + " " removed,
    every line is one id spelled as str(w) and one head went per line.
    Else u's consecutive lines are read once: one spelled "u str(w)" is
    ORed in, any other goes to _read_lines, as do lines with no such head,
    a run of equal first words at once.  Lines are cut at "\n", then by
    str.splitlines: they are the lines it gives for the whole text.  Both
    kinds' lines are read as arcs, an undirected graph's then symmetrised.
    A per-parse dict of tails texts reduces each distinct row to a mask
    once.  A vertex count above MAX_GROUP_ORDER is refused before any is built."""
    pos, top, lines = 0, [], iter(())  # lines: the unread lines of the chunk in hand
    while len(top) < 2 and pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        lines = iter(text[pos:end].splitlines(keepends=True))
        top += islice(filter(str.strip, lines), 2 - len(top))
        pos = end
    if not top:
        raise GraphFormatError("empty graph file")
    header = top[0]
    head = header.split()
    if len(head) != 2 or head[0] not in ("graph", "digraph"):
        raise GraphFormatError(f"bad header line: {header.strip()!r}")
    directed = head[0] == "digraph"
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"bad vertex count: {head[1]!r}") from None
    if n < 0:
        raise GraphFormatError(f"bad vertex count: {n}")
    if n > MAX_GROUP_ORDER:
        raise GraphFormatError(f"vertex count {n} exceeds maximum {MAX_GROUP_ORDER}")
    if len(top) < 2:
        raise GraphFormatError("missing colors line")
    colors_line = top[1]
    ctok = colors_line.split()
    if ctok[0] == "colors":
        try:
            colors = tuple(map(int, ctok[1:]))
        except ValueError:
            raise GraphFormatError("colors must be integers") from None
    elif ctok[0] == "nocolors" and len(ctok) == 1:
        colors = (1,) * n
    else:
        raise GraphFormatError(f"bad colors line: {colors_line.strip()!r}")
    try:
        _check_colors(n, colors)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    bit = {str(v): 1 << v for v in range(n)}
    heads = [f"\n{s} " for s in bit] + [f"\n{n} "]  # heads[n]: searched for after n - 1
    masks = [0] * n
    seen: dict[str, tuple[int, int]] = {}  # tails: (mask, line count)
    _read_lines(lines, masks, directed)
    find, rfind, startswith = text.find, text.rfind, text.startswith
    width, size, v = len(str(n)), len(text), None
    longest = (n + 1) * (2 * width + 2)  # a run of n lines "u v\n", and then some
    while pos < size:
        if v is None:  # look the head up
            space = find(" ", pos, pos + width + 1)
            if (b := bit.get(text[pos:space]) if space >= 0 else None) is None:
                # no written head: the line, and the next ones with its first word
                start, end = pos, find("\n", pos) + 1 or size
                space = find(" ", pos, end)
                word, pos = "\n" + text[pos : space + 1], end
                while space >= 0 and startswith(word, pos - 1):
                    pos = find("\n", pos) + 1 or size
                _read_lines(text[start:pos].splitlines(), masks, directed)
                continue
            v, end = b.bit_length() - 1, find("\n", space)
            guess = startswith(heads[v], end)  # else one line
        if guess:  # carried on, or v's next line has v's head too
            end = find(heads[v + 1], pos, pos + longest)
            if end < 0:  # v + 1 has no row within reach: up to v's last line there
                end = find("\n", rfind(heads[v], pos - 1, pos + longest) + 1)
        k = len(heads[v]) - 1
        if end >= 0:  # take the run if each line is one id after one head "str(v) "
            tails = text[pos + k : end].replace(heads[v], "\n")
            if (row := seen.get(tails)) is None:
                ids = tails.split("\n")
                try:
                    row = seen[tails] = reduce(or_, map(bit.__getitem__, ids)), len(ids)
                except KeyError:  # an id not spelled as str(w)
                    row = 0, 0
            if end - pos - len(tails) == row[1] * k:  # one head removed per line
                masks[v] |= row[0]
                pos, guess = end + 1, True
                v = v + 1 if v + 1 < n and startswith(heads[v + 1], end) else None
                continue
        start, odd = pos, []  # declined: read v's consecutive lines once
        while startswith(heads[v], pos - 1):
            pos = find("\n", pos) + 1 or size
        for line in text[start:pos].split("\n"):
            if b := bit.get(line[k:]):
                masks[v] |= b
            else:
                odd.append(line)
        _read_lines("\n".join(odd).splitlines(), masks, directed)
        v = None
    if directed:
        return ColoredDiGraph._from_masks(n, colors, masks)
    for v, m in enumerate(masks):  # the lines were read as arcs: no loops
        if m >> v & 1:
            raise GraphFormatError(f"bad edge ({v}, {v}) for n={n}")
    pairs = enumerate(zip(masks, transpose(masks)))
    return ColoredGraph._from_masks(n, colors, [m | t | 1 << v for v, (m, t) in pairs])


def _read_lines(lines, masks, directed) -> None:
    """OR arc lines into masks one at a time, in any accepted spelling."""
    n = len(masks)
    for ln in lines:
        try:
            a, b = ln.split()
        except ValueError:
            if ln.strip():
                raise GraphFormatError(f"bad edge line: {ln.strip()!r}") from None
            continue  # blank line
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise GraphFormatError(f"bad edge line: {ln.strip()!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            kind = "arc" if directed else "edge"
            raise GraphFormatError(f"bad {kind} ({u}, {v}) for n={n}")
        masks[u] |= 1 << v


def load_graph(path):
    with open_text(path, GraphFormatError) as fh:
        text = fh.read()
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
