"""Construction of the power graph, directed power graph, and enhanced
power graph of a finite group.

The directed power graph keeps its self-loops and the arcs into the
identity, and is colored by out-degree (= element order).  The two
undirected graphs are emitted uncolored: order information must later be
recovered from the graph alone, never read off the group.

All three are built as bitmasks from the distinct cyclic subgroups, each
walked once: the generators of one cyclic subgroup share its mask.
"""

from __future__ import annotations

from math import gcd

from .graph_core import ColoredDiGraph, ColoredGraph, bits
from .group_core import FiniteGroup

__all__ = [
    "directed_power_graph",
    "power_graph",
    "enhanced_power_graph",
]


def _cyclic_masks(G: FiniteGroup):
    """(subgroups, generated): one (mask, generators mask) pair per
    distinct cyclic subgroup, in order of smallest generator, and per
    element x the mask of <x>."""
    table = G.table
    subgroups: list[tuple[int, int]] = []
    generated = [0] * G.order
    for g in range(G.order):
        if generated[g]:
            continue
        powers = [0]  # powers[k] is g^k
        x = g
        while x != 0:
            powers.append(x)
            x = table[x][g]
        o = len(powers)
        mask = sum(1 << x for x in powers)
        gens = [powers[k] for k in range(o) if gcd(k, o) == 1]
        for x in gens:
            generated[x] = mask
        subgroups.append((mask, sum(1 << x for x in gens)))
    return subgroups, generated


def directed_power_graph(G: FiniteGroup) -> ColoredDiGraph:
    """CDPow(G): arc (x, y) iff y is a power of x; color = o(x)."""
    _, generated = _cyclic_masks(G)
    return ColoredDiGraph._from_masks(G.order, G.element_orders, generated)


def power_graph(G: FiniteGroup) -> ColoredGraph:
    """Pow(G), uncolored: edge {x, y} iff one generates the other.  N[y]
    is <y> together with the generators of every <x> that contains y."""
    n = G.order
    subgroups, masks = _cyclic_masks(G)
    for mask, gens in subgroups:
        for y in bits(mask):
            masks[y] |= gens
    return ColoredGraph._from_masks(n, (1,) * n, masks)


def enhanced_power_graph(G: FiniteGroup) -> ColoredGraph:
    """EPow(G), uncolored: edge {x, y} iff x and y lie in a common cyclic
    subgroup.  N[x] is the union of the cyclic subgroups containing x."""
    n = G.order
    masks = [0] * n
    for mask, _ in _cyclic_masks(G)[0]:
        for x in bits(mask):
            masks[x] |= mask
    return ColoredGraph._from_masks(n, (1,) * n, masks)
