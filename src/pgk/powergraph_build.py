"""Construction of the power graph, directed power graph, and enhanced
power graph of a finite group.

The directed power graph keeps its self-loops and the arcs into the
identity, and is colored by out-degree (= element order); its
out-neighborhoods are the group's `cyclic_masks`.  The undirected graphs
come from it through the converters the reconstruction checks use, and
are uncolored: order information must later be recovered from the graph
alone, never read off the group.
"""

from __future__ import annotations

from .graph_core import ColoredDiGraph, ColoredGraph
from .group_core import FiniteGroup
from .reconstruction import epow_from_dpow, pow_from_dpow

__all__ = [
    "directed_power_graph",
    "power_graph",
    "enhanced_power_graph",
]


def directed_power_graph(G: FiniteGroup) -> ColoredDiGraph:
    """CDPow(G): arc (x, y) iff y is a power of x; color = o(x)."""
    return ColoredDiGraph._from_masks(G.order, G.element_orders, G.cyclic_masks)


def power_graph(G: FiniteGroup) -> ColoredGraph:
    """Pow(G), uncolored: edge {x, y} iff one generates the other."""
    return pow_from_dpow(directed_power_graph(G))


def enhanced_power_graph(G: FiniteGroup) -> ColoredGraph:
    """EPow(G), uncolored: edge {x, y} iff x and y lie in a common cyclic
    subgroup."""
    return epow_from_dpow(directed_power_graph(G))
