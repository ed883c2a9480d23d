"""Isomorphism-invariant reductions of a colored directed power graph.

R1 contracts closed-twin classes, R2 strips self-loops and transitive
arcs (leaving the covering relation of the divisibility order), and R3
forgets directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PipelineError
from .graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    bits,
    closed_twin_partition_directed,
    induced_subgraph,
)
from .numtheory import euler_phi

__all__ = [
    "R1Reduction",
    "reduce_r1",
    "reduce_r2",
    "reduce_r3",
]


@dataclass(frozen=True)
class R1Reduction:
    """Twin-contracted graph plus the class map (vertex i of the reduced
    graph came from classes[i] of the input)."""

    graph: ColoredDiGraph
    classes: tuple[tuple[int, ...], ...]


def reduce_r1(X: ColoredDiGraph) -> R1Reduction:
    """Contract each closed-twin class of a CDPow to one vertex.

    Rejects inputs whose class sizes disagree with euler_phi of the class
    color, which genuine colored directed power graphs always satisfy.
    """
    partition = closed_twin_partition_directed(X)
    classes = partition.classes
    for cls in classes:
        color = X.colors[cls[0]]
        if len(cls) != euler_phi(color):
            raise PipelineError(
                f"not a colored directed power graph: twin class {cls} has size "
                f"{len(cls)}, expected euler_phi({color}) = {euler_phi(color)}"
            )
    # a class's arcs are its first member's (a vertex reaches all of a
    # class or none of it), plus a loop if it has twins (they reach each other)
    R, _ = induced_subgraph(X, [cls[0] for cls in classes])
    loops = sum(1 << i for i, cls in enumerate(classes) if len(cls) > 1)
    masks = [m | loops & 1 << i for i, m in enumerate(R.out_masks)]
    return R1Reduction(ColoredDiGraph._from_masks(R.n, R.colors, masks), classes)


def reduce_r2(X: ColoredDiGraph) -> ColoredDiGraph:
    """Drop self-loops, then drop every arc (a, c) admitting a two-step
    path a -> b -> c with b distinct from both."""
    out = [m & ~(1 << v) for v, m in enumerate(X.out_masks)]
    kept = []
    for out_a in out:
        two_steps = 0
        for b in bits(out_a):
            two_steps |= out[b]
        kept.append(out_a & ~two_steps)
    return ColoredDiGraph._from_masks(X.n, X.colors, kept)


def reduce_r3(X: ColoredDiGraph) -> ColoredGraph:
    """Forget arc directions."""
    return X.undirected_shadow()
