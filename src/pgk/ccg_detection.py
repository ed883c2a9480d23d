"""Marking a CCG-set in a power graph or an enhanced power graph when
the underlying group is not given.

The power-graph detector works in phases over a degree-descending list,
deciding each candidate with one of four rules; the decision for a
candidate v looks only at the subgraph induced on its closed
neighborhood and at labels assigned in earlier phases.  That subgraph
is never built: it is read off the closed-neighborhood bitmasks, and
Pow(Z_d)'s reference twin profile comes from the divisors of d, with no
group.  The enhanced detector is a greedy sweep in ascending degree
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import PipelineError
from .graph_core import ColoredGraph, bits, scatter
from .numtheory import divisors, euler_phi, is_prime_power

__all__ = [
    "CC",
    "NC",
    "IDENTITY",
    "UNLABELED",
    "CcgMarking",
    "TwinProfile",
    "mark_ccg_power",
    "mark_ccg_enhanced",
]

CC = "CC"
NC = "NC"
IDENTITY = "IDENTITY"
UNLABELED = "UNLABELED"


@dataclass(frozen=True)
class CcgMarking:
    """Per-vertex labels plus the processing order that produced them."""

    labels: tuple[str, ...]
    processing_order: tuple[int, ...]

    @property
    def cc_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, lab in enumerate(self.labels) if lab == CC)


@dataclass(frozen=True)
class TwinProfile:
    """Multiset of closed-twin-class sizes, plus the size of the class of
    universal vertices (0 if the graph has none)."""

    class_sizes: tuple[int, ...]  # sorted ascending
    dominating_class_size: int


def _masked_profile(masks, S: int) -> TwinProfile:
    """Twin profile of the subgraph induced on the vertex set S (a
    bitmask), read off the masks: u's closed neighborhood there is
    masks[u] & S, and the dominating class is the one that sees all of
    S."""
    classes = Counter(masks[u] & S for u in bits(S))
    return TwinProfile(tuple(sorted(classes.values())), classes[S])


@lru_cache(maxsize=None)
def _cyclic_power_graph_profile(d: int) -> TwinProfile:
    """Twin profile of Pow(Z_d), uncolored, from the divisor lattice: Z_d
    has phi(e) elements of order e for each e | d, and x, y are closed
    twins iff the divisors comparable with o(x) and with o(y) agree."""
    divs = divisors(d)
    classes: Counter[tuple[int, ...]] = Counter()
    for e in divs:
        classes[tuple(f for f in divs if e % f == 0 or f % e == 0)] += euler_phi(e)
    return TwinProfile(tuple(sorted(classes.values())), classes[tuple(divs)])


def mark_ccg_power(Gamma: ColoredGraph) -> CcgMarking:
    """Mark a CCG-set in a power graph.

    Complete graphs are the cyclic-prime-power case: a single CC at the
    lowest index.  Otherwise the lowest-index universal vertex becomes
    IDENTITY and the remaining vertices are processed in decreasing
    degree order (ties by ascending index), one rule firing per phase.
    Candidate v is decided on S = N[v]: u in S is universal in Gamma[S]
    iff masks[u] & S == S, and v's twins there are its universal
    vertices.  Only adjacency is read: vertex colors play no part.
    """
    n = Gamma.n
    if n == 0:
        raise PipelineError("empty graph")
    if Gamma.is_complete():
        labels = [NC] * n
        labels[0] = CC
        return CcgMarking(tuple(labels), ())

    universal = Gamma.universal_vertices()
    if not universal:
        raise PipelineError("no universal vertex: input is not a power graph")
    identity = universal[0]

    masks = Gamma.masks
    labels = [UNLABELED] * n
    labels[identity] = IDENTITY
    order = sorted(
        (v for v in range(n) if v != identity),
        key=lambda v: (-Gamma.degree(v), v),
    )

    for v in order:
        if labels[v] != UNLABELED:
            continue
        S = masks[v]
        d = S.bit_count()
        local_universal = [u for u in bits(S) if masks[u] & S == S]
        pp = is_prime_power(d) is not None
        if pp and len(local_universal) == d:
            _mark_cc(Gamma, labels, v, identity)  # Rule 1a
        elif pp:
            labels[v] = NC  # Rule 1b
        elif any(w != identity and labels[w] == NC for w in local_universal):
            labels[v] = NC  # Rule 2a
        elif _masked_profile(masks, S) == _cyclic_power_graph_profile(d):
            _mark_cc(Gamma, labels, v, identity)  # Rule 2b, matching case
        else:
            labels[v] = NC  # Rule 2b, non-matching case
    return CcgMarking(tuple(labels), tuple(order))


def _mark_cc(Gamma, labels, v, identity):
    for w in bits(Gamma.masks[v]):
        if w != identity:
            labels[w] = NC
    labels[v] = CC


def mark_ccg_enhanced(Gamma: ColoredGraph) -> CcgMarking:
    """Mark a CCG-set in an enhanced power graph: sweep the vertices in
    ascending degree order, marking the first unmarked vertex CC and all
    of its neighbors NC.

    In an enhanced power graph, N[g] = <g> for a CC vertex g, and N[v]
    is the union of the maximal cyclic subgroups that contain v.  So
    each N[v] must be the union of the CC neighborhoods containing v,
    which also makes every CC neighborhood a clique; a vertex where this
    fails is named in a PipelineError.
    """
    n = Gamma.n
    if n == 0:
        raise PipelineError("empty graph")
    labels = [UNLABELED] * n
    order = sorted(range(n), key=lambda v: (Gamma.degree(v), v))
    for v in order:
        if labels[v] == UNLABELED:
            _mark_cc(Gamma, labels, v, None)
    masks = Gamma.masks
    cc = [masks[g] for g, label in enumerate(labels) if label == CC]
    for v, cover in enumerate(scatter(zip(cc, cc), n)):
        if cover != masks[v]:
            raise PipelineError(
                f"not an enhanced power graph: N[{v}] is not the union of "
                "the CC neighborhoods that contain it"
            )
    return CcgMarking(tuple(labels), tuple(order))
