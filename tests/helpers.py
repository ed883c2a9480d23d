"""Shared test utilities: the group catalog, relabeling helpers, the
twin-structure checks reused by both the unit tests and the acceptance
suite, the proof machinery only tests use, and reference implementations
that the library's faster code is compared against."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from hypothesis import strategies as st

from pgk.ccg_detection import (
    CC,
    IDENTITY,
    NC,
    UNLABELED,
    CcgMarking,
    TwinProfile,
    _masked_profile,
)
from pgk.errors import CayleyTableError, GraphFormatError, GroupSpecError, PipelineError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    TwinPartition,
    bits,
    brute_force_color_iso,
    closed_twin_partition_undirected,
    format_graph,
    induced_subgraph,
    reach,
    relabel,
)
from pgk.group_core import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    _cayley_order,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_cayley_table,
    heisenberg_group,
    quaternion_group,
)
from pgk.numtheory import (
    divisors,
    euler_phi,
    is_power_of,
    is_prime,
    is_prime_power,
    prime_factorization,
)
from pgk.powergraph_build import power_graph
from pgk.reconstruction import R4Graph, r3_from_r4
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

# modules that every scan over src/pgk must see, so that no scan of the
# package passes vacuously, whatever the module count
SCANNED_MODULES = {"graph_core.py", "reconstruction.py", "nilpotent_iso.py", "ccg_detection.py"}


def phi_table(limit: int) -> list[int]:
    """Sieve of euler_phi values for 0..limit (index 0 is unused)."""
    if limit < 1:
        raise ValueError(f"argument must be a positive integer, got {limit}")
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


# --- test-only group structure ---------------------------------------------
#
# Cyclic subgroups, maximal cyclic subgroups and the CCG ground truth,
# read off the Cayley table by their own power walk, so that they stay
# oracles independent of FiniteGroup.cyclic_masks, which they check.


@dataclass(frozen=True)
class CyclicSubgroup:
    generator: int
    members: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.members)


def reference_element_orders(G: FiniteGroup) -> tuple[int, ...]:
    """Element orders by walking the powers of every element."""
    orders = []
    for g in range(G.order):
        m, x = 1, g
        while x != 0:
            x = G.table[x][g]
            m += 1
        orders.append(m)
    return tuple(orders)


def cyclic_subgroup(G: FiniteGroup, g: int) -> CyclicSubgroup:
    members = {0}
    x = g
    while x != 0:
        members.add(x)
        x = G.table[x][g]
    return CyclicSubgroup(generator=g, members=frozenset(members))


def is_abelian(G: FiniteGroup) -> bool:
    n = G.order
    return all(
        G.table[a][b] == G.table[b][a]
        for a in range(n)
        for b in range(a + 1, n)
    )


def maximal_cyclic_subgroups(G: FiniteGroup) -> list[CyclicSubgroup]:
    """All maximal cyclic subgroups, one per member set, smallest-index
    generator as representative.  For cyclic G this is G itself."""
    subs: dict[frozenset[int], int] = {}
    for g in range(G.order):
        members = cyclic_subgroup(G, g).members
        subs.setdefault(members, g)  # g ascends, so first hit is smallest
    full = frozenset(range(G.order))
    if full in subs:
        return [CyclicSubgroup(generator=subs[full], members=full)]
    member_sets = list(subs)
    maximal = [
        s for s in member_sets if not any(s < t for t in member_sets if t is not s)
    ]
    maximal.sort(key=lambda s: subs[s])
    return [CyclicSubgroup(generator=subs[s], members=s) for s in maximal]


def ccg_ground_truth(G: FiniteGroup) -> set[int]:
    """One generator per covering cycle (smallest index); the reference
    CCG-set the detection algorithms are checked against."""
    return {sub.generator for sub in maximal_cyclic_subgroups(G)}


def is_nilpotent(G: FiniteGroup) -> bool:
    """True iff for every prime p | |G| the p-power-order elements are
    closed under the product (all Sylow subgroups normal)."""
    orders = G.element_orders
    for p, _ in prime_factorization(G.order):
        sylow = [g for g in range(G.order) if is_power_of(orders[g], p)]
        members = set(sylow)
        for a in sylow:
            row = G.table[a]
            if any(row[b] not in members for b in sylow):
                return False
    return True


# --- reference group builders ----------------------------------------------
#
# The per-entry product functions the spec groups were once built with,
# kept verbatim as oracles for the row-composition builders in group_core.


def reference_dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k (k rotations, k reflections).

    Element f*k + i stands for r^i s^f, so index 0 is the identity.
    """
    if k < 1:
        raise ValueError("dihedral parameter must be positive")
    n = 2 * k

    def mul(a, b):
        i1, f1 = a % k, a // k
        i2, f2 = b % k, b // k
        i = (i1 + i2) % k if f1 == 0 else (i1 - i2) % k
        return (f1 ^ f2) * k + i

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(n)) for a in range(n)))


_Q8_UNIT_MUL = {
    # (u1, u2) -> (sign, unit) for units 0=1, 1=i, 2=j, 3=k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def reference_quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; element 2u + s is (-1)^s times unit u."""

    def mul(a, b):
        u1, s1 = a // 2, a % 2
        u2, s2 = b // 2, b % 2
        sign, unit = _Q8_UNIT_MUL[(u1, u2)]
        s = (s1 + s2 + (sign < 0)) % 2
        return unit * 2 + s

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(8)) for a in range(8)))


def reference_heisenberg_group(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p; order p^3, exponent p
    for odd p."""
    if p < 2 or not is_prime(p):
        raise GroupSpecError(f"Heisenberg parameter must be prime, got {p}")
    n = p * p * p

    def unpack(x):
        return x // (p * p), (x // p) % p, x % p

    def mul(x, y):
        a1, b1, c1 = unpack(x)
        a2, b2, c2 = unpack(y)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(n)) for a in range(n)))


def reference_direct_product(
    G: FiniteGroup, H: FiniteGroup, max_order: int = MAX_GROUP_ORDER
) -> FiniteGroup:
    """Direct product with row-major element indexing (g, h) -> g*|H| + h."""
    n, m = G.order, H.order
    if n * m > max_order:
        raise GroupSpecError(
            f"product order {n * m} exceeds the configured maximum {max_order}"
        )
    table = tuple(
        tuple(
            G.table[a // m][b // m] * m + H.table[a % m][b % m]
            for b in range(n * m)
        )
        for a in range(n * m)
    )
    return FiniteGroup(table)


def metacyclic_group(m: int, k: int, r: int) -> FiniteGroup:
    """Z_m ⋊ Z_k with (a, b)(c, d) = (a + c·r^b mod m, b + d mod k), the
    pair (a, b) being element b*m + a; r^k must be 1 mod m.  M16 is
    (8, 2, 5) and Z9⋊Z3 is (9, 3, 4)."""
    n = m * k

    def mul(x, y):
        (b, a), (d, c) = divmod(x, m), divmod(y, m)
        return (b + d) % k * m + (a + c * pow(r, b, m)) % m

    return group_from_cayley_table([[mul(x, y) for y in range(n)] for x in range(n)])


def dicyclic_group(k: int) -> FiniteGroup:
    """Dic_k of order 4k with (i, j)(l, m) = ((i + (-1)^j·l + k·[j = m = 1])
    mod 2k, (j + m) mod 2), the pair (i, j) being element j*2k + i.  Every
    maximal cyclic subgroup holds the central involution (k, 0).  Q8 is
    k = 2, Q16 is k = 4 and Q32 is k = 8."""
    h = 2 * k

    def mul(x, y):
        (j, i), (m, l) = divmod(x, h), divmod(y, h)
        return (j + m) % 2 * h + (i + (-1) ** j * l + k * (j & m)) % h

    return group_from_cayley_table([[mul(x, y) for y in range(2 * h)] for x in range(2 * h)])


def generated_group(mul, *generators) -> FiniteGroup:
    """The finite group the generators generate under mul, as a Cayley
    table.  Right products by generators are closed breadth-first; in a
    finite group they reach the identity and every inverse."""
    elements = list(dict.fromkeys(generators))
    index = {x: i for i, x in enumerate(elements)}
    for x in elements:
        for g in generators:
            if (y := mul(x, g)) not in index:
                index[y] = len(elements)
                elements.append(y)
    return group_from_cayley_table([[index[mul(x, y)] for y in elements] for x in elements])


def compose(p, q):
    """The permutation p∘q, each a tuple of the images of range(d)."""
    return tuple(p[i] for i in q)


def matmul_mod3(x, y):
    """The product of 2×2 matrices mod 3, each (a, b, c, d) for [[a, b], [c, d]]."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)


def family_groups() -> list[tuple[str, FiniteGroup]]:
    """Non-abelian groups beyond the catalog, each built from generators:
    dicyclic groups, whose maximal cyclic subgroups share a core, the
    metacyclic ones by metacyclic_group's rule, and permutation and
    matrix groups."""
    return [
        ("Dic3", dicyclic_group(3)),
        ("Q16", dicyclic_group(4)),
        ("Dic5", dicyclic_group(5)),
        ("Dic6", dicyclic_group(6)),
        ("Q32", dicyclic_group(8)),
        ("SD16", metacyclic_group(8, 2, 3)),
        ("M16", metacyclic_group(8, 2, 5)),
        ("Z9⋊Z3", metacyclic_group(9, 3, 4)),
        ("Z7⋊Z3", metacyclic_group(7, 3, 2)),
        ("F20", metacyclic_group(5, 4, 2)),
        ("F42", metacyclic_group(7, 6, 3)),
        ("Z3⋊Z8", metacyclic_group(3, 8, 2)),
        ("A4", generated_group(compose, (1, 2, 0, 3), (1, 0, 3, 2))),
        ("S4", generated_group(compose, (1, 2, 3, 0), (1, 0, 2, 3))),
        ("A5", generated_group(compose, (1, 2, 0, 3, 4), (1, 2, 3, 4, 0))),
        ("S5", generated_group(compose, (1, 2, 3, 4, 0), (1, 0, 2, 3, 4))),
        ("SL(2,3)", generated_group(matmul_mod3, (1, 1, 0, 1), (1, 0, 1, 1))),
        ("GL(2,3)", generated_group(matmul_mod3, (1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1))),
    ]


# --- test-only graph accessors and forward reductions ----------------------
#
# Proof machinery: the forward R4 step from an R3 graph, the R2 audit and
# small accessors that only tests read.


def save_graph(X, path, with_colors: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(X, with_colors=with_colors))


def closed_neighborhood(X: ColoredGraph, v: int) -> frozenset[int]:
    return frozenset(bits(X.masks[v]))


def neighbors(X: ColoredGraph, v: int) -> frozenset[int]:
    return frozenset(bits(X.masks[v] ^ (1 << v)))


def closed_out_neighborhood(X: ColoredDiGraph, v: int) -> frozenset[int]:
    return frozenset(bits(X.out_masks[v] | 1 << v))


def class_of(partition: TwinPartition) -> dict[int, tuple[int, ...]]:
    return {v: cls for cls in partition.classes for v in cls}


def identity_vertex(marking: CcgMarking) -> int | None:
    for v, lab in enumerate(marking.labels):
        if lab == IDENTITY:
            return v
    return None


def twin_profile(X: ColoredGraph) -> TwinProfile:
    return _masked_profile(X.masks, (1 << X.n) - 1)


def intersection_color(X: R4Graph, i: int, j: int) -> int:
    return X.below[max(i, j)].get(min(i, j), 1)


def r4_graph(colors, pairs, vertices=None) -> R4Graph:
    """An R4 record from a dict of pair colors, {(i, j): color} with
    i < j: pairs of color 1 are dropped, and a pair missing from the dict
    reads None, which the gluing refuses."""
    below = [{i: c for i in range(j) if (c := pairs.get((i, j))) != 1} for j in range(len(colors))]
    return R4Graph(tuple(colors), below, vertices)


def pair_colors(X: R4Graph) -> dict[tuple[int, int], int]:
    """The color of every pair (i, j), i < j, i-major, 1 if not stored."""
    return {(i, j): X.below[j].get(i, 1) for i in range(X.m) for j in range(i + 1, X.m)}


def r4_bipartite(X: R4Graph) -> ColoredGraph:
    """Materialize as a colored bipartite graph: A-side vertices
    0..m-1, then one B-side vertex per pair in pair order.  The
    reference that format_r4's arithmetic rows are checked against."""
    m, pairs = X.m, pair_colors(X)
    colors = X.ccg_colors + tuple(pairs.values())
    masks = [1 << v for v in range(len(colors))]
    for b, (i, j) in enumerate(pairs, m):
        masks[b] |= 1 << i | 1 << j
        masks[i] |= 1 << b
        masks[j] |= 1 << b
    return ColoredGraph._from_masks(len(colors), colors, masks)


def descendants(X: ColoredGraph, v: int) -> set[int]:
    """Vertices reachable from v along strictly color-decreasing paths,
    including v itself."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in neighbors(X, u):
            if w not in seen and X.colors[w] < X.colors[u]:
                seen.add(w)
                stack.append(w)
    return seen


def ccg_vertices_in_r3(X: ColoredGraph) -> list[int]:
    """CCG vertices of an R3 graph: exactly those whose neighbors all
    carry smaller colors.  Sorted ascending by (color, index)."""
    ccg = [
        v
        for v in range(X.n)
        if all(X.colors[w] < X.colors[v] for w in neighbors(X, v))
    ]
    ccg.sort(key=lambda v: (X.colors[v], v))
    return ccg


def reduce_r4(X: ColoredGraph) -> R4Graph:
    """Summarize an R3 graph by its CCG vertices and, per pair, the
    maximum color among their common descendant-reachable vertices."""
    ccg = ccg_vertices_in_r3(X)
    des = {g: descendants(X, g) for g in ccg}
    inter: dict[tuple[int, int], int] = {}
    for i in range(len(ccg)):
        for j in range(i + 1, len(ccg)):
            common = des[ccg[i]] & des[ccg[j]]
            if not common:
                raise PipelineError(
                    f"CCG vertices {ccg[i]} and {ccg[j]} share no descendant"
                )
            best = max(X.colors[v] for v in common)
            if sum(1 for v in common if X.colors[v] == best) > 1:
                raise PipelineError(
                    "two common descendants of maximum color "
                    f"{best} for CCG pair ({ccg[i]}, {ccg[j]})"
                )
            inter[(i, j)] = best
    return r4_graph(tuple(X.colors[g] for g in ccg), inter, tuple(ccg))


def dense_r4_from_marked_graph(Gamma: ColoredGraph, marking: CcgMarking) -> R4Graph:
    """r4_from_marked_graph as one loop over all m(m-1)/2 pairs of CC
    vertices, refusing the first disjoint pair in (i, j) order: the oracle
    that the library's search for the non-trivial pairs is checked against."""
    cc = sorted(marking.cc_vertices, key=lambda v: (Gamma.degree(v) + 1, v))
    if not cc:
        raise PipelineError("marking contains no CC vertex")
    closed = [Gamma.masks[g] for g in cc]
    inter: dict[tuple[int, int], int] = {}
    for i in range(len(cc)):
        for j in range(i + 1, len(cc)):
            size = (closed[i] & closed[j]).bit_count()
            if size == 0:
                raise PipelineError(
                    "not a power graph: CC vertices "
                    f"{cc[i]} and {cc[j]} have disjoint closed neighborhoods"
                )
            inter[(i, j)] = size
    return r4_graph(tuple(nb.bit_count() for nb in closed), inter, tuple(cc))


def hasse_divisor_graph(n: int) -> ColoredGraph:
    """Hasse diagram of the divisors of n: one vertex per divisor (its
    color), edges between divisors at prime ratio.  The definitional
    oracle that r3_from_r4 on a single CCG vertex is checked against."""
    divs = divisors(n)
    masks = [1 << i for i in range(len(divs))]
    for i, d in enumerate(divs):
        for j, e in enumerate(divs):
            if e > d and e % d == 0 and is_prime(e // d):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return ColoredGraph._from_masks(len(divs), tuple(divs), masks)


@dataclass(frozen=True)
class Algorithm3Step:
    """Snapshot after one gluing iteration.

    `graph` is the accumulated graph; its vertex ids are given out in
    creation order, so they are stable across steps.  `identified` holds
    the old vertices that absorbed a vertex of the newly introduced Hasse
    diagram in this iteration.
    """

    graph: ColoredGraph
    identified: frozenset[int]


def r3_from_r4_steps(X: R4Graph) -> list[Algorithm3Step]:
    """Every intermediate state of the R4 -> R3 gluing.  Ids are given out
    in creation order, so the state after step j is r3_from_r4 of the R4
    prefix on g_0..g_j.  g_j's vertex is the last one made or, if the step
    made none, the vertex of color c_j below g_s's for an earlier s with
    c_{s,j} = c_j; the identified vertices are the old ones below g_j's."""
    r3_from_r4(X)  # refuse as the gluing does, also an R4 with no CCG vertex
    steps: list[Algorithm3Step] = []
    tops: list[int] = []
    for j, cj in enumerate(X.ccg_colors):
        graph = r3_from_r4(R4Graph(X.ccg_colors[: j + 1], X.below[: j + 1]))
        before = steps[-1].graph.n if steps else 0
        if graph.n > before:
            tops.append(graph.n - 1)
        else:
            s = next(s for s in range(j) if intersection_color(X, s, j) == cj)
            below = descendants(graph, tops[s])
            tops.append(next(v for v in below if graph.colors[v] == cj))
        below = descendants(graph, tops[-1])
        steps.append(Algorithm3Step(graph, frozenset(v for v in below if v < before)))
    return steps


@dataclass(frozen=True)
class R2Report:
    """Outcome of the structural audit of an R2 candidate."""

    acyclic: bool
    prime_color_ratios: bool
    sources_are_color_maximal: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_r2_structure(X: ColoredDiGraph) -> R2Report:
    """Audit the three structural properties every genuine R2 graph has:
    acyclicity, prime color ratio on every arc, and in-degree-0 vertices
    being exactly the color-maximal ones among their ancestors."""
    violations = []

    prime_ok = True
    arcs = [(u, v) for u, m in enumerate(X.out_masks) for v in bits(m)]
    for u, v in arcs:
        cu, cv = X.colors[u], X.colors[v]
        if cv == 0 or cu % cv != 0 or not is_prime(cu // cv):
            prime_ok = False
            violations.append(
                f"arc ({u}, {v}) has color ratio {cu}/{cv}, not a prime"
            )

    reach = reachability(X)
    acyclic = not any(u in reach[v] for u, v in arcs)
    if not acyclic:
        violations.append("graph contains a directed cycle")

    sources_ok = True
    if acyclic:
        for v in range(X.n):
            dominated = any(v in reach[w] for w in range(X.n) if w != v)
            if (X.in_degree(v) == 0) == dominated:
                sources_ok = False
                violations.append(
                    f"vertex {v}: in-degree-0 status inconsistent with reachability"
                )
    return R2Report(acyclic, prime_ok, sources_ok, tuple(violations))


def reachability(X: ColoredDiGraph) -> list[set[int]]:
    """reach[v] is the set of vertices reachable from v, v included."""
    return [set(bits(reach(X.out_masks, v))) for v in range(X.n)]


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Split of N[v] by element order relative to o(v).

    Proof machinery: built from a ground-truth group, to exercise the
    twin-structure lemmas.
    """

    higher: frozenset[int]  # o(x) > o(v)
    equal: frozenset[int]  # o(x) = o(v)
    lower: frozenset[int]  # o(x) < o(v)

    @classmethod
    def from_orders(cls, graph: ColoredGraph, orders, v: int):
        ov = orders[v]
        closed = closed_neighborhood(graph, v)
        return cls(
            higher=frozenset(x for x in closed if orders[x] > ov),
            equal=frozenset(x for x in closed if orders[x] == ov),
            lower=frozenset(x for x in closed if orders[x] < ov),
        )


def build_catalog(s3: FiniteGroup) -> list[tuple[str, FiniteGroup]]:
    """The acceptance catalog: Z1..Z24 plus the named non-cyclic groups.
    S3 is passed in because it must come from a Cayley-table file."""
    cat = [(f"Z{n}", cyclic_group(n)) for n in range(1, 25)]
    cat += [
        ("Z2xZ2", direct_product(cyclic_group(2), cyclic_group(2))),
        ("Z2xZ4", direct_product(cyclic_group(2), cyclic_group(4))),
        ("Z2xZ6", direct_product(cyclic_group(2), cyclic_group(6))),
        ("Z3xZ3", direct_product(cyclic_group(3), cyclic_group(3))),
        ("Z2^3", elementary_abelian_group(2, 3)),
        ("Q8", quaternion_group()),
        ("D4", dihedral_group(4)),
        ("S3", s3),
        ("Z4xZ3", direct_product(cyclic_group(4), cyclic_group(3))),
    ]
    return cat


def build_p_groups() -> list[tuple[str, FiniteGroup]]:
    return [
        ("Z8", cyclic_group(8)),
        ("Z16", cyclic_group(16)),
        ("Z2^3", elementary_abelian_group(2, 3)),
        ("Z4xZ2", direct_product(cyclic_group(4), cyclic_group(2))),
        ("Q8", quaternion_group()),
        ("D4", dihedral_group(4)),
        ("Z9", cyclic_group(9)),
        ("Z27", cyclic_group(27)),
        ("Z3^2", elementary_abelian_group(3, 2)),
        ("ElemAb(3,3)", elementary_abelian_group(3, 3)),
        ("Heis3", heisenberg_group(3)),
    ]


def s3_cayley_text() -> str:
    """Cayley-table file contents for the symmetric group on 3 letters
    (realized as the order-6 dihedral group, which is isomorphic)."""
    table = dihedral_group(3).table
    rows = "\n".join(" ".join(str(x) for x in row) for row in table)
    return f"6\n{rows}\n"


def random_relabel(X, rng: random.Random):
    """A uniformly random relabeled copy of X."""
    perm = list(range(X.n))
    rng.shuffle(perm)
    return relabel(X, perm)


def color_iso(X, Y, cap: int = 30) -> bool:
    return brute_force_color_iso(X, Y, cap=cap) is not None


def subgroup_generators(G: FiniteGroup, g: int) -> set[int]:
    """All u with <u> = <g>."""
    target = cyclic_subgroup(G, g).members
    return {u for u in target if cyclic_subgroup(G, u).members == target}


def gamma_v(Gamma: ColoredGraph, v: int):
    """Induced subgraph on N[v], plus the mapping back to Gamma labels."""
    return induced_subgraph(Gamma, closed_neighborhood(Gamma, v))


def check_twin_structure(G: FiniteGroup) -> list[str]:
    """The twin-structure invariants for every ground-truth CC-generator
    of non-prime-power order: dominating-class size, per-divisor class
    sizes, the at-most-two-large-classes bound, and the exact twin-class
    identification for non-generator members of <v>.  Returns a list of
    violation descriptions (empty = all good)."""
    from pgk.numtheory import divisors

    problems = []
    Gamma = power_graph(G)
    orders = G.element_orders
    for v in ccg_ground_truth(G):
        ov = orders[v]
        if ov < 2 or is_prime_power(ov) is not None:
            continue
        sub, mapping = gamma_v(Gamma, v)
        partition = closed_twin_partition_undirected(sub)
        local = {orig: loc for loc, orig in enumerate(mapping)}

        # dominating class = twin class of v, size phi(o(v)) + 1
        v_class = class_of(partition)[local[v]]
        if len(v_class) != euler_phi(ov) + 1:
            problems.append(f"o(v)={ov}: twin class of v has size {len(v_class)}")

        # one class of size phi(k) per proper divisor k > 1, phi(k) | phi(o(v))
        sizes = sorted(map(len, partition.classes))
        for k in divisors(ov):
            if 1 < k < ov:
                if euler_phi(k) not in sizes:
                    problems.append(f"o(v)={ov}: no class of size phi({k})")
                if euler_phi(ov) % euler_phi(k) != 0:
                    problems.append(f"o(v)={ov}: phi({k}) does not divide phi({ov})")

        # at most two classes of size >= phi(o(v))
        big = sum(1 for s in sizes if s >= euler_phi(ov))
        if big > 2:
            problems.append(f"o(v)={ov}: {big} classes of size >= phi({ov})")

        # twin class of a non-generator u in <v> is exactly gen(<u>)
        gens_v = subgroup_generators(G, v)
        for u in cyclic_subgroup(G, v).members:
            if u == 0 or u in gens_v:
                continue
            u_class = {mapping[w] for w in class_of(partition)[local[u]]}
            if u_class != subgroup_generators(G, u):
                problems.append(f"o(v)={ov}: twin class of u={u} is not gen(<u>)")
    return problems


def check_prime_power_gamma_v(G: FiniteGroup) -> list[str]:
    """For every nontrivial p-power element v that is not a CC-generator
    and satisfies the degree hypothesis, with a maximum-order twin y of
    order p^j, j >= 2: p must divide |V(Gamma_v)|."""
    problems = []
    Gamma = power_graph(G)
    orders = G.element_orders
    cc_members = {
        frozenset(subgroup_generators(G, s.generator))
        for s in maximal_cyclic_subgroups(G)
    }
    cc_generators = set().union(*cc_members) if cc_members else set()
    for v in range(G.order):
        pp = is_prime_power(orders[v])
        if pp is None or v in cc_generators:
            continue
        p = pp[0]
        sub, mapping = gamma_v(Gamma, v)
        partition = closed_twin_partition_undirected(sub)
        local = {orig: loc for loc, orig in enumerate(mapping)}
        twins = [mapping[w] for w in class_of(partition)[local[v]]]
        npart = NeighborhoodPartition.from_orders(Gamma, orders, v)
        upper_twins = [u for u in twins if u in npart.higher]
        if any(Gamma.degree(u) > Gamma.degree(v) for u in upper_twins):
            continue  # hypothesis not met
        y = max(twins, key=lambda u: orders[u])
        ppy = is_prime_power(orders[y])
        if ppy is not None and ppy[0] == p and ppy[1] >= 2:
            if sub.n % p != 0:
                problems.append(
                    f"v={v} (order {orders[v]}): p={p} does not divide {sub.n}"
                )
    return problems


def make_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


@st.composite
def small_graphs(draw, max_n: int, max_color: int = 1) -> ColoredGraph:
    """Arbitrary graphs on 1..max_n vertices with colors 1..max_color.
    Half of them get a universal vertex, so that power-graph detection
    gets past its first check."""
    n = draw(st.integers(1, max_n))
    hub = draw(st.none() | st.integers(0, n - 1))
    edges = frozenset(
        (u, v)
        for v in range(n)
        for u in range(v)
        if hub in (u, v) or draw(st.booleans())
    )
    colors = tuple(draw(st.integers(1, max_color)) for _ in range(n))
    return ColoredGraph(n, colors, edges)


# --- reference CCG detection ----------------------------------------------
#
# The detector as it was before closed neighborhoods became bitmasks: per
# candidate it builds the induced subgraph on N[v] and its twin partition
# from frozenset adjacency, and compares against the twin profile of the
# power graph built from Z_d's Cayley table.  The library's
# mark_ccg_power must agree with it exactly.


def reference_adjacency(X: ColoredGraph) -> tuple[frozenset[int], ...]:
    nbrs = [set() for _ in range(X.n)]
    for u, v in X.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(s) for s in nbrs)


def reference_twin_partition(X: ColoredGraph) -> TwinPartition:
    adj = reference_adjacency(X)
    groups: dict[object, list[int]] = {}
    for v in range(X.n):
        groups.setdefault((X.colors[v], adj[v] | {v}), []).append(v)
    classes = sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])
    return TwinPartition(tuple(classes))


def reference_twin_profile(X: ColoredGraph) -> TwinProfile:
    adj = reference_adjacency(X)
    universal = {v for v in range(X.n) if len(adj[v]) == X.n - 1}
    partition = reference_twin_partition(X)
    dominating = 0
    for cls in partition.classes:
        if cls[0] in universal:
            dominating = len(cls)
            break
    return TwinProfile(tuple(sorted(map(len, partition.classes))), dominating)


@lru_cache(maxsize=None)
def reference_cyclic_profile(d: int) -> TwinProfile:
    return reference_twin_profile(power_graph(cyclic_group(d)))


def reference_mark_ccg_power(Gamma: ColoredGraph) -> CcgMarking:
    n = Gamma.n
    if n == 0:
        raise PipelineError("empty graph")
    if Gamma.is_complete():
        labels = [NC] * n
        labels[0] = CC
        return CcgMarking(tuple(labels), ())

    adj = reference_adjacency(Gamma)
    universal = [v for v in range(n) if len(adj[v]) == n - 1]
    if not universal:
        raise PipelineError("no universal vertex: input is not a power graph")
    identity = universal[0]

    labels = [UNLABELED] * n
    labels[identity] = IDENTITY
    order = sorted(
        (v for v in range(n) if v != identity),
        key=lambda v: (-len(adj[v]), v),
    )

    def mark_cc(v):
        labels[v] = CC
        for w in adj[v]:
            if w != identity:
                labels[w] = NC

    for v in order:
        if labels[v] != UNLABELED:
            continue
        d = len(adj[v]) + 1
        sub, mapping = induced_subgraph(Gamma, adj[v] | {v})
        pp = is_prime_power(d) is not None
        if pp and sub.is_complete():
            mark_cc(v)  # Rule 1a
        elif pp:
            labels[v] = NC  # Rule 1b
        elif any(
            mapping[w] not in (v, identity) and labels[mapping[w]] == NC
            for w in class_of(reference_twin_partition(sub))[mapping.index(v)]
        ):
            labels[v] = NC  # Rule 2a
        elif reference_twin_profile(sub) == reference_cyclic_profile(d):
            mark_cc(v)  # Rule 2b, matching case
        else:
            labels[v] = NC  # Rule 2b, non-matching case
    return CcgMarking(tuple(labels), tuple(order))


# --- reference Cayley-table checks ----------------------------------------
#
# The associativity check as it was before Light's test: every triple.
# group_from_cayley_table must accept a Latin square exactly when this
# says it is associative.


def reference_is_associative(table) -> bool:
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return False
    return True


def normalized_loops(n: int):
    """Every Latin square of order n whose first row and first column are
    0..n-1 in order, i.e. every loop on 0..n-1 with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    in_row = [{i} for i in range(n)]
    in_column = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        i, j = cells[k]
        for x in range(n):
            if x not in in_row[i] and x not in in_column[j]:
                rows[i][j] = x
                in_row[i].add(x)
                in_column[j].add(x)
                yield from fill(k + 1)
                in_row[i].discard(x)
                in_column[j].discard(x)

    return fill(0)


def relabel_table(table, perm):
    """The table of the same operation with element x renamed perm[x]."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(map(tuple, new))


def reference_load_cayley_file(path) -> FiniteGroup:
    """load_cayley_file as it was before it shared the parsed ints: one
    int() per entry, into a list of lists."""
    with open(path, encoding="utf-8") as fh:
        n = _cayley_order(fh, path)
        rows = [ln for ln in map(str.strip, fh) if ln]
    if len(rows) != n:
        raise CayleyTableError(f"{path}: expected {n} table rows, got {len(rows)}")
    table = []
    for ln in rows:
        try:
            row = list(map(int, ln.split()))
        except ValueError:
            raise CayleyTableError(f"{path}: bad table row {ln!r}") from None
        if len(row) != n:
            raise CayleyTableError(f"{path}: row has {len(row)} entries, expected {n}")
        table.append(row)
    return group_from_cayley_table(table)


# --- reference digraph stages ---------------------------------------------
#
# The directed stages as they were before ColoredDiGraph's adjacency became
# out/in-neighborhood bitmasks: per-vertex frozenset tables, and arc scans
# for subgraphs.  The library's mask-based versions must agree with them
# exactly.


def reference_out_in(X: ColoredDiGraph):
    """Out- and in-neighbor frozensets per vertex."""
    out = [set() for _ in range(X.n)]
    inn = [set() for _ in range(X.n)]
    for u, v in X.arcs:
        out[u].add(v)
        inn[v].add(u)
    return tuple(map(frozenset, out)), tuple(map(frozenset, inn))


def reference_twin_partition_directed(X: ColoredDiGraph) -> TwinPartition:
    out, inn = reference_out_in(X)
    groups: dict[object, list[int]] = {}
    for v in range(X.n):
        groups.setdefault((X.colors[v], out[v] | {v}, inn[v] | {v}), []).append(v)
    classes = sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])
    return TwinPartition(tuple(classes))


def reference_reduce_r2(X: ColoredDiGraph) -> ColoredDiGraph:
    arcs = {(u, v) for u, v in X.arcs if u != v}
    out = {u: set() for u in range(X.n)}
    for u, v in arcs:
        out[u].add(v)
    kept = {
        (a, c)
        for a, c in arcs
        if not any(b not in (a, c) and c in out[b] for b in out[a])
    }
    return ColoredDiGraph(X.n, X.colors, frozenset(kept))


def reference_reachability(X: ColoredDiGraph) -> list[set[int]]:
    out, _ = reference_out_in(X)
    reach = []
    for v in range(X.n):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    return reach


def reference_induced_subgraph(X, S):
    mapping = tuple(sorted(S))
    index = {old: new for new, old in enumerate(mapping)}
    colors = tuple(X.colors[v] for v in mapping)
    if isinstance(X, ColoredDiGraph):
        arcs = frozenset(
            (index[u], index[v]) for u, v in X.arcs if u in index and v in index
        )
        return ColoredDiGraph(len(mapping), colors, arcs), mapping
    edges = frozenset(
        (index[u], index[v]) for u, v in X.edges if u in index and v in index
    )
    return ColoredGraph(len(mapping), colors, edges), mapping


def reference_epow_from_dpow(D: ColoredDiGraph) -> ColoredGraph:
    out, _ = reference_out_in(D)
    edges = set()
    for w in range(D.n):
        members = sorted(out[w] | {w})
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                edges.add((u, v))
    return ColoredGraph(D.n, (1,) * D.n, frozenset(edges))


@st.composite
def small_digraphs(draw, max_n: int, max_color: int = 3) -> ColoredDiGraph:
    """Arbitrary digraphs on 1..max_n vertices, self-loops allowed, with
    colors 1..max_color."""
    n = draw(st.integers(1, max_n))
    arcs = frozenset(
        (u, v) for u in range(n) for v in range(n) if draw(st.booleans())
    )
    colors = tuple(draw(st.integers(1, max_color)) for _ in range(n))
    return ColoredDiGraph(n, colors, arcs)


# --- reference graph I/O, builders and relabeling -------------------------
#
# As they were while graphs stored frozensets of edge and arc tuples: each
# reads or writes the pairs and goes through the public constructors.  The
# library's mask-based versions must agree with them exactly (format_graph
# byte for byte; parse_graph accepting and rejecting the same texts).


def reference_bits(mask: int) -> list[int]:
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def reference_format_graph(X, with_colors: bool = True) -> str:
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


def reference_parse_graph(text: str):
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
    try:
        return (ColoredDiGraph if directed else ColoredGraph)(
            n, colors, frozenset(pairs)
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def reference_relabel(X, perm):
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


def reference_directed_power_graph(G: FiniteGroup) -> ColoredDiGraph:
    arcs = {(x, y) for x in range(G.order) for y in cyclic_subgroup(G, x).members}
    return ColoredDiGraph(G.order, reference_element_orders(G), frozenset(arcs))


def reference_power_graph(G: FiniteGroup) -> ColoredGraph:
    edges = {
        (min(x, y), max(x, y))
        for x in range(G.order)
        for y in cyclic_subgroup(G, x).members
        if y != x
    }
    return ColoredGraph(G.order, (1,) * G.order, frozenset(edges))


def reference_enhanced_power_graph(G: FiniteGroup) -> ColoredGraph:
    edges = set()
    for sub in maximal_cyclic_subgroups(G):
        members = sorted(sub.members)
        for i, x in enumerate(members):
            edges.update((x, y) for y in members[i + 1 :])
    return ColoredGraph(G.order, (1,) * G.order, frozenset(edges))


def reference_cdpow_from_r1(X: ColoredDiGraph) -> ColoredDiGraph:
    clusters = []
    colors: list[int] = []
    arcs = set()
    for c in X.colors:
        cluster = range(len(colors), len(colors) + euler_phi(c))
        clusters.append(cluster)
        colors += [c] * len(cluster)
        arcs.update((a, b) for a in cluster for b in cluster)
    for u, v in X.arcs:
        if u != v:
            arcs.update((a, b) for a in clusters[u] for b in clusters[v])
    return ColoredDiGraph(len(colors), tuple(colors), frozenset(arcs))


def p_component(D: ColoredDiGraph, p: int) -> ColoredDiGraph:
    """Induced subgraph on the vertices of p-power color (identity, color
    1, included).  For a nilpotent underlying group this is the directed
    power graph of a Sylow subgroup."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    keep = [v for v in range(D.n) if is_power_of(D.colors[v], p)]
    sub, _ = induced_subgraph(D, keep)
    return sub


# --- reference nilpotent isomorphism ---------------------------------------
#
# dpow_iso_nilpotent as it was while it walked frozenset neighbourhoods
# (neighbors(T, v) stands for the removed ColoredGraph.neighbors) and
# tested every vertex's color against every prime, once for the shape
# check and once per component.  The library's version must give the same
# verdict or the same PipelineError text, except that it also compares
# the two color multisets: the reference's True is the library's False
# exactly when those differ.


def reference_canonical_tree_code(T: ColoredGraph) -> str:
    if T.n == 0:
        raise PipelineError("empty graph is not a tree")
    degree_sum = sum(m.bit_count() - 1 for m in T.masks)
    if degree_sum != 2 * (T.n - 1) or not _reference_is_connected(T):
        raise PipelineError("input is not a tree")
    roots = [v for v in range(T.n) if T.colors[v] == 1]
    if len(roots) != 1:
        raise PipelineError(f"expected exactly one color-1 vertex, found {len(roots)}")

    def code(v: int, parent: int) -> str:
        children = sorted(
            code(w, v) for w in neighbors(T, v) if w != parent
        )
        return f"({T.colors[v]}:{','.join(children)})"

    return code(roots[0], -1)


def _reference_is_connected(X: ColoredGraph) -> bool:
    if X.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in neighbors(X, u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == X.n


def _reference_r3_of(D: ColoredDiGraph) -> ColoredGraph:
    return reduce_r3(reduce_r2(reduce_r1(D).graph))


def _reference_check_nilpotent_shape(D: ColoredDiGraph, primes, name: str) -> None:
    prod = 1
    for p in primes:
        prod *= sum(1 for c in D.colors if is_power_of(c, p))
    if prod != D.n:
        raise PipelineError(
            f"{name}: input not recognized as the directed power graph of a "
            f"nilpotent group: per-prime component sizes multiply to {prod}, not {D.n}"
        )


def reference_dpow_iso_nilpotent(D1: ColoredDiGraph, D2: ColoredDiGraph) -> bool:
    if D1.n != D2.n:
        return False
    primes = [p for p, _ in prime_factorization(D1.n)] if D1.n > 1 else []
    _reference_check_nilpotent_shape(D1, primes, "input 1")
    _reference_check_nilpotent_shape(D2, primes, "input 2")
    for p in primes:
        t1 = _reference_r3_of(p_component(D1, p))
        t2 = _reference_r3_of(p_component(D2, p))
        if reference_canonical_tree_code(t1) != reference_canonical_tree_code(t2):
            return False
    return True
