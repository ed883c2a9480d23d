from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from pgk import nilpotent_iso
from pgk.errors import PipelineError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    brute_force_color_iso,
    reach,
    relabel,
)
from pgk.group_core import (
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    parse_group_spec,
    quaternion_group,
)
from pgk.nilpotent_iso import (
    canonical_tree_code,
    dpow_iso_nilpotent,
    graph_iso_nilpotent,
)
from pgk.powergraph_build import enhanced_power_graph, power_graph
from pgk.powergraph_build import directed_power_graph
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

from helpers import (
    is_abelian,
    is_nilpotent,
    make_rng,
    metacyclic_group,
    p_component,
    random_relabel,
    reference_bits,
    reference_dpow_iso_nilpotent,
    small_digraphs,
)


def r3_of_digraph(D):
    return reduce_r3(reduce_r2(reduce_r1(D).graph))


class TestPComponent:
    def test_z12_two_component(self):
        sub = p_component(directed_power_graph(cyclic_group(12)), 2)
        assert sub.n == 4
        assert Counter(sub.colors) == {1: 1, 2: 1, 4: 2}

    def test_p_group_is_whole_graph(self):
        D = directed_power_graph(cyclic_group(8))
        assert p_component(D, 2) == D

    def test_prime_not_dividing_order(self):
        sub = p_component(directed_power_graph(cyclic_group(12)), 5)
        assert sub.n == 1
        assert sub.colors == (1,)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            p_component(directed_power_graph(cyclic_group(12)), 4)


class TestCanonicalTreeCode:
    def test_single_vertex(self):
        T = ColoredGraph(1, (1,), frozenset())
        assert canonical_tree_code(T) == "(1:)"

    def test_z4_vs_klein_four_differ(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        t1 = r3_of_digraph(directed_power_graph(cyclic_group(4)))
        t2 = r3_of_digraph(directed_power_graph(G))
        assert canonical_tree_code(t1) != canonical_tree_code(t2)

    def test_elemab_27_equals_heisenberg(self):
        # both have 13 maximal cyclic subgroups of order 3 meeting at the
        # identity, so the reduced trees are identical 13-leaf stars
        t1 = r3_of_digraph(directed_power_graph(elementary_abelian_group(3, 3)))
        t2 = r3_of_digraph(directed_power_graph(heisenberg_group(3)))
        assert canonical_tree_code(t1) == canonical_tree_code(t2)

    def test_z9_vs_z3_squared_differ(self):
        t1 = r3_of_digraph(directed_power_graph(cyclic_group(9)))
        t2 = r3_of_digraph(
            directed_power_graph(elementary_abelian_group(3, 2))
        )
        assert canonical_tree_code(t1) != canonical_tree_code(t2)

    def test_label_invariance(self):
        rng = make_rng(5)
        T = r3_of_digraph(directed_power_graph(quaternion_group()))
        assert canonical_tree_code(T) == canonical_tree_code(random_relabel(T, rng))

    def test_rejects_non_tree(self):
        triangle = ColoredGraph(
            3, (1, 2, 2), frozenset({(0, 1), (0, 2), (1, 2)})
        )
        with pytest.raises(PipelineError, match="tree"):
            canonical_tree_code(triangle)

    def test_rejects_missing_root(self):
        T = ColoredGraph(2, (2, 4), frozenset({(0, 1)}))
        with pytest.raises(PipelineError, match="color-1"):
            canonical_tree_code(T)

    def test_rejects_two_roots(self):
        T = ColoredGraph(2, (1, 1), frozenset({(0, 1)}))
        with pytest.raises(PipelineError, match="color-1"):
            canonical_tree_code(T)

    def test_rejects_empty(self):
        with pytest.raises(PipelineError):
            canonical_tree_code(ColoredGraph(0, (), frozenset()))

    # n - 1 edges and even degrees summing right, but not connected: only
    # the connectivity check tells these from trees
    def test_rejects_isolated_root_beside_triangle(self):
        T = ColoredGraph(4, (1, 2, 2, 2), frozenset({(1, 2), (1, 3), (2, 3)}))
        with pytest.raises(PipelineError, match="tree"):
            canonical_tree_code(T)

    def test_rejects_root_on_triangle_beside_isolated_vertex(self):
        T = ColoredGraph(4, (1, 2, 2, 2), frozenset({(0, 1), (0, 2), (1, 2)}))
        with pytest.raises(PipelineError, match="tree"):
            canonical_tree_code(T)


class TestDpowIsoNilpotent:
    def test_relabeled_copy(self):
        rng = make_rng(9)
        D = directed_power_graph(cyclic_group(12))
        assert dpow_iso_nilpotent(D, random_relabel(D, rng))

    def test_z12_vs_z2_z6(self):
        D1 = directed_power_graph(cyclic_group(12))
        D2 = directed_power_graph(direct_product(cyclic_group(2), cyclic_group(6)))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_z12_vs_z4_z3(self):
        D1 = directed_power_graph(cyclic_group(12))
        D2 = directed_power_graph(direct_product(cyclic_group(4), cyclic_group(3)))
        assert dpow_iso_nilpotent(D1, D2)

    def test_z9_vs_z3_squared(self):
        D1 = directed_power_graph(cyclic_group(9))
        D2 = directed_power_graph(elementary_abelian_group(3, 2))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_size_mismatch(self):
        D1 = directed_power_graph(cyclic_group(6))
        D2 = directed_power_graph(cyclic_group(8))
        assert not dpow_iso_nilpotent(D1, D2)

    def test_rejects_non_nilpotent_shape(self, s3):
        D = directed_power_graph(s3)
        with pytest.raises(PipelineError, match="nilpotent"):
            dpow_iso_nilpotent(D, D)

    def test_agrees_with_componentwise_oracle(self):
        # the per-prime verdicts multiply out to the overall verdict
        pairs = [
            (cyclic_group(12), direct_product(cyclic_group(4), cyclic_group(3))),
            (cyclic_group(12), direct_product(cyclic_group(2), cyclic_group(6))),
            (cyclic_group(24), cyclic_group(24)),
        ]
        for G, H in pairs:
            D1, D2 = directed_power_graph(G), directed_power_graph(H)
            expected = all(
                brute_force_color_iso(p_component(D1, p), p_component(D2, p))
                is not None
                for p in (2, 3)
            )
            assert dpow_iso_nilpotent(D1, D2) == expected


def by_out_degree(D):
    """D recolored by out-degree, as `iso --kind dpow` reads a file."""
    colors = tuple(m.bit_count() for m in D.out_masks)
    return ColoredDiGraph._from_masks(D.n, colors, D.out_masks)


def outcome(iso, D1, D2):
    try:
        return iso(D1, D2)
    except PipelineError as exc:
        return str(exc)


def assert_agrees_with_reference(D1, D2):
    """Same verdict or PipelineError text as the reference, except that a
    reference True becomes False exactly when the color multisets differ."""
    expected = outcome(reference_dpow_iso_nilpotent, D1, D2)
    if expected is True:
        expected = sorted(D1.colors) == sorted(D2.colors)
    assert outcome(dpow_iso_nilpotent, D1, D2) == expected


def flip(D, arcs):
    masks = list(D.out_masks)
    for u, v in arcs:
        masks[u] ^= 1 << v
    return ColoredDiGraph._from_masks(D.n, D.colors, masks)


FLIP_SPECS = ["Z1", "Z2", "Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ2", "Z2xZ6", "Z3xZ3",
              "Q8", "D3", "D4", "Z2xZ4"]


@st.composite
def dpow_pairs(draw):
    """A recolored pair: a small digraph against a relabelled copy, a copy
    with up to three arcs flipped, or a second small digraph; or a DPow of
    a small group against a relabelled copy with one to three arcs
    flipped."""
    if draw(st.booleans()):
        D = draw(small_digraphs(9, max_color=1))
        other = draw(st.sampled_from(["relabel", "flip", "free"]))
        if other == "free":
            E = draw(small_digraphs(9, max_color=1).filter(lambda E: E.n == D.n))
        else:
            E = D
        low = 1 if other == "flip" else 0
    else:
        D = directed_power_graph(parse_group_spec(draw(st.sampled_from(FLIP_SPECS))))
        E, low = D, 1
    cells = st.tuples(st.integers(0, D.n - 1), st.integers(0, D.n - 1))
    E = flip(E, draw(st.lists(cells, min_size=low, max_size=3 * low, unique=True)))
    perm = draw(st.permutations(range(D.n)))
    D, E = by_out_degree(D), by_out_degree(relabel(E, perm))
    assume(0 not in D.colors + E.colors)  # a vertex with no arc is refused earlier
    return D, E


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(dpow_pairs())
    def test_random_pairs(self, pair):
        assert_agrees_with_reference(*pair)

    def test_relabelled_catalog_and_p_group_pairs(self, catalog, p_groups):
        rng = make_rng(13)
        graphs = [directed_power_graph(G) for _, G in catalog + p_groups]
        for D1 in graphs:
            for D2 in graphs:
                if D1.n == D2.n:
                    assert_agrees_with_reference(D1, random_relabel(D2, rng))

    def test_cut_z6_was_a_wrong_isomorphic(self):
        # element 5 of Z6 loses its arc to the identity: its out-degree 5
        # is in no Sylow part, so every per-prime tree still matches
        D = directed_power_graph(cyclic_group(6))
        cut = by_out_degree(flip(D, [(5, 0)]))
        assert reference_dpow_iso_nilpotent(D, cut)
        assert not dpow_iso_nilpotent(D, cut)
        assert brute_force_color_iso(D, cut) is None


class TestGraphIsoNilpotent:
    def test_footnote_pair(self):
        X1 = power_graph(elementary_abelian_group(3, 3))
        X2 = power_graph(heisenberg_group(3))
        assert graph_iso_nilpotent(X1, X2, "pow")
        # ... although the underlying groups are not isomorphic
        assert is_abelian(elementary_abelian_group(3, 3))
        assert not is_abelian(heisenberg_group(3))
        assert is_nilpotent(heisenberg_group(3))

    def test_epow_identity(self):
        X = enhanced_power_graph(cyclic_group(6))
        assert graph_iso_nilpotent(X, X, "epow")

    def test_z8_vs_z2_z4(self):
        X1 = power_graph(cyclic_group(8))
        X2 = power_graph(direct_product(cyclic_group(2), cyclic_group(4)))
        assert not graph_iso_nilpotent(X1, X2, "pow")

    def test_dpow_kind_recolors_by_out_degree(self):
        rng = make_rng(2)
        D = directed_power_graph(cyclic_group(12))
        uncolored1 = ColoredDiGraph(D.n, (1,) * D.n, D.arcs)
        uncolored2 = random_relabel(uncolored1, rng)
        assert graph_iso_nilpotent(uncolored1, uncolored2, "dpow")

    def test_dpow_kind_rejects_loopless_vertex(self):
        D = ColoredDiGraph(2, (1, 1), frozenset({(0, 0), (0, 1)}))
        with pytest.raises(PipelineError, match="self-loop"):
            graph_iso_nilpotent(D, D, "dpow")

    def test_dpow_kind_names_the_loopless_vertex(self):
        # out-degree 2 everywhere, but vertex 1 has no loop
        D = ColoredDiGraph(2, (1, 1), frozenset({(0, 0), (0, 1), (1, 0)}))
        with pytest.raises(PipelineError, match="vertex 1 has none"):
            graph_iso_nilpotent(D, D, "dpow")

    def test_dpow_kind_names_an_intransitive_triple(self):
        # Z18 with 3 -> 15 traded for 3 -> 17 keeps every invariant the
        # verdict reads, but 17 reaches 1 and 3 does not
        D = directed_power_graph(cyclic_group(18))
        bad = flip(D, [(3, 15), (3, 17)])
        assert brute_force_color_iso(by_out_degree(bad), D) is None
        assert dpow_iso_nilpotent(by_out_degree(bad), D)
        for X1, X2, i in ((bad, D, 1), (D, bad, 2)):
            with pytest.raises(PipelineError) as exc:
                graph_iso_nilpotent(X1, X2, "dpow")
            assert str(exc.value) == (
                f"input {i} is not a directed power graph: "
                "arcs (3, 17) and (17, 1) but no arc (3, 1)"
            )

    @staticmethod
    def reference_intransitive_triple(out):
        """(v, w, u) with arcs (v, w), (w, u) and no (v, u): v first with
        its out-row, then w, then u least."""
        rows = [set(reference_bits(m)) for m in out]
        for v, row in enumerate(rows):
            for w in sorted(row) if row not in rows[:v] else ():
                if extra := rows[w] - row:
                    return v, w, min(extra)
        return None

    @settings(max_examples=300, deadline=None)
    @given(small_digraphs(8), st.booleans())
    def test_transitivity_check_names_the_first_intransitive_triple(self, D, close):
        out = D.out_masks
        if close:  # the reflexive transitive closure: a preorder
            out = tuple(reach(out, v) for v in range(D.n))
        triple = self.reference_intransitive_triple(out)
        if triple is None:
            nilpotent_iso._check_transitive(out, "input 1")
            return
        v, w, u = triple
        with pytest.raises(PipelineError) as exc:
            nilpotent_iso._check_transitive(out, "input 1")
        assert str(exc.value) == (
            "input 1 is not a directed power graph: "
            f"arcs ({v}, {w}) and ({w}, {u}) but no arc ({v}, {u})"
        )

    def test_dpow_kind_non_isomorphic_needs_no_preorder(self):
        # Z6 less its arc 5 -> 0 is not transitive, and still only
        # non-isomorphic to Z6
        D = directed_power_graph(cyclic_group(6))
        assert not graph_iso_nilpotent(D, flip(D, [(5, 0)]), "dpow")

    def test_rejects_unknown_kind(self):
        X = power_graph(cyclic_group(4))
        with pytest.raises(ValueError):
            graph_iso_nilpotent(X, X, "undirected")

    def test_label_invariance(self):
        rng = make_rng(11)
        X1 = power_graph(cyclic_group(16))
        X2 = power_graph(direct_product(cyclic_group(4), cyclic_group(4)))
        base = graph_iso_nilpotent(X1, X2, "pow")
        for _ in range(3):
            shuffled = random_relabel(X1, rng)
            assert graph_iso_nilpotent(shuffled, X2, "pow") == base


BUILDERS = {"dpow": directed_power_graph, "pow": power_graph, "epow": enhanced_power_graph}


class TestMetacyclicPairs:
    """M16 = Z8⋊Z2 and Z9⋊Z3 are nilpotent and not abelian, so not
    isomorphic to Z2xZ8 and Z3xZ9, whose graphs of all three kinds they
    share; Z4xZ4 and Z16 are groups of order 16 whose graphs differ."""

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize(
        "G, H",
        [
            (metacyclic_group(8, 2, 5), direct_product(cyclic_group(2), cyclic_group(8))),
            (metacyclic_group(9, 3, 4), direct_product(cyclic_group(3), cyclic_group(9))),
            (metacyclic_group(8, 2, 5), direct_product(cyclic_group(4), cyclic_group(4))),
            (metacyclic_group(8, 2, 5), cyclic_group(16)),
        ],
    )
    def test_agrees_with_brute_force_on_relabelled_copies(self, G, H, kind):
        assert is_nilpotent(G) and not is_abelian(G)
        rng = make_rng(16)
        X, Y = BUILDERS[kind](G), BUILDERS[kind](H)
        for _ in range(3):
            Y = random_relabel(Y, rng)
            truth = brute_force_color_iso(X, Y) is not None
            assert graph_iso_nilpotent(X, Y, kind) == truth
            assert graph_iso_nilpotent(random_relabel(X, rng), X, kind)

    def test_builder_keeps_the_product_rule(self):
        m, k, r = 9, 3, 4
        G = metacyclic_group(m, k, r)
        a, b, c, d = 2, 1, 5, 2
        assert G.table[b * m + a][d * m + c] == (b + d) % k * m + (a + c * r**b) % m
