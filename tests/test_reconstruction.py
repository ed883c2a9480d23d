import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from pgk.ccg_detection import CC, NC, CcgMarking, mark_ccg_enhanced, mark_ccg_power
from pgk.errors import PipelineError
from pgk.graph_core import (
    ColoredDiGraph,
    ColoredGraph,
    brute_force_color_iso,
    format_graph,
    induced_subgraph,
    parse_graph,
)
from pgk.group_core import (
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    parse_group_spec,
    quaternion_group,
)
from pgk.nilpotent_iso import graph_iso_nilpotent
from pgk.numtheory import is_prime
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import (
    cdpow_from_r1,
    check_dpow,
    dpow_from_enhanced_graph,
    dpow_from_power_graph,
    epow_from_dpow,
    format_r4,
    pow_from_dpow,
    r1_from_r2,
    r2_from_r3,
    r3_from_r4,
    r4_from_marked_graph,
)
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

from helpers import (
    color_iso,
    dense_r4_from_marked_graph,
    descendants,
    dicyclic_group,
    family_groups,
    hasse_divisor_graph,
    make_rng,
    pair_colors,
    r3_from_r4_steps,
    r4_bipartite,
    r4_graph,
    random_relabel,
    reduce_r4,
    small_digraphs,
    small_graphs,
)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2))


def true_r3(G):
    return reduce_r3(reduce_r2(reduce_r1(directed_power_graph(G)).graph))


HEXAGON = ColoredGraph(6, (1,) * 6, [(0, 1), (1, 2), (2, 5), (4, 5), (3, 4), (0, 3)])


class TestR4FromMarkedGraph:
    def test_klein_four(self):
        Gamma = power_graph(klein_four())
        r4 = r4_from_marked_graph(Gamma, mark_ccg_power(Gamma))
        assert r4.ccg_colors == (2, 2, 2)
        assert all(c == 1 for c in pair_colors(r4).values())

    def test_clique_case(self):
        Gamma = power_graph(cyclic_group(8))
        r4 = r4_from_marked_graph(Gamma, mark_ccg_power(Gamma))
        assert r4.m == 1
        assert r4.ccg_colors == (8,)

    def test_s3(self, s3):
        Gamma = power_graph(s3)
        r4 = r4_from_marked_graph(Gamma, mark_ccg_power(Gamma))
        assert r4.ccg_colors == (2, 2, 2, 3)
        assert len(pair_colors(r4)) == 6
        assert all(c == 1 for c in pair_colors(r4).values())

    def test_matches_reduction_r4(self, catalog):
        # building R4 from the marked power graph agrees with reducing
        # the true R3, up to CCG ordering
        for name, G in catalog:
            Gamma = power_graph(G)
            from_graph = r4_from_marked_graph(Gamma, mark_ccg_power(Gamma))
            from_r3 = reduce_r4(true_r3(G))
            assert color_iso(
                r4_bipartite(from_graph), r4_bipartite(from_r3), cap=100
            ), name

    def test_rejects_empty_marking(self):
        Gamma = power_graph(cyclic_group(4))
        from pgk.ccg_detection import CcgMarking, NC

        with pytest.raises(PipelineError):
            r4_from_marked_graph(Gamma, CcgMarking((NC,) * 4, ()))

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(10), st.lists(st.booleans(), min_size=10, max_size=10))
    # a hexagon, every vertex CC: (0, 5), (1, 4) and (2, 3) are disjoint,
    # and a scan by the later index would name (2, 3)
    @example(HEXAGON, [True] * 10)
    def test_matches_dense_oracle(self, Gamma, cc):
        # any graph and any CC labels: the same R4, or the same refusal,
        # which names the first disjoint pair in (i, j) order
        labels = tuple(CC if cc[v] else NC for v in range(Gamma.n))
        marking = CcgMarking(labels, tuple(range(Gamma.n)))

        def summary(build):
            try:
                r4 = build(Gamma, marking)
            except PipelineError as exc:
                return str(exc)
            return r4.ccg_colors, r4.ccg_vertices, pair_colors(r4)

        assert summary(r4_from_marked_graph) == summary(dense_r4_from_marked_graph)

    @pytest.mark.parametrize("name, kind, stored", [("S3", "pow", 0), ("Dic4", "epow", 10)])
    def test_below_contract(self, s3, name, kind, stored):
        # S3's pairs all meet in the identity; Dic4's all share its central
        # involution, so every pair of Dic4 is stored and none of S3
        G = s3 if name == "S3" else dicyclic_group(4)
        Gamma = (power_graph if kind == "pow" else enhanced_power_graph)(G)
        marking = (mark_ccg_power if kind == "pow" else mark_ccg_enhanced)(Gamma)
        r4 = r4_from_marked_graph(Gamma, marking)
        closed = [Gamma.masks[g] for g in r4.ccg_vertices]
        nontrivial = {
            (i, j): c
            for j in range(r4.m)
            for i in range(j)
            if (c := (closed[i] & closed[j]).bit_count()) != 1
        }
        stored_pairs = [(i, j) for j, b in enumerate(r4.below) for i in b]
        assert len(r4.below) == r4.m
        assert all(0 <= i < j for i, j in stored_pairs)
        assert {(i, j): r4.below[j][i] for i, j in stored_pairs} == nontrivial
        assert len(stored_pairs) == stored
        assert format_r4(r4) == format_graph(r4_bipartite(r4))

    def test_sparse_pairs_peak_memory(self):
        # EPow(ElemAb(2,10)): m = 1,023 and every pair of color 1.  Storing
        # all m(m-1)/2 pairs peaked at 63 MiB; only non-trivial ones, 0.5 MiB
        Gamma = enhanced_power_graph(elementary_abelian_group(2, 10))
        marking = mark_ccg_enhanced(Gamma)
        tracemalloc.start()
        try:
            r3 = r3_from_r4(r4_from_marked_graph(Gamma, marking))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r3.n == 1024
        assert peak < 4 * 2**20


@st.composite
def r4_graphs(draw):
    """Arbitrary R4 summaries: m <= 5, colors 1-12, every pair present."""
    colors = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    pairs = [(i, j) for j in range(len(colors)) for i in range(j)]
    return r4_graph(tuple(colors), {p: draw(st.integers(1, 12)) for p in pairs})


def check_r4_text(r4):
    """format_r4 writes what format_graph writes for R4's bipartite
    graph, and parse_graph reads that graph back."""
    text = format_r4(r4)
    assert text == format_graph(r4_bipartite(r4))
    assert parse_graph(text) == r4_bipartite(r4)


class TestFormatR4:
    @settings(max_examples=300, deadline=None)
    @given(r4_graphs())
    def test_arbitrary_r4_matches_bipartite_graph(self, r4):
        check_r4_text(r4)

    @pytest.mark.parametrize("kind", ["pow", "epow"])
    def test_family_r4_matches_bipartite_graph(self, kind):
        build = power_graph if kind == "pow" else enhanced_power_graph
        mark = mark_ccg_power if kind == "pow" else mark_ccg_enhanced
        for _, G in family_groups():
            Gamma = build(G)
            check_r4_text(r4_from_marked_graph(Gamma, mark(Gamma)))

    def test_peak_memory(self):
        # EPow(ElemAb(2,8)): m = 255, 32,640 vertices, every pair of color
        # 1.  Through a bipartite graph of 32,640-bit masks the text peaked
        # at 73 MiB; from the record's arithmetic rows, 3.7 MiB
        Gamma = enhanced_power_graph(elementary_abelian_group(2, 8))
        r4 = r4_from_marked_graph(Gamma, mark_ccg_enhanced(Gamma))
        tracemalloc.start()
        try:
            text = format_r4(r4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.startswith("graph 32640\n")
        assert text.count("\n") == 2 + 255 * 254
        assert peak < 16 * 2**20


class TestR3FromR4:
    def test_single_ccg_gives_divisor_diagram(self):
        r4 = r4_graph((12,), {})
        assert r3_from_r4(r4) == hasse_divisor_graph(12)

    def test_klein_four_star(self):
        r4 = r4_graph((2, 2, 2), {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        r3 = r3_from_r4(r4)
        assert r3.n == 4
        assert sorted(r3.colors) == [1, 2, 2, 2]
        center = r3.colors.index(1)
        assert r3.degree(center) == 3

    def test_s3_tree(self):
        r4 = r4_graph((2, 2, 2, 3), {(i, j): 1 for i in range(4) for j in range(i + 1, 4)})
        r3 = r3_from_r4(r4)
        assert sorted(r3.colors) == [1, 2, 2, 2, 3]
        assert len(r3.edges) == 4

    def test_rejects_no_ccg(self):
        with pytest.raises(PipelineError):
            r3_from_r4(r4_graph((), {}))

    def test_rejects_intersection_not_dividing_both_colors(self):
        with pytest.raises(PipelineError, match="dividing both colors"):
            r3_from_r4(r4_graph((2, 3), {(0, 1): 2}))

    def test_rejects_missing_pair(self):
        with pytest.raises(PipelineError, match="dividing both colors"):
            r3_from_r4(r4_graph((2, 2), {}))

    @pytest.mark.parametrize(
        "r4", [r4_graph((2, 0), {(0, 1): 1}), r4_graph((0,), {})]
    )
    def test_rejects_color_below_one(self, r4):
        with pytest.raises(PipelineError, match="below 1"):
            r3_from_r4(r4)

    @settings(max_examples=300, deadline=None)
    @given(r4_graphs())
    def test_arbitrary_r4_gives_graph_or_pipeline_error(self, r4):
        try:
            r3 = r3_from_r4(r4)
        except PipelineError:
            return
        # every edge comes from a divisor Hasse diagram, so R2 accepts it
        r2_from_r3(r3)
        assert set(r3.colors) == {
            d for c in r4.ccg_colors for d in range(1, c + 1) if c % d == 0
        }

    def test_round_trip_from_true_r3(self, catalog):
        for name, G in catalog:
            r3 = true_r3(G)
            rebuilt = r3_from_r4(reduce_r4(r3))
            assert color_iso(rebuilt, r3), name


class TestAlgorithmSteps:
    GROUP_NAMES = ["Z12", "Q8", "Z2xZ6", "S3"]

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_intermediates_match_induced_true_r3(self, catalog, name):
        G = dict(catalog)[name]
        r3 = true_r3(G)
        r4 = reduce_r4(r3)
        ccg = list(r4.ccg_vertices)
        steps = r3_from_r4_steps(r4)
        assert len(steps) == r4.m
        covered = set()
        for j, step in enumerate(steps):
            covered |= descendants(r3, ccg[j])
            expected, _ = induced_subgraph(r3, covered)
            assert color_iso(step.graph, expected), (name, j)

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_no_identification_conflicts(self, catalog, name):
        G = dict(catalog)[name]
        r3_from_r4_steps(reduce_r4(true_r3(G)))  # must not raise

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_new_edges_between_old_vertices(self, catalog, name):
        # an edge between two pre-existing vertices appears at step j only
        # if both were identified in step j and their colors divide at a
        # prime ratio
        G = dict(catalog)[name]
        steps = r3_from_r4_steps(reduce_r4(true_r3(G)))
        prev_ids: set[int] = set()
        prev_edges: set[tuple[int, int]] = set()
        for step in steps:
            index = dict(enumerate(range(step.graph.n)))
            colors = {index[v]: step.graph.colors[v] for v in range(step.graph.n)}
            edges = {
                tuple(sorted((index[u], index[v]))) for u, v in step.graph.edges
            }
            for u, v in edges - prev_edges:
                if u in prev_ids and v in prev_ids:
                    assert u in step.identified and v in step.identified
                    a, b = sorted((colors[u], colors[v]))
                    assert b % a == 0 and is_prime(b // a)
            prev_ids = set(range(step.graph.n))
            prev_edges = edges

    @settings(max_examples=300, deadline=None)
    @given(r4_graphs())
    def test_gluing_is_incremental(self, r4):
        # the premise of r3_from_r4_steps: each prefix's graph, or refusal,
        # is where the next prefix's gluing starts from
        def glue(k):
            pairs = {p: c for p, c in pair_colors(r4).items() if p[1] < k}
            try:
                return r3_from_r4(r4_graph(r4.ccg_colors[:k], pairs))
            except PipelineError as e:
                return str(e)

        prev = glue(1)
        for k in range(2, r4.m + 1):
            cur = glue(k)
            if isinstance(prev, str):
                assert cur == prev
            elif not isinstance(cur, str):
                assert cur.colors[: prev.n] == prev.colors
                # contained, not equal: a later step may join two old vertices
                assert all(a & ~b == 0 for a, b in zip(prev.masks, cur.masks))
            prev = cur

    def test_conflicting_r4_is_rejected(self):
        # intersection colors violating the divisibility structure force
        # two old vertices onto one new divisor-diagram vertex
        bad = r4_graph((4, 4, 4), {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        with pytest.raises(PipelineError, match="conflicting identification"):
            r3_from_r4(bad)


class TestOrientationAndClosure:
    def test_r2_from_r3_orients_high_to_low(self):
        r3 = true_r3(cyclic_group(12))
        r2 = r2_from_r3(r3)
        assert len(r2.arcs) == 7
        for u, v in r2.arcs:
            assert r2.colors[u] > r2.colors[v]

    def test_single_edge(self):
        X = ColoredGraph(2, (5, 1), frozenset({(0, 1)}))
        assert r2_from_r3(X).arcs == frozenset({(0, 1)})

    def test_q8_arcs(self):
        r2 = r2_from_r3(true_r3(quaternion_group()))
        pairs = sorted((r2.colors[u], r2.colors[v]) for u, v in r2.arcs)
        assert pairs == [(2, 1), (4, 2), (4, 2), (4, 2)]

    def test_rejects_non_prime_ratio(self):
        X = ColoredGraph(2, (6, 1), frozenset({(0, 1)}))
        with pytest.raises(PipelineError, match="prime"):
            r2_from_r3(X)

    def test_r1_from_r2_prime_cyclic(self):
        r2 = r2_from_r3(true_r3(cyclic_group(5)))
        r1 = r1_from_r2(r2)
        assert len(r1.arcs) == 3  # two loops plus 5 -> 1

    def test_r1_from_r2_z12(self):
        # one arc per ordered divisor pair (a, b) with b | a: sum of the
        # divisor-count function over the divisors of 12 = 18
        r1 = r1_from_r2(r2_from_r3(true_r3(cyclic_group(12))))
        assert len(r1.arcs) == 18

    def test_r1_from_r2_q8(self):
        r1 = r1_from_r2(r2_from_r3(true_r3(quaternion_group())))
        assert len(r1.arcs) == 12

    def test_closure_matches_forward_reduction(self, catalog):
        for name, G in catalog[:16]:
            forward = reduce_r1(directed_power_graph(G)).graph
            back = r1_from_r2(reduce_r2(forward))
            assert back.arcs == forward.arcs, name


class TestCdpowExpansion:
    def test_trivial(self):
        r1 = reduce_r1(directed_power_graph(cyclic_group(1))).graph
        D = cdpow_from_r1(r1)
        assert D.n == 1 and D.arcs == frozenset({(0, 0)})

    def test_z12_census(self):
        r1 = reduce_r1(directed_power_graph(cyclic_group(12))).graph
        D = cdpow_from_r1(r1)
        assert D.n == 12
        assert Counter(D.colors) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    def test_s3_census(self, s3):
        r1 = reduce_r1(directed_power_graph(s3)).graph
        D = cdpow_from_r1(r1)
        assert D.n == 6
        assert Counter(D.colors) == {1: 1, 2: 3, 3: 2}

    def test_inverse_of_reduce_r1(self, catalog):
        for name, G in catalog[:16]:
            truth = directed_power_graph(G)
            D = cdpow_from_r1(reduce_r1(truth).graph)
            assert color_iso(D, truth), name


class TestFullPipelines:
    @pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "S3", "Q8", "Z12"])
    def test_from_power_graph(self, catalog, name):
        G = dict(catalog)[name]
        D = dpow_from_power_graph(power_graph(G))
        assert color_iso(D, directed_power_graph(G))

    @pytest.mark.parametrize("name", ["Z6", "Z2xZ2", "S3", "D4"])
    def test_from_enhanced_graph(self, catalog, name):
        G = dict(catalog)[name]
        D = dpow_from_enhanced_graph(enhanced_power_graph(G))
        assert color_iso(D, directed_power_graph(G))

    def test_relabeled_inputs(self, catalog):
        rng = make_rng(1)
        for name in ("Z12", "Q8", "S3"):
            G = dict(catalog)[name]
            shuffled = random_relabel(power_graph(G), rng)
            D = dpow_from_power_graph(shuffled)
            assert color_iso(D, directed_power_graph(G)), name

    def test_vertex_count_conservation(self, catalog):
        for name, G in catalog:
            D = dpow_from_power_graph(power_graph(G))
            assert D.n == G.order, name

    @pytest.mark.parametrize("spec", ["Z12", "Q8xZ3", "Z2xZ6", "Z30", "Z2xZ2xZ3"])
    def test_colored_power_graph_input(self, spec):
        # the shadow of DPow carries element orders as colors; detection
        # compares colors, so the pipeline must read the graph uncolored
        G = parse_group_spec(spec)
        X = directed_power_graph(G).undirected_shadow()
        D = dpow_from_power_graph(X)
        assert brute_force_color_iso(D, directed_power_graph(G)) is not None
        assert graph_iso_nilpotent(X, X, "pow") is True

    def test_enhanced_pipeline_needs_enhanced_marking(self):
        # feeding an EPow graph through the power-graph detector is wrong
        # for groups whose Pow and EPow differ; the dedicated entry point
        # handles it
        G = direct_product(cyclic_group(2), cyclic_group(6))
        D = dpow_from_enhanced_graph(enhanced_power_graph(G))
        assert color_iso(D, directed_power_graph(G))


EIGHT_VERTEX_POW_GAP = (
    [(0, 2), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (1, 7), (2, 3), (2, 4)]
    + [(2, 6), (2, 7), (3, 4), (3, 6), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)]
)
WHEEL_W6 = [(0, v) for v in range(1, 7)] + [
    (1, 2), (1, 4), (2, 6), (3, 5), (3, 6), (4, 5)
]


class TestCheckDpow:
    K2 = ColoredGraph(2, (1, 1), frozenset({(0, 1)}))

    def test_accepts_matching_counts(self):
        D = ColoredDiGraph(2, (2, 2), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        assert check_dpow(self.K2, D, "pow") is D

    def test_rejects_vertex_count(self):
        D = ColoredDiGraph(1, (1,), frozenset({(0, 0)}))
        for kind in ("pow", "epow"):
            with pytest.raises(PipelineError, match="1 vertices"):
                check_dpow(self.K2, D, kind)

    def test_rejects_shadow_edge_count_for_pow_only(self):
        D = ColoredDiGraph(2, (1, 1), frozenset({(0, 0), (1, 1)}))
        with pytest.raises(PipelineError, match="shadow has 2 vertices of degree 0"):
            check_dpow(self.K2, D, "pow")
        with pytest.raises(PipelineError, match="graph has 2 vertices of degree 0"):
            check_dpow(self.K2, D, "epow")

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(8), small_digraphs(8), st.sampled_from(["any", "pow", "epow"]))
    def test_one_degree_comparison_rejects_as_the_separate_checks(self, Gamma, D, src):
        n = min(Gamma.n, D.n)
        Gamma, D = (induced_subgraph(X, range(n))[0] for X in (Gamma, D))
        if src != "any":  # an input that D's pow (epow) check passes
            Gamma = (pow_from_dpow if src == "pow" else epow_from_dpow)(D)
        # the separate checks, from the definitions: the shadow's edge
        # count and degree multiset for pow, EPow's degree multiset for epow
        closed = [D.out_masks[w] | 1 << w for w in range(n)]
        shadow = [
            sum(v != u and (D.has_arc(u, v) or D.has_arc(v, u)) for v in range(n))
            for u in range(n)
        ]
        epow = [
            sum(v != u and any(c >> u & c >> v & 1 for c in closed) for v in range(n))
            for u in range(n)
        ]
        degrees = Counter(Gamma.degree(u) for u in range(n))
        # Frobenius's count: for each d | n, the elements x with x^d = 1,
        # those whose color (order) divides d, are a multiple of d
        frobenius = all(
            sum(d % c == 0 for c in D.colors) % d == 0 for d in range(1, n + 1) if n % d == 0
        )
        passes = {
            "pow": D.n == Gamma.n
            and frobenius
            and sum(shadow) // 2 == len(Gamma.edges)
            and Counter(shadow) == degrees,
            "epow": D.n == Gamma.n and frobenius and Counter(epow) == degrees,
        }
        for kind, ok in passes.items():
            try:
                assert check_dpow(Gamma, D, kind) is D and ok
            except PipelineError:
                assert not ok

    def test_rejects_unknown_kind(self):
        # an edgeless D would pass unchecked if an unknown kind fell through
        D = ColoredDiGraph(2, (1, 1), frozenset({(0, 0), (1, 1)}))
        for kind in ("Pow", "dpow", "cdpow", ""):
            with pytest.raises(ValueError, match=f"unknown kind {kind!r}"):
                check_dpow(self.K2, D, kind)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(8))
    # right shadow edge count, wrong degree multiset
    @example(ColoredGraph(8, (1,) * 8, frozenset(EIGHT_VERTEX_POW_GAP)))
    def test_arbitrary_graph_gives_checked_answer_or_pipeline_error(self, Gamma):
        try:
            D = dpow_from_power_graph(Gamma)
        except PipelineError:
            return
        assert color_iso(pow_from_dpow(D), Gamma)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(8))
    # right vertex count and EPow degree multiset, N[1] not a clique
    @example(ColoredGraph(7, (1,) * 7, frozenset(WHEEL_W6)))
    def test_arbitrary_graph_gives_checked_epow_answer_or_pipeline_error(self, Gamma):
        try:
            D = dpow_from_enhanced_graph(Gamma)
        except PipelineError:
            return
        assert color_iso(epow_from_dpow(D), Gamma)


class TestEverySmallGraph:
    """Every labelled graph on 1..6 vertices: reconstruction accepts
    exactly the power graphs (enhanced power graphs) of groups, which up
    to order 6 are those of Z1..Z6, Z2xZ2 and D3, and then returns the
    group's CDPow up to isomorphism."""

    GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "D3")

    @pytest.mark.parametrize(
        "build, recover, genuine",
        [
            (power_graph, dpow_from_power_graph, 129),
            (enhanced_power_graph, dpow_from_enhanced_graph, 70),
        ],
        ids=["pow", "epow"],
    )
    def test_accepted_iff_some_group_has_it(self, build, recover, genuine):
        groups = [parse_group_spec(spec) for spec in self.GROUPS]
        truths = [(build(G), directed_power_graph(G)) for G in groups]
        accepted, wrong = 0, []
        for n in range(1, 7):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            for chosen in range(1 << len(pairs)):
                edges = frozenset(p for i, p in enumerate(pairs) if chosen >> i & 1)
                Gamma = ColoredGraph(n, (1,) * n, edges)
                dpows = [D for X, D in truths if color_iso(Gamma, X)]
                try:
                    D = recover(Gamma)
                except PipelineError:
                    if dpows:
                        wrong.append(("refused", n, sorted(edges)))
                    continue
                accepted += 1
                if not any(color_iso(D, T) for T in dpows):
                    wrong.append(("accepted", n, sorted(edges)))
        assert wrong == []
        assert accepted == genuine


class TestGraphConversions:
    def test_epow_of_cyclic_is_complete(self):
        X = epow_from_dpow(directed_power_graph(cyclic_group(9)))
        assert X.is_complete()

    def test_epow_s3(self, s3):
        X = epow_from_dpow(directed_power_graph(s3))
        assert X.edges == enhanced_power_graph(s3).edges
        assert len(X.edges) == 6

    def test_epow_matches_construction(self, catalog):
        for name, G in catalog:
            X = epow_from_dpow(directed_power_graph(G))
            assert X.edges == enhanced_power_graph(G).edges, name

    def test_pow_z6(self):
        X = pow_from_dpow(directed_power_graph(cyclic_group(6)))
        assert X.edges == power_graph(cyclic_group(6)).edges
        assert len(X.edges) == 13

    def test_pow_trivial(self):
        X = pow_from_dpow(directed_power_graph(cyclic_group(1)))
        assert X.n == 1 and not X.edges

    def test_pow_q8(self):
        G = quaternion_group()
        X = pow_from_dpow(directed_power_graph(G))
        assert X.edges == power_graph(G).edges
