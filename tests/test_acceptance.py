"""Acceptance gate: ten exact criteria, one pass/fail line each.

Every check is combinatorial (tolerance zero) and verified against
independent oracles: ground-truth group computations and the brute-force
color-preserving isomorphism search.
"""

from collections import Counter
from math import gcd

from pgk.ccg_detection import mark_ccg_enhanced, mark_ccg_power
from pgk.graph_core import (
    brute_force_color_iso,
    closed_twin_partition_undirected,
    induced_subgraph,
    strong_product,
)
from pgk.group_core import (
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    quaternion_group,
)
from pgk.nilpotent_iso import dpow_iso_nilpotent, graph_iso_nilpotent
from pgk.numtheory import is_prime_power
from pgk.powergraph_build import (
    directed_power_graph,
    enhanced_power_graph,
    power_graph,
)
from pgk.reconstruction import dpow_from_enhanced_graph, dpow_from_power_graph
from pgk.reductions import reduce_r1, reduce_r2, reduce_r3

from helpers import (
    ccg_ground_truth,
    check_prime_power_gamma_v,
    check_twin_structure,
    class_of,
    descendants,
    intersection_color,
    is_abelian,
    is_nilpotent,
    make_rng,
    maximal_cyclic_subgroups,
    neighbors,
    phi_table,
    r3_from_r4_steps,
    random_relabel,
    reduce_r4,
    verify_r2_structure,
)


def report(ok: bool, number: int, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def true_r3(G):
    return reduce_r3(reduce_r2(reduce_r1(directed_power_graph(G)).graph))


def test_criterion_1_round_trip_reconstruction(catalog):
    rng = make_rng(0)
    failures = []
    for name, G in catalog:
        truth = directed_power_graph(G)
        for kind, build, rebuild in (
            ("pow", power_graph, dpow_from_power_graph),
            ("epow", enhanced_power_graph, dpow_from_enhanced_graph),
        ):
            Gamma = build(G)
            for label, inp in (
                ("plain", Gamma),
                ("relabeled", random_relabel(Gamma, rng)),
            ):
                if brute_force_color_iso(rebuild(inp), truth) is None:
                    failures.append((name, kind, label))
    report(
        not failures,
        1,
        "directed power graph reconstructed from Pow and EPow for all "
        f"{len(catalog)} catalog groups, plain and relabeled"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_2_ccg_detection_soundness(catalog):
    failures = []
    for name, G in catalog:
        subs = maximal_cyclic_subgroups(G)
        truth = ccg_ground_truth(G)
        for kind, build, mark in (
            ("pow", power_graph, mark_ccg_power),
            ("epow", enhanced_power_graph, mark_ccg_enhanced),
        ):
            Gamma = build(G)
            cc = mark(Gamma).cc_vertices
            ok = len(cc) == len(subs)
            if kind == "pow":
                ok = ok and Counter(Gamma.degree(v) + 1 for v in cc) == Counter(
                    s.order for s in subs
                )
            partition = closed_twin_partition_undirected(Gamma)
            ok = ok and all(
                any(u in truth for u in class_of(partition)[v]) for v in cc
            )
            if not ok:
                failures.append((name, kind))
    report(
        not failures,
        2,
        "both detectors return CCG-sets matching size, order multiset, and "
        "twin classes of the ground truth on every catalog group"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_3_p_group_r3_is_tree(p_groups):
    failures = []
    for name, G in p_groups:
        r3 = true_r3(G)
        connected = False
        if r3.n:
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in neighbors(r3, u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            connected = len(seen) == r3.n
        if not (connected and len(r3.edges) == r3.n - 1):
            failures.append(name)
    report(
        not failures,
        3,
        f"R3 is a tree for all {len(p_groups)} catalog p-groups"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_4_power_graph_iso_of_nonisomorphic_groups():
    G1 = elementary_abelian_group(3, 3)
    G2 = heisenberg_group(3)
    graphs_iso = graph_iso_nilpotent(power_graph(G1), power_graph(G2), "pow")
    censuses_equal = Counter(G1.element_orders) == Counter(G2.element_orders)
    groups_differ = is_abelian(G1) and not is_abelian(G2)
    ok = graphs_iso and censuses_equal and groups_differ
    report(
        ok,
        4,
        "Pow(ElemAb(3,3)) and Pow(Heis3) are isomorphic although the groups "
        "are not (equal order censuses, different abelianness)",
    )


def test_criterion_5_nilpotent_iso_oracle_agreement(catalog):
    nilpotent = [
        (name, G) for name, G in catalog if G.order <= 27 and is_nilpotent(G)
    ]
    disagreements = []
    checked = 0
    for i, (n1, G1) in enumerate(nilpotent):
        for n2, G2 in nilpotent[i + 1 :]:
            if G1.order != G2.order:
                continue
            D1, D2 = directed_power_graph(G1), directed_power_graph(G2)
            fast = dpow_iso_nilpotent(D1, D2)
            slow = brute_force_color_iso(D1, D2) is not None
            checked += 1
            if fast != slow:
                disagreements.append((n1, n2))
    spot = dict(catalog)
    ok = (
        not disagreements
        and checked > 0
        and not dpow_iso_nilpotent(
            directed_power_graph(spot["Z12"]), directed_power_graph(spot["Z2xZ6"])
        )
        and dpow_iso_nilpotent(
            directed_power_graph(spot["Z12"]), directed_power_graph(spot["Z4xZ3"])
        )
    )
    report(
        ok,
        5,
        f"polynomial nilpotent test agrees with the brute-force oracle on "
        f"all {checked} equal-order nilpotent pairs"
        + (f" — disagreements: {disagreements}" if disagreements else ""),
    )


def test_criterion_6_strong_product_law():
    pairs = [
        (cyclic_group(2), cyclic_group(3)),
        (cyclic_group(4), cyclic_group(3)),
        (direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(3)),
        (quaternion_group(), cyclic_group(3)),
    ]
    failures = []
    for i, (G, H) in enumerate(pairs):
        P = strong_product(directed_power_graph(G), directed_power_graph(H))
        D = directed_power_graph(direct_product(G, H))
        if brute_force_color_iso(P, D) is None:
            failures.append(i)
    report(
        not failures,
        6,
        "strong product of the factor directed power graphs matches the "
        "product group's directed power graph for all four coprime pairs"
        + (f" — failing pair indices: {failures}" if failures else ""),
    )


def test_criterion_7_r2_structure_and_r4_divisibility(catalog):
    failures = []
    for name, G in catalog:
        r2 = reduce_r2(reduce_r1(directed_power_graph(G)).graph)
        if not verify_r2_structure(r2).ok:
            failures.append((name, "r2"))
            continue
        r4 = reduce_r4(reduce_r3(r2))
        for i in range(r4.m):
            for j in range(r4.m):
                for s in range(r4.m):
                    if len({i, j, s}) < 3:
                        continue
                    g = gcd(
                        intersection_color(r4, i, j), intersection_color(r4, s, j)
                    )
                    if intersection_color(r4, i, s) % g != 0:
                        failures.append((name, "r4", i, j, s))
    report(
        not failures,
        7,
        "R2 structural audit and R4 pairwise-intersection divisibility hold "
        "for every catalog group"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_8_complete_power_graph_characterization(catalog):
    failures = []
    for name, G in catalog:
        if G.order > 24:
            continue
        cyclic = max(G.element_orders) == G.order
        expected = G.order == 1 or (cyclic and is_prime_power(G.order) is not None)
        if power_graph(G).is_complete() != expected:
            failures.append(name)
    report(
        not failures,
        8,
        "power graph is complete exactly for the cyclic groups of prime "
        "power order, over all catalog groups of order at most 24"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_9_twin_structure_suite(catalog):
    failures = []
    for name, G in catalog:
        problems = check_twin_structure(G) + check_prime_power_gamma_v(G)
        if problems:
            failures.append((name, problems))
    limit = 10**4
    phi = phi_table(limit)
    phi_ok = True
    for a in range(1, limit // 2 + 1):
        for b in range(2 * a, limit + 1, a):
            if phi[b] % phi[a] != 0 or phi[a] > phi[b]:
                phi_ok = False
            elif phi[a] == phi[b] and not (b == 2 * a and a % 2 == 1):
                phi_ok = False
    report(
        not failures and phi_ok,
        9,
        "twin-class structure around CC-generators holds on the catalog and "
        "the totient divisor-pair law holds up to 10^4"
        + (f" — failures: {failures}" if failures else ""),
    )


def test_criterion_10_gluing_internals(catalog):
    failures = []
    for name, G in catalog:
        r3 = true_r3(G)
        r4 = reduce_r4(r3)
        ccg = list(r4.ccg_vertices)
        try:
            steps = r3_from_r4_steps(r4)  # any conflict raises
        except Exception:
            failures.append((name, "conflict"))
            continue
        covered = set()
        for j, step in enumerate(steps):
            covered |= descendants(r3, ccg[j])
            expected, _ = induced_subgraph(r3, covered)
            if step.graph.n > 30:
                continue
            if brute_force_color_iso(step.graph, expected) is None:
                failures.append((name, j))
    report(
        not failures,
        10,
        "R4-to-R3 gluing runs conflict-free and every intermediate matches "
        "the induced true R3 on all catalog groups"
        + (f" — failures: {failures}" if failures else ""),
    )
