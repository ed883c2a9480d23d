import random
import re
from collections import Counter
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgk import group_core
from pgk.errors import CayleyTableError, GroupSpecError
from pgk.graph_core import bits
from pgk.group_core import (
    MAX_GROUP_ORDER,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_cayley_table,
    heisenberg_group,
    load_cayley_file,
    parse_group_spec,
    quaternion_group,
)
from pgk.numtheory import divisors, euler_phi

from helpers import (
    ccg_ground_truth,
    cyclic_subgroup,
    is_abelian,
    is_nilpotent,
    maximal_cyclic_subgroups,
    normalized_loops,
    reference_dihedral_group,
    reference_direct_product,
    reference_element_orders,
    reference_heisenberg_group,
    reference_is_associative,
    reference_load_cayley_file,
    reference_quaternion_group,
    relabel_table,
    s3_cayley_text,
    subgroup_generators,
)


class TestConstructors:
    def test_trivial_group(self):
        assert cyclic_group(1).table == ((0,),)

    def test_cyclic_order_census(self):
        assert Counter(cyclic_group(6).element_orders) == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_cyclic_element_orders(self):
        assert cyclic_group(4).element_orders == (1, 4, 2, 4)

    def test_cyclic_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclic_group(0)

    def test_dihedral_rejects_zero(self):
        with pytest.raises(ValueError):
            dihedral_group(0)

    def test_dihedral_is_order_2k(self):
        G = dihedral_group(4)
        assert G.order == 8
        assert Counter(G.element_orders) == {1: 1, 2: 5, 4: 2}

    def test_quaternion_orders(self):
        assert Counter(quaternion_group().element_orders) == {1: 1, 2: 1, 4: 6}

    def test_heisenberg_exponent_three(self):
        G = heisenberg_group(3)
        assert G.order == 27
        assert not is_abelian(G)
        assert Counter(G.element_orders) == {1: 1, 3: 26}

    def test_heisenberg_rejects_composite(self):
        with pytest.raises(GroupSpecError):
            heisenberg_group(4)

    def test_elementary_abelian(self):
        G = elementary_abelian_group(3, 3)
        assert G.order == 27
        assert is_abelian(G)
        assert Counter(G.element_orders) == {1: 1, 3: 26}


class TestCyclicTable:
    @pytest.mark.parametrize("n", [*range(1, 65), 1000])
    def test_rotations_match_sum_formula(self, n):
        expected = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        assert cyclic_group(n).table == expected


class TestGeneratedTables:
    """Spec groups built from their generators' rows, and products built
    from shifted factor rows, against the per-entry reference builders."""

    PRODUCTS = [
        "Z1xZ1", "Z1xQ8", "Q8xZ1", "D5xZ1xZ3", "Z8xZ250", "Z250xZ8", "Q8xZ250",
        "D45xZ7", "D8xZ45", "Heis3xZ9", "Heis5xZ2", "Q8xQ8", "ElemAb(3,3)xZ20",
        "Z2xD3xQ8",
    ]

    @pytest.mark.parametrize("k", [*range(1, 61), 250, 1000])
    def test_dihedral(self, k):
        assert dihedral_group(k).table == reference_dihedral_group(k).table

    def test_quaternion(self):
        assert quaternion_group().table == reference_quaternion_group().table

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_heisenberg(self, p):
        assert heisenberg_group(p).table == reference_heisenberg_group(p).table

    @pytest.mark.parametrize("spec", PRODUCTS)
    def test_product(self, spec):
        factors = [parse_group_spec(term) for term in spec.split("x")]
        expected = factors[0]
        for H in factors[1:]:
            expected = reference_direct_product(expected, H)
        assert parse_group_spec(spec).table == expected.table

    @pytest.mark.parametrize("p, k", [(2, 1), (2, 10), (3, 5), (5, 2)])
    def test_elementary_abelian(self, p, k):
        expected = cyclic_group(p)
        for _ in range(k - 1):
            expected = reference_direct_product(expected, cyclic_group(p))
        assert elementary_abelian_group(p, k).table == expected.table

    @pytest.mark.parametrize(
        "spec", ["Z1000", "D250", "D1000", "Q8", "Heis11", "ElemAb(2,10)", *PRODUCTS]
    )
    def test_entries_share_order_many_ints(self, spec):
        # a row-built table holds one int object per element, as a
        # per-entry product would not for elements past the small-int cache
        G = parse_group_spec(spec)
        assert len({id(x) for row in G.table for x in row}) == G.order


class TestCyclicMasks:
    """FiniteGroup.cyclic_masks and element_orders against the test-only
    power walks, on the catalog and on relabelled copies of its tables
    whose identity is not element 0."""

    @staticmethod
    def groups(catalog, p_groups):
        rng = random.Random(3)
        for name, G in catalog + p_groups:
            yield name, G
            if G.order > 1:
                perm = list(range(G.order))
                rng.shuffle(perm)
                if perm[0] == 0:
                    perm[0], perm[1] = perm[1], perm[0]
                relabelled = relabel_table(G.table, perm)
                yield f"{name} relabelled", group_from_cayley_table(relabelled)

    def test_element_orders_match_reference(self, catalog, p_groups):
        for name, G in self.groups(catalog, p_groups):
            assert G.element_orders == reference_element_orders(G), name

    def test_masks_match_reference_subgroups(self, catalog, p_groups):
        for name, G in self.groups(catalog, p_groups):
            for x, mask in enumerate(G.cyclic_masks):
                assert bits(mask) == sorted(cyclic_subgroup(G, x).members), (name, x)


class TestDirectProduct:
    def test_z2_z3_has_order_six_element(self):
        G = direct_product(cyclic_group(2), cyclic_group(3))
        assert 6 in G.element_orders

    def test_left_identity_factor(self):
        G = quaternion_group()
        assert direct_product(cyclic_group(1), G).table == G.table

    def test_klein_four_orders(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        assert sorted(G.element_orders) == [1, 2, 2, 2]

    def test_order_is_lcm_of_parts(self):
        G, H = cyclic_group(4), cyclic_group(6)
        P = direct_product(G, H)
        for g in range(G.order):
            for h in range(H.order):
                expected = lcm(G.element_orders[g], H.element_orders[h])
                assert P.element_orders[g * H.order + h] == expected

    def test_order_cap(self):
        with pytest.raises(GroupSpecError):
            direct_product(cyclic_group(101), cyclic_group(101))


class TestCayleyTableValidation:
    def test_trivial_table(self):
        assert group_from_cayley_table([[0]]).order == 1

    def test_z3_table(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        assert group_from_cayley_table(table).element_orders == (1, 3, 3)

    def test_identity_relabeled_to_zero(self):
        # Z3 with the identity sitting at index 2
        relabeling = [1, 2, 0]  # old -> new
        table = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                table[relabeling[i]][relabeling[j]] = relabeling[(i + j) % 3]
        G = group_from_cayley_table(table)
        assert all(G.table[0][j] == j for j in range(3))
        assert G.element_orders == (1, 3, 3)

    def test_closure_violation(self):
        with pytest.raises(CayleyTableError, match="closure"):
            group_from_cayley_table([[0, 1], [1, 7]])

    def test_row_not_permutation(self):
        with pytest.raises(CayleyTableError, match="permutation"):
            group_from_cayley_table([[0, 0], [1, 1]])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
            # row 2 and column 0 both fail: rows and columns are checked
            # in turn, row i then column i
            ([[0, 1, 2], [1, 2, 0], [1, 0, 0]], "column 0 is not a permutation"),
            ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "row 2 is not a permutation"),
            ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has length 2, expected 3"),
        ],
    )
    def test_first_failing_line_named(self, table, message):
        with pytest.raises(CayleyTableError, match=message):
            group_from_cayley_table(table)

    def test_no_identity(self):
        # Latin square with a row identity but no two-sided identity
        table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        with pytest.raises(CayleyTableError, match="identity"):
            group_from_cayley_table(table)

    def test_non_associative_triple_named(self):
        # the (right Bol loop) smallest non-associative Latin square with identity
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(CayleyTableError, match="associativity fails at triple"):
            group_from_cayley_table(table)

    def test_empty_table(self):
        with pytest.raises(CayleyTableError):
            group_from_cayley_table([])

    @pytest.mark.parametrize(
        "table, message",
        [
            ([["a"]], "entry table[0][0] = 'a' is not an int"),
            ([[0.0]], "entry table[0][0] = 0.0 is not an int"),
            ([[0, 1], [1, None]], "entry table[1][1] = None is not an int"),
            ([[0, 1], [1, 0.0]], "entry table[1][1] = 0.0 is not an int"),
            ([[0, 1], [1, 2.0]], "entry table[1][1] = 2.0 is not an int"),
            ([[0, 1], ["1", 0]], "entry table[1][0] = '1' is not an int"),
            ([[0, 1], 1], "row 1 is not a sequence"),
            ([None], "row 0 is not a sequence"),
        ],
    )
    def test_non_integer_entry_named(self, table, message):
        with pytest.raises(CayleyTableError) as exc:
            group_from_cayley_table(table)
        assert str(exc.value) == message

    def test_bool_table_accepted(self):
        G = group_from_cayley_table([[False, True], [True, False]])
        assert G.table == ((0, 1), (1, 0)) and G.element_orders == (1, 2)


def _two_sided_identity(table):
    n = len(table)
    return next(
        (
            e
            for e in range(n)
            if all(table[e][j] == j and table[j][e] == j for j in range(n))
        ),
        None,
    )


ASSOCIATIVITY_FAILS = re.compile(
    r"associativity fails at triple \((\d+), (\d+), (\d+)\)"
)
INVERSE_FAILS = re.compile(r"inverse fails: element (\d+) has no two-sided inverse")


def _identity_to_zero(table, e):
    n = len(table)
    swap = list(range(n))
    swap[e], swap[0] = 0, e
    return tuple(
        tuple(swap[table[swap[i]][swap[j]]] for j in range(n)) for i in range(n)
    )


def _check_against_reference(table):
    """Validate a Latin square: accepted exactly when the triple loop
    finds it associative, with the identity moved to 0; when rejected,
    the witness in the message must really fail."""
    try:
        G = group_from_cayley_table(table)
    except CayleyTableError as exc:
        assert not reference_is_associative(table)
        message = str(exc)
        e = _two_sided_identity(table)
        if m := ASSOCIATIVITY_FAILS.fullmatch(message):
            x, a, c = map(int, m.groups())
            assert table[table[x][a]][c] != table[x][table[a][c]], message
            # the inverse axiom is checked first
            assert all(table[table[i].index(e)][i] == e for i in range(len(table)))
        elif m := INVERSE_FAILS.fullmatch(message):
            i = int(m.group(1))
            assert not any(
                table[i][j] == e and table[j][i] == e for j in range(len(table))
            ), message
        else:
            assert message.startswith("identity fails") and e is None, message
        return False
    assert reference_is_associative(table)
    assert G.table == _identity_to_zero(table, _two_sided_identity(table))
    return True


class TestLightAssociativity:
    def test_every_loop_up_to_order_six(self):
        # 9,471 loops; each also with its identity moved off index 0
        rng = random.Random(4)
        groups = 0
        for n in range(1, 7):
            for table in normalized_loops(n):
                perm = list(range(n))
                while n > 1 and perm[0] == 0:
                    rng.shuffle(perm)
                accepted = _check_against_reference(table)
                assert _check_against_reference(relabel_table(table, perm)) == accepted
                groups += accepted
        # a group G of order n has (n-1)!/|Aut G| normalized tables: Z4 3,
        # Z2^2 1, Z5 6, Z6 60, S3 20
        assert groups == 1 + 1 + 1 + 4 + 6 + 80

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(*[st.permutations(range(n))] * 3)
        )
    )
    def test_isotopes_of_cyclic_groups(self, perms):
        # x*y = gamma(alpha(x) + beta(y)): a Latin square, and a group
        # exactly when it has an identity
        alpha, beta, gamma = perms
        n = len(alpha)
        table = [[gamma[(alpha[x] + beta[y]) % n] for y in range(n)] for x in range(n)]
        accepted = _check_against_reference(table)
        assert accepted == (_two_sided_identity(table) is not None)

    def test_generating_set_is_logarithmic(self, catalog, light_test):
        # Light's test reads the rows of the reference generators, at most
        # floor(log2 n) = n.bit_length() - 1 of them; each table keeps its
        # identity at 0
        rng = random.Random(7)
        tables = [(name, G.table) for name, G in catalog]
        for spec in ("D50", "D75", "D100", "D125", "Q8xZ15"):
            G = parse_group_spec(spec)
            perm = [0] + rng.sample(range(1, G.order), G.order - 1)
            tables.append((spec, relabel_table(G.table, perm)))
        for name, table in tables:
            outcome, rows = light_test(table)
            assert outcome == table, name
            assert rows == _greedy_by_closure(table, 0), name
            assert len(rows) <= len(table).bit_length() - 1, (name, rows)

    def test_generators_of_loops_up_to_order_six(self, light_test):
        # 9,471 loops: the outcome and the rows read are the reference's;
        # with the identity moved off index 0 the outcome still is
        rng = random.Random(6)
        for n in range(1, 7):
            for table in normalized_loops(n):
                outcome, rows = _reference_outcome(table)
                assert light_test(table) == (outcome, rows)
                table = relabel_table(table, rng.sample(range(n), n))
                assert light_test(table)[0] == _reference_outcome(table)[0]

    def test_switched_group_tables_of_orders_8_to_30(self, light_test):
        # one or two intercalate switches on a group table, away from row
        # and column 0 and from the identity's entries, leave a loop with
        # the group's inverses; relabelled, it is refused with the
        # reference's triple unless it is associative
        rng = random.Random(25)
        specs = ("D4", "Q8", "Z8", "Z2xZ4", "ElemAb(2,3)", "D5", "Z2xZ6", "D6",
                 "Q8xZ2", "D8", "Z2xZ8", "ElemAb(2,4)", "D9", "Z2xZ10", "D10",
                 "D11", "D12", "Q8xZ3", "D13", "D14", "Z2xZ14", "D15", "Z30")
        accepted = 0
        for _ in range(800):
            table = [list(row) for row in parse_group_spec(rng.choice(specs)).table]
            n = len(table)
            for _ in range(rng.randint(1, 2)):
                _switch_intercalate(table, rng)
            table = relabel_table(table, rng.sample(range(n), n))
            outcome = light_test(table)[0]
            assert outcome == _reference_outcome(table)[0]
            assert isinstance(outcome, tuple) == reference_is_associative(table)
            accepted += isinstance(outcome, tuple)
        assert accepted < 800


@pytest.fixture
def light_test(monkeypatch):
    """A function from a table to group_from_cayley_table's outcome (the
    table or the refusal text) and the non-identity rows passed to
    itemgetter, in order.  With the identity at 0 these are the rows
    Light's test reads, one itemgetter each."""
    calls = []

    def counting_itemgetter(*items):
        calls.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(group_core, "itemgetter", counting_itemgetter)

    def run(table):
        calls.clear()
        try:
            outcome = group_from_cayley_table(table).table
        except CayleyTableError as exc:
            outcome = str(exc)
        e = _two_sided_identity(table)
        row_of = {tuple(row): a for a, row in enumerate(table) if a != e}
        return outcome, [row_of[items] for items in calls if items in row_of]

    return run


def _reference_outcome(table):
    """What validating a loop owes, and the rows Light's test reads: the
    least element without a two-sided inverse is refused first; else the
    first of _greedy_by_closure's generators a that fails, with the
    least x and then the least c; else the table with its identity at 0."""
    n, e = len(table), _two_sided_identity(table)
    i = next((i for i in range(n) if table[table[i].index(e)][i] != e), None)
    if i is not None:
        return f"inverse fails: element {i} has no two-sided inverse", []
    rows = []
    for a in _greedy_by_closure(table, e):
        rows.append(a)
        for x in range(n):
            for c in range(n):
                if table[table[x][a]][c] != table[x][table[a][c]]:
                    return f"associativity fails at triple ({x}, {a}, {c})", rows
    return _identity_to_zero(table, e), rows


def _switch_intercalate(table, rng):
    """Swap a and b in some cells (x, y), (x, y2), (x2, y), (x2, y2) that
    read a b / b a, none in row or column 0 and neither a nor b the
    identity 0, in place; the table stays a Latin square."""
    n = len(table)
    while True:
        x, x2 = rng.sample(range(1, n), 2)
        y = rng.randrange(1, n)
        a, b = table[x][y], table[x2][y]
        y2 = table[x].index(b)
        if 0 not in (a, b, y2) and table[x2][y2] == a:
            table[x][y] = table[x2][y2] = b
            table[x][y2] = table[x2][y] = a
            return


def _greedy_by_closure(table, identity):
    """Each generator the smallest element outside the closure of the
    identity and those before it under products on both sides."""
    n = len(table)
    inside, gens = {identity}, []
    while len(inside) < n:
        gens.append(min(set(range(n)) - inside))
        inside.add(gens[-1])
        while fresh := {table[x][y] for x in inside for y in inside} - inside:
            inside |= fresh
    return gens


def load_outcome(load, path):
    try:
        return load(path).table
    except CayleyTableError as exc:
        return str(exc)


class TestCayleyFile:
    def test_loads_s3(self, s3):
        assert s3.order == 6
        assert Counter(s3.element_orders) == {1: 1, 2: 3, 3: 2}
        assert not is_abelian(s3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CayleyTableError):
            load_cayley_file(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        with pytest.raises(CayleyTableError):
            load_cayley_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_cayley_file(tmp_path / "nope.txt")

    def test_order_over_cap_refused_before_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(group_core, "group_from_cayley_table", None)
        path = tmp_path / "big.txt"
        path.write_text(f"{MAX_GROUP_ORDER + 1}\nnot a row\n")
        with pytest.raises(CayleyTableError, match="exceeds maximum"):
            load_cayley_file(path)

    @pytest.mark.parametrize("spelling", ["01", "+1", "-1", "1.5", "x", "\u0661", "1_0"])
    def test_entry_spellings_read_as_by_reference(self, tmp_path, spelling):
        # every entry 1 of S3's table, one at a time, spelled otherwise
        lines = s3_cayley_text().splitlines()
        for i in range(1, len(lines)):
            tokens = lines[i].split()
            for j in (j for j, t in enumerate(tokens) if t == "1"):
                path = tmp_path / f"s3_{i}_{j}.txt"
                spelled = tokens[:j] + [spelling] + tokens[j + 1 :]
                text = lines[:i] + [" ".join(spelled)] + lines[i + 1 :]
                path.write_text("\n".join(text) + "\n", encoding="utf-8")
                assert load_outcome(load_cayley_file, path) == load_outcome(
                    reference_load_cayley_file, path
                )

    @pytest.mark.parametrize("spec", ["D30", "D150"])
    def test_loaded_table_shares_its_ints(self, tmp_path, spec):
        # the identity stays at 0, so no relabelling re-maps the entries;
        # above order 256 the ints are not CPython's cached small ints
        G = parse_group_spec(spec)
        perm = [0] + random.Random(3).sample(range(1, G.order), G.order - 1)
        table = relabel_table(G.table, perm)
        path = tmp_path / "t.txt"
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table)
        path.write_text(f"{G.order}\n{rows}", encoding="utf-8")
        H = load_cayley_file(path)
        assert H.table == table
        assert len({id(x) for row in H.table for x in row}) <= G.order


class TestGroupSpecParsing:
    def test_simple_cyclic(self):
        assert parse_group_spec("Z6").order == 6

    def test_product_is_cyclic_twelve(self):
        G = parse_group_spec("Z4xZ3")
        assert G.order == 12
        assert 12 in G.element_orders

    def test_elemab(self):
        G = parse_group_spec("ElemAb(3,3)")
        assert G.order == 27
        assert all(o == 3 for o in G.element_orders[1:])

    def test_named_terms(self):
        assert parse_group_spec("Q8").order == 8
        assert parse_group_spec("D4").order == 8
        assert parse_group_spec("Heis3").order == 27

    def test_file_term(self, s3_file):
        assert parse_group_spec(f"file:{s3_file}").order == 6

    def test_file_term_in_product(self, s3_file):
        assert parse_group_spec(f"Z2xfile:{s3_file}").order == 12

    @pytest.mark.parametrize(
        "bad",
        ["", "Zx", "Z6x", "Z6yZ2", "Heis4", "file:", "ElemAb(4,2)"]
        + ["Z0", "D0", "ElemAb(2,0)"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(GroupSpecError) as exc:
            parse_group_spec("Z6xBogus")
        assert exc.value.position == 3

    def test_order_cap(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("Z200xZ200")

    def test_order_2001_rejected(self):
        with pytest.raises(GroupSpecError, match="exceeds maximum 2000"):
            parse_group_spec("Z3xZ667")

    @pytest.mark.parametrize(
        "spec",
        ["Z1500", "D750", "Heis11", "ElemAb(2,7)", "ElemAb(3,100000000)", "Z50xZ3",
         "Q8xZ2xZ7"],
    )
    def test_order_cap_before_any_table(self, spec, monkeypatch):
        for name in ("cyclic_group", "dihedral_group", "heisenberg_group",
                     "elementary_abelian_group", "quaternion_group"):
            monkeypatch.setattr(group_core, name, None)
        monkeypatch.setattr(group_core, "MAX_GROUP_ORDER", 100)
        with pytest.raises(GroupSpecError, match="exceeds maximum 100"):
            parse_group_spec(spec)

    def test_parameter_past_int_digit_limit(self):
        with pytest.raises(GroupSpecError, match="too many digits"):
            parse_group_spec("Z" + "9" * 5000)

    def test_file_order_read_before_any_table(self, s3_file, monkeypatch):
        for name in ("cyclic_group", "dihedral_group", "heisenberg_group",
                     "elementary_abelian_group", "quaternion_group",
                     "group_from_cayley_table"):
            monkeypatch.setattr(group_core, name, None)
        with pytest.raises(GroupSpecError, match="exceeds maximum 2000"):
            parse_group_spec(f"Z1000xfile:{s3_file}")

    @pytest.mark.parametrize("spec", ["Heis0", "ElemAb(0,2)", "Heis1"])
    def test_prime_parameter_below_two(self, spec):
        with pytest.raises(GroupSpecError, match="must be prime"):
            parse_group_spec(spec)


class TestMaximalCyclicSubgroups:
    def test_cyclic_returns_whole_group(self):
        subs = maximal_cyclic_subgroups(cyclic_group(6))
        assert len(subs) == 1
        assert subs[0].order == 6

    def test_klein_four(self):
        subs = maximal_cyclic_subgroups(
            direct_product(cyclic_group(2), cyclic_group(2))
        )
        assert [s.order for s in subs] == [2, 2, 2]

    def test_quaternion(self):
        subs = maximal_cyclic_subgroups(quaternion_group())
        assert [s.order for s in subs] == [4, 4, 4]
        for i in range(3):
            for j in range(i + 1, 3):
                assert len(subs[i].members & subs[j].members) == 2

    def test_minimal_cover(self, catalog):
        # the family covers G and no proper subfamily does
        for name, G in catalog:
            subs = maximal_cyclic_subgroups(G)
            if len(subs) > 12:
                continue
            union = set().union(*(s.members for s in subs))
            assert union == set(range(G.order)), name
            if len(subs) > 1:
                for skip in range(len(subs)):
                    rest = set().union(
                        *(s.members for k, s in enumerate(subs) if k != skip)
                    )
                    assert rest != set(range(G.order)), (name, skip)


class TestCcgGroundTruth:
    def test_klein_four(self):
        G = direct_product(cyclic_group(2), cyclic_group(2))
        assert ccg_ground_truth(G) == {1, 2, 3}

    def test_cyclic_single_generator(self):
        ccg = ccg_ground_truth(cyclic_group(12))
        assert len(ccg) == 1
        assert cyclic_group(12).element_orders[ccg.pop()] == 12

    def test_s3(self, s3):
        ccg = ccg_ground_truth(s3)
        assert len(ccg) == 4
        assert sorted(s3.element_orders[g] for g in ccg) == [2, 2, 2, 3]


class TestCyclicStructure:
    def test_generator_count_is_phi(self, catalog):
        for name, G in catalog[:12] + catalog[-5:]:
            for g in range(G.order):
                gens = subgroup_generators(G, g)
                assert len(gens) == euler_phi(G.element_orders[g]), (name, g)

    def test_converse_lagrange_for_cyclic(self):
        for n in (6, 12, 18, 24):
            G = cyclic_group(n)
            by_order = {}
            for g in range(n):
                sub = cyclic_subgroup(G, g)
                by_order.setdefault(sub.order, set()).add(sub.members)
            assert sorted(by_order) == divisors(n)
            assert all(len(v) == 1 for v in by_order.values())


class TestNilpotency:
    def test_examples(self, s3):
        assert is_nilpotent(cyclic_group(12))
        assert is_nilpotent(quaternion_group())
        assert is_nilpotent(dihedral_group(4))  # 2-group
        assert not is_nilpotent(s3)
        assert not is_nilpotent(dihedral_group(6))
