"""Finite groups as Cayley tables, and the one walk of their cyclic
subgroups.  No other module reads a table: the rest of pgk sees a group
through its order, `cyclic_masks` and `element_orders`.

The identity is relabeled to index 0 on construction.  Groups are
immutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd
from operator import itemgetter

from .errors import CayleyTableError, GroupSpecError
from .numtheory import is_prime

__all__ = [
    "FiniteGroup",
    "MAX_GROUP_ORDER",
    "cyclic_group",
    "dihedral_group",
    "quaternion_group",
    "heisenberg_group",
    "elementary_abelian_group",
    "direct_product",
    "group_from_cayley_table",
    "load_cayley_file",
    "parse_group_spec",
]

MAX_GROUP_ORDER = 2_000


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the product of elements i and j; index 0 is the
    identity.  Constructors in this module guarantee validity; arbitrary
    tables should go through group_from_cayley_table.
    """

    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def cyclic_masks(self) -> tuple[int, ...]:
        """Bit y of cyclic_masks[x] is set iff y is a power of x.  Each
        cyclic subgroup is walked once; its generators share its mask."""
        table = self.table
        masks = [0] * self.order
        for g in range(self.order):
            if masks[g]:
                continue
            powers = [0]  # powers[k] is g^k
            x = g
            while x != 0:
                powers.append(x)
                x = table[x][g]
            o = len(powers)
            mask = sum(1 << x for x in powers)
            for k in range(o):
                if gcd(k, o) == 1:
                    masks[powers[k]] = mask
        return tuple(masks)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.cyclic_masks)


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with table[i][j] = (i + j) mod n, row i as row 0 rotated by i."""
    if n < 1:
        raise ValueError("group order must be positive")
    row = tuple(range(n))
    return FiniteGroup(tuple(row[i:] + row[:i] for i in range(n)))


def dihedral_group(k: int) -> FiniteGroup:
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


def quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; element 2u + s is (-1)^s times unit u."""

    def mul(a, b):
        u1, s1 = a // 2, a % 2
        u2, s2 = b // 2, b % 2
        sign, unit = _Q8_UNIT_MUL[(u1, u2)]
        s = (s1 + s2 + (sign < 0)) % 2
        return unit * 2 + s

    return FiniteGroup(tuple(tuple(mul(a, b) for b in range(8)) for a in range(8)))


def heisenberg_group(p: int) -> FiniteGroup:
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


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    """Z_p^k."""
    if p < 2 or not is_prime(p):
        raise GroupSpecError(f"ElemAb prime parameter must be prime, got {p}")
    if k < 1:
        raise GroupSpecError("ElemAb exponent must be at least 1")
    G = cyclic_group(p)
    for _ in range(k - 1):
        G = direct_product(G, cyclic_group(p))
    return G


def direct_product(
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


def _greedy_generators(table, columns, identity) -> list[int]:
    """Generators of a Latin square with an identity, each the smallest
    element outside the product-closure of those before it.

    A closure is a subquasigroup, and a proper subquasigroup T has at
    most n/2 elements (aT and T are disjoint for a outside T), so there
    are at most floor(log2 n) generators.  Each closure member is
    multiplied on both sides with the members before it: O(n^2) in all.
    """
    n = len(table)
    members, inside = [identity], {identity}
    done = 1  # members[:done] have been multiplied with each other
    candidate = 0
    generators = []
    while len(members) < n:
        while candidate in inside:
            candidate += 1
        generators.append(candidate)
        members.append(candidate)
        inside.add(candidate)
        while done < len(members):
            u = members[done]
            done += 1
            times_earlier = itemgetter(*members[:done])
            fresh = set(times_earlier(table[u]))
            fresh.update(times_earlier(columns[u]))
            fresh -= inside
            members.extend(fresh)
            inside |= fresh
    return generators


def group_from_cayley_table(table) -> FiniteGroup:
    """Validate an arbitrary table and return a FiniteGroup with the
    identity relabeled to index 0.

    Associativity is checked exactly by Light's test: the elements a with
    (xa)y = x(ay) for all x, y are closed under the product, so checking
    a generating set suffices, O(n^2 log n) in all.

    Raises CayleyTableError naming the failed axiom and a witness.
    """
    table = tuple(tuple(row) for row in table)
    n = len(table)
    if n == 0:
        raise CayleyTableError("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise CayleyTableError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            j, x = next((j, x) for j, x in enumerate(row) if not 0 <= x < n)
            raise CayleyTableError(
                f"closure fails: entry table[{i}][{j}] = {x} is outside [0, {n})"
            )
    columns = tuple(zip(*table))
    for i in range(n):
        if len(set(table[i])) != n:
            raise CayleyTableError(f"row {i} is not a permutation")
        if len(set(columns[i])) != n:
            raise CayleyTableError(f"column {i} is not a permutation")
    natural = tuple(range(n))
    identity = next(
        (e for e in range(n) if table[e] == natural and columns[e] == natural), None
    )
    if identity is None:
        raise CayleyTableError("identity fails: no two-sided identity element")
    for i, row in enumerate(table):
        if table[row.index(identity)][i] != identity:
            raise CayleyTableError(f"inverse fails: element {i} has no two-sided inverse")
    for a in _greedy_generators(table, columns, identity):
        # times_a(row of x) is y -> x(ay), table[xa] is y -> (xa)y
        times_a = itemgetter(*table[a])
        for x, row_x in enumerate(table):
            if times_a(row_x) != table[row_x[a]]:
                xa, row_a = table[row_x[a]], table[a]
                c = next(c for c in range(n) if xa[c] != row_x[row_a[c]])
                raise CayleyTableError(f"associativity fails at triple ({x}, {a}, {c})")
    if identity != 0:
        swap = list(range(n))
        swap[identity], swap[0] = 0, identity
        columns_swapped = itemgetter(*swap)
        table = tuple(columns_swapped(itemgetter(*table[old])(swap)) for old in swap)
    return FiniteGroup(table)


def _cayley_order(fh, path) -> int:
    """Read a Cayley-table file's order line (its first non-empty line),
    refusing an order above MAX_GROUP_ORDER."""
    first = next((ln for ln in map(str.strip, fh) if ln), None)
    if first is None:
        raise CayleyTableError(f"{path}: empty file")
    try:
        n = int(first)
    except ValueError:
        raise CayleyTableError(f"{path}: bad order line {first!r}") from None
    if n > MAX_GROUP_ORDER:
        raise CayleyTableError(f"{path}: order {n} exceeds maximum {MAX_GROUP_ORDER}")
    return n


def load_cayley_file(path) -> FiniteGroup:
    """Cayley-table file: line 1 is n, then n lines of n entries.  An
    order above MAX_GROUP_ORDER is refused before any row is read."""
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


_TERM_RE = re.compile(
    r"Z(?P<zn>\d+)|D(?P<dk>\d+)|Q8|Heis(?P<hp>\d+)|ElemAb\((?P<ep>\d+),(?P<ek>\d+)\)"
)


def parse_group_spec(text: str, max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Build the group described by a spec string.

    Grammar: SPEC := TERM ("x" TERM)* with TERM one of Zk, Dk (order 2k),
    Q8, Heisp, ElemAb(p,k), file:PATH.  A file: term swallows the rest of
    the string (paths may contain "x"), so it must come last.  Each
    term's order is known from its parameters or its file's order line,
    so a spec over max_order is refused before any table is built.
    """
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group spec", 0)
    builders = []
    order = 1
    pos = 0
    while True:
        if text.startswith("file:", pos):
            path = text[pos + 5 :]
            if not path:
                raise GroupSpecError("file: term with empty path", pos)
            with open(path, encoding="utf-8") as fh:
                term_order = _cayley_order(fh, path)
            build, end = partial(load_cayley_file, path), len(text)
        else:
            m = _TERM_RE.match(text, pos)
            if m is None:
                raise GroupSpecError(f"cannot parse term in {text!r}", pos)
            try:
                term_order, build = _term(m, pos)
            except ValueError:  # int() refuses strings past Python's digit limit
                raise GroupSpecError("term parameter has too many digits", pos) from None
            end = m.end()
        order *= term_order
        if order > max_order:
            raise GroupSpecError(f"group order exceeds maximum {max_order}", pos)
        builders.append(build)
        pos = end
        if pos == len(text):
            break
        if text[pos] != "x":
            raise GroupSpecError(f"expected 'x' separator in {text!r}", pos)
        pos += 1
        if pos == len(text):
            raise GroupSpecError("trailing 'x' in group spec", pos)
    G = builders[0]()
    for build in builders[1:]:
        G = direct_product(G, build(), max_order=max_order)
    return G


def _term(m: re.Match, pos: int):
    """The order of a parsed term, and a function that builds it."""
    if m.group("zn") is not None:
        n = int(m.group("zn"))
        if n < 1:
            raise GroupSpecError("Z parameter must be at least 1", pos)
        return n, lambda: cyclic_group(n)
    if m.group("dk") is not None:
        k = int(m.group("dk"))
        if k < 1:
            raise GroupSpecError("D parameter must be at least 1", pos)
        return 2 * k, lambda: dihedral_group(k)
    if m.group("hp") is not None:
        p = int(m.group("hp"))
        return p**3, lambda: heisenberg_group(p)
    if m.group("ep") is not None:
        p, k = int(m.group("ep")), int(m.group("ek"))
        # for p >= 2 and k > 64, p**k and p**64 both exceed any cap a
        # table fits under, and p**k in full could take minutes
        return p ** min(k, 64), lambda: elementary_abelian_group(p, k)
    return 8, quaternion_group
