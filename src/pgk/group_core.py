"""Finite groups as Cayley tables, and the one walk of their cyclic
subgroups.  No other module reads a table: the rest of pgk sees a group
through its order, `cyclic_masks` and `element_orders`.

The identity is relabeled to index 0 on construction.  Groups are
immutable.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
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


def _generated(n: int, generator_rows) -> FiniteGroup:
    """The group of order n >= 2 generated by the given rows, row g being
    x -> gx.  The row of xg is row x composed with row g, and its entry at
    column 0 is xg; every row holds the int objects of the identity row."""
    rows = [None] * n
    rows[0] = tuple(range(n))
    found = [0]
    for x in found:
        for row_g in generator_rows:
            xg = rows[x][row_g[0]]
            if rows[xg] is None:
                rows[xg] = itemgetter(*row_g)(rows[x])
                found.append(xg)
    return FiniteGroup(tuple(rows))


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k (k rotations, k reflections).

    Element f*k + i stands for r^i s^f, so index 0 is the identity.
    """
    if k < 1:
        raise ValueError("dihedral parameter must be positive")
    r = tuple(f * k + (i + 1) % k for f in (0, 1) for i in range(k))
    s = tuple((1 - f) * k + -i % k for f in (0, 1) for i in range(k))
    return _generated(2 * k, (r, s))


def quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; element 2u + s is (-1)^s times unit u
    (units 0=1, 1=i, 2=j, 3=k)."""
    return _generated(8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)))


def heisenberg_group(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p; order p^3, exponent p
    for odd p.  Element a*p^2 + b*p + c is [[1, a, c], [0, 1, b], [0, 0, 1]]."""
    if p < 2 or not is_prime(p):
        raise GroupSpecError(f"Heisenberg parameter must be prime, got {p}")
    abc = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    x = tuple((a + 1) % p * p * p + b * p + (c + b) % p for a, b, c in abc)
    y = tuple(a * p * p + (b + 1) % p * p + c for a, b, c in abc)
    return _generated(p**3, (x, y))


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


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with row-major element indexing (g, h) -> g*|H| + h.
    Row (g, h) is G's row g with each entry x replaced by H's row h
    shifted into block x; each block's ints are made once and shared."""
    n, m = G.order, H.order
    if n * m > MAX_GROUP_ORDER:
        raise GroupSpecError(
            f"product order {n * m} exceeds the configured maximum {MAX_GROUP_ORDER}"
        )
    blocks = [tuple(range(x * m, x * m + m)) for x in range(n)]
    table = [None] * (n * m)
    for h, row_h in enumerate(H.table):
        shifted = [tuple(map(block.__getitem__, row_h)) for block in blocks]
        for g, row_g in enumerate(G.table):
            table[g * m + h] = tuple(chain.from_iterable(map(shifted.__getitem__, row_g)))
    return FiniteGroup(tuple(table))


def group_from_cayley_table(table) -> FiniteGroup:
    """Validate an arbitrary table of ints and return a FiniteGroup with
    the identity relabeled to index 0.

    Associativity is checked exactly by Light's test.  The elements a
    with (xa)y = x(ay) for all x, y form a subgroup, the middle nucleus,
    so a is tested only outside the subgroup H that the elements passed
    so far generate, and H grows by right products with them after each
    pass.  Each pass at least doubles H, so there are at most log2 n
    passes, O(n^2 log n) in all.

    Raises CayleyTableError naming a row that is not a sequence, an entry
    that is not an int, or the failed axiom and a witness.
    """
    table = list(table)
    n = len(table)
    if n == 0:
        raise CayleyTableError("empty table")
    for i, row in enumerate(table):
        try:
            row = table[i] = tuple(row)
        except TypeError:
            raise CayleyTableError(f"row {i} is not a sequence") from None
        if len(row) != n:
            raise CayleyTableError(f"row {i} has length {len(row)}, expected {n}")
        if not all(issubclass(t, int) for t in set(map(type, row))):
            j, x = next((j, x) for j, x in enumerate(row) if not isinstance(x, int))
            raise CayleyTableError(f"entry table[{i}][{j}] = {x!r} is not an int")
        if min(row) < 0 or max(row) >= n:
            j, x = next((j, x) for j, x in enumerate(row) if not 0 <= x < n)
            raise CayleyTableError(
                f"closure fails: entry table[{i}][{j}] = {x} is outside [0, {n})"
            )
    table = tuple(table)
    # each column is made from the rows as the check reaches it
    for i, (row, column) in enumerate(zip(table, zip(*table))):
        if len(set(row)) != n:
            raise CayleyTableError(f"row {i} is not a permutation")
        if len(set(column)) != n:
            raise CayleyTableError(f"column {i} is not a permutation")
    natural = tuple(range(n))
    # the rows are distinct, so at most one is natural
    identity = next((e for e, row in enumerate(table) if row == natural), None)
    if identity is None or tuple(map(itemgetter(identity), table)) != natural:
        raise CayleyTableError("identity fails: no two-sided identity element")
    for i, row in enumerate(table):
        if table[row.index(identity)][i] != identity:
            raise CayleyTableError(f"inverse fails: element {i} has no two-sided inverse")
    # H as a list and as flags, and the passed elements, which generate it
    members, inside, passed = [identity], bytearray(n), []
    inside[identity] = 1
    for a in range(n):
        if inside[a]:
            continue
        # times_a(row of x) is y -> x(ay), table[xa] is y -> (xa)y
        times_a = itemgetter(*table[a])
        for x, row_x in enumerate(table):
            if times_a(row_x) != table[row_x[a]]:
                xa, row_a = table[row_x[a]], table[a]
                c = next(c for c in range(n) if xa[c] != row_x[row_a[c]])
                raise CayleyTableError(f"associativity fails at triple ({x}, {a}, {c})")
        passed.append(a)
        for row_h in map(table.__getitem__, members):  # sees the members it adds
            for y in map(row_h.__getitem__, passed):
                if not inside[y]:
                    inside[y] = 1
                    members.append(y)
    if identity != 0:
        swap = list(range(n))
        swap[identity], swap[0] = 0, identity
        columns_swapped = itemgetter(*swap)
        table = tuple(columns_swapped(itemgetter(*table[old])(swap)) for old in swap)
    return FiniteGroup(table)


@contextmanager
def open_text(path, error):
    """path opened as UTF-8 text; a byte that does not decode raises
    error, naming path and the byte's offset in the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # exc.object is the bytes decoded last, which end at the
            # buffer's position
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise error(f"{path}: byte {at} is not UTF-8") from None


def _cayley_order(fh, path) -> int:
    """Read a Cayley-table file's order line (its first non-empty line),
    refusing an order below 1 or above MAX_GROUP_ORDER."""
    first = next((ln for ln in map(str.strip, fh) if ln), None)
    if first is None:
        raise CayleyTableError(f"{path}: empty file")
    try:
        n = int(first)
    except ValueError:
        n = 0
    if n < 1:
        raise CayleyTableError(f"{path}: bad order line {first!r}")
    if n > MAX_GROUP_ORDER:
        raise CayleyTableError(f"{path}: order {n} exceeds maximum {MAX_GROUP_ORDER}")
    return n


def load_cayley_file(path) -> FiniteGroup:
    """Cayley-table file: line 1 is n, then n lines of n entries.  An
    order above MAX_GROUP_ORDER is refused before any row is read."""
    with open_text(path, CayleyTableError) as fh:
        n = _cayley_order(fh, path)
        rows = [ln for ln in map(str.strip, fh) if ln]
    if len(rows) != n:
        raise CayleyTableError(f"{path}: expected {n} table rows, got {len(rows)}")
    # entries spelled as str(i) spells them share one int object per element
    ids = {str(i): i for i in range(n)}
    for i, ln in enumerate(rows):
        tokens = ln.split()
        try:
            row = tuple(map(ids.__getitem__, tokens))
        except KeyError:
            try:
                row = tuple(map(int, tokens))
            except ValueError:
                raise CayleyTableError(f"{path}: bad table row {ln!r}") from None
        if len(row) != n:
            raise CayleyTableError(f"{path}: row has {len(row)} entries, expected {n}")
        rows[i] = row  # the text row is dropped as it is read
    return group_from_cayley_table(rows)


_TERM_RE = re.compile(
    r"Z(?P<zn>\d+)|D(?P<dk>\d+)|Q8|Heis(?P<hp>\d+)|ElemAb\((?P<ep>\d+),(?P<ek>\d+)\)"
)


def parse_group_spec(text: str) -> FiniteGroup:
    """Build the group described by a spec string.

    Grammar: SPEC := TERM ("x" TERM)* with TERM one of Zk, Dk (order 2k),
    Q8, Heisp, ElemAb(p,k), file:PATH.  A file: term swallows the rest of
    the string (paths may contain "x"), so it must come last.  Each
    term's order is known from its parameters or its file's order line,
    so a spec over MAX_GROUP_ORDER is refused before any table is built.
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
            with open_text(path, CayleyTableError) as fh:
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
        if order > MAX_GROUP_ORDER:
            raise GroupSpecError(f"group order exceeds maximum {MAX_GROUP_ORDER}", pos)
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
        G = direct_product(G, build())
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
