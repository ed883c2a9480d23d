"""The benchmark's own finite groups, input files and reference answers.

Nothing here imports pgk: every reference answer is computed from the
group's multiplication (its Cayley table), so a defect in the program
under test cannot hide in the answer it is checked against.

A group is named in pgk's spec syntax ("Q8xZ45", "ElemAb(3,3)xZ20",
"D45xZ7", "Heis5").  Elements of a direct product are encoded row-major
from the factors' element indices; identity is index 0 in every factor.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_TERM = re.compile(r"Z(\d+)|D(\d+)|Q8|Heis(\d+)|ElemAb\((\d+),(\d+)\)")

# Q8 units 1, i, j, k as 0..3: _Q8[(u, w)] = (sign, unit) of u*w
_Q8 = {}
for _u in range(4):
    _Q8[(0, _u)] = _Q8[(_u, 0)] = (0, _u)
for _u in range(1, 4):
    _Q8[(_u, _u)] = (1, 0)
for _a, _b, _c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _Q8[(_a, _b)] = (0, _c)
    _Q8[(_b, _a)] = (1, _c)


class Factor:
    """One direct factor: its size and multiplication."""

    def __init__(self, size, mul):
        self.size = size
        self.mul = mul
        self._powers = {}

    def powers(self, a):
        """[a^0, a^1, ..., a^(o(a)-1)]"""
        if a not in self._powers:
            pw = [0]
            x = a
            while x != 0:
                pw.append(x)
                x = self.mul(x, a)
            self._powers[a] = pw
        return self._powers[a]


def _cyclic(n):
    return Factor(n, lambda a, b: (a + b) % n)


def _dihedral(k):
    # element f*k + i is r^i s^f
    def mul(a, b):
        f1, i1 = divmod(a, k)
        f2, i2 = divmod(b, k)
        i = (i1 + i2) % k if f1 == 0 else (i1 - i2) % k
        return (f1 ^ f2) * k + i

    return Factor(2 * k, mul)


def _quaternion():
    # element 2u + s is (-1)^s times unit u
    def mul(a, b):
        u1, s1 = divmod(a, 2)
        u2, s2 = divmod(b, 2)
        sign, unit = _Q8[(u1, u2)]
        return unit * 2 + (s1 ^ s2 ^ sign)

    return Factor(8, mul)


def _heisenberg(p):
    # (a, b, c) = a*p^2 + b*p + c; (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')
    def mul(x, y):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        a2, r = divmod(y, p * p)
        b2, c2 = divmod(r, p)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    return Factor(p**3, mul)


def parse_factors(name: str) -> list[Factor]:
    # no term contains an "x", so splitting on it is safe
    factors = []
    for term in name.split("x"):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"unknown group term {term!r} in {name!r}")
        zn, dk, hp, ep, ek = m.groups()
        if zn:
            factors.append(_cyclic(int(zn)))
        elif dk:
            factors.append(_dihedral(int(dk)))
        elif hp:
            factors.append(_heisenberg(int(hp)))
        elif ep:
            factors.extend(_cyclic(int(ep)) for _ in range(int(ek)))
        else:
            factors.append(_quaternion())
    return factors


class Group:
    """A direct product of factors, with the cyclic structure every
    reference answer is derived from."""

    def __init__(self, name: str):
        self.name = name
        self.factors = parse_factors(name)
        self.order = math.prod(f.size for f in self.factors)
        self._cyclic = None

    def components(self, x):
        comps = []
        for f in reversed(self.factors):
            x, r = divmod(x, f.size)
            comps.append(r)
        return comps[::-1]

    def encode(self, comps):
        x = 0
        for f, c in zip(self.factors, comps):
            x = x * f.size + c
        return x

    def table(self):
        """The full Cayley table as a list of rows."""
        comps = [self.components(x) for x in range(self.order)]
        rows = []
        for ca in comps:
            rows.append(
                [self.encode([f.mul(x, y) for f, x, y in zip(self.factors, ca, cb)]) for cb in comps]
            )
        return rows

    def cyclic_subgroups(self):
        """Each cyclic subgroup once, as (members, generators), members
        in power order from the identity."""
        if self._cyclic is None:
            seen = bytearray(self.order)
            subs = []
            for x in range(self.order):
                if seen[x]:
                    continue
                pws = [f.powers(c) for f, c in zip(self.factors, self.components(x))]
                o = math.lcm(*(len(pw) for pw in pws))
                members = [self.encode([pw[i % len(pw)] for pw in pws]) for i in range(o)]
                gens = [members[i] for i in range(1, o) if math.gcd(i, o) == 1] or [0]
                for g in gens:
                    seen[g] = 1
                subs.append((members, gens))
            self._cyclic = subs
        return self._cyclic

    def structure(self):
        """Element orders, in-counts #{y : x in <y>} and the generator
        count of <x>."""
        orders = [0] * self.order
        cin = [0] * self.order
        gens = [0] * self.order
        for members, gs in self.cyclic_subgroups():
            for g in gs:
                orders[g] = len(members)
                gens[g] = len(gs)
            for y in members:
                cin[y] += len(gs)
        return orders, cin, gens

    # --- graphs, as edge or arc lists on the group's own indices -------

    def power_edges(self):
        edges = []
        for members, gs in self.cyclic_subgroups():
            top = set(gs)
            lower = [y for y in members if y not in top]
            for i, g in enumerate(gs):
                edges.extend((g, y) for y in lower)
                edges.extend((g, h) for h in gs[i + 1 :])
        return edges

    def maximal_cyclic_masks(self):
        """One bitmask per maximal cyclic subgroup."""
        _, cin, gens = self.structure()
        # <g> is maximal iff every y with g in <y> generates <g>
        return [
            sum(1 << y for y in members)
            for members, gs in self.cyclic_subgroups()
            if cin[gs[0]] == gens[gs[0]]
        ]

    def enhanced_edges(self):
        n = self.order
        keys = set()
        for mask in self.maximal_cyclic_masks():
            members = [v for v in range(n) if mask >> v & 1]
            for i, u in enumerate(members):
                keys.update(u * n + v for v in members[i + 1 :])
        return [divmod(k, n) for k in keys]

    def directed_arcs(self):
        return [(g, y) for members, gs in self.cyclic_subgroups() for g in gs for y in members]


# --- reference summaries --------------------------------------------------
#
# A summary is what check.summarize reads off an output file: vertex
# count, edge or arc count, the colors multiset, a degree multiset and,
# for digraphs, the undirected shadow's edge count and degree multiset.


def multiset(items):
    return sorted([list(k) if isinstance(k, tuple) else k, c] for k, c in Counter(items).items())


def power_summary(G: Group) -> dict:
    orders, cin, gens = G.structure()
    # N(x) = (<x> minus x) + (elements generating x's supergroups minus x),
    # where the generators of <x> other than x are counted twice
    deg = [(orders[x] - 1) + (cin[x] - 1) - (gens[x] - 1) for x in range(G.order)]
    return {"directed": False, "n": G.order, "m": sum(deg) // 2, "colors": None, "deg": multiset(deg)}


def enhanced_summary(G: Group) -> dict:
    n = G.order
    nb = [0] * n
    for mask in G.maximal_cyclic_masks():
        for v in range(n):
            if mask >> v & 1:
                nb[v] |= mask
    deg = [nb[v].bit_count() - 1 for v in range(n)]
    return {"directed": False, "n": n, "m": sum(deg) // 2, "colors": None, "deg": multiset(deg)}


def cdpow_summary(G: Group, shadow: bool) -> dict:
    """Colored directed power graph: color and out-degree are o(x), the
    in-degree is #{y : x in <y>}; its shadow is the power graph."""
    orders, cin, _ = G.structure()
    out = {
        "directed": True,
        "n": G.order,
        "m": sum(orders),
        "colors": sorted(orders),
        "deg": multiset(zip(orders, orders, cin)),
    }
    if shadow:
        pow_ = power_summary(G)
        out["shadow_m"] = pow_["m"]
        out["shadow_deg"] = pow_["deg"]
    return out


# --- input files, relabelled by a seeded permutation ---------------------


def write_graph(path, n, pairs, perm, directed):
    """Write in pgk's graph-file format, vertex x renamed perm[x]."""
    if directed:
        lines = sorted((perm[u], perm[v]) for u, v in pairs)
    else:
        lines = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{'digraph' if directed else 'graph'} {n}\nnocolors\n")
        fh.write("".join(f"{u} {v}\n" for u, v in lines))


def write_cayley(path, G: Group, perm):
    """Write the Cayley table with element x renamed perm[x]."""
    n = G.order
    table = G.table()
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for i in range(n):
            row = table[inv[i]]
            fh.write(" ".join(str(perm[row[inv[j]]]) for j in range(n)) + "\n")


def permutation(n, rng, identity_off_zero=False):
    perm = list(range(n))
    rng.shuffle(perm)
    if identity_off_zero and n > 1 and perm[0] == 0:
        j = rng.randrange(1, n)
        perm[0], perm[j] = perm[j], perm[0]
    return perm
