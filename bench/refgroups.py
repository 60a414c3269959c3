"""The benchmark's own groups, endomorphisms and exact arithmetic.

Output checks must not call the library code they check, so every fact a
check compares against is derived here from the defining formulas: the
builtin finite families in the element order the library documents,
direct products that the benchmark hands to the program as Cayley-table
files, and the integer Heisenberg group with its word-metric balls.

Gaussian rationals are (Fraction, Fraction) pairs; group-algebra
elements are dicts from element (index or triple) to such a pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

ZERO = (Fraction(0), Fraction(0))


class FiniteRef:
    """A finite group as payloads, a product on payloads and a Cayley table.

    spec is the CLI group spec; labels are the names the CLI prints, which
    for a file group without labels are the element indices.
    """

    def __init__(self, name, spec, payloads, mul, labels=None):
        self.name = name
        self.spec = spec
        self.payloads = list(payloads)
        self.index = {p: i for i, p in enumerate(self.payloads)}
        self.order = len(self.payloads)
        self.table = [[self.index[mul(p, q)] for q in self.payloads]
                      for p in self.payloads]
        self.labels = labels or [str(i) for i in range(self.order)]
        self.identity = next(e for e in range(self.order)
                             if all(self.table[e][x] == x for x in range(self.order)))
        self.inv = [next(h for h in range(self.order)
                         if self.table[g][h] == self.identity)
                    for g in range(self.order)]
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}

    def mul(self, g, h):
        return self.table[g][h]

    def endo_table(self, fn):
        """Index table of the map given on payloads."""
        return [self.index[fn(p)] for p in self.payloads]

    def inner_table(self, x):
        xi = self.inv[x]
        return [self.table[self.table[x][g]][xi] for g in range(self.order)]

    def generators(self):
        """Smallest index not yet generated, adjoined repeatedly.

        This is the documented rule the program uses to pick generators,
        whose labels key an images:{...} endomorphism spec.
        """
        gens = []
        closure = {self.identity}
        while len(closure) < self.order:
            gens.append(min(i for i in range(self.order) if i not in closure))
            closure = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for w in frontier:
                    for s in gens:
                        p = self.table[w][s]
                        if p not in closure:
                            closure.add(p)
                            nxt.append(p)
                frontier = nxt
        return gens or [self.identity]

    def is_hom(self, table):
        t = self.table
        return all(table[t[g][h]] == t[table[g]][table[h]]
                   for g in range(self.order) for h in range(self.order))


# -- builtin families, in the element order the library documents ----------


def cyclic(n):
    labels = ["e"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return FiniteRef(f"cyclic_{n}", f"builtin:cyclic_{n}", range(n),
                     lambda p, q: (p + q) % n, labels)


def dihedral(n):
    # r^i s^j as (i, j), index i + j*n, with s r = r^-1 s
    def mul(p, q):
        sign = -1 if p[1] else 1
        return ((p[0] + sign * q[0]) % n, p[1] ^ q[1])

    payloads = [(i, j) for j in (0, 1) for i in range(n)]
    labels = []
    for i, j in payloads:
        rot = "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
        labels.append(rot if j == 0 else ("s" if i == 0 else f"{rot}s"))
    return FiniteRef(f"dihedral_{n}", f"builtin:dihedral_{n}", payloads, mul,
                     labels)


def symmetric(n):
    payloads = sorted(permutations(range(n)))
    return FiniteRef(f"symmetric_{n}", f"builtin:symmetric_{n}", payloads,
                     lambda p, q: tuple(p[q[x]] for x in range(n)),
                     ["".join(str(v) for v in p) for p in payloads])


def quaternion8():
    # units (axis, sign); axis 0 is 1 and axes 1, 2, 3 are i, j, k
    def mul(p, q):
        (a1, s1), (a2, s2) = p, q
        if a1 == 0 or a2 == 0:
            return (a1 or a2, s1 * s2)
        if a1 == a2:
            return (0, -s1 * s2)
        sign = 1 if (a1, a2) in ((1, 2), (2, 3), (3, 1)) else -1
        return (6 - a1 - a2, sign * s1 * s2)

    payloads = [(axis, sign) for axis in range(4) for sign in (1, -1)]
    return FiniteRef("quaternion8", "builtin:quaternion8", payloads, mul,
                     ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def heisenberg_mod(n):
    payloads = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    return FiniteRef(
        f"heisenberg_mod_{n}", f"builtin:heisenberg_mod_{n}", payloads,
        lambda p, q: ((p[0] + q[0]) % n, (p[1] + q[1]) % n,
                      (p[2] + q[2] + p[0] * q[1]) % n),
        ["[{},{},{}]".format(*p) for p in payloads])


def direct_product(left, right, spec):
    """left x right, element (i, j) at index i*|right| + j, unlabelled."""
    payloads = [(i, j) for i in range(left.order) for j in range(right.order)]
    return FiniteRef(
        f"{left.name}_x_{right.name}", spec, payloads,
        lambda p, q: (left.table[p[0]][q[0]], right.table[p[1]][q[1]]))


# -- endomorphisms beyond id and inner, from each family's structure --------
#
# Each function returns the payload map of a homomorphism G -> G chosen
# with rng; several are non-injective on purpose, since the solver must
# handle sigma, tau that are not automorphisms.


def family_endo(kind, param, rng):
    if kind == "cyclic":
        m = rng.randrange(param)
        return lambda k: (m * k) % param
    if kind == "dihedral":
        k, l = rng.randrange(param), rng.randrange(param)
        return lambda p: ((k * p[0]) % param, 0) if p[1] == 0 \
            else ((k * p[0] + l) % param, 1)
    if kind == "quaternion8":
        axis = rng.randrange(1, 4)
        # the sign character with kernel <axis>, landing in {1, -1}
        return lambda p: (0, 1 if p[0] in (0, axis) else -1)
    if kind == "symmetric":
        t = tuple([1, 0] + list(range(2, param)))

        def parity(p):
            return sum(1 for i in range(param) for j in range(i + 1, param)
                       if p[i] > p[j]) % 2

        return lambda p: t if parity(p) else tuple(range(param))
    if kind == "heisenberg_mod":
        n = param
        if rng.random() < 0.5:
            alpha, beta = rng.randrange(n), rng.randrange(n)
            return lambda p: (0, 0, (alpha * p[0] + beta * p[1]) % n)
        k = rng.randrange(n)
        return lambda p: ((k * p[0]) % n, (k * p[1]) % n, (k * k * p[2]) % n)
    raise ValueError(kind)


# -- exact Gaussian-rational group-algebra arithmetic on index elements -----


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def clean(terms):
    return {g: c for g, c in terms.items() if c[0] or c[1]}


def right_translate(group_mul, p, x):
    """p * x for a group element x: the coefficient at h*x is p(h)."""
    return {group_mul(h, x): c for h, c in p.items()}


def left_translate(group_mul, x, p):
    return {group_mul(x, h): c for h, c in p.items()}


def combine(a, b, sign=1):
    out = dict(a)
    for g, c in b.items():
        prev = out.get(g, ZERO)
        out[g] = gadd(prev, c) if sign > 0 else gsub(prev, c)
    return clean(out)


def parse_terms(terms, element):
    """{"terms": [{"elem", "re", "im"}]} to a dict; element maps elem JSON."""
    out = {}
    for entry in terms:
        g = element(entry["elem"])
        c = (Fraction(entry.get("re", "0")), Fraction(entry.get("im", "0")))
        out[g] = gadd(out.get(g, ZERO), c)
    return clean(out)


def terms_json(terms, element_json):
    return {"terms": [{"elem": element_json(g), "re": str(c[0]), "im": str(c[1])}
                      for g, c in sorted(terms.items())]}


# -- union-find, shared by the finite and Heisenberg class counts -----------


class UnionFind:
    def __init__(self, items):
        self.parent = {a: a for a in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self):
        out = {}
        for a in self.parent:
            out.setdefault(self.find(a), []).append(a)
        return list(out.values())


def twisted_classes(group, sigma, tau):
    """Orbits of a -> sigma(g^-1) a tau(g) over the whole group."""
    t = group.table
    uf = UnionFind(range(group.order))
    for g in range(group.order):
        s_inv = sigma[group.inv[g]]
        tg = tau[g]
        for a in range(group.order):
            uf.union(a, t[t[s_inv][a]][tg])
    return uf.groups()


# -- the integer Heisenberg group ------------------------------------------


def hmul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def hinv(p):
    return (-p[0], -p[1], p[0] * p[1] - p[2])


def hconj(x, g):
    """x g x^-1, which only sees the (a, b) part of x."""
    return (g[0], g[1], g[2] + x[0] * g[1] - x[1] * g[0])


def hlabel(p):
    return "[{},{},{}]".format(*p)


def heis_ball(radius):
    """Words of length <= radius in x, y and their inverses, as a set."""
    letters = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for letter in letters:
                q = hmul(p, letter)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def heis_twisted_components(ball, x, y):
    """Components of a ~ sigma(g^-1) a tau(g), g in the ball, inside the ball.

    sigma and tau are conjugation by x and y.
    """
    uf = UnionFind(ball)
    for g in ball:
        s_inv = hconj(x, hinv(g))
        tg = hconj(y, g)
        for a in ball:
            b = hmul(hmul(s_inv, a), tg)
            if b in ball:
                uf.union(a, b)
    return uf.groups()


def heis_centralizer_condition(u, x, y):
    """(alpha, beta) with Z(u) = {z : alpha z_a + beta z_b = 0}."""
    return (u[1] - x[1] + y[1], x[0] - y[0] - u[0])
