"""Independent oracles the tests compare library answers against.

Everything here is deliberately written from the definitions with no
imports from the package's linear algebra or groupoid code: a dense
Fraction row reduction over the full unknown set (identity column
included, with explicit vanishing equations), and brute-force scans for
classes, centralizers, and hom sets. Slow and obvious on purpose.
"""

from __future__ import annotations

from fractions import Fraction


def dense_derivation_dimension(group, sigma, tau) -> int:
    """Nullity of the full Leibniz system, solved densely over Q.

    Unknowns are lambda[h, g] for every h and every g including the
    identity; the D(e) = 0 convention enters as |G| explicit equations
    rather than by dropping columns, so the variable layout shares
    nothing with the packaged solver.
    """
    elems = group.elements()
    n = len(elems)
    index = {g: i for i, g in enumerate(elems)}

    def var(h, g):
        return index[h] * n + index[g]

    n_vars = n * n
    rows = []
    e = group.identity()
    for h in elems:
        row = [Fraction(0)] * n_vars
        row[var(h, e)] = Fraction(1)
        rows.append(row)
    for g2 in elems:
        for g1 in elems:
            g21 = g2 * g1
            for h in elems:
                row = [Fraction(0)] * n_vars
                row[var(h, g21)] += 1
                row[var(h * tau(g1.inverse()), g2)] -= 1
                row[var(sigma(g2.inverse()) * h, g1)] -= 1
                if any(row):
                    rows.append(row)
    rank = _dense_rank(rows, n_vars)
    return n_vars - rank


def _dense_rank(rows, n_cols) -> int:
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        head = rows[pivot_row][col]
        rows[pivot_row] = [v / head for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b
                           for a, b in zip(rows[r], rows[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rank


def brute_conjugacy_class(group, sigma, tau, a):
    out = set()
    for g in group.elements():
        out.add(sigma(g.inverse()) * a * tau(g))
    return out


def brute_centralizer(group, sigma, tau, u):
    return {z for z in group.elements() if sigma(z) * u == u * tau(z)}


def brute_center(group, sigma, tau):
    elems = group.elements()
    return {z for z in elems
            if all(sigma(z) * p == p * tau(z) for p in elems)}


def brute_hom_set(group, sigma, tau, a, b):
    """All morphism pairs (u, v) with the stated source and target."""
    out = []
    for u in group.elements():
        for v in group.elements():
            if sigma(v.inverse()) * u == a and u * tau(v.inverse()) == b:
                out.append((u, v))
    return out


def class_walk_potential(group, sigma, tau, D):
    """A p with p tau(g) - sigma(g) p = D(g) for an inner D, by walking
    each twisted class; returns (p as a dict over every element, the
    number of classes).

    Each class is started at its largest element index, where p is 0,
    and spread along u -> sigma(s) u tau(s)^-1 for generators s: the
    coefficient of sigma(s) u in D(s) is p(sigma(s) u tau(s)^-1) - p(u).
    In a finite group these moves reach the whole class. For an inner D
    every path gives the same values, so p is the one coboundary witness
    that vanishes at the top of each class.
    """
    from twisted_derivations import GaussianRational
    p = {}
    classes = 0
    for root in sorted(group.elements(), key=lambda g: g.payload, reverse=True):
        if root in p:
            continue
        classes += 1
        p[root] = GaussianRational(0)
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for s in group.generators:
                v = sigma(s) * u * tau(s).inverse()
                if v not in p:
                    p[v] = p[u] + D.value(s).coefficient(sigma(s) * u)
                    frontier.append(v)
    return p, classes


def brute_ordinary_classes(group):
    elems = group.elements()
    seen = set()
    classes = []
    for a in elems:
        if a in seen:
            continue
        cls = {g.inverse() * a * g for g in elems}
        seen |= cls
        classes.append(cls)
    return classes


def central_family_generator_values(group, params, mu, nu, r):
    """[d(x), d(y)] of the Heisenberg central family, written out by hand
    from d(g) = (mu g_a + nu g_b) (g_a, g_b, g_c + sigma_a g_b - sigma_b g_a
    + r): d(x) = mu (1, 0, r - sigma_b) and d(y) = nu (0, 1, sigma_a + r).
    Fed to GeneratorFold, they give the family through the product rule
    instead of its closed form."""
    from twisted_derivations import AlgebraElement
    return [
        AlgebraElement.indicator(group, group.element((1, 0, r - params.sigma_b)), mu),
        AlgebraElement.indicator(group, group.element((0, 1, params.sigma_a + r)), nu),
    ]


class GeneratorFold:
    """A derivation on heisenberg_Z from its values on x and y, folded by
    the product rule D(p g) = D(p) tau(g) + sigma(p) D(g) along the normal
    form g = x^a y^b z^m, m = c - a*b, with z = x y x^-1 y^-1.

    Each piece starts from zero: D(s^-1) = -sigma(s^-1) D(s) tau(s^-1)
    for the letters, then powers of x and y one letter at a time, D(z)
    along its word, and powers of z. The values define a derivation only
    if they respect the relators; the central family's do.
    """

    def __init__(self, group, sigma, tau, gen_values):
        self.group = group
        self.sigma = sigma
        self.tau = tau
        self.gen_values = list(gen_values)
        self._memo = {}
        from twisted_derivations import AlgebraElement
        self._zero = AlgebraElement.zero(group)

    def _letter_value(self, pos, sign):
        key = ("letter", pos, sign)
        if key in self._memo:
            return self._memo[key]
        if sign > 0:
            out = self.gen_values[pos]
        else:
            inv = self.group.generators[pos].inverse()
            out = self.gen_values[pos].left_mul(self.sigma(inv)) \
                .right_mul(self.tau(inv)).scale(-1)
        self._memo[key] = out
        return out

    def _power_value(self, pos, n):
        key = ("power", pos, n)
        if key in self._memo:
            return self._memo[key]
        group = self.group
        gen = group.generators[pos]
        step = 1 if n >= 0 else -1
        letter = gen if step > 0 else gen.inverse()
        d_letter = self._letter_value(pos, step)
        tau_letter = self.tau(letter)
        k = 0
        out = self._memo.setdefault(("power", pos, 0), self._zero)
        while k != n:
            prefix = group.power(gen, k)
            out = out.right_mul(tau_letter) + d_letter.left_mul(self.sigma(prefix))
            k += step
            self._memo[("power", pos, k)] = out
        return out

    def _z_value(self):
        if ("z",) not in self._memo:
            group = self.group
            d = self._zero
            prefix = group.identity()
            for pos, sign in ((0, 1), (1, 1), (0, -1), (1, -1)):
                letter = group.generators[pos]
                if sign < 0:
                    letter = letter.inverse()
                d = d.right_mul(self.tau(letter)) \
                    + self._letter_value(pos, sign).left_mul(self.sigma(prefix))
                prefix = prefix * letter
            self._memo[("z",)] = d
        return self._memo[("z",)]

    def _z_power_value(self, m):
        key = ("zpower", m)
        if key in self._memo:
            return self._memo[key]
        group = self.group
        z = group.element((0, 0, 1))
        d_z = self._z_value()
        if m >= 0:
            base, d_base, count = z, d_z, m
        else:
            z_inv = z.inverse()
            d_base = d_z.left_mul(self.sigma(z_inv)).right_mul(self.tau(z_inv)).scale(-1)
            base, count = z_inv, -m
        out = self._zero
        acc = group.identity()
        for _ in range(count):
            out = out.right_mul(self.tau(base)) + d_base.left_mul(self.sigma(acc))
            acc = acc * base
        self._memo[key] = out
        return out

    def value(self, g):
        if g.payload in self._memo:
            return self._memo[g.payload]
        group = self.group
        a, b, c = g.payload
        m = c - a * b
        x, y = group.generators
        z = group.element((0, 0, 1))
        d_xa = self._power_value(0, a)
        d_yb = self._power_value(1, b)
        d_zm = self._z_power_value(m)
        xa = group.power(x, a)
        yb = group.power(y, b)
        zm = group.power(z, m)
        d_tail = d_yb.right_mul(self.tau(zm)) + d_zm.left_mul(self.sigma(yb))
        out = d_xa.right_mul(self.tau(yb * zm)) + d_tail.left_mul(self.sigma(xa))
        self._memo[g.payload] = out
        return out


def _unitriangular(p):
    a, b, c = p
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def _matmul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def _unitriangular_inverse(m):
    # with N = m - I nilpotent of order 3, m^-1 = I - N + N^2
    n = tuple(tuple(m[i][j] - (i == j) for j in range(3)) for i in range(3))
    n2 = _matmul(n, n)
    return tuple(tuple((i == j) - n[i][j] + n2[i][j] for j in range(3))
                 for i in range(3))


def heisenberg_word_image(p, q, g):
    """phi(g) for the endomorphism of heisenberg_Z with phi(x) = p and
    phi(y) = q, g = (a, b, c) an integer triple, as a triple.

    The images are folded over the normal-form word x^a y^b z^(c - a*b),
    z = x y x^-1 y^-1, one letter at a time: each triple is its 3x3
    unitriangular matrix [[1, a, c], [0, 1, b], [0, 0, 1]], and phi(z)
    is the commutator of the images' matrices, so no triple formula of
    the package is used. Slow and obvious on purpose.
    """
    a, b, c = g
    mp, mq = _unitriangular(p), _unitriangular(q)
    mz = _matmul(_matmul(mp, mq),
                 _matmul(_unitriangular_inverse(mp), _unitriangular_inverse(mq)))
    out = _unitriangular((0, 0, 0))
    for base, n in ((mp, a), (mq, b), (mz, c - a * b)):
        letter = base if n >= 0 else _unitriangular_inverse(base)
        for _ in range(abs(n)):
            out = _matmul(out, letter)
    return (out[0][1], out[1][2], out[0][2])
