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
    Fed to DerivationTable.from_generator_values, they give the family
    through the product-rule fold instead of its closed form."""
    from twisted_derivations import AlgebraElement
    return [
        AlgebraElement.indicator(group, group.element((1, 0, r - params.sigma_b)), mu),
        AlgebraElement.indicator(group, group.element((0, 1, params.sigma_a + r)), nu),
    ]
