"""(sigma, tau)-derivations of group algebras.

A derivation here is a linear map D on the group algebra with

    D(g2 g1) = D(g2) tau(g1) + sigma(g2) D(g1)

for group elements (extended linearly), together with the standing
convention D(e) = 0. Writing D(g) = sum_h lambda(h, g) h, the rule reads
componentwise

    lambda(h, g2 g1) = lambda(h tau(g1^-1), g2) + lambda(sigma(g2^-1) h, g1).

A derivation is a value table or a rule, on either group kind. Tables
hold the solver's basis vectors and file input; a file table on the
Heisenberg group is zero on the ball it was read on. Rules are closed
forms, memoized as they are evaluated: the coboundary p tau(g) -
sigma(g) p of an algebra element p, which for a Potential is its
quasi-inner derivation, and the central d(g) = phi(g) sigma(g) a.
"""

from __future__ import annotations

from itertools import product

from .algebra import (
    ZERO,
    AlgebraElement,
    GaussianRational,
    _coerce,
)
from .errors import (
    GroupMismatch,
    GroupTooLarge,
    NotAHomomorphismToC,
    NotCentralElement,
    NotSupportedForScope,
    ScopeExceeded,
    SpecError,
)
from .groups import GroupElement, twisted_class_indices
from .linalg import FieldEliminator, IntegerRowReducer

SOLVER_MAX_ORDER = 64


class DerivationTable:
    """Values of a derivation, D(g) as an AlgebraElement per element g,
    from exactly one of:
      values:  an explicit dict; a miss is zero on a finite group and
               raises ScopeExceeded on heisenberg_Z, where it covers a ball
      rule:    a closed-form callable, total, memoized as it is evaluated
    """

    def __init__(self, group, sigma, tau, values=None, rule=None):
        self.group = group
        self.sigma = sigma
        self.tau = tau
        self.values = values
        self.rule = rule
        self._memo = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, group, sigma, tau, values):
        clean = {}
        for g, val in values.items():
            group._check(g)
            if not isinstance(val, AlgebraElement):
                raise GroupMismatch(
                    f"value at {group.label(g)} is not an algebra element")
            clean[g] = val
        return cls(group, sigma, tau, values=clean)

    @classmethod
    def from_rule(cls, group, sigma, tau, rule):
        return cls(group, sigma, tau, rule=rule)

    @classmethod
    def zero(cls, group, sigma, tau):
        return cls.from_rule(group, sigma, tau,
                             lambda g: AlgebraElement.zero(group))

    # -- evaluation --------------------------------------------------------

    def value(self, g) -> AlgebraElement:
        self.group._check(g)
        if self.rule is None:
            val = self.values.get(g)
            if val is None:
                if self.group.kind == "finite":
                    return AlgebraElement.zero(self.group)
                raise ScopeExceeded(
                    f"derivation table has no value at {self.group.label(g)}",
                    element=self.group.element_to_json(g))
            return val
        memo = self._memo
        key = g.payload
        if key not in memo:
            memo[key] = self.rule(g)
        return memo[key]

    def lam(self, h, g) -> GaussianRational:
        """The coefficient lambda(h, g) of h in D(g)."""
        return self.value(g).coefficient(h)

    # -- comparison and serialization --------------------------------------

    def agrees_with(self, other, scope) -> bool:
        return all(self.value(g) == other.value(g) for g in scope)

    def __eq__(self, other):
        if not isinstance(other, DerivationTable):
            return NotImplemented
        if self.group is not other.group:
            return False
        return self.agrees_with(other, self.group.ball(None))

    def to_json(self, scope=None):
        """{"D": the nonzero values on scope}, by default group.ball(None)."""
        group = self.group
        out = {}
        for g in group.ball(None) if scope is None else scope:
            val = self.value(g)
            if not val.is_zero():
                out[_element_key(group, g)] = val.to_json()
        return {"D": out}

    @classmethod
    def from_json(cls, group, sigma, tau, obj, radius=None):
        """The table of a {"D": ...} object.

        Given a radius, it is read on group.ball(radius): elements of the
        ball that the object omits are zero, as in to_json, which skips
        zero values, and a key outside the ball raises ScopeExceeded.
        Two keys naming one element raise SpecError.
        """
        table = obj.get("D", {})
        if not isinstance(table, dict):
            raise SpecError("'D' must map element keys to algebra elements")
        scope = () if radius is None else group.ball(radius)
        values = dict.fromkeys(scope, AlgebraElement.zero(group))
        keys = {}
        for key, val in table.items():
            g = group.element_from_json(_parse_element_key(key))
            if g in keys:
                raise SpecError(
                    f"keys {keys[g]!r} and {key!r} both name element "
                    f"{group.label(g)}", keys=[keys[g], key])
            if radius is not None and g not in values:
                raise ScopeExceeded(
                    f"derivation table key {key!r} lies outside the ball "
                    f"of radius {radius}",
                    element=group.element_to_json(g), radius=radius)
            keys[g] = key
            values[g] = AlgebraElement.from_json(group, val)
        return cls.from_table(group, sigma, tau, values)


def _element_key(group, g):
    if group.kind == "finite":
        return str(g.payload)
    return "[{},{},{}]".format(*g.payload)


def _parse_element_key(key):
    key = key.strip()
    try:
        if key.startswith("["):
            return [int(v) for v in key.strip("[]").split(",")]
        return int(key)
    except ValueError:
        raise SpecError(f"{key!r} is not an element index or [a,b,c] key")


class Potential(AlgebraElement):
    """A finitely supported function on group elements: the algebra
    element sum_h P(h) h, read as a function of h."""

    __slots__ = ()

    @property
    def values(self):
        return self.terms

    __call__ = AlgebraElement.coefficient
    json_key = "values"


class AdditiveCharacterOnG:
    """A homomorphism from the group to the additive complex numbers.

    On a finite group every such map is zero, since n*phi(g) = phi(g^n)
    and every element has finite order; nonzero generator values raise
    NotAHomomorphismToC with the torsion witness. On heisenberg_Z the
    two generator values (mu, nu) define phi((a, b, c)) = a*mu + b*nu,
    which is the general additive character: the abelianization has rank
    two and the commutator z dies.
    """

    def __init__(self, group, gen_values):
        self.group = group
        self.gen_values = [_coerce(v) for v in gen_values]
        if len(self.gen_values) != len(group.generators):
            raise NotAHomomorphismToC(
                f"expected {len(group.generators)} generator values")
        if group.kind == "finite":
            for gen, v in zip(group.generators, self.gen_values):
                if v:
                    n = _element_order(group, gen)
                    raise NotAHomomorphismToC(
                        f"generator {group.label(gen)} has order {n}, so "
                        f"phi({group.label(gen)}) must be 0",
                        generator=group.element_to_json(gen), order=n)

    @classmethod
    def zero(cls, group):
        return cls(group, [0] * len(group.generators))

    def __call__(self, g) -> GaussianRational:
        self.group._check(g)
        if self.group.kind == "finite":
            return ZERO
        a, b, _c = g.payload
        mu, nu = self.gen_values
        # one scalar from the parts: central derivations call this per element
        return GaussianRational(a * mu.re + b * nu.re, a * mu.im + b * nu.im)

    def is_zero(self):
        return not any(self.gen_values)


def _element_order(group, g):
    n = 1
    acc = g
    e = group.identity()
    while acc != e:
        acc = acc * g
        n += 1
    return n


class BallPairs:
    """Every pair (g2, g1) of group.ball(radius) x group.ball(radius), in
    canonical order (g2 first), iterated lazily: its len is |B(R)|^2 but
    no pair list is built. check_leibniz reads the radius from it."""

    def __init__(self, group, radius):
        self.radius = radius
        self.ball = group.ball(radius)

    def __len__(self):
        return len(self.ball) ** 2

    def __iter__(self):
        return product(self.ball, self.ball)


class InBallPairs:
    """The pairs (g2, g1) of group.ball(radius) x group.ball(radius) whose
    product g2 g1 stays in the ball, in canonical order (g2 first),
    iterated lazily, and no pair list is built. An iteration run to the
    end records how many pairs it gave; len returns that count, and walks
    B(R) x B(R) once to take it only if no iteration has finished."""

    def __init__(self, group, radius):
        self.ball = group.ball(radius)
        self._count = None

    def __len__(self):
        if self._count is None:
            for _ in self:
                pass
        return self._count

    def __iter__(self):
        in_ball = set(self.ball)
        count = 0
        for g2, g1 in product(self.ball, self.ball):
            if g2 * g1 in in_ball:
                count += 1
                yield g2, g1
        self._count = count


def leibniz_pairs(D: DerivationTable, radius):
    """The pairs (g2, g1) of group.ball(radius) that check_leibniz answers
    for: None on a finite group (every pair); on heisenberg_Z every pair
    for a closed form, as BallPairs, and for a table read on the ball the
    pairs whose product stays in it, as InBallPairs.
    """
    group = D.group
    if group.kind == "finite":
        return None
    if D.rule is not None:
        return BallPairs(group, radius)
    return InBallPairs(group, radius)


def check_leibniz(D: DerivationTable, pairs=None):
    """Exact check of D(g2 g1) = D(g2) tau(g1) + sigma(g2) D(g1).

    pairs is what leibniz_pairs gives: None for every pair of a finite
    group, BallPairs for every pair of B(R) = group.ball(R), or any other
    iterable of pairs, such as InBallPairs.

    None and BallPairs are proved from a cover times letters: on a finite
    group the pairs (g, s) for every g and generator s; on B(R) the pairs
    (g, s) for g in B(2R - 1) (B(0) when R = 0) and s in the generators
    and their inverses. At (e, s) the rule reads D(e) tau(s) = 0, so
    D(e) = 0, which is the rule at every (g2, e). If it holds at (g2, w),
    expanding D((g2 w) s) by the rule at (g2 w, s), then D(g2 w) by the
    rule at (g2, w), and collecting D(w) tau(s) + sigma(w) D(s) into
    D(w s) by the rule at (w, s), gives it at (g2, w s). By induction it
    holds at (g2, w) for every word w in the letters. In a finite group
    every element is a positive word in the generators. In the ball, for
    g2 in B(R) and w of length < R, both g2 w in B(R) B(R - 1) = B(2R - 1)
    and w lie in the cover, so every pair of B(R) x B(R) is reached. The
    cover reads D on B(2R), where only a closed form is known, so
    leibniz_pairs gives BallPairs only for a rule-backed D; a table read
    on a ball is unknown off it, and its in-ball pairs are scanned
    directly. The pairs are scanned only when the proof fails, to decide
    and to name the first violation.

    Per-factor work runs once per run of one left factor, not once per
    pair: sigma(g2) and D(g2) are read when g2 changes, and tau(g1) and
    D(g1) once per distinct right factor. The right side is built as a
    terms dict, with coefficients that cancel dropped, and compared with
    D(g2 g1).terms; algebra elements are built for a violation only. The
    answer does not depend on the order of the pairs; only the cost does.

    Returns {"ok": True, "violations": []} or {"ok": False, "violations":
    [(g2, g1, lhs, rhs)]}: the first violation in the order of pairs, or
    in canonical order (g2 first) when pairs is None.
    """
    group = D.group
    sigma, tau, value, multiply = D.sigma, D.tau, D.value, group.multiply

    def first_violation(pairs):
        left = None
        right = {}  # g1 -> (tau(g1), D(g1).terms)
        for g2, g1 in pairs:
            lhs = value(g2 * g1)
            if g2 is not left:  # product() repeats one object per run
                left = g2
                sigma_g2, d_g2 = sigma(g2), value(g2).terms
            factor = right.get(g1)
            if factor is None:
                factor = right[g1] = tau(g1), value(g1).terms
            tau_g1, d_g1 = factor
            # D(g2) tau(g1) + sigma(g2) D(g1); each product by one group
            # element is injective on the support, so only the sum merges
            rhs = {multiply(u, tau_g1): c for u, c in d_g2.items()}
            for v, c in d_g1.items():
                h = multiply(sigma_g2, v)
                prev = rhs.get(h)
                if prev is None:
                    rhs[h] = c
                else:
                    c = prev + c
                    if c:
                        rhs[h] = c
                    else:
                        del rhs[h]
            if lhs.terms != rhs:
                return g2, g1, lhs, AlgebraElement(group, rhs)
        return None

    gens = group.generators
    proof = None
    if pairs is None:
        elems = group.ball(None)
        proof = product(elems, gens)
        pairs = product(elems, elems)
    elif isinstance(pairs, BallPairs):
        cover = group._word_payloads(max(2 * pairs.radius - 1, 0))
        proof = product([GroupElement(group, p) for p in cover],
                        gens + [s.inverse() for s in gens])
    if proof is None or first_violation(proof) is not None:
        violation = first_violation(pairs)
        if violation is not None:
            return {"ok": False, "violations": [violation]}
    return {"ok": True, "violations": []}


def inner_derivation(p: AlgebraElement, sigma, tau) -> DerivationTable:
    """The inner derivation x -> p tau(x) - sigma(x) p."""
    return DerivationTable.from_rule(
        p.group, sigma, tau, lambda g: p.right_mul(tau(g)) - p.left_mul(sigma(g)))


def quasi_inner_from_potential(P: Potential, sigma, tau) -> DerivationTable:
    """The coboundary of P: D(g) = sum_h (P(h tau(g^-1)) - P(sigma(g^-1) h)) h.

    That is inner_derivation(P). The associated character is chi(u, v) =
    P(target) - P(source), which is additive on composable morphisms and
    vanishes on loops, so the result is quasi-inner by construction.
    """
    return inner_derivation(P, sigma, tau)


def is_sigma_tau_central(a, sigma, tau):
    """Does a tau(v) = sigma(v) a hold for all v?

    v runs over the generators, on both group kinds: both sides are
    multiplicative in v, so the v that pass form a subgroup, the whole
    group once it holds the generators. The witness is the first failing
    generator.
    """
    for v in a.group.generators:
        if a * tau(v) != sigma(v) * a:
            return False, v
    return True, None


def central_derivation(a, phi: AdditiveCharacterOnG, sigma, tau) -> DerivationTable:
    """D(g) = phi(g) sigma(g) a for a (sigma, tau)-central element a.

    With phi nonzero the result is never quasi-inner: (sigma(g) a, g) is
    a loop carrying coefficient phi(g).
    """
    group = a.group
    ok, witness = is_sigma_tau_central(a, sigma, tau)
    if not ok:
        raise NotCentralElement(
            f"a tau(v) != sigma(v) a at v = {group.label(witness)}",
            witness=group.element_to_json(witness))

    def rule(g):
        c = phi(g)
        if not c:
            return AlgebraElement.zero(group)
        return AlgebraElement.indicator(group, sigma(g) * a, c)

    return DerivationTable.from_rule(group, sigma, tau, rule)


def _require_finite_tables(group, sigma, tau):
    if group.kind != "finite":
        raise NotSupportedForScope("finite groups only")
    if sigma.table is None or tau.table is None:
        raise NotSupportedForScope("endomorphisms must be total tables")


def derivation_space(group, sigma, tau):
    """Solve the componentwise Leibniz system exactly.

    Unknowns are lambda(h, g) for h in G and g != e; the D(e) = 0
    convention removes the identity column block. Returns the nullspace
    dimension and a basis of DerivationTables, one per free column of
    the reduced system, in canonical column order.

    Two facts shrink the system without changing its solutions.

    Generator rows suffice: the rule at the pairs (g2, s) for generators
    s proves it at every pair (see check_leibniz). So only the rows
    (g2, s) are fed.

    The system is block diagonal by twisted class. The unknown
    lambda(h, g) is the morphism (h, g) of the action groupoid (see
    groupoid.py), and the row at (g2, s) and h says chi(c) = chi(f) +
    chi(k) for f = (sigma(g2^-1) h, s), k = (h tau(s^-1), g2) and their
    composite c = (h, g2 s). The composite shares its source a with f,
    and k starts at the target of f, so all three morphisms lie in the
    component of a. Each class C therefore gets its own reducer, fed
    the rows with a in C (h = sigma(g2) sigma(s) a runs over G exactly
    once as a does), over the columns {(sigma(g) a, g) : a in C, g != e}
    of the morphisms of that component. The reduced echelon form of a
    row space is unique, so the pivots and kernel vectors are those of
    the whole system; each reducer is dropped before the next class
    starts.
    """
    _require_finite_tables(group, sigma, tau)
    n = group.order
    if n > SOLVER_MAX_ORDER:
        raise GroupTooLarge(
            f"derivation solver is bounded at order {SOLVER_MAX_ORDER}, got {n}",
            order=n)
    cay = group.cayley
    inv = group.inverse_table
    sig = sigma.table
    tav = tau.table
    e = group.identity_index
    nonid = [g for g in range(n) if g != e]
    col_of_g = {g: i for i, g in enumerate(nonid)}
    width = len(nonid)
    gens = [s.payload for s in group.generators if s.payload != e]

    def col(h, g):
        return h * width + col_of_g[g]

    def solve_class(members):
        rows = []
        for a in members:
            for s in gens:
                tau_s_inv = tav[inv[s]]
                c1 = col(cay[sig[s]][a], s)
                for g2 in nonid:
                    g2s = cay[g2][s]
                    h = cay[sig[g2s]][a]
                    row = {c1: -1}
                    c2 = col(cay[h][tau_s_inv], g2)
                    row[c2] = row.get(c2, 0) - 1
                    if g2s != e:
                        c0 = col(h, g2s)
                        row[c0] = row.get(c0, 0) + 1
                    rows.append(row)
        # any order gives the same echelon form; feeding rows by
        # decreasing last column leaves fewer stored rows to eliminate a
        # new pivot from (about a third as many on order-64 groups)
        rows.sort(key=max, reverse=True)
        reducer = IntegerRowReducer()
        for row in rows:
            reducer.add_row(row)
        columns = [col(cay[sig[g]][a], g) for a in members for g in nonid]
        return reducer.rank, reducer.nullspace_basis(columns)

    rank = 0
    vectors = []
    for members in twisted_class_indices(group, sigma, tau):
        block_rank, block_vectors = solve_class(members)
        rank += block_rank
        vectors.extend(block_vectors)
    # a kernel vector's free column is its largest: each pivot in its
    # support is the least column of a row containing the free column
    vectors.sort(key=max)
    elems = group._elements
    basis = []
    for vec in vectors:
        per_g = {}
        for c, coeff in vec.items():
            h, gpos = divmod(c, width)
            per_g.setdefault(nonid[gpos], {})[elems[h]] = GaussianRational(coeff)
        table = {elems[g]: AlgebraElement(group, terms)
                 for g, terms in per_g.items()}
        basis.append(DerivationTable.from_table(group, sigma, tau, table))
    return {"dimension": n * width - rank, "basis": basis}


def inner_space(group, sigma, tau):
    """dim Inn = |G| - dim of the kernel {p : p tau(g) = sigma(g) p}.

    Compared at sigma(g) u, the kernel condition reads p(sigma(g) u
    tau(g^-1)) = p(u) for every u and g. So the kernel is exactly the
    functions constant on the twisted classes, and its dimension is the
    number of classes.
    """
    _require_finite_tables(group, sigma, tau)
    kernel_dimension = len(twisted_class_indices(group, sigma, tau))
    return {"dimension": group.order - kernel_dimension,
            "kernel_dimension": kernel_dimension}


def is_inner(D: DerivationTable):
    """Solve delta_p = D for p, exactly.

    Returns {"is_inner": True, "witness": p, "kernel_dimension": k} with
    inner_derivation(p) verified equal to D, or {"is_inner": False, ...}.
    The witness is the echelon solution with free coordinates at zero;
    any kernel element may be added to it.
    """
    group = D.group
    _require_finite_tables(group, D.sigma, D.tau)
    n = group.order
    cay = group.cayley
    inv = group.inverse_table
    elems = group._elements
    elim = FieldEliminator()
    for g in range(n):
        tau_g_inv = inv[D.tau.table[g]]
        sig_g_inv = inv[D.sigma.table[g]]
        d_g = D.value(elems[g])
        for h in range(n):
            c1 = cay[h][tau_g_inv]
            c2 = cay[sig_g_inv][h]
            row = {}
            if c1 != c2:
                row = {c1: GaussianRational(1), c2: GaussianRational(-1)}
            if not elim.add_equation(row, d_g.coefficient(elems[h])):
                return {"is_inner": False, "witness": None,
                        "kernel_dimension": None}
    solution, kernel_dim = elim.solve(n)
    p = AlgebraElement(group, {elems[c]: v for c, v in solution.items()})
    if not inner_derivation(p, D.sigma, D.tau).agrees_with(D, elems):
        # unreachable if the eliminator is sound; equality is the contract
        return {"is_inner": False, "witness": None, "kernel_dimension": None}
    return {"is_inner": True, "witness": p, "kernel_dimension": kernel_dim}


def is_quasi_inner(D: DerivationTable, scope=None):
    """Check that D carries no mass on loops.

    A pair (h, g) is a loop exactly when sigma(g^-1) h = h tau(g^-1).
    Only the support of D can land on loops, so the scan runs over scope
    elements g, by default group.ball(None), and the support of D(g).
    The witness is the canonical-least loop term h of the first scope
    element g that has one.
    """
    group, sigma, tau = D.group, D.sigma, D.tau
    for g in group.ball(None) if scope is None else scope:
        g_inv = g.inverse()
        s = sigma(g_inv)
        t = tau(g_inv)
        loops = [h for h in D.value(g).terms if s * h == h * t]
        if loops:
            h = min(loops, key=group.sort_key)
            return {"quasi_inner": False,
                    "loop_witness": (h, g),
                    "value": D.lam(h, g)}
    return {"quasi_inner": True, "loop_witness": None, "value": None}

