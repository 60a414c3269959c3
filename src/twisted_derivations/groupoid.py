"""The action groupoid of an endomorphism pair (sigma, tau).

Objects are the group elements; a morphism is a pair (u, v) with

    source(u, v) = sigma(v^-1) u        target(u, v) = u tau(v^-1)

so that (u, v) lies in Hom(source, target). Composition follows the
convention that for f in Hom(a, b) and g in Hom(b, c), written here in
application order as compose(f, g),

    compose((u1, v1), (u2, v2)) = (u2 tau(v1), v2 v1) in Hom(a, c).

The composability condition target(f) = source(g) reads
sigma(v2^-1) u2 = u1 tau(v1^-1), which is the connecting identity the
composition rule preserves. Connected components of the groupoid are
the (sigma, tau)-conjugacy classes; loops at an object u are indexed by
its twisted centralizer.
"""

from __future__ import annotations

from math import gcd

from .algebra import ZERO, AlgebraElement, GaussianRational
from .derivations import (
    DerivationTable,
    check_leibniz,
    is_sigma_tau_central,
    leibniz_pairs,
)
from .errors import (
    NotADerivation,
    NotComposable,
    NotSupportedForScope,
)
from .groups import twisted_class_indices


class Morphism:
    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = u
        self.v = v

    def __eq__(self, other):
        return (isinstance(other, Morphism)
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"Morphism(u={self.u.group.label(self.u)}, v={self.v.group.label(self.v)})"


class ConjugacyClass:
    """The (sigma, tau)-conjugacy class of an element, possibly truncated.

    truncated is False when the listing is provably complete: always on
    finite groups, and on heisenberg_Z exactly when the element is
    certified (sigma, tau)-central, making the class a singleton.
    """

    def __init__(self, representative, elements, truncated):
        self.representative = representative
        self.elements = elements
        self.truncated = truncated

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"ConjugacyClass({len(self.elements)} elements{flag})"


class SubgroupDescription:
    """A closed-form subgroup of heisenberg_Z.

    Membership of (a, b, c) is the conjunction of integer conditions
    alpha*a + beta*b = 0; the c coordinate is always free. rank is the
    torsion-free rank of the abelianization, which is what the character
    space of the subgroup has as its dimension.
    """

    def __init__(self, group, conditions, generators, rank, kind):
        self.group = group
        self.conditions = conditions
        self.generators = generators
        self.rank = rank
        self.kind = kind

    def contains(self, g) -> bool:
        self.group._check(g)
        a, b, _c = g.payload
        return all(alpha * a + beta * b == 0 for alpha, beta in self.conditions)

    def to_json(self):
        return {
            "kind": self.kind,
            "conditions": [list(cond) for cond in self.conditions],
            "generators": [self.group.element_to_json(g) for g in self.generators],
            "abelianization_rank": self.rank,
        }

    def __repr__(self):
        gens = ", ".join(self.group.label(g) for g in self.generators)
        return f"SubgroupDescription({self.kind}; generated by {gens})"


def in_twisted_center(z, sigma, tau) -> bool:
    """Is sigma(z) p = p tau(z) for every p? p = e gives sigma(z) = tau(z),
    and then sigma(z) must commute with every p, hence with the generators."""
    sz = sigma(z)
    return sz == tau(z) and all(sz * s == s * sz for s in z.group.generators)


def center_to_json(group, center):
    """GroupoidView.center in JSON: the closed form on heisenberg_Z, the
    element list on finite groups."""
    if isinstance(center, SubgroupDescription):
        return center.to_json()
    return [group.element_to_json(z) for z in center]


class GroupoidView:
    """Immutable query object for the groupoid of (G, sigma, tau).

    Its scope is group.ball(radius): a finite group's elements, or the
    heisenberg_Z ball, which needs a radius.
    """

    def __init__(self, group, sigma, tau, radius=None):
        self.group = group
        self.sigma = sigma
        self.tau = tau
        self.radius = radius
        self._scope = group.ball(radius)
        self._moves = None
        self._classes = None

    def objects(self):
        return list(self._scope)

    # -- morphisms ---------------------------------------------------------

    def source(self, m: Morphism):
        return self.sigma(m.v.inverse()) * m.u

    def target(self, m: Morphism):
        return m.u * self.tau(m.v.inverse())

    def identity_morphism(self, a) -> Morphism:
        return Morphism(a, self.group.identity())

    def compose(self, f: Morphism, g: Morphism) -> Morphism:
        """The composite of f: a -> b followed by g: b -> c."""
        b1 = self.target(f)
        b2 = self.source(g)
        if b1 != b2:
            raise NotComposable(
                "target of the first morphism differs from source of the second",
                target_of_first=self.group.label(b1),
                source_of_second=self.group.label(b2))
        return Morphism(g.u * self.tau(f.v), g.v * f.v)

    def hom_set(self, a, b):
        """All morphisms a -> b with v in scope.

        For each v there is exactly one candidate u = sigma(v) a, since
        source(u, v) = a forces it; it belongs when the target matches.
        """
        out = []
        for v in self._scope:
            u = self.sigma(v) * a
            if u * self.tau(v.inverse()) == b:
                out.append(Morphism(u, v))
        return out

    def loops(self, a):
        return self.hom_set(a, a)

    def all_morphisms(self):
        """Every pair (u, v) over the scope; each is a valid morphism."""
        return [Morphism(u, v) for u in self._scope for v in self._scope]

    # -- classes, centralizers, center ---------------------------------------

    def conjugacy_class(self, a) -> ConjugacyClass:
        """[a] = {sigma(g^-1) a tau(g)} over g in scope.

        On a finite group this is the component containing a. On a ball
        it is listed as {sigma(v) a tau(v^-1)} over the distinct moves v
        of components(); the two sets agree (v = g^-1) because the ball
        is closed under inverses.
        """
        group = self.group
        group._check(a)
        if group.kind == "finite":
            cls = self._partition()[1][a.payload]
            return ConjugacyClass(a, list(cls), False)
        seen = {self._step(key, a.payload) for key in self._distinct_moves()}
        elements = sorted(map(group.element, seen), key=group.sort_key)
        central, _ = is_sigma_tau_central(a, self.sigma, self.tau)
        return ConjugacyClass(a, elements, not central)

    def components(self):
        """Partition of the scope into groupoid components.

        On a finite group these are exactly the conjugacy classes. On a
        ball scope witness v in the scope joins a to b = sigma(v) a
        tau(v^-1) when both are visible, so pieces of one infinite class
        appear as separate components when the ball is too small.

        With L = sigma(v) and R = tau(v^-1) the move is affine on triples,
        b = (a0+L0+R0, a1+L1+R1, a2 + (L2+R2+L0*R1) + L0*a1 + R1*a0), so
        v acts only through the key (L0+R0, L1+R1, L2+R2+L0*R1, L0, R1);
        on a finite group the key is the index pair (L, R). One union-find
        (_forest) runs over the first witness of each key only.
        """
        if self.group.kind == "finite":
            return [list(cls) for cls in self._partition()[0]]
        return [members for members, _ in self._forest()]

    def _partition(self):
        """(a finite group's classes as element lists, the class of each
        element index), computed once."""
        if self._classes is None:
            scope = self._scope
            classes = [[scope[i] for i in members] for members in
                       twisted_class_indices(self.group, self.sigma, self.tau)]
            class_of = [None] * len(scope)
            for cls in classes:
                for g in cls:
                    class_of[g.payload] = cls
            self._classes = classes, class_of
        return self._classes

    def _distinct_moves(self):
        """{key: first witness v in scope order}, computed once."""
        if self._moves is None:
            self._moves = {}
            for v in self._scope:
                L, R = self.sigma(v).payload, self.tau(v.inverse()).payload
                key = (L, R) if self.group.kind == "finite" else (
                    L[0] + R[0], L[1] + R[1], L[2] + R[2] + L[0] * R[1], L[0], R[1])
                self._moves.setdefault(key, v)
        return self._moves

    def _step(self, key, p):
        if self.group.kind == "finite":
            return self.group.cayley[self.group.cayley[key[0]][p]][key[1]]
        return (p[0] + key[0], p[1] + key[1],
                p[2] + key[2] + key[3] * p[1] + key[4] * p[0])

    def _forest(self):
        """[(component, its spanning-forest edges (a, v, b))]: a scanned in
        scope order, then moves by first witness (see components)."""
        scope = self._scope
        index = {g.payload: i for i, g in enumerate(scope)}
        parent = list(range(len(scope)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        found = []
        for i, a in enumerate(scope):
            for key, v in self._distinct_moves().items():
                j = index.get(self._step(key, a.payload))
                if j is not None and find(i) != find(j):
                    parent[find(j)] = find(i)
                    found.append((i, v, j))
        # the scope is sorted, so components come sorted, by least element
        out = {}
        for i, a in enumerate(scope):
            out.setdefault(find(i), ([], []))[0].append(a)
        for i, v, j in found:
            out[find(i)][1].append((scope[i], v, scope[j]))
        return list(out.values())

    def centralizer(self, u):
        """Z(u) = {z : sigma(z) u = u tau(z)}.

        Finite groups get the element list; heisenberg_Z with inner
        sigma, tau (see _inner_shift) gets a closed-form SubgroupDescription
        from the linear membership condition on triples.
        """
        group = self.group
        group._check(u)
        if group.kind == "finite":
            return [z for z in self._scope
                    if self.sigma(z) * u == u * self.tau(z)]
        return self._heisenberg_centralizer(u)

    def _inner_shift(self):
        """The (a, b) part of x - y for sigma, tau conjugation by x, y.

        A heisenberg_Z map is conjugation by x exactly when it sends the
        generators to (1, 0, -x1) and (0, 1, x0), whatever its spelling.
        """
        (sx, sy), (tx, ty) = self.sigma.gen_images, self.tau.gen_images
        if (sx[:2], sy[:2], tx[:2], ty[:2]) != ((1, 0), (0, 1)) * 2:
            raise NotSupportedForScope(
                "closed forms on heisenberg_Z need inner sigma and tau")
        return sy[2] - ty[2], tx[2] - sx[2]

    def _heisenberg_centralizer(self, u) -> SubgroupDescription:
        # sigma(z) u = u tau(z) with sigma = conj by x, tau = conj by y
        # reduces to alpha*z_a + beta*z_b = 0 on the triple of z.
        d0, d1 = self._inner_shift()
        ua, ub, _uc = u.payload
        alpha = ub - d1
        beta = d0 - ua
        group = self.group
        z_gen = group.element((0, 0, 1))
        if alpha == 0 and beta == 0:
            return SubgroupDescription(
                group, [], [group.element((1, 0, 0)), group.element((0, 1, 0)),
                            z_gen],
                rank=2, kind="heisenberg_full")
        d = gcd(alpha, beta)
        direction = group.element((beta // d, -alpha // d, 0))
        return SubgroupDescription(
            group, [(alpha, beta)], [direction, z_gen],
            rank=2, kind="free_abelian")

    def center(self):
        """Z = {z : sigma(z) p = p tau(z) for every p}: the elements that
        pass in_twisted_center on a finite group, the closed form <z> on
        heisenberg_Z, which needs inner sigma and tau (see _inner_shift).
        """
        group = self.group
        if group.kind == "finite":
            return [z for z in self._scope
                    if in_twisted_center(z, self.sigma, self.tau)]
        # with inner sigma, tau the centralizer condition at p reads
        # alpha(p)*z_a + beta(p)*z_b = 0 and alpha, beta sweep all of Z
        # as p varies, forcing z_a = z_b = 0
        self._inner_shift()
        return SubgroupDescription(
            group, [(1, 0), (0, 1)], [group.element((0, 0, 1))],
            rank=1, kind="free_abelian")


class Character:
    """A sparse character: finitely many morphisms carry nonzero values.

    Stored as a dict, so local finiteness holds by construction. Use
    character_from_derivation to build one with the additivity guarantee.
    """

    def __init__(self, values):
        self.values = {m: c for m, c in values.items() if c}

    def value(self, m: Morphism) -> GaussianRational:
        return self.values.get(m, ZERO)

    def items(self):
        def key(m):
            group = m.v.group
            return (group.sort_key(m.v), group.sort_key(m.u))
        return [(m, self.values[m]) for m in sorted(self.values, key=key)]

    def __repr__(self):
        return f"Character({len(self.values)} nonzero values)"


def character_from_derivation(view: GroupoidView, D: DerivationTable) -> Character:
    """Psi: the character chi(h, g) = lambda(h, g).

    Additivity on composable pairs is equivalent to the componentwise
    Leibniz rule, which is verified on leibniz_pairs of the view's scope
    before the character is returned; a violation raises NotADerivation
    with the offending pair.
    """
    scope = view.objects()
    result = check_leibniz(D, leibniz_pairs(D, view.radius))
    if not result["ok"]:
        g2, g1, _lhs, _rhs = result["violations"][0]
        raise NotADerivation(
            "the Leibniz rule fails, so the coefficient family is not additive",
            witness=[view.group.label(g2), view.group.label(g1)])
    values = {}
    for g in scope:
        for h, coeff in D.value(g).items():
            values[Morphism(h, g)] = coeff
    return Character(values)


def derivation_from_character(view: GroupoidView, chi: Character) -> DerivationTable:
    """Psi inverse: D(g) = sum_h chi(h, g) h.

    chi is stored sparsely, so the sum is finite for every g; this is
    the local finiteness the inversion needs.
    """
    group = view.group
    per_g = {}
    for m, coeff in chi.values.items():
        per_g.setdefault(m.v, {})[m.u] = coeff
    values = {g: AlgebraElement(group, terms) for g, terms in per_g.items()}
    for g in view.objects():
        values.setdefault(g, AlgebraElement.zero(group))
    return DerivationTable.from_table(group, view.sigma, view.tau, values)


def to_dot(view: GroupoidView) -> str:
    """Render the groupoid as a DOT digraph, one subgraph per component.

    Nodes are objects named by their canonical labels. An edge a -> b
    labeled v is the morphism (sigma(v) a, v), so b = sigma(v) a tau(v^-1).
    The edges form a spanning forest, found in canonical order of a and
    then of v; only the first witness v of each move key (see
    GroupoidView.components) is tried, since a later witness with the
    same key reaches the same b after the first has joined a and b, so
    it could add no edge. Singleton components get an identity loop so
    every object carries at least one visible morphism.
    """
    group = view.group
    lines = ["digraph groupoid {", '  node [shape=box];']
    for i, (members, component_edges) in enumerate(view._forest()):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {group.label(members[0])}";')
        for a in members:
            lines.append(f'    "{group.label(a)}";')
        if not component_edges:
            e = group.identity()
            for a in members:
                lines.append(
                    f'    "{group.label(a)}" -> "{group.label(a)}" '
                    f'[label="{group.label(e)}"];')
        else:
            for a, v, b in component_edges:
                lines.append(
                    f'    "{group.label(a)}" -> "{group.label(b)}" '
                    f'[label="{group.label(v)}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
