"""Differential tests for the two closed forms derivations are built from.

quasi_inner_from_potential is the coboundary inner_derivation(P) of the
potential, read as an algebra element. The reference below is the rule
it replaced, kept in the test: for each g it collects the candidate h
with h tau(g^-1) or sigma(g^-1) h in the support of P and reads the
coefficient P(h tau(g^-1)) - P(sigma(g^-1) h) off a plain dict. Values
must agree on finite builtins of order <= 24 and on heisenberg_Z balls
of radius <= 3, for sigma and tau drawn from the identity, inner maps
and random generator images, non-injective ones included.

heisenberg_central_family is central_derivation(z^r, phi_{mu,nu}). The
reference is oracles.GeneratorFold, the product-rule fold along the
normal form, fed the family's hand-written D(x) and D(y); values must
agree on balls of radius <= 4.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    GaussianRational,
    HeisenbergParams,
    Potential,
    builtin_group,
    heisenberg_central_family,
    identity_endomorphism,
    inner_endomorphism,
    make_endomorphism,
    quasi_inner_from_potential,
)
from twisted_derivations.errors import NotAHomomorphism

import oracles

FINITE = [
    ("cyclic", 1), ("cyclic", 6), ("dihedral", 4), ("dihedral", 6),
    ("symmetric", 3), ("symmetric", 4), ("quaternion8", None),
    ("heisenberg_mod", 2),
]
HEISENBERG = builtin_group("heisenberg_Z")
SMALL = st.integers(-3, 3)
TRIPLES = st.tuples(*[st.integers(-2, 2)] * 3)


def reference_quasi_inner_value(group, values, sigma, tau, g) -> AlgebraElement:
    """D(g) = sum_h (P(h tau(g^-1)) - P(sigma(g^-1) h)) h, by the
    replaced candidate-set rule, with P a dict from elements to scalars."""
    zero = GaussianRational(0)
    g_inv = g.inverse()
    tau_g = tau(g)
    sigma_g = sigma(g)
    tau_g_inv = tau(g_inv)
    sigma_g_inv = sigma(g_inv)
    candidates = set()
    for w in values:
        candidates.add(w * tau_g)      # h with h tau(g^-1) = w
        candidates.add(sigma_g * w)    # h with sigma(g^-1) h = w
    terms = {}
    for h in candidates:
        coeff = (values.get(h * tau_g_inv, zero)
                 - values.get(sigma_g_inv * h, zero))
        if coeff:
            terms[h] = coeff
    return AlgebraElement(group, terms)


@lru_cache(maxsize=None)
def _finite(spec):
    return builtin_group(*spec)


@st.composite
def finite_endomorphisms(draw, group):
    """id, inner, or random generator images (the map onto the identity
    when the drawn images do not extend)."""
    kind = draw(st.sampled_from(("id", "inner", "images")))
    if kind == "id":
        return identity_endomorphism(group)
    elems = group.elements()
    if kind == "inner":
        return inner_endomorphism(group, draw(st.sampled_from(elems)))
    images = [draw(st.sampled_from(elems)) for _ in group.generators]
    try:
        return make_endomorphism(group, images)
    except NotAHomomorphism:
        return make_endomorphism(group, [group.identity()] * len(images))


@st.composite
def heisenberg_endomorphisms(draw, group):
    """id, inner, or random generator images; images with a1*b2 = a2*b1
    (drawn with fair odds) give a non-injective map."""
    kind = draw(st.sampled_from(("id", "inner", "images", "degenerate")))
    if kind == "id":
        return identity_endomorphism(group)
    if kind == "inner":
        return inner_endomorphism(group, group.element(draw(TRIPLES)))
    px = draw(TRIPLES)
    if kind == "images":
        py = draw(TRIPLES)
    else:
        k = draw(st.integers(-1, 1))
        py = (k * px[0], k * px[1], draw(st.integers(-2, 2)))
    return make_endomorphism(group, [group.element(px), group.element(py)])


@st.composite
def potential_cases(draw):
    """(group, sigma, tau, scope, values): values is a dict of scalars on
    a few elements, zeros included, supported in the scope on finite
    groups and in the radius-2 ball on heisenberg_Z."""
    if draw(st.booleans()):
        group = _finite(draw(st.sampled_from(FINITE)))
        endomorphisms = finite_endomorphisms(group)
        scope = support = group.elements()
    else:
        group = HEISENBERG
        endomorphisms = heisenberg_endomorphisms(group)
        scope = group.ball(draw(st.integers(0, 3)))
        support = group.ball(2)
    sigma, tau = draw(endomorphisms), draw(endomorphisms)
    values = {
        h: GaussianRational(Fraction(draw(SMALL), draw(st.integers(1, 3))),
                            draw(SMALL))
        for h in draw(st.lists(st.sampled_from(support), max_size=5))}
    return group, sigma, tau, scope, values


@settings(max_examples=150, deadline=None)
@given(potential_cases())
def test_potential_coboundary_matches_candidate_rule(case):
    group, sigma, tau, scope, values = case
    P = Potential(group, values)
    assert all(P(h) == c for h, c in values.items())
    assert Potential.from_json(group, P.to_json()) == P
    D = quasi_inner_from_potential(P, sigma, tau)
    for g in scope:
        assert D.value(g) == reference_quasi_inner_value(
            group, values, sigma, tau, g), group.label(g)


@settings(max_examples=80, deadline=None)
@given(st.tuples(SMALL, SMALL, SMALL, SMALL), SMALL, SMALL, SMALL,
       st.integers(0, 4))
def test_central_family_matches_generator_fold(params, mu, nu, r, radius):
    params = HeisenbergParams(*params)
    family = heisenberg_central_family(params, mu, nu, r, group=HEISENBERG)
    sigma, tau = params.endomorphisms(HEISENBERG)
    fold = oracles.GeneratorFold(
        HEISENBERG, sigma, tau,
        oracles.central_family_generator_values(HEISENBERG, params, mu, nu, r))
    for g in HEISENBERG.ball(radius):
        assert family.value(g) == fold.value(g), g
