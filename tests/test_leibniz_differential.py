"""Differential tests for the one Leibniz check and its pair lists.

check_leibniz proves the rule from a cover times letters: on a finite
group the generator pairs (g2, s), on a heisenberg_Z ball B(R) the pairs
(g, s) for g in B(2R - 1) and s in x, y and their inverses, for a
closed form. It scans the pairs only to name the first violation; it
stops at the first violation on explicit pairs too. leibniz_pairs gives
those pairs. The references below are the code they replaced, kept in
the test: the check that scanned every pair and kept every violation,
and the three pair lists built by hand, in cli._validated_table (None on
a finite group, the pairs whose product stays in the ball on
heisenberg_Z), cli.cmd_central and groupoid.character_from_derivation
(every pair of the scope).

ok, the first violation and the pairs must equal the references on
finite builtins of order <= 24, with sigma and tau drawn from the
identity, inner maps and random generator images (non-injective ones
included), for inner-derivation tables, some perturbed at a random
(g, h), some with D(e) != 0 and some perturbed on a coset of the first
generator, which only another generator refutes; and on heisenberg_Z balls of radius <= 3
for rule-backed derivations and for ball tables read back through
from_json, some perturbed. The ball proof must also match the full scan
of B(R) x B(R), R <= 4, for closed forms wrapped to add one term at e,
in B(R), on the sphere of radius 2R, which a cover one radius short
misses, or at x^-2R, which letters without inverses miss. At a pair where
D(g2) tau(g1) and sigma(g2) D(g1) cancel at one element, the check must
drop that term: it must accept the inner derivation there, and name the
same violation, lhs and rhs included, once D(g2 g1) is moved.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    DerivationTable,
    GaussianRational,
    HeisenbergParams,
    builtin_group,
    check_leibniz,
    heisenberg_central_family,
    identity_endomorphism,
    inner_derivation,
    leibniz_pairs,
)

from test_closed_forms_differential import (
    FINITE,
    HEISENBERG,
    SMALL,
    _finite,
    finite_endomorphisms,
    heisenberg_endomorphisms,
)


def reference_check_leibniz(D, pairs=None):
    """The replaced check: every pair (all |G|^2 when pairs is None),
    every violation kept."""
    if pairs is None:
        elems = D.group.elements()
        pairs = product(elems, elems)
    violations = []
    for g2, g1 in pairs:
        lhs = D.value(g2 * g1)
        rhs = D.value(g2).right_mul(D.tau(g1)) + D.value(g1).left_mul(D.sigma(g2))
        if lhs != rhs:
            violations.append((g2, g1, lhs, rhs))
    return {"ok": not violations, "violations": violations}


def reference_first_violation(D, pairs):
    """The replaced check, stopped at the first violation: [] or a list
    of that one violation."""
    for pair in pairs:
        violations = reference_check_leibniz(D, [pair])["violations"]
        if violations:
            return violations
    return []


def validated_table_pairs(group, scope):
    """The pairs cli._validated_table built for a derivation file."""
    if group.kind != "heisenberg_Z":
        return None
    in_scope = set(scope)
    return [(g2, g1) for g2 in scope for g1 in scope if (g2 * g1) in in_scope]


def all_pairs(scope):
    """The pairs cli.cmd_central and character_from_derivation built."""
    return [(g2, g1) for g2 in scope for g1 in scope]


def _scalar(draw):
    """A Gaussian rational with a Fraction real part, or a plain int."""
    if draw(st.booleans()):
        return draw(SMALL)
    return GaussianRational(Fraction(draw(SMALL), draw(st.integers(1, 3))),
                            draw(SMALL))


def _algebra_element(draw, group, support):
    return AlgebraElement(group, {
        h: _scalar(draw)
        for h in draw(st.lists(st.sampled_from(support), max_size=4))})


def _perturbed(draw, D, scope):
    """A table of D's values on scope, with one random coefficient moved
    at a random (g, h) half the time."""
    group = D.group
    values = {g: D.value(g) for g in scope}
    if draw(st.booleans()):
        g = draw(st.sampled_from(scope))
        h = draw(st.sampled_from(scope))
        values[g] = values[g] + AlgebraElement.indicator(group, h, _scalar(draw))
    return values


@st.composite
def finite_tables(draw):
    group = _finite(draw(st.sampled_from(FINITE)))
    endomorphisms = finite_endomorphisms(group)
    sigma, tau = draw(endomorphisms), draw(endomorphisms)
    elems = group.elements()
    D = inner_derivation(_algebra_element(draw, group, elems), sigma, tau)
    values = _perturbed(draw, D, elems)
    e = group.identity()
    if draw(st.integers(0, 3)) == 0:
        values[e] = values[e] + AlgebraElement.indicator(
            group, draw(st.sampled_from(elems)), _scalar(draw) or 1)
    # E(r s^k) = c tau(s^k) on one coset r<s> of the first generator s, and
    # 0 elsewhere, keeps the rule at every (g2, s); only another generator
    # can refute it
    powers = [e]
    while powers[-1] * group.generators[0] != e:
        powers.append(powers[-1] * group.generators[0])
    outside = [r for r in elems if r not in powers]
    if outside and draw(st.booleans()):
        r = draw(st.sampled_from(outside))
        c = _algebra_element(draw, group, elems)
        for power in powers:
            values[r * power] = values[r * power] + c.right_mul(tau(power))
    return DerivationTable.from_table(group, sigma, tau, values)


@settings(max_examples=150, deadline=None)
@given(finite_tables())
def test_finite_generator_proof_matches_full_scan(D):
    elems = D.group.elements()
    assert leibniz_pairs(D, None) is None
    assert validated_table_pairs(D.group, elems) is None
    # None stands for all |G|^2 pairs, the list character_from_derivation built
    expected = reference_check_leibniz(D, all_pairs(elems))
    assert reference_check_leibniz(D) == expected
    result = check_leibniz(D, leibniz_pairs(D, None))
    assert result["ok"] == expected["ok"]
    assert result["violations"] == expected["violations"][:1]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_identity_value_is_proved_zero(n):
    # on cyclic_n = <g>, D(g^k) = k g^k for k = 1..n (so D(e) = n e) holds
    # at every generator pair (g2, g) with g2 != e; only the pairs (e, s),
    # which force D(e) = 0, refuse it
    group = builtin_group("cyclic", n)
    g = group.generators[0]
    values = {}
    for k in range(1, n + 1):
        power = group.power(g, k)
        values[power] = AlgebraElement.indicator(group, power, k)
    e = identity_endomorphism(group)
    D = DerivationTable.from_table(group, e, e, values)
    assert check_leibniz(D, [(g2, g) for g2 in group.elements()
                             if g2 != group.identity()])["ok"]
    expected = reference_check_leibniz(D)
    assert not expected["ok"]
    result = check_leibniz(D)
    assert result["violations"] == expected["violations"][:1]
    assert result["violations"][0][:2] == (group.identity(), group.identity())


def _closed_form(draw, group):
    """An inner derivation of a random element, sigma and tau drawn from
    id, inner and image maps (non-injective ones included), or a member
    of the central family."""
    if draw(st.booleans()):
        endomorphisms = heisenberg_endomorphisms(group)
        sigma, tau = draw(endomorphisms), draw(endomorphisms)
        return inner_derivation(
            _algebra_element(draw, group, group.ball(2)), sigma, tau)
    params = HeisenbergParams(*(draw(SMALL) for _ in range(4)))
    return heisenberg_central_family(params, draw(SMALL), draw(SMALL),
                                     draw(SMALL), group=group)


@st.composite
def heisenberg_derivations(draw):
    """(D, radius, reference pairs): a rule-backed derivation, or a ball
    table read back through from_json, on a ball of radius <= 3."""
    group = HEISENBERG
    radius = draw(st.integers(0, 3))
    scope = group.ball(radius)
    D = _closed_form(draw, group)
    if draw(st.booleans()):
        return D, radius, all_pairs(scope)
    table = DerivationTable.from_table(group, D.sigma, D.tau,
                                       _perturbed(draw, D, scope))
    D = DerivationTable.from_json(group, D.sigma, D.tau,
                                  table.to_json(scope=scope), radius=radius)
    return D, radius, validated_table_pairs(group, scope)


@settings(max_examples=100, deadline=None)
@given(heisenberg_derivations())
def test_heisenberg_pairs_and_first_violation_match(case):
    D, radius, reference_pairs = case
    pairs = leibniz_pairs(D, radius)
    assert len(pairs) == len(reference_pairs)
    assert list(pairs) == reference_pairs
    expected = reference_check_leibniz(D, reference_pairs)
    result = check_leibniz(D, pairs)
    assert result["ok"] == expected["ok"]
    assert result["violations"] == expected["violations"][:1]


@lru_cache(maxsize=None)
def _sphere(radius):
    """The elements of word length exactly radius."""
    inner = set(HEISENBERG.ball(radius - 1)) if radius else set()
    return [g for g in HEISENBERG.ball(radius) if g not in inner]


@st.composite
def ball_closed_forms(draw):
    """(D, R): a closed form on heisenberg_Z with R <= 4, wrapped half the
    time to add one term at e, at a point of B(R), at a point of the
    sphere of radius 2R, or at x^-2R."""
    group = HEISENBERG
    radius = draw(st.integers(0, 4))
    D = _closed_form(draw, group)
    where = draw(st.sampled_from(("none", "e", "ball", "sphere", "x^-2R")))
    if where == "none":
        return D, radius
    if where == "e":
        target = group.identity()
    elif where == "ball":
        target = draw(st.sampled_from(group.ball(radius)))
    elif where == "sphere":
        target = draw(st.sampled_from(_sphere(2 * radius)))
    else:
        target = group.element((-2 * radius, 0, 0))
    term = AlgebraElement.indicator(
        group, draw(st.sampled_from(group.ball(2))), _scalar(draw) or 1)

    def rule(g):
        return D.value(g) + term if g == target else D.value(g)

    return DerivationTable.from_rule(group, D.sigma, D.tau, rule), radius


@settings(max_examples=60, deadline=None)
@given(ball_closed_forms())
def test_ball_proof_matches_full_scan(case):
    D, radius = case
    reference_pairs = all_pairs(HEISENBERG.ball(radius))
    pairs = leibniz_pairs(D, radius)
    assert len(pairs) == len(reference_pairs)
    expected = reference_first_violation(D, reference_pairs)
    result = check_leibniz(D, pairs)
    assert result["ok"] == (not expected)
    assert result["violations"] == expected


def _cancelling_terms(D, g2, g1):
    """The elements where D(g2) tau(g1) and sigma(g2) D(g1) both have a
    term and the terms cancel."""
    left = D.value(g2).right_mul(D.tau(g1)).terms
    right = D.value(g1).left_mul(D.sigma(g2)).terms
    return [h for h, c in left.items() if h in right and not c + right[h]]


@st.composite
def cancelling_pairs(draw):
    """(D, (g2, g1)): an inner derivation on a finite builtin or on
    heisenberg_Z, at a pair whose right side cancels at one element,
    moved at g2 g1 half the time by a term at that element or at another."""
    if draw(st.booleans()):
        group = _finite(draw(st.sampled_from(FINITE)))
        endomorphisms = finite_endomorphisms(group)
        scope = group.elements()
    else:
        group = HEISENBERG
        endomorphisms = heisenberg_endomorphisms(group)
        scope = group.ball(2)
    sigma, tau = draw(endomorphisms), draw(endomorphisms)
    D = inner_derivation(_algebra_element(draw, group, scope), sigma, tau)
    pairs = [pair for pair in product(scope, scope) if _cancelling_terms(D, *pair)]
    assume(pairs)
    g2, g1 = draw(st.sampled_from(pairs))
    if draw(st.booleans()):
        return D, (g2, g1)
    target = g2 * g1
    h = draw(st.sampled_from(_cancelling_terms(D, g2, g1) + [g2, g1]))
    term = AlgebraElement.indicator(group, h, _scalar(draw) or 1)

    def rule(g):
        return D.value(g) + term if g == target else D.value(g)

    return DerivationTable.from_rule(group, sigma, tau, rule), (g2, g1)


@settings(max_examples=100, deadline=None)
@given(cancelling_pairs())
def test_cancelling_terms_are_dropped(case):
    D, pair = case
    expected = reference_check_leibniz(D, [pair])
    result = check_leibniz(D, [pair])
    assert result["ok"] == expected["ok"]
    assert result["violations"] == expected["violations"]
    if D.group.kind == "finite":
        expected = reference_first_violation(D, all_pairs(D.group.elements()))
        assert check_leibniz(D)["violations"] == expected
