from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    GaussianRational,
    GroupMismatch,
    builtin_group,
    identity_endomorphism,
    make_endomorphism,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=80)
def test_gaussian_rational_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians, gaussians)
@settings(max_examples=80)
def test_gaussian_rational_division_inverts_product(a, b):
    if not b:
        return
    assert (a / b) * b == a


def test_gaussian_rational_division_round_trip():
    a = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    b = GaussianRational(Fraction(1, 2), Fraction(7, 3))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0, 0)


def test_gaussian_rational_parse_and_json():
    v = GaussianRational.parse("3/4", "-2")
    assert v.re == Fraction(3, 4) and v.im == Fraction(-2)
    blob = v.to_json()
    assert blob == {"re": "3/4", "im": "-2"}
    assert GaussianRational.parse(blob["re"], blob["im"]) == v


# (constructor argument, the Fraction it stands for): an int, a Fraction
# or a rational string
scalar_parts = st.one_of(
    st.integers(-20, 20).map(lambda n: (n, Fraction(n))),
    rationals.map(lambda q: (q, q)),
    rationals.map(lambda q: (str(q), q)))


@st.composite
def scalars_with_parts(draw):
    """(scalar, (re, im) as Fractions), built by the constructor or parse."""
    (re, re_q), (im, im_q) = draw(scalar_parts), draw(scalar_parts)
    if draw(st.booleans()):
        return GaussianRational.parse(str(re_q), str(im_q)), (re_q, im_q)
    return GaussianRational(re, im), (re_q, im_q)


# scalars with int parts, which must stay ints under +, - and *
integral_scalars_with_parts = st.tuples(st.integers(-20, 20),
                                        st.integers(-20, 20)).map(
    lambda p: (GaussianRational(*p), (Fraction(p[0]), Fraction(p[1]))))


def _exact(part):
    return type(part) is int or type(part) is Fraction


@given(st.one_of(scalars_with_parts(), integral_scalars_with_parts),
       st.one_of(scalars_with_parts(), integral_scalars_with_parts,
                 st.integers(-5, 5).map(lambda n: (n, (Fraction(n), 0)))))
@settings(max_examples=150)
def test_scalar_parts_stay_exact(a_case, b_case):
    a, (ar, ai) = a_case
    b, (br, bi) = b_case
    expected = {
        "+": (a + b, (ar + br, ai + bi)),
        "-": (a - b, (ar - br, ai - bi)),
        "*": (a * b, (ar * br - ai * bi, ar * bi + ai * br)),
        "neg": (-a, (-ar, -ai)),
        "r+": (b + a, (ar + br, ai + bi)),
        "r*": (b * a, (ar * br - ai * bi, ar * bi + ai * br)),
    }
    norm = br * br + bi * bi
    if norm:
        expected["/"] = (a / b, ((ar * br + ai * bi) / norm,
                                 (ai * br - ar * bi) / norm))
    for op, (x, (re, im)) in expected.items():
        assert _exact(x.re) and _exact(x.im), op
        assert (x.re, x.im) == (re, im), op
        assert x.to_json() == {"re": str(Fraction(re)),
                               "im": str(Fraction(im))}, op
    assert _exact(a.re) and _exact(a.im)
    assert (a.re, a.im) == (ar, ai)
    assert a.to_json() == {"re": str(ar), "im": str(ai)}
    b_parts = (b, 0) if type(b) is int else (b.re, b.im)
    if all(type(part) is int for part in (a.re, a.im) + b_parts):
        for op in ("+", "-", "*", "neg", "r+", "r*"):
            x = expected[op][0]
            assert type(x.re) is int and type(x.im) is int, op
        if norm:
            x = expected["/"][0]
            assert type(x.re) is Fraction and type(x.im) is Fraction


def test_float_and_bool_parts_become_fractions():
    x = GaussianRational(True, 1.5)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (1, Fraction(3, 2))


def test_i_squared_is_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1, 0)


def test_indicator_convolution_multiplies_group_elements():
    g = builtin_group("symmetric", 3)
    for a in g.elements():
        for b in g.elements():
            lhs = AlgebraElement.indicator(g, a) * AlgebraElement.indicator(g, b)
            assert lhs == AlgebraElement.indicator(g, a * b)


def test_unit_element():
    g = builtin_group("quaternion8")
    one = AlgebraElement.unit(g)
    x = AlgebraElement.indicator(g, g.element_from_json("j"), GaussianRational(2, 3))
    assert one * x == x
    assert x * one == x


def test_convolution_associativity_sampled():
    import random
    rng = random.Random(7)
    g = builtin_group("dihedral", 4)
    elems = g.elements()

    def random_element():
        terms = {}
        for _ in range(3):
            terms[rng.choice(elems)] = GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4)))
        return AlgebraElement(g, terms)

    for _ in range(25):
        a, b, c = random_element(), random_element(), random_element()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_handling():
    g = builtin_group("cyclic", 4)
    z = AlgebraElement.zero(g)
    x = AlgebraElement.indicator(g, g.element(2))
    assert (x - x).is_zero()
    assert z * x == z
    assert (x + (-x)).is_zero()
    assert x.scale(GaussianRational(0, 0)).is_zero()


def test_translation_matches_convolution():
    g = builtin_group("symmetric", 3)
    x = AlgebraElement(g, {
        g.element(1): GaussianRational(1, 2),
        g.element(4): GaussianRational(Fraction(-1, 3), 0),
    })
    for t in g.elements():
        assert x.right_mul(t) == x * AlgebraElement.indicator(g, t)
        assert x.left_mul(t) == AlgebraElement.indicator(g, t) * x


def test_apply_endomorphism_collapses_collisions():
    g = builtin_group("cyclic", 4)
    # squaring sends both g and g^3 to g^2, so their coefficients merge
    f = make_endomorphism(g, {g.element(1): g.element(2)})
    x = AlgebraElement(g, {
        g.element(1): GaussianRational(1, 0),
        g.element(3): GaussianRational(2, 0),
    })
    assert x.apply(f) == AlgebraElement.indicator(
        g, g.element(2), GaussianRational(3, 0))


def test_apply_identity_endomorphism():
    g = builtin_group("quaternion8")
    x = AlgebraElement(g, {g.element(3): GaussianRational(0, 1)})
    assert x.apply(identity_endomorphism(g)) == x


def test_group_membership_enforced():
    a = builtin_group("cyclic", 3)
    b = builtin_group("cyclic", 4)
    with pytest.raises(GroupMismatch):
        AlgebraElement(a, {b.element(1): GaussianRational(1, 0)})


def test_algebra_json_round_trip():
    g = builtin_group("heisenberg_Z")
    x = AlgebraElement(g, {
        g.element((1, 0, -2)): GaussianRational(Fraction(5, 7), Fraction(1, 2)),
        g.element((0, 3, 1)): GaussianRational(-2, 0),
    })
    assert AlgebraElement.from_json(g, x.to_json()) == x


def test_support_is_sorted_canonically():
    g = builtin_group("heisenberg_Z")
    x = AlgebraElement(g, {
        g.element((5, 0, 0)): GaussianRational(1, 0),
        g.element((0, 0, 1)): GaussianRational(1, 0),
        g.element((1, 0, 0)): GaussianRational(1, 0),
    })
    # center-last ordering: commutator depth dominates, then size
    assert [e.payload for e in x.support()] == [
        (1, 0, 0), (5, 0, 0), (0, 0, 1)]
