"""Differential tests for the closed form of heisenberg_Z endomorphisms.

Endomorphism.__call__ evaluates every map on heisenberg_Z, inner or
not, by one formula in the generator images p = phi(x) and q = phi(y).
The reference is oracles.heisenberg_word_image, which folds the images'
matrices over the word x^a y^b z^(c - a*b). Images are drawn from
[-4, 4]^3, non-injective ones (det 0) included, and elements have
coordinates up to 30 in absolute value. Inner maps have p1 = q0 = 0,
so only images drawn freely see the a*b*p1*q0 term.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    builtin_group,
    inner_endomorphism,
    make_endomorphism,
)

import oracles

HEISENBERG = builtin_group("heisenberg_Z")
IMAGES = st.tuples(*[st.integers(-4, 4)] * 3)
ELEMENTS = st.tuples(*[st.integers(-30, 30)] * 3)


def endomorphism(p, q):
    return make_endomorphism(HEISENBERG, [HEISENBERG.element(p),
                                          HEISENBERG.element(q)])


@settings(max_examples=200, deadline=None)
@given(IMAGES, IMAGES, ELEMENTS)
# det 0 with p1 * q0 != 0: a map onto a cyclic subgroup of the abelianization
@example((1, 2, 0), (2, 4, 1), (-7, 5, 3))
@example((0, 0, 0), (0, 0, 0), (30, -30, 30))
def test_closed_form_matches_word_fold(p, q, g):
    phi = endomorphism(p, q)
    assert phi(HEISENBERG.element(g)).payload == oracles.heisenberg_word_image(p, q, g)


@settings(max_examples=200, deadline=None)
@given(IMAGES, IMAGES, ELEMENTS, ELEMENTS)
def test_closed_form_is_multiplicative(p, q, g, h):
    phi = endomorphism(p, q)
    g, h = HEISENBERG.element(g), HEISENBERG.element(h)
    assert phi(g * h) == phi(g) * phi(h)


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, ELEMENTS)
def test_inner_endomorphism_is_conjugation(x, g):
    x, g = HEISENBERG.element(x), HEISENBERG.element(g)
    phi = inner_endomorphism(HEISENBERG, x)
    assert phi(g) == x * g * x.inverse()
    assert phi.gen_images == [phi(s).payload for s in HEISENBERG.generators]
