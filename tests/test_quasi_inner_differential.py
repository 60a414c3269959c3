"""Differential test for the loop witness of is_quasi_inner.

is_quasi_inner tests the loop condition sigma(g^-1) h = h tau(g^-1) over
the terms of D(g) as stored, and sorts only the loops it finds. The
reference below is the scan it replaced, kept in the test: the first
loop term in support() order of the first scope element that has one.
The witness and its value must equal the reference on finite builtins
of order <= 24 (sigma = tau = id, and inner pairs) and on heisenberg_Z
balls of radius <= 3, for random tables whose values hold several terms
inserted in random order, so several loops can fall in one D(g) and
their storage order is not the canonical one.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    DerivationTable,
    GaussianRational,
    identity_endomorphism,
    inner_endomorphism,
    is_quasi_inner,
)

from test_closed_forms_differential import (
    FINITE,
    HEISENBERG,
    SMALL,
    TRIPLES,
    _finite,
)


def reference_is_quasi_inner(D, scope):
    """The replaced scan: support() order within each D(g)."""
    for g in scope:
        g_inv = g.inverse()
        s = D.sigma(g_inv)
        t = D.tau(g_inv)
        for h in D.value(g).support():
            if s * h == h * t:
                return {"quasi_inner": False, "loop_witness": (h, g),
                        "value": D.value(g).coefficient(h)}
    return {"quasi_inner": True, "loop_witness": None, "value": None}


@st.composite
def loop_tables(draw):
    """(D, scope): a table on a finite builtin or on a heisenberg_Z ball,
    each value a few terms in drawn (not canonical) order."""
    if draw(st.booleans()):
        group = _finite(draw(st.sampled_from(FINITE)))
        scope = support = group.elements()
        if draw(st.booleans()):
            sigma = tau = identity_endomorphism(group)
        else:
            sigma = inner_endomorphism(group, draw(st.sampled_from(scope)))
            tau = inner_endomorphism(group, draw(st.sampled_from(scope)))
    else:
        group = HEISENBERG
        scope = group.ball(draw(st.integers(0, 3)))
        support = group.ball(2)
        if draw(st.booleans()):
            sigma = tau = identity_endomorphism(group)
        else:
            sigma = inner_endomorphism(group, group.element(draw(TRIPLES)))
            tau = inner_endomorphism(group, group.element(draw(TRIPLES)))
    values = dict.fromkeys(scope, AlgebraElement.zero(group))
    for g in draw(st.lists(st.sampled_from(scope), max_size=6)):
        terms = draw(st.lists(st.sampled_from(support), min_size=1,
                              max_size=6, unique=True))
        values[g] = AlgebraElement(group, {
            h: GaussianRational(Fraction(draw(SMALL), draw(st.integers(1, 3))),
                                draw(SMALL)) or GaussianRational(1)
            for h in terms})
    return DerivationTable.from_table(group, sigma, tau, values), scope


@settings(max_examples=150, deadline=None)
@given(loop_tables())
def test_loop_witness_is_first_in_support_order(case):
    D, scope = case
    assert is_quasi_inner(D, scope) == reference_is_quasi_inner(D, scope)
