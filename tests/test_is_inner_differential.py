"""is_inner's witness, pinned by an independent class walk.

check-inner prints the witness, so a new innerness solver must return
the same p byte for byte, not just some p with delta_p = D. The
reference is oracles.class_walk_potential: on each twisted class, p is 0
at the largest element index and spreads along the generator moves.
On finite builtins of order <= 24, with sigma and tau drawn from the
identity, inner maps and random generator images (non-injective ones
included), and D = delta_q for a q with fractional Gaussian-rational
values, is_inner must return exactly that p, and its kernel dimension
must be the number of twisted classes.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    GaussianRational,
    inner_derivation,
    is_inner,
)

from test_closed_forms_differential import FINITE, _finite, finite_endomorphisms

import oracles

FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def inner_derivations(draw):
    group = _finite(draw(st.sampled_from(FINITE)))
    sigma = draw(finite_endomorphisms(group))
    tau = draw(finite_endomorphisms(group))
    support = draw(st.lists(st.sampled_from(group.elements()),
                            min_size=1, max_size=4, unique=True))
    q = AlgebraElement(group, {h: GaussianRational(draw(FRACTIONS), draw(FRACTIONS))
                               for h in support})
    return inner_derivation(q, sigma, tau)


@settings(max_examples=60, deadline=None)
@given(inner_derivations())
def test_witness_is_the_class_walk_potential(D):
    group = D.group
    p, classes = oracles.class_walk_potential(group, D.sigma, D.tau, D)
    result = is_inner(D)
    assert result["is_inner"] is True
    assert {u: result["witness"].coefficient(u) for u in group.elements()} == p
    assert result["kernel_dimension"] == classes
