"""Differential tests for the product-rule fold of generator-backed
derivations on heisenberg_Z.

DerivationTable evaluates letters, powers of x, y and z, the normal form
x^a y^b z^(c - a*b), the relator check and extend_to_word through one
left fold of (g, D(g)) pairs. The reference below is the evaluation it
replaced, kept in the test: its own letter, power, z, z-power and
normal-form routines and its own word fold, each starting from zero.

The fold is associative as an operation on pairs, (g1, d1)(g2, d2) =
(g1 g2, d1 tau(g2) + sigma(g1) d2), whether or not the generator values
define a derivation. So the two evaluations agree exactly on any
generator values, and the third kind of case below uses unchecked
random values, where D(z) is not zero, and sigma != tau.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    AlgebraElement,
    DerivationTable,
    GaussianRational,
    HeisenbergParams,
    WellDefinednessError,
    builtin_group,
    extend_to_word,
    identity_endomorphism,
    inner_endomorphism,
    make_endomorphism,
)

import oracles

GROUP = builtin_group("heisenberg_Z")
SMALL = st.integers(-3, 3)


class Reference:
    """The replaced evaluation of a generator-backed derivation."""

    def __init__(self, D):
        self.group = D.group
        self.sigma = D.sigma
        self.tau = D.tau
        self.gen_values = D.gen_values
        self._memo = {}

    def _letter_value(self, pos, sign) -> AlgebraElement:
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

    def _power_value(self, pos, n) -> AlgebraElement:
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
        out = self._memo.setdefault(("power", pos, 0), AlgebraElement.zero(group))
        while k != n:
            prefix = group.power(gen, k)
            out = out.right_mul(tau_letter) + d_letter.left_mul(self.sigma(prefix))
            k += step
            self._memo[("power", pos, k)] = out
        return out

    def _z_value(self) -> AlgebraElement:
        if ("z",) not in self._memo:
            group = self.group
            d = AlgebraElement.zero(group)
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

    def _z_power_value(self, m) -> AlgebraElement:
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
        out = AlgebraElement.zero(group)
        acc = group.identity()
        for _ in range(count):
            out = out.right_mul(self.tau(base)) + d_base.left_mul(self.sigma(acc))
            acc = acc * base
        self._memo[key] = out
        return out

    def _generator_value(self, g) -> AlgebraElement:
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

    def extend_to_word(self, word) -> AlgebraElement:
        group = self.group
        out = AlgebraElement.zero(group)
        prefix = group.identity()
        for pos, sign in word:
            letter = group.generators[pos]
            if sign < 0:
                letter = letter.inverse()
            out = out.right_mul(self.tau(letter)) \
                + self._letter_value(pos, sign).left_mul(self.sigma(prefix))
            prefix = prefix * letter
        return out


Z_WORD = [(0, 1), (1, 1), (0, -1), (1, -1)]
RELATORS = [[(pos, 1)] + Z_WORD + [(pos, -1)]
            + [(p, -s) for p, s in reversed(Z_WORD)] for pos in (0, 1)]


@st.composite
def elements(draw, radius):
    """A random algebra element supported on the ball of the radius."""
    ball = GROUP.ball(radius)
    support = draw(st.lists(st.sampled_from(ball), max_size=3))
    return AlgebraElement(GROUP, {
        g: GaussianRational(Fraction(draw(SMALL), draw(st.integers(1, 3))),
                            draw(SMALL))
        for g in support})


@st.composite
def automorphisms(draw):
    """id, an inner automorphism, or a non-inner one (det +1 or -1)."""
    kind = draw(st.sampled_from(("id", "inner", "images")))
    if kind == "id":
        return identity_endomorphism(GROUP)
    if kind == "inner":
        return inner_endomorphism(
            GROUP, GROUP.element((draw(SMALL), draw(SMALL), draw(SMALL))))
    images = draw(st.sampled_from((((0, 1, 0), (1, 0, 0)),
                                   ((1, 1, 0), (0, 1, 0)),
                                   ((1, 0, 2), (-1, 1, 0)))))
    return make_endomorphism(GROUP, [GROUP.element(p) for p in images])


@st.composite
def identity_pair_values(draw):
    """Generator values for sigma = tau = id: an inner derivation plus a
    character, and sometimes an extra term that breaks the relators."""
    e = identity_endomorphism(GROUP)
    p = draw(elements(1))
    x, y = GROUP.generators
    values = [
        p.right_mul(gen) - p.left_mul(gen)
        + AlgebraElement.indicator(GROUP, gen, draw(SMALL))
        for gen in (x, y)]
    if draw(st.booleans()):
        values[draw(st.integers(0, 1))] += draw(elements(1))
    return e, e, values


@st.composite
def cases(draw):
    """(D, reference, whether D is a derivation), or None when
    from_generator_values refused the values, in which case the
    reference must see a relator fail."""
    kind = draw(st.sampled_from(("central", "identity", "unchecked")))
    if kind == "central":
        params = HeisenbergParams(*(draw(SMALL) for _ in range(4)))
        sigma, tau = params.endomorphisms(GROUP)
        values = oracles.central_family_generator_values(
            GROUP, params, draw(SMALL), draw(SMALL), draw(SMALL))
        D = DerivationTable.from_generator_values(GROUP, sigma, tau, values)
        return D, Reference(D), True
    if kind == "identity":
        sigma, tau, values = draw(identity_pair_values())
        unchecked = DerivationTable(GROUP, sigma, tau, "generator",
                                    gen_values=values)
        reference = Reference(unchecked)
        broken = any(not reference.extend_to_word(r).is_zero() for r in RELATORS)
        try:
            D = DerivationTable.from_generator_values(GROUP, sigma, tau, values)
        except WellDefinednessError:
            assert broken
            return None
        assert not broken
        return D, reference, True
    sigma, tau = draw(automorphisms()), draw(automorphisms())
    values = [draw(elements(2)) for _ in GROUP.generators]
    D = DerivationTable(GROUP, sigma, tau, "generator", gen_values=values)
    return D, Reference(D), False


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 4),
       st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                         max_size=10), max_size=4))
def test_fold_matches_replaced_evaluation(case, radius, words):
    if case is None:
        return
    D, reference, is_derivation = case
    for g in D.group.ball(radius):
        assert D.value(g) == reference._generator_value(g), g
    for word in words:
        value = extend_to_word(D, word)
        assert value == reference.extend_to_word(word), word
        if is_derivation:
            # well-defined: the value depends only on the word's image
            product = GROUP.identity()
            for pos, sign in word:
                product = product * GROUP.power(GROUP.generators[pos], sign)
            assert value == D.value(product), word
