import random
import tracemalloc
from fractions import Fraction

import pytest

from twisted_derivations import (
    AdditiveCharacterOnG,
    AlgebraElement,
    DerivationTable,
    GaussianRational,
    GroupTooLarge,
    HeisenbergParams,
    NotAHomomorphismToC,
    NotCentralElement,
    Potential,
    ScopeExceeded,
    SpecError,
    builtin_group,
    central_derivation,
    check_leibniz,
    derivation_space,
    heisenberg_central_family,
    identity_endomorphism,
    inner_derivation,
    inner_endomorphism,
    inner_space,
    is_inner,
    is_quasi_inner,
    is_sigma_tau_central,
    leibniz_pairs,
    quasi_inner_from_potential,
)

import oracles


def random_algebra_element(g, rng, size=3):
    terms = {}
    elems = g.elements()
    for _ in range(size):
        terms[rng.choice(elems)] = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5)))
    return AlgebraElement(g, terms)


def test_zero_derivation_passes_leibniz():
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    D = DerivationTable.zero(g, e, e)
    assert check_leibniz(D)["ok"]


def test_inner_derivation_passes_leibniz_exhaustively():
    rng = random.Random(3)
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(1))
    tau = inner_endomorphism(g, g.element(4))
    for _ in range(5):
        p = random_algebra_element(g, rng)
        D = inner_derivation(p, sigma, tau)
        result = check_leibniz(D)
        assert result["ok"], result["violations"][:1]


def test_corrupted_coefficient_yields_violation_witness():
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    p = AlgebraElement.indicator(g, g.element(3))
    D = inner_derivation(p, e, e)
    values = {x: D.value(x) for x in g.elements()}
    target = g.element(1)
    values[target] = values[target] + AlgebraElement.indicator(g, g.element(2))
    bad = DerivationTable.from_table(g, e, e, values)
    result = check_leibniz(bad)
    assert not result["ok"]
    assert result["violations"]


def test_derivation_vanishes_at_identity():
    g = builtin_group("dihedral", 4)
    sigma = inner_endomorphism(g, g.element(1))
    D = inner_derivation(AlgebraElement.indicator(g, g.element(5)),
                         sigma, identity_endomorphism(g))
    assert D.value(g.identity()).is_zero()


def test_inner_derivation_formula():
    # delta_p(x) = p tau(x) - sigma(x) p, componentwise
    g = builtin_group("quaternion8")
    sigma = inner_endomorphism(g, g.element_from_json("i"))
    tau = inner_endomorphism(g, g.element_from_json("j"))
    p = AlgebraElement(g, {g.element(2): GaussianRational(2, 1)})
    D = inner_derivation(p, sigma, tau)
    for x in g.elements():
        expected = (p.right_mul(tau(x))
                    - AlgebraElement.indicator(g, sigma(x)) * p)
        assert D.value(x) == expected


def test_inner_map_is_linear():
    rng = random.Random(9)
    g = builtin_group("dihedral", 4)
    sigma = inner_endomorphism(g, g.element(2))
    tau = identity_endomorphism(g)
    for _ in range(5):
        p = random_algebra_element(g, rng)
        q = random_algebra_element(g, rng)
        c = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
        dp = inner_derivation(p, sigma, tau)
        dq = inner_derivation(q, sigma, tau)
        dpq = inner_derivation(p + q, sigma, tau)
        dcp = inner_derivation(p.scale(c), sigma, tau)
        for x in g.elements():
            assert dpq.value(x) == dp.value(x) + dq.value(x)
            assert dcp.value(x) == dp.value(x).scale(c)


def test_inverse_rule():
    # D(g^-1) = -sigma(g^-1) D(g) tau(g^-1)
    rng = random.Random(17)
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(2))
    tau = inner_endomorphism(g, g.element(3))
    p = random_algebra_element(g, rng)
    D = inner_derivation(p, sigma, tau)
    for x in g.elements():
        lhs = D.value(x.inverse())
        rhs = -(D.value(x)
                .left_mul(sigma(x.inverse()))
                .right_mul(tau(x.inverse())))
        assert lhs == rhs


def test_is_inner_recovers_witness():
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(1))
    tau = identity_endomorphism(g)
    q = AlgebraElement(g, {g.element(4): GaussianRational(1, 2)})
    D = inner_derivation(q, sigma, tau)
    result = is_inner(D)
    assert result["is_inner"]
    # witness may differ from q by the kernel, but must reproduce D
    again = inner_derivation(result["witness"], sigma, tau)
    for x in g.elements():
        assert again.value(x) == D.value(x)


def test_solver_dimension_matches_dense_oracle_anchors():
    expectations = {
        ("symmetric", 3): 3,
        ("quaternion8", None): 3,
        ("dihedral", 4): 3,
        ("heisenberg_mod", 2): 3,
        ("cyclic", 4): 0,
        ("cyclic", 6): 0,
    }
    for (family, param), expected in expectations.items():
        g = builtin_group(family, param)
        e = identity_endomorphism(g)
        space = derivation_space(g, e, e)
        dense = oracles.dense_derivation_dimension(g, e, e)
        classes = len(oracles.brute_ordinary_classes(g))
        assert space["dimension"] == expected
        assert dense == expected
        assert expected == g.order - classes


def test_solver_basis_satisfies_leibniz_and_vanishes_at_identity():
    g = builtin_group("quaternion8")
    sigma = inner_endomorphism(g, g.element_from_json("i"))
    tau = inner_endomorphism(g, g.element_from_json("-j"))
    space = derivation_space(g, sigma, tau)
    assert space["dimension"] == len(space["basis"])
    for D in space["basis"]:
        assert D.value(g.identity()).is_zero()
        assert check_leibniz(D)["ok"]


def test_solver_rejects_large_groups():
    g = builtin_group("cyclic", 70)
    e = identity_endomorphism(g)
    with pytest.raises(GroupTooLarge):
        derivation_space(g, e, e)


def test_inner_space_dimension():
    # dim Inn = |G| - dim{p : p tau(g) = sigma(g) p for all g}
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    result = inner_space(g, e, e)
    # for sigma = tau = id the kernel is the center of the group algebra,
    # spanned by class sums: 3 classes
    assert result["kernel_dimension"] == 3
    assert result["dimension"] == 3


def test_inner_subset_quasi_inner():
    rng = random.Random(21)
    g = builtin_group("dihedral", 4)
    sigma = inner_endomorphism(g, g.element(3))
    tau = inner_endomorphism(g, g.element(6))
    for _ in range(5):
        p = random_algebra_element(g, rng)
        D = inner_derivation(p, sigma, tau)
        assert is_quasi_inner(D)["quasi_inner"]


def test_quasi_inner_potential_leibniz_and_loops():
    rng = random.Random(33)
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(2))
    tau = identity_endomorphism(g)
    for _ in range(10):
        values = {}
        for a in g.elements():
            if rng.random() < 0.6:
                values[a] = GaussianRational(rng.randint(-4, 4),
                                             rng.randint(-4, 4))
        P = Potential(g, values)
        D = quasi_inner_from_potential(P, sigma, tau)
        assert check_leibniz(D)["ok"]
        assert is_quasi_inner(D)["quasi_inner"]


def test_indicator_potential_gives_commutator_delta():
    # P = indicator of h0, sigma = tau = id: D(g) = h0 g - g h0
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    h0 = g.element(4)
    P = Potential(g, {h0: GaussianRational(1, 0)})
    D = quasi_inner_from_potential(P, e, e)
    delta = inner_derivation(AlgebraElement.indicator(g, h0), e, e)
    for x in g.elements():
        assert D.value(x) == delta.value(x)


def test_potential_constant_gauge_invariance():
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(1))
    tau = inner_endomorphism(g, g.element(5))
    from twisted_derivations import GroupoidView
    view = GroupoidView(g, sigma, tau)
    base = {g.element(2): GaussianRational(1, 1)}
    P = Potential(g, base)
    D = quasi_inner_from_potential(P, sigma, tau)
    c = GaussianRational(Fraction(7, 2), Fraction(-1, 5))
    for component in view.components():
        shifted = dict(base)
        for a in component:
            shifted[a] = shifted.get(a, GaussianRational(0, 0)) + c
        D2 = quasi_inner_from_potential(Potential(g, shifted), sigma, tau)
        for x in g.elements():
            assert D2.value(x) == D.value(x)


def test_central_element_detection():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    ok, witness = is_sigma_tau_central(g.element((0, 0, 4)), sigma, tau)
    assert ok and witness is None
    bad, witness = is_sigma_tau_central(g.element((1, 0, 0)), sigma, tau)
    assert not bad and witness is not None


def test_central_derivation_rejects_non_central():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    phi = AdditiveCharacterOnG(g, (1, 0))
    with pytest.raises(NotCentralElement):
        central_derivation(g.element((1, 0, 0)), phi, sigma, tau)


def test_additive_character_on_finite_group_must_vanish():
    g = builtin_group("cyclic", 6)
    with pytest.raises(NotAHomomorphismToC):
        AdditiveCharacterOnG(g, (GaussianRational(1, 0),))
    zero = AdditiveCharacterOnG.zero(g)
    assert zero.is_zero()
    # one generator, the identity
    trivial = builtin_group("cyclic", 1)
    assert AdditiveCharacterOnG.zero(trivial)(trivial.identity()) == 0


def test_heisenberg_character_matches_scalar_arithmetic():
    g = builtin_group("heisenberg_Z")
    mu = GaussianRational(Fraction(1, 2), 3)
    nu = GaussianRational(Fraction(-2, 3))
    for gen_values in ((mu, nu), (3, -2), (0, 0)):
        phi = AdditiveCharacterOnG(g, gen_values)
        m, n = (GaussianRational(v) if isinstance(v, int) else v
                for v in gen_values)
        for x in g.ball(3):
            a, b, _c = x.payload
            value = phi(x)
            assert value == GaussianRational(a) * m + GaussianRational(b) * n
            assert type(value.re) is Fraction and type(value.im) is Fraction


def test_zero_character_gives_zero_derivation():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    phi = AdditiveCharacterOnG.zero(g)
    D = central_derivation(g.element((0, 0, 4)), phi, sigma, tau)
    for x in g.ball(2):
        assert D.value(x).is_zero()


def test_central_family_matches_central_derivation():
    # the family, the generic central construction, and the product-rule
    # fold from the family's hand-written generator values agree
    g = builtin_group("heisenberg_Z")
    params = HeisenbergParams(2, 3, 0, 1)
    sigma, tau = params.endomorphisms(g)
    family = heisenberg_central_family(params, mu=1, nu=-1, r=4, group=g)
    phi = AdditiveCharacterOnG(g, (1, -1))
    direct = central_derivation(g.element((0, 0, 4)), phi, sigma, tau)
    fold = oracles.GeneratorFold(
        g, sigma, tau, oracles.central_family_generator_values(g, params, 1, -1, 4))
    for x in g.ball(3):
        assert family.value(x) == direct.value(x) == fold.value(x)


def test_central_family_zero_parameters():
    params = HeisenbergParams(0, 0, 0, 0)
    D = heisenberg_central_family(params, mu=0, nu=0, r=0)
    g = D.group
    for x in g.ball(2):
        assert D.value(x).is_zero()


def test_central_family_not_quasi_inner_with_loop_witness():
    g = builtin_group("heisenberg_Z")
    params = HeisenbergParams(2, 3, 1, -1)
    sigma, tau = params.endomorphisms(g)
    D = heisenberg_central_family(params, mu=0, nu=1, r=2, group=g)
    result = is_quasi_inner(D, scope=g.ball(2))
    assert not result["quasi_inner"]
    h, gg = result["loop_witness"]
    # the witness is a loop: sigma(g^-1) h = h tau(g^-1)
    assert sigma(gg.inverse()) * h == h * tau(gg.inverse())
    # and it has the documented shape (sigma(g) z^r, g)
    assert h == sigma(gg) * g.element((0, 0, 2))


def test_derivation_json_round_trip():
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(1))
    tau = identity_endomorphism(g)
    p = AlgebraElement(g, {g.element(3): GaussianRational(Fraction(1, 3), 2)})
    D = inner_derivation(p, sigma, tau)
    blob = D.to_json()
    back = DerivationTable.from_json(g, sigma, tau, blob)
    for x in g.elements():
        assert back.value(x) == D.value(x)


def test_heisenberg_table_is_zero_on_its_ball():
    g = builtin_group("heisenberg_Z")
    e = identity_endomorphism(g)
    x = g.element((1, 0, 0))
    blob = {"D": {"[1,0,0]": AlgebraElement.indicator(g, x, 3).to_json()}}
    D = DerivationTable.from_json(g, e, e, blob, radius=1)
    assert D.value(x) == AlgebraElement.indicator(g, x, 3)
    assert D.value(g.identity()).is_zero()
    assert D.value(g.element((0, -1, 0))).is_zero()
    with pytest.raises(ScopeExceeded):
        D.value(g.element((2, 0, 0)))
    with pytest.raises(ScopeExceeded):
        DerivationTable.from_json(g, e, e, blob).value(g.identity())


def test_table_naming_one_element_twice_is_refused():
    # "02" and "2" both parse to element 2; neither may silently win
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    value = AlgebraElement.indicator(g, g.identity()).to_json()
    blob = {"D": {"02": value, "1": value, "2": value}}
    with pytest.raises(SpecError, match="'02' and '2'") as info:
        DerivationTable.from_json(g, e, e, blob)
    assert info.value.payload == {"keys": ["02", "2"]}


def test_heisenberg_table_key_outside_the_ball_is_refused():
    g = builtin_group("heisenberg_Z")
    e = identity_endomorphism(g)
    blob = {"D": {"[2,0,0]": AlgebraElement.indicator(g, g.identity()).to_json()}}
    assert DerivationTable.from_json(g, e, e, blob, radius=2).value(
        g.element((2, 0, 0))) == AlgebraElement.indicator(g, g.identity())
    with pytest.raises(ScopeExceeded) as info:
        DerivationTable.from_json(g, e, e, blob, radius=1)
    assert info.value.payload == {"element": [2, 0, 0], "radius": 1}


def test_potential_json_round_trip():
    g = builtin_group("heisenberg_Z")
    P = Potential(g, {g.element((1, 0, 0)): GaussianRational(2, -1)})
    assert Potential.from_json(g, P.to_json()).values == P.values


def test_ball_table_check_builds_no_pair_list():
    # a radius-2 table read on B(8): of the 1793^2 pairs, 1,046,545 have
    # their product in the ball, and a list of them takes about 64 MiB
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((1, 0, 0)))
    tau = inner_endomorphism(g, g.element((0, 1, 0)))
    P = Potential(g, {g.element((1, 0, 0)): GaussianRational(1)})
    blob = quasi_inner_from_potential(P, sigma, tau).to_json(scope=g.ball(2))
    D = DerivationTable.from_json(g, sigma, tau, blob, radius=8)
    tracemalloc.start()
    try:
        result = check_leibniz(D, leibniz_pairs(D, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result["ok"] is False
    assert peak < 8 * 2**20
