import pytest

from twisted_derivations import (
    GroupoidView,
    Morphism,
    NotADerivation,
    NotComposable,
    NotSupportedForScope,
    SubgroupDescription,
    builtin_group,
    character_from_derivation,
    derivation_from_character,
    derivation_space,
    identity_endomorphism,
    inner_derivation,
    inner_endomorphism,
    make_endomorphism,
    quasi_inner_from_potential,
    to_dot,
)
from twisted_derivations import (
    AlgebraElement,
    DerivationTable,
    GaussianRational,
    Potential,
)

import oracles


def s3_view():
    g = builtin_group("symmetric", 3)
    sigma = inner_endomorphism(g, g.element(1))
    tau = identity_endomorphism(g)
    return g, sigma, tau, GroupoidView(g, sigma, tau)


def c4_square_view():
    g = builtin_group("cyclic", 4)
    sigma = make_endomorphism(g, {g.element(1): g.element(2)})
    tau = identity_endomorphism(g)
    return g, sigma, tau, GroupoidView(g, sigma, tau)


def test_source_target_of_identity():
    g, sigma, tau, view = s3_view()
    for a in g.elements():
        m = view.identity_morphism(a)
        assert view.source(m) == a
        assert view.target(m) == a


def test_identity_laws():
    g, sigma, tau, view = s3_view()
    for m in view.all_morphisms():
        left = view.compose(view.identity_morphism(view.source(m)), m)
        right = view.compose(m, view.identity_morphism(view.target(m)))
        assert left == m
        assert right == m


def test_compose_rejects_mismatched():
    g, sigma, tau, view = s3_view()
    m = Morphism(g.element(2), g.element(3))
    # find some morphism whose source differs from target(m)
    for other in view.all_morphisms():
        if view.source(other) != view.target(m):
            with pytest.raises(NotComposable):
                view.compose(m, other)
            break


def test_composition_source_target_and_associativity():
    for maker in (s3_view, c4_square_view):
        g, sigma, tau, view = maker()
        morphs = view.all_morphisms()
        by_source = {}
        for m in morphs:
            by_source.setdefault(view.source(m), []).append(m)
        for f in morphs:
            for m2 in by_source.get(view.target(f), []):
                comp = view.compose(f, m2)
                assert view.source(comp) == view.source(f)
                assert view.target(comp) == view.target(m2)
                for m3 in by_source.get(view.target(m2), []):
                    assert (view.compose(view.compose(f, m2), m3)
                            == view.compose(f, view.compose(m2, m3)))


def test_closed_form_composite_rebuilds_products():
    g, sigma, tau, view = s3_view()
    for h in g.elements():
        for g1 in g.elements():
            for g2 in g.elements():
                first = Morphism(sigma(g2.inverse()) * h, g1)
                second = Morphism(h * tau(g1.inverse()), g2)
                assert view.compose(first, second) == Morphism(h, g2 * g1)


def test_hom_set_matches_brute_force():
    g, sigma, tau, view = s3_view()
    for a in g.elements():
        for b in g.elements():
            got = {(m.u, m.v) for m in view.hom_set(a, b)}
            expected = set(oracles.brute_hom_set(g, sigma, tau, a, b))
            assert got == expected


def test_loops_are_indexed_by_centralizer():
    g, sigma, tau, view = s3_view()
    for a in g.elements():
        loops = view.loops(a)
        z = view.centralizer(a)
        assert {m.v for m in loops} == set(z)


def test_conjugacy_class_matches_brute_force():
    g, sigma, tau, view = s3_view()
    for a in g.elements():
        cls = view.conjugacy_class(a)
        assert set(cls.elements) == oracles.brute_conjugacy_class(g, sigma, tau, a)
        assert not cls.truncated


def test_class_agrees_with_orbit_form():
    # {sigma(g^-1) a tau(g)} and {sigma(v) a tau(v^-1)} list the same set
    g, sigma, tau, view = s3_view()
    for a in g.elements():
        definition_form = oracles.brute_conjugacy_class(g, sigma, tau, a)
        orbit_form = {sigma(v) * a * tau(v.inverse()) for v in g.elements()}
        assert definition_form == orbit_form


def test_components_partition_the_group():
    for maker in (s3_view, c4_square_view):
        g, sigma, tau, view = maker()
        comps = view.components()
        seen = [a for cls in comps for a in cls]
        assert len(seen) == g.order
        assert len(set(seen)) == g.order
        # components coincide with classes on a finite group
        for cls in comps:
            assert set(cls) == oracles.brute_conjugacy_class(
                g, sigma, tau, cls[0])


def test_centralizer_matches_brute_force():
    g, sigma, tau, view = s3_view()
    for u in g.elements():
        assert set(view.centralizer(u)) == oracles.brute_centralizer(
            g, sigma, tau, u)


def test_center_matches_brute_force():
    for maker in (s3_view, c4_square_view):
        g, sigma, tau, view = maker()
        assert set(view.center()) == oracles.brute_center(g, sigma, tau)


def test_shared_centralizer_within_component_rank2():
    # on a rank-2 nilpotent example every object of a component has the
    # same centralizer
    g = builtin_group("quaternion8")
    sigma = inner_endomorphism(g, g.element_from_json("i"))
    tau = inner_endomorphism(g, g.element_from_json("j"))
    view = GroupoidView(g, sigma, tau)
    for cls in view.components():
        base = set(view.centralizer(cls[0]))
        for other in cls[1:]:
            assert set(view.centralizer(other)) == base


def test_heisenberg_view_requires_radius():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    with pytest.raises(NotSupportedForScope):
        GroupoidView(g, sigma, sigma)


def test_heisenberg_centralizer_closed_form_vs_ball():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    view = GroupoidView(g, sigma, tau, radius=3)
    for payload in ((0, 0, 5), (1, 0, 0), (2, -1, 3), (0, 1, 0)):
        u = g.element(payload)
        desc = view.centralizer(u)
        assert isinstance(desc, SubgroupDescription)
        for z in g.ball(3):
            in_closed_form = desc.contains(z)
            satisfies = sigma(z) * u == u * tau(z)
            assert in_closed_form == satisfies, (payload, z.payload)


def test_heisenberg_center_closed_form():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    view = GroupoidView(g, sigma, tau, radius=2)
    center = view.center()
    assert center.rank == 1
    assert [z.payload for z in center.generators] == [(0, 0, 1)]
    # membership agrees with the defining condition on a sample
    for z in g.ball(2):
        sz = sigma(z)
        tz = tau(z)
        holds = all(sz * p == p * tz for p in g.ball(2))
        if center.contains(z):
            assert holds
    # ordinary center sits inside: powers of (0,0,1)
    assert center.contains(g.element((0, 0, -7)))
    assert not center.contains(g.element((1, 0, 0)))


def test_heisenberg_singleton_class_certificate():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    view = GroupoidView(g, sigma, tau, radius=3)
    cls = view.conjugacy_class(g.element((0, 0, 5)))
    assert cls.elements == [g.element((0, 0, 5))]
    assert cls.truncated is False
    growing = view.conjugacy_class(g.element((1, 0, 0)))
    assert growing.truncated is True
    assert len(growing.elements) > 1


def test_character_round_trip_on_solver_basis():
    g, sigma, tau, view = s3_view()
    space = derivation_space(g, sigma, tau)
    assert space["dimension"] > 0
    for D in space["basis"]:
        chi = character_from_derivation(view, D)
        assert derivation_from_character(view, chi) == D


def test_character_additivity():
    g, sigma, tau, view = s3_view()
    p = AlgebraElement(g, {g.element(2): GaussianRational(1, 1),
                           g.element(5): GaussianRational(0, 1)})
    D = inner_derivation(p, sigma, tau)
    chi = character_from_derivation(view, D)
    by_source = {}
    for m in view.all_morphisms():
        by_source.setdefault(view.source(m), []).append(m)
    for f in view.all_morphisms():
        for m2 in by_source.get(view.target(f), []):
            comp = view.compose(f, m2)
            assert chi.value(comp) == chi.value(f) + chi.value(m2)


def test_character_rejects_non_derivation():
    g, sigma, tau, view = s3_view()
    from twisted_derivations import DerivationTable
    values = {x: AlgebraElement.zero(g) for x in g.elements()}
    values[g.element(1)] = AlgebraElement.indicator(g, g.element(0))
    D = DerivationTable.from_table(g, sigma, tau, values)
    with pytest.raises(NotADerivation) as err:
        character_from_derivation(view, D)
    assert err.value.payload.get("witness")


def test_character_from_heisenberg_ball_table():
    # a table read on the ball has no values outside it, so additivity is
    # checked on the pairs whose product stays in the ball
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((1, 0, 0)))
    tau = inner_endomorphism(g, g.element((0, 1, 0)))
    P = Potential(g, {g.element((1, 0, 0)): GaussianRational(1),
                      g.element((0, 1, 1)): GaussianRational(2, 1)})
    D = quasi_inner_from_potential(P, sigma, tau)
    view = GroupoidView(g, sigma, tau, radius=2)
    ball = view.objects()
    table = DerivationTable.from_json(g, sigma, tau, D.to_json(scope=ball),
                                      radius=2)
    chi = character_from_derivation(view, table)
    assert chi.values == character_from_derivation(view, D).values
    values = {x: table.value(x) for x in ball}
    values[g.element((1, 0, 0))] = AlgebraElement.zero(g)
    with pytest.raises(NotADerivation):
        character_from_derivation(
            view, DerivationTable.from_table(g, sigma, tau, values))


def test_quasi_inner_character_vanishes_on_loops():
    import random
    rng = random.Random(5)
    g, sigma, tau, view = s3_view()
    for _ in range(10):
        values = {}
        for a in g.elements():
            if rng.random() < 0.5:
                values[a] = GaussianRational(rng.randint(-3, 3),
                                             rng.randint(-3, 3))
        P = Potential(g, values)
        D = quasi_inner_from_potential(P, sigma, tau)
        chi = character_from_derivation(view, D)
        for a in g.elements():
            for loop in view.loops(a):
                assert chi.value(loop) == GaussianRational(0, 0)


def test_dot_output_shape_s3_identity():
    g = builtin_group("symmetric", 3)
    view = GroupoidView(g, identity_endomorphism(g), identity_endomorphism(g))
    dot = to_dot(view)
    assert dot.count("subgraph cluster_") == 3
    assert dot.count('"012"') >= 1
    assert dot.startswith("digraph groupoid {")
    # deterministic
    assert to_dot(view) == dot


def test_dot_trivial_group_identity_loop():
    g = builtin_group("cyclic", 1)
    view = GroupoidView(g, identity_endomorphism(g), identity_endomorphism(g))
    dot = to_dot(view)
    assert dot.count("subgraph cluster_") == 1
    assert '"e" -> "e"' in dot


def test_dot_every_node_in_some_cluster():
    g, sigma, tau, view = s3_view()
    dot = to_dot(view)
    for a in g.elements():
        assert f'"{g.label(a)}"' in dot
