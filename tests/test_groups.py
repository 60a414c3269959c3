import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    GroupMismatch,
    GroupoidView,
    HeisenbergParams,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAssociative,
    NotLatinSquare,
    NotSupportedForScope,
    SpecError,
    UnsupportedParameter,
    all_automorphisms,
    builtin_group,
    identity_endomorphism,
    inner_endomorphism,
    make_endomorphism,
    make_finite_group,
)

triples = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))


def test_cyclic_orders_and_labels():
    g = builtin_group("cyclic", 6)
    assert g.order == 6
    assert g.label(g.identity()) == "e"
    x = g.element(1)
    assert g.label(x) == "g"
    assert g.label(x * x) == "g^2"
    assert x * x.inverse() == g.identity()


def test_symmetric_3_composition():
    g = builtin_group("symmetric", 3)
    assert g.order == 6
    # labels are the one-line images of 012; composition applies the
    # left factor after the right
    swap = g.element_from_json("102")
    cycle = g.element_from_json("120")
    assert g.label(swap * cycle) == "021"
    assert g.label(cycle * swap) == "210"


def test_dihedral_relations():
    g = builtin_group("dihedral", 4)
    r = g.element_from_json("r")
    s = g.element_from_json("s")
    assert g.power(r, 4) == g.identity()
    assert s * s == g.identity()
    assert s * r == g.power(r, 3) * s


def test_quaternion_relations():
    q8 = builtin_group("quaternion8")
    i = q8.element_from_json("i")
    j = q8.element_from_json("j")
    k = q8.element_from_json("k")
    minus = q8.element_from_json("-1")
    assert i * i == minus
    assert j * j == minus
    assert i * j == k
    assert j * i == q8.element_from_json("-k")


def test_heisenberg_mod_is_group():
    g = builtin_group("heisenberg_mod", 2)
    assert g.order == 8
    z = g.element_from_json([0, 0, 1])
    x = g.element_from_json([1, 0, 0])
    y = g.element_from_json([0, 1, 0])
    # [x, y] = z
    assert x * y * x.inverse() * y.inverse() == z


def test_builtin_parameter_validation():
    with pytest.raises(UnsupportedParameter):
        builtin_group("symmetric", 6)
    with pytest.raises(UnsupportedParameter):
        builtin_group("cyclic")
    with pytest.raises(UnsupportedParameter):
        builtin_group("heisenberg_Z", 3)
    with pytest.raises(UnsupportedParameter):
        builtin_group("cyclic", 5000)
    with pytest.raises(UnsupportedParameter):
        builtin_group("quaternion8", 4)
    assert builtin_group("quaternion8", 8).order == 8


def test_cayley_validation_latin():
    with pytest.raises(NotLatinSquare):
        make_finite_group([[0, 0], [1, 1]])


def test_cayley_validation_identity():
    # index 1 acts as identity from the left only; the right-identity
    # scan fails
    with pytest.raises(NoIdentity):
        make_finite_group([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
    # a table whose identity sits at index 1 is still accepted
    assert make_finite_group([[1, 0], [0, 1]]).order == 2


def test_cayley_validation_associativity():
    # an order-5 loop: Latin, two-sided identity, every element its own
    # inverse, but (1*1)*2 = 2 while 1*(1*2) = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        make_finite_group(loop)


def _cyclic_with_switched_intercalate(n, a):
    """The table of Z/n (n even) with the 2x2 Latin subsquare at rows and
    columns {a, b = a + n/2} switched: still Latin, with identity and
    inverses, but not associative."""
    b = a + n // 2
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[a][a], table[a][b] = table[a][b], table[a][a]
    table[b][a], table[b][b] = table[b][b], table[b][a]
    return table


@pytest.mark.parametrize("order", [64, 1000])
def test_cayley_validation_switched_intercalate(order):
    # 1*1 is now 2 + order/2, so (1*1)*2 = 4 + order/2 while 1*(1*2) = 4;
    # the sampled check this replaced accepted the order-1000 table, and
    # up to order 64 the triple is the first of the canonical scan
    table = _cyclic_with_switched_intercalate(order, 1)
    with pytest.raises(NotAssociative) as exc:
        make_finite_group(table)
    assert exc.value.payload == {"triple": [1, 1, 2]}


def test_element_mismatch_between_groups():
    a = builtin_group("cyclic", 3)
    b = builtin_group("cyclic", 4)
    with pytest.raises(GroupMismatch):
        a.multiply(a.identity(), b.identity())


@given(triples, triples, triples)
@settings(max_examples=60)
def test_heisenberg_associativity(p, q, r):
    g = builtin_group("heisenberg_Z")
    a, b, c = g.element(p), g.element(q), g.element(r)
    assert (a * b) * c == a * (b * c)


@given(triples)
@settings(max_examples=60)
def test_heisenberg_inverse(p):
    g = builtin_group("heisenberg_Z")
    a = g.element(p)
    assert a * a.inverse() == g.identity()
    assert a.inverse() * a == g.identity()


@given(triples, st.integers(-12, 12))
@settings(max_examples=60)
def test_heisenberg_power_closed_form(p, n):
    g = builtin_group("heisenberg_Z")
    a = g.element(p)
    acc = g.identity()
    step = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        acc = acc * step
    assert g.power(a, n) == acc


def test_heisenberg_ball_radius_one():
    g = builtin_group("heisenberg_Z")
    ball = g.ball(1)
    payloads = [b.payload for b in ball]
    assert len(ball) == 5
    assert set(payloads) == {(0, 0, 0), (1, 0, 0), (-1, 0, 0),
                             (0, 1, 0), (0, -1, 0)}
    assert payloads[0] == (0, 0, 0)


def test_heisenberg_ball_products_stay_in_double_ball():
    g = builtin_group("heisenberg_Z")
    b2 = g.ball(2)
    b4 = set(g.ball(4))
    for a in b2:
        for b in b2:
            assert a * b in b4


def test_ball_without_radius():
    # a finite group is its own scope; heisenberg_Z refuses a missing radius
    g = builtin_group("symmetric", 3)
    assert g.ball(None) == g.elements()
    with pytest.raises(NotSupportedForScope):
        builtin_group("heisenberg_Z").ball(None)


def test_heisenberg_ball_is_deterministic():
    g = builtin_group("heisenberg_Z")
    assert [x.payload for x in g.ball(3)] == [x.payload for x in g.ball(3)]


def test_identity_endomorphism():
    for g in (builtin_group("symmetric", 3), builtin_group("heisenberg_Z")):
        e = identity_endomorphism(g)
        scope = g.elements() if g.kind == "finite" else g.ball(2)
        for x in scope:
            assert e(x) == x
        assert e.is_automorphism
    # on heisenberg_Z the closed forms that need inner sigma and tau read
    # innerness from the generator images, which fix the generators here
    h = builtin_group("heisenberg_Z")
    e = identity_endomorphism(h)
    assert [h.element(p) for p in e.gen_images] == h.generators
    center = GroupoidView(h, e, e, radius=2).center()
    assert center.kind == "free_abelian"
    assert center.conditions == [(1, 0), (0, 1)]


def test_inner_endomorphism_is_conjugation():
    g = builtin_group("dihedral", 4)
    for x in g.elements():
        f = inner_endomorphism(g, x)
        for a in g.elements():
            assert f(a) == x * a * x.inverse()
        assert f.is_automorphism


def test_inner_endomorphism_heisenberg():
    g = builtin_group("heisenberg_Z")
    x = g.element((2, -1, 3))
    f = inner_endomorphism(g, x)
    for p in g.ball(2):
        assert f(p) == x * p * x.inverse()


def test_make_endomorphism_s3_witness():
    g = builtin_group("symmetric", 3)
    gens = g.generators
    # order of image must divide order of generator; a transposition
    # mapped to a 3-cycle breaks s^2 = e
    images = {}
    three_cycle = g.element_from_json("120")
    for gen in gens:
        images[gen] = three_cycle
    with pytest.raises(NotAHomomorphism):
        make_endomorphism(g, images)


def test_make_endomorphism_refuses_missing_images():
    # a map with too few images is malformed input, not a refuted claim
    g = builtin_group("symmetric", 3)
    with pytest.raises(SpecError, match="missing image for generator"):
        make_endomorphism(g, {})
    with pytest.raises(SpecError, match="expected 2 generator images, got 1"):
        make_endomorphism(g, [g.identity()])
    with pytest.raises(SpecError, match="expected 2 generator images, got 3"):
        make_endomorphism(g, [g.identity()] * 3)


def test_make_endomorphism_square_on_c4():
    g = builtin_group("cyclic", 4)
    f = make_endomorphism(g, {g.element(1): g.element(2)})
    for a in g.elements():
        assert f(a) == g.power(a, 2)
    assert not f.is_automorphism


def test_make_endomorphism_heisenberg_relation_check():
    g = builtin_group("heisenberg_Z")
    x, y = g.generators
    # x -> x, y -> y is the identity, fine
    f = make_endomorphism(g, {x: x, y: y})
    assert f(g.element((3, 4, 5))) == g.element((3, 4, 5))
    # x -> x, y -> x forces [phi x, phi y] = e, killing z: still a valid
    # endomorphism (commutators are central, the relations hold), but
    # not an automorphism
    f2 = make_endomorphism(g, {x: x, y: x})
    assert not f2.is_automorphism
    assert f2(g.element((0, 0, 1))) == g.identity()


def test_all_automorphisms_counts():
    assert len(all_automorphisms(builtin_group("cyclic", 4))) == 2
    assert len(all_automorphisms(builtin_group("cyclic", 6))) == 2
    assert len(all_automorphisms(builtin_group("symmetric", 3))) == 6
    assert len(all_automorphisms(builtin_group("dihedral", 4))) == 8
    assert len(all_automorphisms(builtin_group("quaternion8"))) == 24


def test_all_automorphisms_are_bijective_homomorphisms():
    g = builtin_group("dihedral", 4)
    for f in all_automorphisms(g):
        images = {f(a) for a in g.elements()}
        assert len(images) == g.order
        for a in g.elements():
            for b in g.elements():
                assert f(a * b) == f(a) * f(b)


def test_heisenberg_params_witnesses():
    g = builtin_group("heisenberg_Z")
    params = HeisenbergParams(2, 3, 0, 1)
    s, t = params.witnesses(g)
    assert s.payload == (2, 3, 0)
    assert t.payload == (2, 3, 1)
    sigma, tau = params.endomorphisms(g)
    # the witnesses differ only in c, which conjugation ignores, so sigma
    # and tau are one map: conjugation by either witness
    for p in g.ball(2):
        assert sigma(p) == tau(p) == s * p * s.inverse() == t * p * t.inverse()


def test_element_json_round_trip():
    for g in (builtin_group("quaternion8"), builtin_group("heisenberg_Z")):
        sample = g.elements() if g.kind == "finite" else g.ball(2)
        for x in sample:
            assert g.element_from_json(g.element_to_json(x)) == x


def test_element_from_label():
    q8 = builtin_group("quaternion8")
    assert q8.element_from_json("-k") == q8.element(7)
    heis_mod = builtin_group("heisenberg_mod", 2)
    assert heis_mod.element_from_json([1, 1, 0]) == heis_mod.element_from_json("[1,1,0]")
