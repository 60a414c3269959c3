"""Differential tests for the finite-group checks that run on generators.

_validate_cayley proves associativity by Light's test over the greedy
generators, and in_twisted_center decides membership in the twisted
center from sigma(z) = tau(z) and the generators: GroupoidView.center
applies it to every element, is_rank2_nilpotent to the commutators of
generator pairs, and is_sigma_tau_abelian to the generators. The
references below scan every element (or, for rank 2, build the coset
quotient of the twisted center as the replaced code did). Both sides
must agree on builtins of order <= 24, for tables with a random 2x2
Latin subsquare switched and for sigma, tau drawn from the identity,
inner maps and random generator images, non-injective ones included.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    GroupoidView,
    builtin_group,
    identity_endomorphism,
    inner_endomorphism,
    is_rank2_nilpotent,
    is_sigma_tau_abelian,
    make_endomorphism,
    make_finite_group,
)
from twisted_derivations import groups
from twisted_derivations.errors import (
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAssociative,
)

BUILTINS = [
    ("cyclic", 1), ("cyclic", 2), ("cyclic", 6), ("cyclic", 12),
    ("dihedral", 3), ("dihedral", 4), ("dihedral", 6), ("dihedral", 12),
    ("symmetric", 3), ("symmetric", 4), ("quaternion8", None),
    ("heisenberg_mod", 2),
]


@lru_cache(maxsize=None)
def _group(spec):
    return builtin_group(*spec)


@lru_cache(maxsize=None)
def _intercalates(spec):
    """Every 2x2 Latin subsquare (r1, r2, c1, c2) of the builtin's table."""
    table = _group(spec).cayley
    n = len(table)
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                c2 = table[r1].index(table[r2][c1])
                if c1 < c2 and table[r2][c2] == table[r1][c1]:
                    out.append((r1, r2, c1, c2))
    return out


def reference_validation(table):
    """The replaced exhaustive validation: identity, inverses, then the
    first (a, b, c) in canonical order with (a b) c != a (b c)."""
    n = len(table)
    identity = next((e for e in range(n)
                     if all(table[e][x] == x == table[x][e] for x in range(n))),
                    None)
    if identity is None:
        return ("NoIdentity", None)
    for g in range(n):
        if not any(table[g][h] == identity == table[h][g] for h in range(n)):
            return ("NoInverse", g)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return ("NotAssociative", [a, b, c])
    return ("ok", identity)


def _outcome(table):
    try:
        group = make_finite_group(table)
    except NoIdentity:
        return ("NoIdentity", None)
    except NoInverse as exc:
        return ("NoInverse", exc.payload["element"])
    except NotAssociative as exc:
        return ("NotAssociative", exc.payload["triple"])
    return ("ok", group.identity_index)


@st.composite
def tables(draw):
    spec = draw(st.sampled_from(BUILTINS))
    table = [list(row) for row in _group(spec).cayley]
    found = _intercalates(spec)
    if found and draw(st.booleans()):
        r1, r2, c1, c2 = draw(st.sampled_from(found))
        table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
        table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    return table


@settings(max_examples=80, deadline=None)
@given(tables())
def test_light_test_matches_canonical_scan(table):
    assert _outcome(table) == reference_validation(table)


@settings(max_examples=40, deadline=None)
@given(tables())
def test_generator_witness_is_a_real_failure(table):
    # with the canonical rescan switched off, the witness is the
    # generator test's own (x, g, y); it must still break associativity
    expected = reference_validation(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "WITNESS_SCAN_LIMIT", 0)
        outcome = _outcome(table)
    assert outcome[0] == expected[0]
    if outcome[0] == "NotAssociative":
        a, b, c = outcome[1]
        assert table[table[a][b]][c] != table[a][table[b][c]]


def reference_center(group, sigma, tau):
    elems = group.elements()
    return [z for z in elems
            if all(sigma(z) * p == p * tau(z) for p in elems)]


def reference_rank2(group, sigma, tau):
    """The replaced is_rank2_nilpotent: the coset quotient of the twisted
    center, with its product checked well defined before commutativity
    is tested. The checks that used to raise CenterNotNormal are
    assertions here: the twisted center is always normal."""
    elems = group.elements()
    center = reference_center(group, sigma, tau)
    center_set = set(center)
    for z1 in center:
        for z2 in center:
            assert z1 * z2 in center_set
    coset_of = {}
    cosets = []
    for g in elems:
        if g in coset_of:
            continue
        coset = frozenset(g * z for z in center)
        idx = len(cosets)
        cosets.append((g, coset))
        for member in coset:
            assert member not in coset_of or coset_of[member] == idx
            coset_of[member] = idx
    assert sum(len(c) for _, c in cosets) == len(elems)
    for a, coset_a in cosets:
        for b, coset_b in cosets:
            expected = coset_of[a * b]
            for a2 in coset_a:
                for b2 in coset_b:
                    assert coset_of[a2 * b2] == expected
    return all(coset_of[a * b] == coset_of[b * a]
               for a, _ in cosets for b, _ in cosets)


def reference_abelian(group, sigma, tau):
    elems = group.elements()
    return all(sigma(v) * u == u * tau(v) for u in elems for v in elems)


@st.composite
def endomorphisms(draw, group):
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
def pairs(draw):
    group = _group(draw(st.sampled_from(BUILTINS)))
    return group, draw(endomorphisms(group)), draw(endomorphisms(group))


@settings(max_examples=120, deadline=None)
@given(pairs())
def test_generator_checks_match_exhaustive_references(pair):
    group, sigma, tau = pair
    assert (GroupoidView(group, sigma, tau).center()
            == reference_center(group, sigma, tau))
    assert is_rank2_nilpotent(group, sigma, tau) == reference_rank2(
        group, sigma, tau)
    assert is_sigma_tau_abelian(group, sigma, tau) == reference_abelian(
        group, sigma, tau)


def test_references_see_both_answers():
    # the drawn inputs reach both truth values of each predicate
    s3, q8 = _group(("symmetric", 3)), _group(("quaternion8", None))
    c6 = _group(("cyclic", 6))
    e = identity_endomorphism
    assert reference_rank2(q8, e(q8), e(q8))
    assert not reference_rank2(s3, e(s3), e(s3))
    assert reference_abelian(c6, e(c6), e(c6))
    assert not reference_abelian(s3, e(s3), e(s3))
