"""End-to-end acceptance gate.

Every check here is exact (tolerance zero) and either oracle-backed or
exhaustive over its stated scope. The sweeps carry runtime budgets.
conftest.py prints a one-line verdict per criterion after the run.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from twisted_derivations import (
    AlgebraElement,
    GaussianRational,
    GroupoidView,
    HeisenbergParams,
    Morphism,
    Potential,
    all_automorphisms,
    builtin_group,
    character_from_derivation,
    check_leibniz,
    derivation_from_character,
    derivation_space,
    heisenberg_central_family,
    identity_endomorphism,
    inner_derivation,
    inner_endomorphism,
    inner_space,
    is_inner,
    is_quasi_inner,
    make_endomorphism,
    quasi_inner_from_potential,
)

import oracles

TEST_GROUPS = [
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 6),
    ("symmetric", 3), ("dihedral", 4), ("quaternion8", None),
    ("heisenberg_mod", 2),
]


def _groups():
    return [builtin_group(family, param) for family, param in TEST_GROUPS]


# The innerness sweep feeds criteria 1 and 3, so it runs once and is cached
# together with its wall-clock cost.
_SWEEP = None
_SWEEP_SECONDS = None


def _innerness_sweep():
    global _SWEEP, _SWEEP_SECONDS
    if _SWEEP is None:
        start = time.monotonic()
        rows = []
        for group in _groups():
            for x in group.elements():
                sigma = inner_endomorphism(group, x)
                for y in group.elements():
                    tau = inner_endomorphism(group, y)
                    der = derivation_space(group, sigma, tau)
                    inn = inner_space(group, sigma, tau)
                    verdicts = [is_inner(D)["is_inner"] for D in der["basis"]]
                    rows.append((group, sigma, tau, der, inn, verdicts))
        _SWEEP_SECONDS = time.monotonic() - start
        _SWEEP = rows
    return _SWEEP


def test_criterion_1():
    # every pair of inner endomorphisms on every test group: the solved
    # derivation space and the inner space have equal dimension, and each
    # basis vector is certified inner
    rows = _innerness_sweep()
    assert len(rows) == sum(g.order ** 2 for g in _groups()) == 293
    for group, _sigma, _tau, der, inn, verdicts in rows:
        assert der["dimension"] == inn["dimension"], group.name
        assert der["dimension"] == len(der["basis"])
        assert all(verdicts), group.name
    assert _SWEEP_SECONDS <= 600.0, _SWEEP_SECONDS


def test_criterion_2():
    # untwisted anchor: dim Der = |G| - #conjugacy classes, produced by the
    # independent dense-nullspace oracle before the solver is consulted
    pinned = {
        ("cyclic", 2): 0, ("cyclic", 3): 0, ("cyclic", 4): 0, ("cyclic", 6): 0,
        ("symmetric", 3): 3, ("dihedral", 4): 3, ("quaternion8", None): 3,
        ("heisenberg_mod", 2): 3,
    }
    for (family, param), group in zip(TEST_GROUPS, _groups()):
        e = identity_endomorphism(group)
        classes = oracles.brute_ordinary_classes(group)
        expected = group.order - len(classes)
        assert expected == pinned[(family, param)], group.name
        anchor = oracles.dense_derivation_dimension(group, e, e)
        assert anchor == expected, group.name
        assert derivation_space(group, e, e)["dimension"] == anchor, group.name


def test_criterion_3():
    # the character map is additive on all composable pairs and inverts
    # exactly, for every basis derivation produced by the criterion-1 sweep
    for group, sigma, tau, der, _inn, _v in _innerness_sweep():
        if not der["basis"]:
            continue
        view = GroupoidView(group, sigma, tau)
        morphisms = view.all_morphisms()
        composable = [
            (f, g, view.compose(f, g))
            for f in morphisms for g in morphisms
            if view.target(f) == view.source(g)
        ]
        for D in der["basis"]:
            chi = character_from_derivation(view, D)
            for f, g, fg in composable:
                assert chi.value(fg) == chi.value(f) + chi.value(g)
            assert derivation_from_character(view, chi) == D


def test_criterion_4():
    # random potentials always induce derivations whose characters vanish on
    # loops; indicator potentials give the commutator derivation; shifting a
    # potential by a constant on any component changes nothing
    rng = random.Random(20260815)

    def coeff():
        return GaussianRational(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))

    for group in _groups():
        elements = group.elements()
        for _trial in range(100):
            sigma = inner_endomorphism(group, rng.choice(elements))
            tau = inner_endomorphism(group, rng.choice(elements))
            support = rng.sample(elements, rng.randrange(1, len(elements) + 1))
            values = {g: coeff() for g in support}
            D = quasi_inner_from_potential(Potential(group, values), sigma, tau)
            leib = check_leibniz(D)
            assert leib["ok"], leib["violations"][:1]
            assert is_quasi_inner(D)["quasi_inner"] is True

            view = GroupoidView(group, sigma, tau)
            shifted = dict(values)
            for component in view.components():
                c = GaussianRational(rng.randrange(-3, 4))
                for g in component:
                    shifted[g] = shifted.get(g, GaussianRational(0)) + c
            D2 = quasi_inner_from_potential(
                Potential(group, shifted), sigma, tau)
            assert D2 == D

        e = identity_endomorphism(group)
        for h0 in elements:
            P = Potential(group, {h0: GaussianRational(1)})
            D = quasi_inner_from_potential(P, e, e)
            delta = inner_derivation(
                AlgebraElement.indicator(group, h0, 1), e, e)
            assert D == delta, group.label(h0)


def test_criterion_5():
    # the two-parameter central family on the integer Heisenberg group:
    # Leibniz exactly on every ball-3 pair, and never quasi-inner once
    # (mu, nu) != (0, 0). The c-entries of the conjugation witnesses do not
    # move the maps, so the 6912-point grid collapses onto 432 classes; the
    # collapse is certified on generators before representatives are checked.
    start = time.monotonic()
    group = builtin_group("heisenberg_Z")
    x = group.element((1, 0, 0))
    y = group.element((0, 1, 0))
    grid = (-1, 0, 1, 2)
    small = (-1, 0, 1)

    reps = {}
    combos = 0
    for sa in grid:
        for sb in grid:
            for sc in grid:
                for tc in grid:
                    params = HeisenbergParams(sa, sb, sc, tc)
                    sigma, tau = params.endomorphisms(group)
                    for mu in small:
                        for nu in small:
                            for r in small:
                                combos += 1
                                D = heisenberg_central_family(
                                    params, mu, nu, r, group=group)
                                key = (sa, sb, mu, nu, r)
                                if key not in reps:
                                    reps[key] = (D, sigma, tau)
                                    continue
                                D0, sigma0, tau0 = reps[key]
                                # agreeing on the generators pins down an
                                # endomorphism, and with it the derivation
                                assert sigma0(x) == sigma(x)
                                assert sigma0(y) == sigma(y)
                                assert tau0(x) == tau(x)
                                assert tau0(y) == tau(y)
                                assert D.value(x) == D0.value(x)
                                assert D.value(y) == D0.value(y)
    assert combos == 4 ** 4 * 3 ** 3 == 6912
    assert len(reps) == 432

    ball3 = group.ball(3)
    pairs = [(g2, g1) for g2 in ball3 for g1 in ball3]
    for (sa, sb, mu, nu, r) in sorted(reps):
        D, _sigma, _tau = reps[(sa, sb, mu, nu, r)]
        leib = check_leibniz(D, pairs=pairs)
        assert leib["ok"], (sa, sb, mu, nu, r)
        if (mu, nu) != (0, 0):
            q = is_quasi_inner(D, scope=ball3)
            assert q["quasi_inner"] is False, (sa, sb, mu, nu, r)
            assert q["loop_witness"] is not None
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, elapsed


def test_criterion_6():
    # (a) conjugation pairs sigma = tau reproduce ordinary conjugacy classes
    for group in _groups():
        ordinary = {frozenset(c) for c in oracles.brute_ordinary_classes(group)}
        for w in group.elements():
            sigma = inner_endomorphism(group, w)
            view = GroupoidView(group, sigma, sigma)
            twisted = {frozenset(c) for c in view.components()}
            assert twisted == ordinary, (group.name, group.label(w))

    # (b) the twisted center of an inner pair is the ordinary center
    for name in ("quaternion8", "heisenberg_mod"):
        group = builtin_group(name, 2 if name == "heisenberg_mod" else None)
        e = identity_endomorphism(group)
        ordinary_center = set(oracles.brute_center(group, e, e))
        for w1 in group.elements():
            sigma = inner_endomorphism(group, w1)
            for w2 in group.elements():
                tau = inner_endomorphism(group, w2)
                view = GroupoidView(group, sigma, tau)
                assert set(view.center()) == ordinary_center

    # (c) orbit-stabilizer: |centralizer| * |class| = |G| for every pair of
    # automorphisms, not only the inner ones
    for group in _groups():
        autos = all_automorphisms(group)
        for sigma in autos:
            for tau in autos:
                view = GroupoidView(group, sigma, tau)
                for a in group.elements():
                    stab = len(view.centralizer(a))
                    orbit = len(view.conjugacy_class(a))
                    assert stab * orbit == group.order, group.name


def test_criterion_7():
    # composition on the action groupoid: identity laws come with source and
    # target consistency and associativity, checked on every composable
    # triple; then the closed-form composite that rebuilds (h, g2*g1)
    s3 = builtin_group("symmetric", 3)
    c4 = builtin_group("cyclic", 4)
    square = make_endomorphism(c4, {c4.generators[0]: c4.element(2)})
    views = [
        GroupoidView(s3, identity_endomorphism(s3), identity_endomorphism(s3)),
        GroupoidView(s3, inner_endomorphism(s3, s3.element(1)),
                     identity_endomorphism(s3)),
        GroupoidView(c4, square, identity_endomorphism(c4)),
    ]
    for view in views:
        morphisms = view.all_morphisms()
        composable = [
            (f, g, view.compose(f, g))
            for f in morphisms for g in morphisms
            if view.target(f) == view.source(g)
        ]
        assert composable
        for f, g, fg in composable:
            assert view.source(fg) == view.source(f)
            assert view.target(fg) == view.target(g)
        for f, g, fg in composable:
            for h in morphisms:
                if view.target(g) == view.source(h):
                    assert view.compose(fg, h) == view.compose(f, view.compose(g, h))

    for view in views[:2]:
        sigma, tau = view.sigma, view.tau
        for h in s3.elements():
            for g1 in s3.elements():
                for g2 in s3.elements():
                    first = Morphism(sigma(g2.inverse()) * h, g1)
                    second = Morphism(h * tau(g1.inverse()), g2)
                    assert view.compose(first, second) == Morphism(h, g2 * g1)


CLI_COMMANDS = [
    ["classes", "--group", "builtin:s3", "--sigma", "id", "--tau", "id"],
    ["center", "--group", "builtin:quaternion8", "--sigma", "id", "--tau", "id"],
    ["classes", "--group", "builtin:heisenberg_Z", "--sigma", "inner:[2,3,0]",
     "--tau", "inner:[2,3,1]", "--radius", "3", "--element", "[0,0,5]"],
    ["derivations", "dim", "--group", "builtin:s3", "--sigma", "id", "--tau", "id"],
    ["derivations", "verify-decomposition", "--group", "builtin:quaternion8",
     "--sigma", "inner:i", "--tau", "inner:j"],
    ["derivations", "central", "--group", "builtin:heisenberg_Z",
     "--params", "2,3,0,1", "--mu", "1", "--nu", "0", "--r", "4",
     "--check-radius", "3"],
    ["groupoid-export", "--group", "builtin:trivial", "--format", "dot"],
    ["groupoid-export", "--group", "builtin:s3", "--format", "dot"],
    ["groupoid-export", "--group", "builtin:c4", "--sigma", "images:{g:2}",
     "--tau", "id", "--format", "dot"],
    ["group-info", "--group", "builtin:d4"],
    ["centralizers", "--group", "builtin:q8", "--sigma", "inner:i"],
    ["derivations", "basis", "--group", "builtin:q8",
     "--sigma", "inner:i", "--tau", "inner:j"],
    ["groupoid-export", "--group", "builtin:heisenberg_Z", "--sigma",
     "inner:[2,3,0]", "--tau", "inner:[1,-1,1]", "--radius", "4",
     "--format", "dot"],
    ["classes", "--group", "builtin:heisenberg_Z", "--sigma", "inner:[1,0,0]",
     "--tau", "inner:[0,2,1]", "--radius", "3"],
]


def test_criterion_8():
    # byte-identical reruns for every command exercised above, plus the
    # pinned values the JSON bodies must carry
    outputs = []
    for cmd in CLI_COMMANDS:
        runs = [
            subprocess.run([sys.executable, "-m", "twisted_derivations", *cmd],
                           capture_output=True)
            for _ in range(2)
        ]
        for proc in runs:
            assert proc.returncode == 0, (cmd, proc.stderr)
        assert runs[0].stdout == runs[1].stdout, cmd
        assert runs[0].stderr == runs[1].stderr, cmd
        outputs.append(runs[0].stdout)

    def body(i):
        return json.loads(outputs[i])

    assert body(0)["sizes"] == [1, 2, 3]
    assert body(1)["order"] == 2
    assert body(2)["size"] == 1 and body(2)["truncated"] is False
    assert body(3)["dimension"] == 3
    assert body(4)["dims_match"] is True
    assert body(5)["leibniz_ok"] is True
    assert outputs[6].count(b"subgraph cluster_") == 1
    assert b"->" in outputs[6]
    assert outputs[7].count(b"subgraph cluster_") == 3
    assert outputs[12].count(b"subgraph cluster_") == 61
    assert body(13)["count"] == 36
