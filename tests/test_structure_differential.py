"""Differential tests for structure read off the class partition and the
generators.

structure_report and verify_decomposition take each centralizer order
as |G| / |class| by orbit-stabilizer; GroupoidView.conjugacy_class on a
finite group returns the component of its element; is_sigma_tau_abelian
and is_fc test the generators for membership in the twisted center;
the builtin dihedral, quaternion and heisenberg_mod tables come from
closed formulas; make_endomorphism proves the homomorphism property on
the (g, s) pairs with s a generator. The references below are the code
these replaced: centralizer scans, the all-pairs abelianness check, the
class-listing FC probe, the move-listing class, the old table builders
and the full (g, h) scan. Both sides must agree on finite builtins of
order <= 32 and on heisenberg_Z, for sigma and tau drawn from the
identity, inner maps and generator images, non-injective ones included.
"""

import json
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    GroupoidView,
    builtin_group,
    identity_endomorphism,
    inner_endomorphism,
    is_fc,
    is_rank2_nilpotent,
    is_sigma_tau_abelian,
    is_sigma_tau_central,
    make_endomorphism,
    structure_report,
    verify_decomposition,
)
from twisted_derivations import groups
from twisted_derivations.cli import main
from twisted_derivations.errors import NotAHomomorphism

FINITE = [
    ("cyclic", 1), ("cyclic", 2), ("cyclic", 6), ("cyclic", 32),
    ("dihedral", 3), ("dihedral", 4), ("dihedral", 6), ("dihedral", 16),
    ("symmetric", 3), ("symmetric", 4), ("quaternion8", None),
    ("heisenberg_mod", 2), ("heisenberg_mod", 3),
]


@lru_cache(maxsize=None)
def _group(spec):
    return builtin_group(*spec)


# -- references: the replaced code ---------------------------------------------


def reference_report_classes(group, sigma, tau):
    """class_summary and per_class of the replaced finite structure_report,
    which scanned G for each representative's centralizer."""
    view = GroupoidView(group, sigma, tau)
    summary, per_class = [], []
    for cls in view.components():
        rep = cls[0]
        centralizer = [z for z in group.elements()
                       if sigma(z) * rep == rep * tau(z)]
        summary.append({"representative": rep.payload, "size": len(cls)})
        per_class.append({"representative": rep.payload,
                          "centralizer_size": len(centralizer),
                          "char_space_dim": 0})
    return summary, per_class


def reference_decomposition_classes(group, sigma, tau):
    """The classes list of the replaced verify_decomposition."""
    view = GroupoidView(group, sigma, tau)
    return [{"representative": cls[0].payload, "size": len(cls),
             "centralizer_order": len([
                 z for z in group.elements()
                 if sigma(z) * cls[0] == cls[0] * tau(z)]),
             "char_dim": 0}
            for cls in view.components()]


def reference_abelian(group, sigma, tau):
    """sigma(v) u = u tau(v) over all pairs of the group, or of the
    radius-2 ball on heisenberg_Z (it holds e and the generators)."""
    elems = group.ball(2)
    return all(sigma(v) * u == u * tau(v) for u in elems for v in elems)


def reference_fc(group, sigma, tau, radius):
    """The replaced is_fc: probe the classes of the radius-min(r, 2) ball."""
    if group.kind == "finite":
        return True
    view = GroupoidView(group, sigma, tau, radius=radius)
    for a in group.ball(min(radius, 2)):
        if view.conjugacy_class(a).truncated:
            return "truncated-unknown"
    return True


def reference_class(view, a):
    """The replaced finite conjugacy_class: sigma(v) a tau(v^-1) over the
    distinct moves v."""
    group = view.group
    seen = {view._step(key, a.payload) for key in view._distinct_moves()}
    return sorted(map(group.element, seen), key=group.sort_key)


def reference_dihedral_tables(n):
    def mul(p, q):
        i1, j1 = p
        i2, j2 = q
        sign = -1 if j1 else 1
        return ((i1 + sign * i2) % n, j1 ^ j2)

    def idx(p):
        return p[0] + p[1] * n

    elems = [(i, j) for j in (0, 1) for i in range(n)]
    return [[idx(mul(p, q)) for q in elems] for p in elems]


def reference_quaternion_tables():
    def unit_mul(a1, a2):
        if a1 == 0:
            return a2, 1
        if a2 == 0:
            return a1, 1
        if a1 == a2:
            return 0, -1
        third = 6 - a1 - a2
        if (a1, a2) in ((1, 2), (2, 3), (3, 1)):
            return third, 1
        return third, -1

    def idx(axis, sign):
        return 2 * axis + (0 if sign > 0 else 1)

    elems = [(axis, sign) for axis in range(4) for sign in (1, -1)]
    cayley = []
    for a1, s1 in elems:
        row = []
        for a2, s2 in elems:
            axis, s = unit_mul(a1, a2)
            row.append(idx(axis, s * s1 * s2))
        cayley.append(row)
    return cayley


def reference_heisenberg_mod_tables(n):
    elems = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    index = {p: i for i, p in enumerate(elems)}

    def mul(p, q):
        return ((p[0] + q[0]) % n, (p[1] + q[1]) % n,
                (p[2] + q[2] + p[0] * q[1]) % n)

    return [[index[mul(p, q)] for q in elems] for p in elems]


def reference_endomorphism(group, images):
    """The replaced finite make_endomorphism: (table, None), or (None,
    the first (g, h) of the full scan with phi(g h) != phi(g) phi(h))."""
    cay = group.cayley
    table = [None] * group.order
    table[group.identity_index] = group.identity_index
    frontier = [group.identity_index]
    pairs = list(zip((s.payload for s in group.generators),
                     (img.payload for img in images)))
    while frontier:
        nxt = []
        for w in frontier:
            for s, s_img in pairs:
                p = cay[w][s]
                if table[p] is None:
                    table[p] = cay[table[w]][s_img]
                    nxt.append(p)
        frontier = nxt
    for g in range(group.order):
        for h in range(group.order):
            if table[cay[g][h]] != cay[table[g]][table[h]]:
                return None, [g, h]
    return table, None


# -- strategies ----------------------------------------------------------------


@st.composite
def finite_endomorphisms(draw, group):
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
def finite_pairs(draw, max_order=32):
    group = _group(draw(st.sampled_from(
        [spec for spec in FINITE if _group(spec).order <= max_order])))
    return (group, draw(finite_endomorphisms(group)),
            draw(finite_endomorphisms(group)))


_COORD = st.integers(-2, 2)


@st.composite
def heisenberg_endomorphisms(draw):
    group = builtin_group("heisenberg_Z")
    triple = st.tuples(_COORD, _COORD, _COORD).map(group.element)
    if draw(st.booleans()):
        return inner_endomorphism(group, draw(triple))
    return make_endomorphism(group, [draw(triple), draw(triple)])


# -- tests ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(finite_pairs())
def test_finite_structure_matches_centralizer_scans(pair):
    group, sigma, tau = pair
    blob = structure_report(group, sigma, tau)
    assert (blob["class_summary"], blob["per_class"]) == (
        reference_report_classes(group, sigma, tau))
    view = GroupoidView(group, sigma, tau)
    for a in group.elements():
        cls = view.conjugacy_class(a)
        assert cls.elements == reference_class(view, a)
        assert cls.truncated is False


@settings(max_examples=25, deadline=None)
@given(finite_pairs(max_order=16))  # the solver's cost grows fastest
def test_decomposition_classes_match_centralizer_scans(pair):
    group, sigma, tau = pair
    report = verify_decomposition(group, sigma, tau)
    assert report["classes"] == reference_decomposition_classes(
        group, sigma, tau)
    assert report["sum_char_dims"] == 0


@settings(max_examples=100, deadline=None)
@given(finite_pairs())
def test_finite_centrality_matches_all_pairs(pair):
    group, sigma, tau = pair
    assert is_sigma_tau_abelian(group, sigma, tau) == reference_abelian(
        group, sigma, tau)
    for a in group.elements():
        central, witness = is_sigma_tau_central(a, sigma, tau)
        assert central == all(a * tau(v) == sigma(v) * a
                              for v in group.elements())
        if not central:
            assert witness in group.generators
            assert a * tau(witness) != sigma(witness) * a


@settings(max_examples=60, deadline=None)
@given(heisenberg_endomorphisms(), heisenberg_endomorphisms(),
       st.booleans())
def test_heisenberg_centrality_matches_class_listing(sigma, tau, same):
    group = builtin_group("heisenberg_Z")
    if same:
        tau = sigma
    assert is_sigma_tau_abelian(group, sigma, tau) == reference_abelian(
        group, sigma, tau)
    for radius in range(1, 5):
        assert is_fc(group, sigma, tau) == reference_fc(group, sigma, tau,
                                                        radius)


@settings(max_examples=30, deadline=None)
@given(st.tuples(_COORD, _COORD, _COORD), st.tuples(_COORD, _COORD, _COORD),
       st.integers(1, 3))
def test_heisenberg_class_sizes_match_class_listing(x, y, radius):
    group = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(group, group.element(x))
    tau = inner_endomorphism(group, group.element(y))
    blob = structure_report(group, sigma, tau, radius=radius)
    view = GroupoidView(group, sigma, tau, radius=radius)
    sizes = ["infinite-in-ball" if view.conjugacy_class(cls[0]).truncated
             else 1 for cls in view.components()]
    assert [c["size"] for c in blob["class_summary"]] == sizes


def _lemma_pair(group):
    """sigma, tau with every generator (sigma, tau)-central but not e.

    With r, s the two generators, tau sends r to c = r^-1 s and s to e,
    and sigma = conj(r) tau. Then sigma(v) u = u tau(v) holds at u = r,
    and at u = s = r c because tau(v) is a power of c, but not at u = e
    since c does not commute with r.
    """
    r, s = group.generators
    c = r.inverse() * s
    e = group.identity()
    tau = make_endomorphism(group, [c, e])
    sigma = make_endomorphism(group, [r * c * r.inverse(), e])
    return sigma, tau


@pytest.mark.parametrize("spec", [("dihedral", 4), ("heisenberg_Z", None)])
def test_centrality_lemma_needs_the_identity(spec):
    group = builtin_group(*spec)
    sigma, tau = _lemma_pair(group)
    assert all(is_sigma_tau_central(u, sigma, tau)[0]
               for u in group.generators)
    assert not is_sigma_tau_central(group.identity(), sigma, tau)[0]
    assert is_sigma_tau_abelian(group, sigma, tau) is False
    assert reference_abelian(group, sigma, tau) is False


def test_heisenberg_fc_certified_only_when_abelian():
    group = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(group, group.element((2, 3, 0)))
    assert is_fc(group, sigma, sigma) == "truncated-unknown"
    trivial = make_endomorphism(group, [group.identity()] * 2)
    assert is_sigma_tau_abelian(group, trivial, trivial) is True
    assert is_fc(group, trivial, trivial) is True


def test_builtin_tables_match_old_builders():
    for n in range(1, 40):
        assert groups._dihedral_tables(n)[0] == reference_dihedral_tables(n)
    for n in range(1, 6):
        assert (groups._heisenberg_mod_tables(n)[0]
                == reference_heisenberg_mod_tables(n))
    assert groups._quaternion_tables()[0] == reference_quaternion_tables()


@st.composite
def image_lists(draw):
    group = _group(draw(st.sampled_from(FINITE)))
    return group, [draw(st.sampled_from(group.elements()))
                   for _ in group.generators]


@settings(max_examples=300, deadline=None)
@given(image_lists())
def test_generator_homomorphism_check_matches_full_scan(drawn):
    group, images = drawn
    try:
        endo = make_endomorphism(group, images)
    except NotAHomomorphism as exc:
        outcome = (None, exc.payload["witness"])
    else:
        outcome = (endo.table, None)
    assert outcome == reference_endomorphism(group, images)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "twisted_derivations", *args],
                          capture_output=True, text=True)


def test_group_info_radius_zero_is_not_certified():
    proc = _cli("group-info", "--group", "builtin:heisenberg_Z",
                "--sigma", "inner:[2,3,0]", "--tau", "inner:[2,3,0]",
                "--radius", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["is_fc"] == "truncated-unknown"


def test_group_info_non_inner_heisenberg_refused():
    proc = _cli("group-info", "--group", "builtin:heisenberg_Z",
                "--sigma", "images:{[1,0,0]:[1,0,0],[0,1,0]:[0,0,0]}")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "NotSupportedForScope"
    # is_rank2_nilpotent answers every pair; the closed-form center refuses
    assert err["message"] == (
        "closed forms on heisenberg_Z need inner sigma and tau")


# -- heisenberg_Z: innerness is read from the map, not from its spelling -------


# (x, y) with sigma = conjugation by x and tau by y; x = y and x = e included
SPELLING_PAIRS = {"x-ne-y": ((3, 2, 5), (1, -1, 0)),
                  "x-eq-y": ((2, -1, 4), (2, -1, 4)),
                  "x-is-e": ((0, 0, 0), (1, 2, -3))}


def _spellings(x, tmp_path):
    """inner:, images: and file: specs of conjugation by x, and id for e."""
    images = {"[1,0,0]": [1, 0, -x[1]], "[0,1,0]": [0, 1, x[0]]}
    path = tmp_path / f"endo_{x[0]}_{x[1]}_{x[2]}.json"
    path.write_text(json.dumps({"images": images}))
    specs = ["inner:[{},{},{}]".format(*x),
             "images:{" + ",".join(f"{k}:[{v[0]},{v[1]},{v[2]}]"
                                   for k, v in images.items()) + "}",
             f"file:{path}"]
    if x[:2] == (0, 0):
        specs.append("id")
    return specs


def _report_without_job(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    blob = json.loads(out)
    del blob["job"]
    return json.dumps(blob)


@pytest.mark.parametrize("command", ["group-info", "centralizers", "center",
                                     "classes"])
@pytest.mark.parametrize("x, y", SPELLING_PAIRS.values(),
                         ids=SPELLING_PAIRS.keys())
def test_heisenberg_reports_ignore_how_a_map_is_written(
        capsys, tmp_path, command, x, y):
    reports = {
        _report_without_job(capsys, [command, "--group", "builtin:heisenberg_Z",
                                     "--sigma", sigma, "--tau", tau,
                                     "--radius", "3"])
        for sigma in _spellings(x, tmp_path)
        for tau in _spellings(y, tmp_path)}
    assert len(reports) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=4))
def test_heisenberg_rank2_is_det_equality(images):
    # sigma([x, y]) = (0, 0, det S) for S the (a, b) part of sigma's
    # generator images, so G/Z is abelian iff det S = det T
    group = builtin_group("heisenberg_Z")
    sigma = make_endomorphism(group, [group.element(p) for p in images[:2]])
    tau = make_endomorphism(group, [group.element(p) for p in images[2:]])

    def det(endo):
        (p0, p1, _), (q0, q1, _) = endo.gen_images
        return p0 * q1 - p1 * q0

    assert is_rank2_nilpotent(group, sigma, tau) == (det(sigma) == det(tau))
