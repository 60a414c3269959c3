import pytest

from twisted_derivations import (
    GroupoidView,
    SubgroupDescription,
    UnsupportedSubgroup,
    builtin_group,
    character_space_dimension,
    identity_endomorphism,
    inner_endomorphism,
    is_fc,
    is_rank2_nilpotent,
    is_sigma_tau_abelian,
    structure_report,
    verify_decomposition,
)

import oracles


def test_abelian_groups_are_sigma_tau_abelian_for_id():
    for family, param in (("cyclic", 4), ("cyclic", 6)):
        g = builtin_group(family, param)
        e = identity_endomorphism(g)
        assert is_sigma_tau_abelian(g, e, e)


def test_s3_not_sigma_tau_abelian():
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    assert not is_sigma_tau_abelian(g, e, e)


def test_abelian_iff_all_classes_singletons():
    for family, param in (("cyclic", 6), ("symmetric", 3), ("dihedral", 4)):
        g = builtin_group(family, param)
        for x in g.elements():
            sigma = inner_endomorphism(g, x)
            tau = identity_endomorphism(g)
            view = GroupoidView(g, sigma, tau)
            all_singletons = all(len(c) == 1 for c in view.components())
            assert is_sigma_tau_abelian(g, sigma, tau) == all_singletons


def test_heisenberg_never_sigma_tau_abelian_for_inner():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    assert is_sigma_tau_abelian(g, sigma, tau) is False


def test_is_fc_values():
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    assert is_fc(g, e, e) is True
    h = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(h, h.element((2, 3, 0)))
    assert is_fc(h, sigma, sigma) == "truncated-unknown"


def test_rank2_nilpotency():
    e = lambda g: identity_endomorphism(g)
    q8 = builtin_group("quaternion8")
    assert is_rank2_nilpotent(q8, e(q8), e(q8))
    d4 = builtin_group("dihedral", 4)
    assert is_rank2_nilpotent(d4, e(d4), e(d4))
    s3 = builtin_group("symmetric", 3)
    assert not is_rank2_nilpotent(s3, e(s3), e(s3))
    c6 = builtin_group("cyclic", 6)
    assert is_rank2_nilpotent(c6, e(c6), e(c6))
    h = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(h, h.element((1, 1, 0)))
    assert is_rank2_nilpotent(h, sigma, sigma)


def test_character_space_dimensions():
    g = builtin_group("symmetric", 3)
    assert character_space_dimension(g.elements()) == 0
    h = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(h, h.element((2, 3, 0)))
    tau = inner_endomorphism(h, h.element((2, 3, 1)))
    view = GroupoidView(h, sigma, tau, radius=2)
    assert character_space_dimension(view.centralizer(h.element((0, 0, 1)))) == 2
    assert character_space_dimension(view.center()) == 1
    with pytest.raises(UnsupportedSubgroup):
        character_space_dimension("whatever")


def test_verify_decomposition_shape_and_content():
    g = builtin_group("quaternion8")
    sigma = inner_endomorphism(g, g.element_from_json("i"))
    tau = inner_endomorphism(g, g.element_from_json("j"))
    report = verify_decomposition(g, sigma, tau)
    assert set(report) == {
        "dim_der", "dim_inn", "sum_char_dims", "dims_match",
        "every_basis_vector_inner", "classes", "nilpotent_rank2", "fc",
        "periodic_criterion",
    }
    assert report["dims_match"]
    assert report["every_basis_vector_inner"]
    assert report["sum_char_dims"] == 0
    assert report["fc"] == "true"
    assert report["periodic_criterion"] is True
    assert sum(c["size"] for c in report["classes"]) == g.order


def test_verify_decomposition_dimension_identity():
    # dim Der = dim Inn on finite groups, across a small sweep
    cases = [
        ("symmetric", 3), ("dihedral", 4), ("cyclic", 6),
        ("quaternion8", None), ("heisenberg_mod", 2),
    ]
    for family, param in cases:
        g = builtin_group(family, param)
        e = identity_endomorphism(g)
        report = verify_decomposition(g, e, e)
        assert report["dim_der"] == report["dim_inn"], (family, report)
        assert report["dims_match"]


def test_class_sizes_sum_to_group_order():
    g = builtin_group("dihedral", 4)
    for x in g.elements():
        sigma = inner_endomorphism(g, x)
        for y in g.elements():
            tau = inner_endomorphism(g, y)
            view = GroupoidView(g, sigma, tau)
            assert sum(len(c) for c in view.components()) == g.order


def test_structure_report_finite():
    g = builtin_group("symmetric", 3)
    e = identity_endomorphism(g)
    blob = structure_report(g, e, e)
    assert blob["is_sigma_tau_abelian"] is False
    assert blob["is_fc"] == "true"
    assert blob["is_rank2_nilpotent"] is False
    assert [c["size"] for c in blob["class_summary"]] == [1, 3, 2]
    for entry in blob["per_class"]:
        assert entry["char_space_dim"] == 0


def test_structure_report_heisenberg():
    g = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(g, g.element((2, 3, 0)))
    tau = inner_endomorphism(g, g.element((2, 3, 1)))
    blob = structure_report(g, sigma, tau, radius=2)
    assert blob["is_fc"] == "truncated-unknown"
    assert blob["is_rank2_nilpotent"] is True
    assert blob["center"]["abelianization_rank"] == 1
    sizes = {c["size"] for c in blob["class_summary"]}
    assert "infinite-in-ball" in sizes
    assert 1 in sizes
    for entry in blob["per_class"]:
        assert entry["char_space_dim"] == 2


def test_ordinary_fc_agreement_for_conjugation_pairs():
    # sigma = tau = conjugation: twisted classes are ordinary classes,
    # so FC-ness agrees with ordinary FC-ness (always true here)
    for family, param in (("symmetric", 3), ("quaternion8", None)):
        g = builtin_group(family, param)
        for x in g.elements():
            sigma = inner_endomorphism(g, x)
            view = GroupoidView(g, sigma, sigma)
            twisted = {frozenset(c) for c in view.components()}
            ordinary = {frozenset(c) for c in oracles.brute_ordinary_classes(g)}
            assert twisted == ordinary
