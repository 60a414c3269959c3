"""Structural predicates and the decomposition report.

The headline check is verify_decomposition: for a finite group it
compares the derivation-space solver's dimension with the structural
count

    dim Der = dim Inn + sum over class representatives of dim Z*(a).

Character spaces Z*(a) = Hom(Z(a), C+) of finite centralizers are zero
by torsion, so on finite groups the comparison is exactly the statement
that every derivation is inner.
"""

from __future__ import annotations

from .derivations import (
    AdditiveCharacterOnG,
    DerivationTable,
    central_derivation,
    derivation_space,
    inner_space,
    is_inner,
)
from .errors import (
    NotSupportedForScope,
    UnsupportedSubgroup,
)
from .groups import builtin_group
from .groupoid import (
    GroupoidView,
    SubgroupDescription,
    center_to_json,
    in_twisted_center,
)


def is_sigma_tau_abelian(group, sigma, tau) -> bool:
    """True iff sigma(v) u = u tau(v) for all u, v: every twisted class
    is a singleton.

    That says every v lies in the twisted center, a subgroup (see
    is_rank2_nilpotent), so it holds iff every generator does.
    """
    return all(in_twisted_center(v, sigma, tau) for v in group.generators)


def is_fc(group, sigma, tau):
    """Whether every twisted class is finite: True or "truncated-unknown".

    Finite groups are always FC. On heisenberg_Z the answer is True
    exactly when the pair is (sigma, tau)-abelian, which proves every
    class a singleton; otherwise a ball shows only part of some class,
    which proves nothing, so the answer is "truncated-unknown" whatever
    the radius.
    """
    if group.kind == "finite" or is_sigma_tau_abelian(group, sigma, tau):
        return True
    return "truncated-unknown"


def is_rank2_nilpotent(group, sigma, tau) -> bool:
    """True iff G/Z is abelian, for Z the twisted center.

    Z = {z : sigma(z) = tau(z) in Z(G)} is a normal subgroup for any
    endomorphisms sigma, tau: it is the equalizer of two homomorphisms
    intersected with the preimage of Z(G), and sigma(g z g^-1) =
    sigma(g) sigma(z) sigma(g)^-1 = sigma(z) because sigma(z) is
    central, likewise for tau, so g z g^-1 lies in Z. G/Z is then
    generated by the images of the generators, and it is abelian iff
    every commutator of two generators lies in Z.

    On heisenberg_Z the commutators are e and z^(+-1), so that is
    sigma(z) = tau(z): det S = det T, as sigma(z) = (0, 0, det S) for S
    the (a, b) part of the generator images.
    """
    gens = group.generators
    return all(in_twisted_center(s * t * s.inverse() * t.inverse(), sigma, tau)
               for s in gens for t in gens)


def character_space_dimension(subgroup) -> int:
    """dim Hom(H, (C, +)), the torsion-free rank of H/H'.

    A finite H has only torsion, so the dimension is 0. Infinite
    subgroups are accepted as closed-form descriptions carrying their
    abelianization rank.
    """
    if isinstance(subgroup, SubgroupDescription):
        return subgroup.rank
    if isinstance(subgroup, (list, tuple)):
        return 0
    raise UnsupportedSubgroup(
        f"cannot size the character space of {type(subgroup).__name__}")


def _fc_to_json(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def structure_report(group, sigma, tau, radius=None) -> dict:
    """The group-info report: abelianness, FC status, rank-2 nilpotency,
    the twisted center, and per-class centralizer data. On a finite group
    each centralizer order is |G| / |class| by orbit-stabilizer (the class
    is the orbit of the right action a -> sigma(g^-1) a tau(g), the
    centralizer its stabilizer), and each character space is 0 by
    torsion."""
    view = GroupoidView(group, sigma, tau, radius=radius)
    report = {
        "group": group.name,
        "is_sigma_tau_abelian": is_sigma_tau_abelian(group, sigma, tau),
        "is_fc": _fc_to_json(is_fc(group, sigma, tau)),
        "is_rank2_nilpotent": is_rank2_nilpotent(group, sigma, tau),
        "center": center_to_json(group, view.center()),
        "class_summary": [],
        "per_class": [],
    }
    for cls in view.components():
        rep = group.element_to_json(cls[0])
        if group.kind == "finite":
            size = len(cls)
            entry = {"centralizer_size": group.order // size,
                     "char_space_dim": 0}
        else:
            # only inner pairs get here (center() refuses the rest); the
            # centralizer is everything (alpha = beta = 0) iff cls[0] is
            # (sigma, tau)-central, iff its class is a singleton
            centralizer = view.centralizer(cls[0])
            size = (1 if centralizer.kind == "heisenberg_full"
                    else "infinite-in-ball")
            entry = {"centralizer": centralizer.to_json(),
                     "char_space_dim": character_space_dimension(centralizer)}
        report["class_summary"].append({"representative": rep, "size": size})
        report["per_class"].append({"representative": rep, **entry})
    return report


def verify_decomposition(group, sigma, tau) -> dict:
    """Check dim Der = dim Inn + sum of character-space dimensions.

    dim Der is the rank deficit of exact elimination. The elimination
    runs one block per twisted class, and dim Inn counts the same
    classes, so both sides rest on one partition (twisted_class_indices);
    tests/test_solver_differential.py checks it against the all-rows
    solver and a brute-force partition. Within that partition the rank
    is computed, not counted, so agreement is evidence and disagreement
    would be a counterexample, not an exception. Finite groups only.
    """
    if group.kind != "finite":
        raise NotSupportedForScope(
            "the decomposition check needs the finite-group solver",
            group=group.name)
    der = derivation_space(group, sigma, tau)
    inn = inner_space(group, sigma, tau)
    # centralizer orders by orbit-stabilizer, character spaces 0 by
    # torsion, as in structure_report
    classes = [{
        "representative": group.element_to_json(cls[0]),
        "size": len(cls),
        "centralizer_order": group.order // len(cls),
        "char_dim": 0,
    } for cls in GroupoidView(group, sigma, tau).components()]
    sum_char_dims = sum(c["char_dim"] for c in classes)
    every_inner = all(is_inner(D)["is_inner"] for D in der["basis"])
    return {
        "dim_der": der["dimension"],
        "dim_inn": inn["dimension"],
        "sum_char_dims": sum_char_dims,
        "dims_match": der["dimension"] == inn["dimension"] + sum_char_dims,
        "every_basis_vector_inner": every_inner,
        "classes": classes,
        "nilpotent_rank2": is_rank2_nilpotent(group, sigma, tau),
        "fc": _fc_to_json(is_fc(group, sigma, tau)),
        # every quotient of a finite centralizer is periodic, by the same
        # torsion argument that makes each char_dim 0
        "periodic_criterion": True,
    }


def heisenberg_central_family(params, mu, nu, r, group=None) -> DerivationTable:
    """The central-derivation family on heisenberg_Z.

    For the inner pair determined by params, z^r is (sigma, tau)-central
    (sigma and tau agree pointwise and z is central) and phi(a, b, c) =
    mu a + nu b is an additive character, so the member is the central
    derivation central_derivation(z^r, phi):

        d(g) = (mu g_a + nu g_b) (g_a, g_b, g_c + sigma_a g_b - sigma_b g_a + r).

    It is rule-backed, so evaluation is exact at any element.
    """
    if group is None:
        group = builtin_group("heisenberg_Z")
    sigma, tau = params.endomorphisms(group)
    return central_derivation(group.element((0, 0, r)),
                              AdditiveCharacterOnG(group, [mu, nu]), sigma, tau)
