"""Structural predicates and the decomposition report.

The headline check is verify_decomposition: for a finite group it runs
the derivation-space solver and the structural dimension count

    dim Der = dim Inn + sum over class representatives of dim Z*(a)

independently and compares them. Character spaces Z*(a) = Hom(Z(a), C+)
of finite centralizers are zero by torsion, so on finite groups the
comparison is exactly the statement that every derivation is inner.
"""

from __future__ import annotations

from .algebra import AlgebraElement
from .derivations import (
    DerivationTable,
    derivation_space,
    inner_space,
    is_inner,
)
from .errors import (
    CenterNotNormal,
    NotASubgroup,
    NotSupportedForScope,
    UnsupportedSubgroup,
)
from .groups import builtin_group
from .groupoid import GroupoidView, SubgroupDescription


def is_sigma_tau_abelian(group, sigma, tau) -> bool:
    """True iff sigma(v) u = u tau(v) for all u, v.

    Equivalently every twisted class is a singleton. Exhaustive on
    finite groups; heisenberg_Z with inner witnesses has a closed form:
    the condition at u pins u's first two coordinates, so it can never
    hold for all u at once.
    """
    if group.kind == "finite":
        elems = group.elements()
        return all(sigma(v) * u == u * tau(v)
                   for u in elems for v in elems)
    if sigma.inner_witness is None or tau.inner_witness is None:
        raise NotSupportedForScope(
            "abelianness on heisenberg_Z needs inner sigma and tau")
    return False


def is_fc(group, sigma, tau, radius=None):
    """Whether every twisted class is finite: True, False, or
    "truncated-unknown".

    Finite groups are always FC. On heisenberg_Z the question is only
    semidecidable by enumeration: a class certified as a singleton
    contributes a yes, but a class still picking up new elements at the
    truncation radius proves nothing, so the three-valued answer is
    "truncated-unknown" unless every probed class is certified.
    """
    if group.kind == "finite":
        return True
    if radius is None:
        radius = 4
    view = GroupoidView(group, sigma, tau, radius=radius)
    for a in group.ball(min(radius, 2)):
        if view.conjugacy_class(a).truncated:
            return "truncated-unknown"
    return True


def is_rank2_nilpotent(group, sigma, tau) -> bool:
    """True iff G/Z is abelian, for Z the twisted center.

    The quotient is built explicitly: left cosets of Z, with the product
    checked to be independent of representatives before commutativity is
    tested. With non-automorphism sigma, tau the center need not be
    normal and the coset product can be ill-defined; that failure is
    reported as CenterNotNormal with a witness.
    """
    if group.kind == "heisenberg_Z":
        if sigma.inner_witness is None or tau.inner_witness is None:
            raise NotSupportedForScope(
                "rank-2 nilpotency on heisenberg_Z needs inner sigma and tau")
        # the twisted center is the commutator subgroup's closure <z>,
        # and G/<z> is Z^2
        return True
    elems = group.elements()
    center = GroupoidView(group, sigma, tau).center()
    center_set = set(center)
    for z1 in center:
        for z2 in center:
            if z1 * z2 not in center_set:
                raise CenterNotNormal(
                    "twisted center is not closed under the group product",
                    witness=[group.label(z1), group.label(z2)])
    coset_of = {}
    cosets = []
    for g in elems:
        if g in coset_of:
            continue
        coset = frozenset(g * z for z in center)
        idx = len(cosets)
        cosets.append((g, coset))
        for member in coset:
            if member in coset_of and coset_of[member] != idx:
                raise CenterNotNormal(
                    "cosets of the twisted center do not partition the group",
                    witness=group.label(member))
            coset_of[member] = idx
    if sum(len(c) for _, c in cosets) != len(elems):
        raise CenterNotNormal("cosets of the twisted center overlap")
    # well-definedness of the induced product
    for ia, (a, coset_a) in enumerate(cosets):
        for ib, (b, coset_b) in enumerate(cosets):
            expected = coset_of[a * b]
            for a2 in coset_a:
                for b2 in coset_b:
                    if coset_of[a2 * b2] != expected:
                        raise CenterNotNormal(
                            "coset product depends on representatives",
                            witness=[group.label(a2), group.label(b2)])
    return all(coset_of[a * b] == coset_of[b * a]
               for a, _ in cosets for b, _ in cosets)


def commutator_subgroup(group, subgroup):
    """The closure of {[h, k] = h k h^-1 k^-1} inside a finite subgroup."""
    members = list(subgroup)
    member_set = set(members)
    if group.identity() not in member_set:
        raise NotASubgroup("missing the identity element")
    for h in members:
        for k in members:
            if h * k not in member_set:
                raise NotASubgroup(
                    "not closed under the product",
                    witness=[group.label(h), group.label(k)])
    if any(h.inverse() not in member_set for h in members):
        raise NotASubgroup("not closed under inverses")
    commutators = {h * k * h.inverse() * k.inverse()
                   for h in members for k in members}
    closure = set(commutators)
    closure.add(group.identity())
    frontier = list(closure)
    while frontier:
        new = []
        for a in frontier:
            for b in commutators:
                c = a * b
                if c not in closure:
                    closure.add(c)
                    new.append(c)
        frontier = new
    return sorted(closure, key=group.sort_key)


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


def _quotient_is_periodic(group, subgroup) -> bool:
    """Every element of H/H' has finite order.

    Computed honestly on the coset quotient rather than asserted from
    finiteness; the order search is bounded by the quotient size.
    """
    derived = set(commutator_subgroup(group, subgroup))
    coset_of = {}
    reps = []
    for h in subgroup:
        if h in coset_of:
            continue
        idx = len(reps)
        reps.append(h)
        for d in derived:
            coset_of[h * d] = idx
    identity_coset = coset_of[group.identity()]
    bound = len(reps) + 1
    for h in reps:
        acc = h
        for _ in range(bound):
            if coset_of[acc] == identity_coset:
                break
            acc = acc * h
        else:
            return False
    return True


class StructureReport:
    """Everything cmd_group_info prints: abelianness, FC status, rank-2
    nilpotency, the twisted center, and per-class centralizer data."""

    def __init__(self, group, sigma, tau, radius, is_abelian, fc,
                 rank2, center, class_summary, per_class):
        self.group = group
        self.sigma = sigma
        self.tau = tau
        self.radius = radius
        self.is_sigma_tau_abelian = is_abelian
        self.is_fc = fc
        self.is_rank2_nilpotent = rank2
        self.center = center
        self.class_summary = class_summary
        self.per_class = per_class

    def to_json(self):
        group = self.group
        if isinstance(self.center, SubgroupDescription):
            center_json = self.center.to_json()
        else:
            center_json = [group.element_to_json(z) for z in self.center]
        return {
            "group": group.name,
            "is_sigma_tau_abelian": self.is_sigma_tau_abelian,
            "is_fc": _fc_to_json(self.is_fc),
            "is_rank2_nilpotent": self.is_rank2_nilpotent,
            "center": center_json,
            "class_summary": [
                {"representative": group.element_to_json(rep), "size": size}
                for rep, size in self.class_summary],
            "per_class": self.per_class,
        }


def _fc_to_json(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def structure_report(group, sigma, tau, radius=None) -> StructureReport:
    view = GroupoidView(group, sigma, tau, radius=radius)
    is_abelian = is_sigma_tau_abelian(group, sigma, tau)
    fc = is_fc(group, sigma, tau, radius=radius)
    try:
        rank2 = is_rank2_nilpotent(group, sigma, tau)
    except CenterNotNormal as exc:
        rank2 = {"error": "CenterNotNormal", "message": str(exc)}
    center = view.center()
    class_summary = []
    per_class = []
    if group.kind == "finite":
        for cls in view.components():
            rep = cls[0]
            class_summary.append((rep, len(cls)))
            centralizer = view.centralizer(rep)
            per_class.append({
                "representative": group.element_to_json(rep),
                "centralizer_size": len(centralizer),
                "abelianization_rank": character_space_dimension(centralizer),
                "char_space_dim": character_space_dimension(centralizer),
            })
    else:
        for cls in view.components():
            rep = cls[0]
            rep_class = view.conjugacy_class(rep)
            size = 1 if not rep_class.truncated else "infinite-in-ball"
            class_summary.append((rep, size))
            centralizer = view.centralizer(rep)
            per_class.append({
                "representative": group.element_to_json(rep),
                "centralizer": centralizer.to_json(),
                "abelianization_rank": centralizer.rank,
                "char_space_dim": character_space_dimension(centralizer),
            })
    return StructureReport(group, sigma, tau, radius, is_abelian, fc,
                           rank2, center, class_summary, per_class)


def verify_decomposition(group, sigma, tau) -> dict:
    """Check dim Der = dim Inn + sum of character-space dimensions.

    The left side comes from the derivation-space solver, the right from
    the class/centralizer analysis; neither consults the other, so
    agreement is evidence and disagreement would be a counterexample,
    not an exception. Finite groups only.
    """
    if group.kind != "finite":
        raise NotSupportedForScope(
            "the decomposition check needs the finite-group solver",
            group=group.name)
    der = derivation_space(group, sigma, tau)
    inn = inner_space(group, sigma, tau)
    view = GroupoidView(group, sigma, tau)
    classes = []
    sum_char_dims = 0
    periodic = True
    for cls in view.components():
        rep = cls[0]
        centralizer = view.centralizer(rep)
        char_dim = character_space_dimension(centralizer)
        sum_char_dims += char_dim
        if not _quotient_is_periodic(group, centralizer):
            periodic = False
        classes.append({
            "representative": group.element_to_json(rep),
            "size": len(cls),
            "centralizer_order": len(centralizer),
            "char_dim": char_dim,
        })
    try:
        rank2 = is_rank2_nilpotent(group, sigma, tau)
    except CenterNotNormal as exc:
        rank2 = {"error": "CenterNotNormal", "message": str(exc)}
    every_inner = all(is_inner(D)["is_inner"] for D in der["basis"])
    return {
        "dim_der": der["dimension"],
        "dim_inn": inn["dimension"],
        "sum_char_dims": sum_char_dims,
        "dims_match": der["dimension"] == inn["dimension"] + sum_char_dims,
        "every_basis_vector_inner": every_inner,
        "classes": classes,
        "nilpotent_rank2": rank2,
        "fc": _fc_to_json(is_fc(group, sigma, tau)),
        "periodic_criterion": periodic,
    }


def heisenberg_central_family(params, mu, nu, r, group=None) -> DerivationTable:
    """The central-derivation family on heisenberg_Z.

    For the inner pair determined by params, the element z^r is twisted
    central and (a, b, c) -> mu*a + nu*b is an additive character, which
    together give

        d(g) = (mu g_a + nu g_b) (g_a, g_b, g_c + sigma_a g_b - sigma_b g_a + r).

    The table is generator-backed: it stores d(x) and d(y) and extends
    through the product rule, so evaluation is exact at any element.
    """
    if group is None:
        group = builtin_group("heisenberg_Z")
    sigma, tau = params.endomorphisms(group)
    dx = AlgebraElement.indicator(
        group, group.element((1, 0, r - params.sigma_b)), mu)
    dy = AlgebraElement.indicator(
        group, group.element((0, 1, params.sigma_a + r)), nu)
    return DerivationTable.from_generator_values(group, sigma, tau, [dx, dy])
