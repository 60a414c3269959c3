"""Differential tests for the groupoid's class listings and DOT forest.

GroupoidView.components, conjugacy_class and to_dot apply each distinct
move of the scope once, through one union-find. The references below
are the code they replaced: scans over every pair (a, v) of scope
elements with group-element arithmetic. Components, class listings and
DOT text must agree exactly, on heisenberg_Z balls of radius 0-4 and on
finite builtins of order <= 24, for sigma and tau drawn from the
identity, inner maps and random generator images, non-injective ones
included.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    GroupoidView,
    builtin_group,
    identity_endomorphism,
    inner_endomorphism,
    is_sigma_tau_central,
    make_endomorphism,
    to_dot,
)
from twisted_derivations.errors import NotAHomomorphism

FINITE = [
    ("cyclic", 1), ("cyclic", 6), ("dihedral", 4), ("dihedral", 6),
    ("symmetric", 3), ("symmetric", 4), ("quaternion8", None),
    ("heisenberg_mod", 2),
]


def _union_scan(view):
    """(components, edges) from the replaced to_dot: every a, then every
    witness v in scope order, joining a to sigma(v) a tau(v^-1)."""
    scope = view.objects()
    scope_set = set(scope)
    parent = {a: a for a in scope}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for a in scope:
        for v in scope:
            b = view.sigma(v) * a * view.tau(v.inverse())
            if b in scope_set:
                ra, rb = find(a), find(b)
                if ra is not rb:
                    parent[rb] = ra
                    edges.append((a, v, b))
    buckets = {}
    for a in scope:
        buckets.setdefault(find(a), []).append(a)
    key = view.group.sort_key
    components = sorted((sorted(members, key=key)
                         for members in buckets.values()),
                        key=lambda cls: key(cls[0]))
    edges_by_root = {}
    for a, v, b in edges:
        edges_by_root.setdefault(find(a), []).append((a, v, b))
    return components, [edges_by_root.get(find(cls[0]), [])
                        for cls in components]


def reference_components(view):
    """The replaced ball branch of components: a joined to
    sigma(g^-1) a tau(g) for every g in scope."""
    scope = view.objects()
    scope_set = set(scope)
    parent = {a: a for a in scope}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in scope:
        for g in scope:
            b = view.sigma(g.inverse()) * a * view.tau(g)
            if b in scope_set:
                ra, rb = find(a), find(b)
                if ra is not rb:
                    parent[rb] = ra
    buckets = {}
    for a in scope:
        buckets.setdefault(find(a), []).append(a)
    key = view.group.sort_key
    classes = [sorted(v, key=key) for v in buckets.values()]
    classes.sort(key=lambda cls: key(cls[0]))
    return classes


def reference_dot(view):
    """The replaced to_dot, line for line."""
    group = view.group
    components, edges = _union_scan(view)
    lines = ["digraph groupoid {", '  node [shape=box];']
    for i, (members, component_edges) in enumerate(zip(components, edges)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {group.label(members[0])}";')
        for a in members:
            lines.append(f'    "{group.label(a)}";')
        if not component_edges:
            e = group.identity()
            for a in members:
                lines.append(
                    f'    "{group.label(a)}" -> "{group.label(a)}" '
                    f'[label="{group.label(e)}"];')
        else:
            for a, v, b in component_edges:
                lines.append(
                    f'    "{group.label(a)}" -> "{group.label(b)}" '
                    f'[label="{group.label(v)}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_class(view, a):
    """The replaced conjugacy_class: sigma(g^-1) a tau(g) over g in scope."""
    group = view.group
    seen = {view.sigma(g.inverse()) * a * view.tau(g) for g in view.objects()}
    elements = sorted(seen, key=group.sort_key)
    if group.kind == "finite":
        return elements, False
    return elements, not is_sigma_tau_central(a, view.sigma, view.tau)[0]


@lru_cache(maxsize=None)
def _finite(spec):
    return builtin_group(*spec)


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


TRIPLES = st.tuples(*[st.integers(-2, 2)] * 3)


@st.composite
def heisenberg_endomorphisms(draw, group):
    """id, inner, or random generator images; every pair of images
    extends on heisenberg_Z, and images with a1*b2 = a2*b1 (drawn here
    with fair odds) give a non-injective map."""
    kind = draw(st.sampled_from(("id", "inner", "images", "degenerate")))
    if kind == "id":
        return identity_endomorphism(group)
    if kind == "inner":
        return inner_endomorphism(group, group.element(draw(TRIPLES)))
    px = draw(TRIPLES)
    if kind == "images":
        py = draw(TRIPLES)
    else:
        k = draw(st.integers(-1, 1))
        py = (k * px[0], k * px[1], draw(st.integers(-2, 2)))
    return make_endomorphism(group, [group.element(px), group.element(py)])


@st.composite
def heisenberg_cases(draw):
    group = builtin_group("heisenberg_Z")
    sigma = draw(heisenberg_endomorphisms(group))
    tau = draw(heisenberg_endomorphisms(group))
    return GroupoidView(group, sigma, tau, radius=draw(st.integers(0, 4)))


@st.composite
def finite_cases(draw):
    group = _finite(draw(st.sampled_from(FINITE)))
    sigma = draw(finite_endomorphisms(group))
    tau = draw(finite_endomorphisms(group))
    return GroupoidView(group, sigma, tau)


def _assert_classes_match(view, sample):
    for a in sample:
        cls = view.conjugacy_class(a)
        assert (cls.elements, cls.truncated) == reference_class(view, a)


@settings(max_examples=30, deadline=None)
@given(heisenberg_cases(), st.data())
def test_heisenberg_ball_matches_pair_scan(view, data):
    assert view.components() == reference_components(view)
    assert to_dot(view) == reference_dot(view)
    scope = view.objects()
    picks = data.draw(st.lists(st.integers(0, len(scope) - 1), max_size=6))
    _assert_classes_match(view, [scope[i] for i in picks])


@settings(max_examples=60, deadline=None)
@given(finite_cases())
def test_finite_dot_and_classes_match_pair_scan(view):
    assert to_dot(view) == reference_dot(view)
    _assert_classes_match(view, view.objects())
