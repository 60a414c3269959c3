"""Differential tests for the class-by-class derivation solver.

derivation_space feeds one reducer per twisted class with the Leibniz
rows at generators only. The reference below is the solver it replaced:
every row (g2, g1, h) with g1, g2 != e, fed into a single reducer over
all columns. Both must give the same basis, byte for byte, on random
groups and random endomorphism pairs, and the dimension must match the
dense oracle and the class count |G| - #classes. inner_space counts the
classes; it must equal the generator-row reducer it replaced, also kept
below.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_derivations import (
    DerivationTable,
    builtin_group,
    derivation_space,
    identity_endomorphism,
    inner_endomorphism,
    inner_space,
    make_endomorphism,
    make_finite_group,
)
from twisted_derivations.algebra import AlgebraElement, GaussianRational
from twisted_derivations.errors import NotAHomomorphism
from twisted_derivations.groups import twisted_class_indices
from twisted_derivations.linalg import IntegerRowReducer

import oracles

BUILTINS = [
    ("cyclic", 1), ("cyclic", 5), ("cyclic", 8), ("cyclic", 12),
    ("dihedral", 3), ("dihedral", 4), ("dihedral", 5), ("dihedral", 6),
    ("dihedral", 12), ("symmetric", 3), ("symmetric", 4),
    ("quaternion8", None), ("heisenberg_mod", 2),
]
PRODUCTS = [
    (("cyclic", 2), ("cyclic", 2)), (("cyclic", 2), ("symmetric", 3)),
    (("cyclic", 3), ("symmetric", 3)), (("cyclic", 2), ("quaternion8", None)),
    (("cyclic", 2), ("dihedral", 4)), (("symmetric", 3), ("cyclic", 4)),
]
POOL = [(spec,) for spec in BUILTINS] + PRODUCTS
# the dense oracle solves n^2 unknowns over Fractions: under a second at
# order 8, but 2 to 8 seconds per pair at orders 10 and 12
DENSE_POOL = [
    (("cyclic", 1),), (("cyclic", 5),), (("cyclic", 8),), (("dihedral", 3),),
    (("dihedral", 4),), (("symmetric", 3),), (("quaternion8", None),),
    (("heisenberg_mod", 2),), (("cyclic", 2), ("cyclic", 2)),
]

def _direct_product(left, right):
    """Cayley table of left x right, with the two coordinate projections
    given as generator images (both non-injective)."""
    m = right.order
    n = left.order * m
    cayley = [[left.cayley[a // m][b // m] * m + right.cayley[a % m][b % m]
               for b in range(n)] for a in range(n)]
    group = make_finite_group(cayley, name=f"{left.name}_x_{right.name}")
    projections = [
        [group.element((s.payload // m) * m + right.identity_index)
         for s in group.generators],
        [group.element(left.identity_index * m + s.payload % m)
         for s in group.generators],
    ]
    return group, projections


@lru_cache(maxsize=None)
def _group(key):
    """(group, projections) for a pool entry; builtins have none."""
    if len(key) == 1:
        return builtin_group(*key[0]), []
    return _direct_product(builtin_group(*key[0]), builtin_group(*key[1]))


@st.composite
def endomorphisms(draw, group, projections):
    """id, inner, or an images map: random generator images, a product
    projection, or, when the drawn images do not extend, the map onto
    the identity."""
    kind = draw(st.sampled_from(("id", "inner", "images", "projection")))
    if kind == "id":
        return identity_endomorphism(group)
    elems = group.elements()
    if kind == "inner":
        return inner_endomorphism(group, draw(st.sampled_from(elems)))
    if kind == "projection" and projections:
        return make_endomorphism(group, draw(st.sampled_from(projections)))
    images = [draw(st.sampled_from(elems)) for _ in group.generators]
    try:
        return make_endomorphism(group, images)
    except NotAHomomorphism:
        return make_endomorphism(group, [group.identity()] * len(images))


@st.composite
def cases(draw, pool):
    group, projections = _group(draw(st.sampled_from(pool)))
    sigma = draw(endomorphisms(group, projections))
    tau = draw(endomorphisms(group, projections))
    return group, sigma, tau


def reference_space(group, sigma, tau):
    """The replaced solver: all (n-1)^2 n rows into one reducer."""
    n = group.order
    cay = group.cayley
    inv = group.inverse_table
    sig = sigma.table
    tav = tau.table
    e = group.identity_index
    nonid = [g for g in range(n) if g != e]
    col_of_g = {g: i for i, g in enumerate(nonid)}
    width = len(nonid)

    def col(h, g):
        return h * width + col_of_g[g]

    reducer = IntegerRowReducer()
    for g2 in nonid:
        sig_g2_inv = sig[inv[g2]]
        for g1 in nonid:
            tau_g1_inv = tav[inv[g1]]
            g21 = cay[g2][g1]
            for h in range(n):
                row = {}
                if g21 != e:
                    c0 = col(h, g21)
                    row[c0] = row.get(c0, 0) + 1
                c2 = col(cay[h][tau_g1_inv], g2)
                row[c2] = row.get(c2, 0) - 1
                c1 = col(cay[sig_g2_inv][h], g1)
                row[c1] = row.get(c1, 0) - 1
                if row:
                    reducer.add_row(row)
    n_cols = n * width
    elems = group._elements
    basis = []
    for vec in reducer.nullspace_basis(range(n_cols)):
        per_g = {}
        for c, coeff in vec.items():
            h, gpos = divmod(c, width)
            per_g.setdefault(nonid[gpos], {})[elems[h]] = GaussianRational(coeff)
        table = {elems[g]: AlgebraElement(group, terms)
                 for g, terms in per_g.items()}
        basis.append(DerivationTable.from_table(group, sigma, tau, table))
    return {"dimension": n_cols - reducer.rank, "basis": basis}


def reference_inner_space(group, sigma, tau):
    """The replaced inner_space: the kernel {p : p tau(g) = sigma(g) p}
    as the nullspace of the rows p(w tau(g)^-1) = p(sigma(g)^-1 w) at
    the generators g."""
    n = group.order
    cay = group.cayley
    inv = group.inverse_table
    reducer = IntegerRowReducer()
    for gen in group.generators:
        g = gen.payload
        tau_g_inv = inv[tau.table[g]]
        sig_g_inv = inv[sigma.table[g]]
        for w in range(n):
            c1 = cay[w][tau_g_inv]
            c2 = cay[sig_g_inv][w]
            if c1 != c2:
                reducer.add_row({c1: 1, c2: -1})
    kernel_dimension = n - reducer.rank
    return {"dimension": n - kernel_dimension,
            "kernel_dimension": kernel_dimension}


def _brute_classes(group, sigma, tau):
    """Index lists, each sorted, ordered by least index."""
    classes = {frozenset(g.payload for g in
                         oracles.brute_conjugacy_class(group, sigma, tau, a))
               for a in group.elements()}
    return sorted(sorted(cls) for cls in classes)


@settings(max_examples=60, deadline=None)
@given(cases(POOL))
def test_class_blocks_match_full_system(case):
    group, sigma, tau = case
    space = derivation_space(group, sigma, tau)
    reference = reference_space(group, sigma, tau)
    assert space["dimension"] == reference["dimension"]
    assert ([D.to_json() for D in space["basis"]]
            == [D.to_json() for D in reference["basis"]])
    classes = _brute_classes(group, sigma, tau)
    assert twisted_class_indices(group, sigma, tau) == classes
    assert space["dimension"] == group.order - len(classes)
    assert inner_space(group, sigma, tau) == reference_inner_space(group, sigma, tau)


@settings(max_examples=6, deadline=None)
@given(cases(DENSE_POOL))
def test_dimension_matches_dense_oracle(case):
    group, sigma, tau = case
    assert (derivation_space(group, sigma, tau)["dimension"]
            == oracles.dense_derivation_dimension(group, sigma, tau))
