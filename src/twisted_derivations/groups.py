"""Exact discrete groups and their endomorphisms.

Two kinds of group are supported: finite groups stored as validated
Cayley tables, and the discrete Heisenberg group over the integers in
triple normal form, where (a, b, c) stands for the unitriangular matrix

    [[1, a, c],
     [0, 1, b],
     [0, 0, 1]].

These are the only kinds the rest of the library needs; there is no
general finitely-presented-group machinery here.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

from .errors import (
    GroupMismatch,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAssociative,
    NotLatinSquare,
    NotSupportedForScope,
    ScopeExceeded,
    SpecError,
    UnsupportedParameter,
)

MAX_FINITE_ORDER = 1024
# A non-associative table up to this order reports the first failing
# triple of the full canonical scan; larger ones report the generator
# test's own witness, since the full scan is cubic.
WITNESS_SCAN_LIMIT = 64
# The Heisenberg ball grows about as radius^4, and each step up costs the
# ball queries 3-4x more time; larger radii are refused.
MAX_BALL_RADIUS = 8
# the radius a heisenberg_Z query gets when its caller names none
DEFAULT_RADIUS = 4


def _heis_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def _heis_inv(p):
    a, b, c = p
    return (-a, -b, a * b - c)


def _heis_pow(p, n):
    # p^n = (n*a, n*b, n*c + C(n,2)*a*b); valid for negative n as well.
    a, b, c = p
    return (n * a, n * b, n * c + (n * (n - 1) // 2) * a * b)


def _heis_sort_key(p):
    a, b, c = p
    return (abs(c), abs(a), abs(b), a, b, c)


class GroupElement:
    """An element of a specific Group.

    payload is an index into the Cayley table for finite groups and an
    integer triple (a, b, c) for the Heisenberg group.
    """

    __slots__ = ("group", "payload")

    def __init__(self, group: "Group", payload):
        self.group = group
        self.payload = payload

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash(self.payload)

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.group.inverse(self)

    def __repr__(self):
        return f"<{self.group.label(self)}>"


class Group:
    """A validated group. Construct via make_finite_group or builtin_group.

    Immutable after construction; elements compare equal only within the
    same Group instance.
    """

    def __init__(self, kind, name, cayley=None, identity_index=None,
                 inverse_table=None, labels=None, generator_payloads=None):
        self.kind = kind  # "finite" or "heisenberg_Z"
        self.name = name
        self.cayley = cayley
        self.identity_index = identity_index
        self.inverse_table = inverse_table
        self.labels = labels
        self.order = len(cayley) if cayley is not None else None
        self._elements = None
        if self.kind == "finite":
            self._elements = [GroupElement(self, i) for i in range(self.order)]
        self.generators = [self.element(p) for p in generator_payloads]
        if labels is not None:
            self._label_index = {lab: i for i, lab in enumerate(labels)}
        else:
            self._label_index = None

    # -- element handling ------------------------------------------------

    def element(self, payload) -> GroupElement:
        if self.kind == "finite":
            if not isinstance(payload, int) or not 0 <= payload < self.order:
                raise GroupMismatch(
                    f"{payload!r} is not an element index of {self.name}",
                    group=self.name)
            return self._elements[payload]
        payload = tuple(payload)
        if len(payload) != 3:
            raise GroupMismatch(
                f"{payload!r} is not a Heisenberg triple", group=self.name)
        if not {int}.issuperset(map(type, payload)):  # bool is not int here
            raise SpecError(
                f"{list(payload)!r} has a coordinate that is not an integer")
        return GroupElement(self, payload)

    def _check(self, g: GroupElement):
        if g.group is not self:
            raise GroupMismatch(
                f"element of {g.group.name} used in {self.name}",
                expected=self.name, got=g.group.name)

    def identity(self) -> GroupElement:
        if self.kind == "finite":
            return self._elements[self.identity_index]
        return GroupElement(self, (0, 0, 0))

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check(g)
        self._check(h)
        if self.kind == "finite":
            return self._elements[self.cayley[g.payload][h.payload]]
        return GroupElement(self, _heis_mul(g.payload, h.payload))

    def inverse(self, g: GroupElement) -> GroupElement:
        self._check(g)
        if self.kind == "finite":
            return self._elements[self.inverse_table[g.payload]]
        return GroupElement(self, _heis_inv(g.payload))

    def power(self, g: GroupElement, n: int) -> GroupElement:
        self._check(g)
        if self.kind == "heisenberg_Z":
            return GroupElement(self, _heis_pow(g.payload, n))
        result = self.identity()
        base = g if n >= 0 else self.inverse(g)
        for _ in range(abs(n)):
            result = self.multiply(result, base)
        return result

    def elements(self):
        """All elements, in canonical order. Finite groups only."""
        if self.kind != "finite":
            raise GroupMismatch(
                f"{self.name} is infinite; use ball(radius)", group=self.name)
        return list(self._elements)

    def ball(self, radius):
        """The elements a query ranges over, in canonical order.

        This is the one place that decides it. A finite group gives all
        its elements, whatever the radius. heisenberg_Z gives the words of
        length <= radius in the generators and their inverses, sorted by
        (|c|, |a|, |b|, a, b, c); it refuses a radius of None with
        NotSupportedForScope and one above MAX_BALL_RADIUS with
        ScopeExceeded.
        """
        if self.kind == "finite":
            return self.elements()
        if radius is None:
            raise NotSupportedForScope(
                f"{self.name} is infinite; a truncation radius is required",
                group=self.name)
        if radius > MAX_BALL_RADIUS:
            raise ScopeExceeded(
                f"ball radius {radius} exceeds the supported bound {MAX_BALL_RADIUS}",
                radius=radius, limit=MAX_BALL_RADIUS)
        return [GroupElement(self, p)
                for p in sorted(self._word_payloads(radius), key=_heis_sort_key)]

    def _word_payloads(self, radius):
        """The heisenberg_Z triples of the words of length <= radius in the
        generators and their inverses, unsorted and with no bound on the
        radius; only ball decides what a query covers."""
        letters = [g.payload for g in self.generators]
        letters += [_heis_inv(p) for p in letters]
        seen = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        for _ in range(radius):
            new = []
            for p in frontier:
                for l in letters:
                    q = _heis_mul(p, l)
                    if q not in seen:
                        seen.add(q)
                        new.append(q)
            frontier = new
        return seen

    def sort_key(self, g: GroupElement):
        self._check(g)
        if self.kind == "finite":
            return g.payload
        return _heis_sort_key(g.payload)

    # -- naming and serialization ----------------------------------------

    def label(self, g: GroupElement) -> str:
        if self.kind == "finite":
            if self.labels is not None:
                return self.labels[g.payload]
            return str(g.payload)
        return "[{},{},{}]".format(*g.payload)

    def element_to_json(self, g: GroupElement):
        """Index for finite groups, [a, b, c] list for Heisenberg."""
        self._check(g)
        if self.kind == "finite":
            return g.payload
        return list(g.payload)

    def element_from_json(self, obj) -> GroupElement:
        """Accepts an index, an [a, b, c] list, or a builtin label."""
        if isinstance(obj, str) and self._label_index is not None:
            if obj in self._label_index:
                return self._elements[self._label_index[obj]]
        if self.kind == "finite":
            if isinstance(obj, bool) or not isinstance(obj, int):
                if (isinstance(obj, (list, tuple)) and len(obj) == 3
                        and {int}.issuperset(map(type, obj))
                        and self._label_index is not None):
                    lab = "[{},{},{}]".format(*obj)
                    if lab in self._label_index:
                        return self._elements[self._label_index[lab]]
                raise GroupMismatch(
                    f"cannot interpret {obj!r} as an element of {self.name}",
                    group=self.name)
            return self.element(obj)
        if not isinstance(obj, (list, tuple)) or len(obj) != 3:
            raise GroupMismatch(
                f"cannot interpret {obj!r} as an element of {self.name}",
                group=self.name)
        return self.element(obj)

    def __repr__(self):
        return f"Group({self.name})"


def _validate_cayley(cayley):
    """(identity_index, inverse_table, generators) of a group table.

    Raises NotLatinSquare, NoIdentity, NoInverse or NotAssociative, in
    that order of checking. Associativity is proved by Light's test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1.2): the
    elements g with (x g) y = x (g y) for all x, y form a set closed
    under products, and every element is a left-normed product of the
    greedy generators, so checking g over the generators alone is
    exhaustive. A failure up to WITNESS_SCAN_LIMIT reports the first
    triple of the canonical scan over all (a, b, c); above it, the first
    (x, g, y) of the generator scan.
    """
    order = len(cayley)
    if order == 0:
        raise NotLatinSquare("empty table")
    full = list(range(order))
    for i, row in enumerate(cayley):
        if len(row) != order:
            raise NotLatinSquare(f"row {i} has length {len(row)}, expected {order}", row=i)
        if sorted(row) != full:
            raise NotLatinSquare(f"row {i} is not a permutation of 0..{order - 1}", row=i)
    for j, col in enumerate(zip(*cayley)):
        if sorted(col) != full:
            raise NotLatinSquare(f"column {j} is not a permutation of 0..{order - 1}", column=j)

    identity_index = None
    for e in range(order):
        if all(cayley[e][x] == x == cayley[x][e] for x in range(order)):
            identity_index = e
            break
    if identity_index is None:
        raise NoIdentity("no two-sided identity in table")

    inverse_table = []
    for g in range(order):
        h = cayley[g].index(identity_index)  # the only h with g*h = e
        if cayley[h][g] != identity_index:
            raise NoInverse(f"element {g} has no two-sided inverse", element=g)
        inverse_table.append(h)

    generators = _greedy_generators(cayley, identity_index)
    for g in generators:
        row_g = cayley[g]
        for x in range(order):
            row_x = cayley[x]
            left = cayley[row_x[g]]  # y -> (x g) y
            right = list(map(row_x.__getitem__, row_g))  # y -> x (g y)
            if left != right:
                if order <= WITNESS_SCAN_LIMIT:
                    triple = _first_non_associative(cayley)
                else:
                    triple = [x, g, next(y for y in range(order)
                                         if left[y] != right[y])]
                a, b, c = triple
                raise NotAssociative(
                    f"({a}*{b})*{c} != {a}*({b}*{c})", triple=triple)

    return identity_index, inverse_table, generators


def _first_non_associative(cayley):
    order = len(cayley)
    return next([a, b, c] for a in range(order) for b in range(order)
                for c in range(order)
                if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]])


def _closure_of(cayley, identity_index, seeds):
    reached = {identity_index}
    frontier = [identity_index]
    while frontier:
        nxt = []
        for w in frontier:
            for s in seeds:
                p = cayley[w][s]
                if p not in reached:
                    reached.add(p)
                    nxt.append(p)
        frontier = nxt
    return reached


def _greedy_generators(cayley, identity_index):
    # Smallest index not yet generated is adjoined, repeatedly. Deterministic.
    order = len(cayley)
    generators = []
    closure = {identity_index}
    while len(closure) < order:
        candidate = min(i for i in range(order) if i not in closure)
        generators.append(candidate)
        closure = _closure_of(cayley, identity_index, generators)
    return generators


def _checked_table(cayley_table, labels):
    """The table as a list of int lists, its labels checked; anything
    else that is not a table raises SpecError."""
    if not isinstance(cayley_table, (list, tuple)):
        raise SpecError("a Cayley table must be a list of rows")
    order = len(cayley_table)
    if order > MAX_FINITE_ORDER:
        raise UnsupportedParameter(
            f"order {order} exceeds the supported bound {MAX_FINITE_ORDER}",
            order=order)
    cayley = []
    for i, row in enumerate(cayley_table):
        if not isinstance(row, (list, tuple)):
            raise SpecError(f"row {i} of the Cayley table is not a list", row=i)
        if not {int}.issuperset(map(type, row)):  # bool is not int here
            raise SpecError(
                f"row {i} of the Cayley table has an entry that is not an integer",
                row=i)
        cayley.append(list(row))
    if labels is not None and not (
            isinstance(labels, (list, tuple)) and len(labels) == order
            and {str}.issuperset(map(type, labels))
            and len(set(labels)) == order):
        raise SpecError(f"labels must be a list of {order} distinct strings")
    return cayley


def make_finite_group(cayley_table, name=None, labels=None) -> Group:
    """Validate a Cayley table and wrap it as a Group.

    Entries are element indices; table[i][j] is the index of g_i * g_j.
    Raises SpecError for a table that is not a list of integer lists,
    for labels that are not one distinct string per element, or for a
    name that is not a string, and NotLatinSquare, NoIdentity, NoInverse
    or NotAssociative with a witness in the payload when the table fails
    a group axiom.
    """
    if name is not None and not isinstance(name, str):
        raise SpecError(f"a group name must be a string, got {name!r}")
    cayley = _checked_table(cayley_table, labels)
    identity_index, inverse_table, generator_payloads = _validate_cayley(cayley)
    if not generator_payloads:
        generator_payloads = [identity_index]  # trivial group still needs one
    return Group(
        "finite",
        name or f"finite_order_{len(cayley)}",
        cayley=cayley,
        identity_index=identity_index,
        inverse_table=inverse_table,
        labels=labels,
        generator_payloads=generator_payloads,
    )


def _cyclic_tables(n):
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + ["g" if k == 1 else f"g^{k}" for k in range(1, n)]
    return cayley, labels


def _dihedral_tables(n):
    # r^i s^j has index i + j*n, and s r = r^-1 s, so (r^i s^j)(r^k s^l)
    # = r^(i +- k) s^(j xor l) with the sign + when j = 0
    cayley = [[(i + k if j == 0 else i - k) % n + (j ^ l) * n
               for l in (0, 1) for k in range(n)]
              for j in (0, 1) for i in range(n)]
    labels = []
    for j in (0, 1):
        for i in range(n):
            rot = "e" if i == 0 else ("r" if i == 1 else f"r^{i}")
            if j == 0:
                labels.append(rot)
            else:
                labels.append("s" if i == 0 else f"{rot}s")
    return cayley, labels


def _symmetric_tables(n):
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    cayley = [
        [index[tuple(p[q[x]] for x in range(n))] for q in elems]
        for p in elems
    ]
    labels = ["".join(str(v) for v in p) for p in elems]
    return cayley, labels


def _quaternion_tables():
    # the units +-1, +-i, +-j, +-k as 4-tuples, multiplied by Hamilton's rule
    units = [tuple(sign if k == axis else 0 for k in range(4))
             for axis in range(4) for sign in (1, -1)]
    index = {u: i for i, u in enumerate(units)}

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    cayley = [[index[hamilton(p, q)] for q in units] for p in units]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return cayley, labels


def _heisenberg_mod_tables(n):
    # (a, b, c) has index (a*n + b)*n + c, and (a, b, c)(a', b', c') =
    # (a + a', b + b', c + c' + a*b') mod n
    elems = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    cayley = [[(((a + a2) % n * n + (b + b2) % n) * n + (c + c2 + a * b2) % n)
               for a2 in range(n) for b2 in range(n) for c2 in range(n)]
              for a, b, c in elems]
    labels = ["[{},{},{}]".format(*p) for p in elems]
    return cayley, labels


_HEISENBERG_Z = None


def builtin_group(family: str, param: int | None = None) -> Group:
    """Canonical construction of the builtin families.

    family is one of cyclic, dihedral, symmetric, quaternion8,
    heisenberg_mod, heisenberg_Z; param is the family parameter where one
    applies (None or 8 for quaternion8), an int (a bool, float or string
    is refused with SpecError).
    """
    if family == "heisenberg_Z":
        if param is not None:
            raise UnsupportedParameter("heisenberg_Z takes no parameter", param=param)
        # one shared instance: elements compare by group identity, and
        # heisenberg_Z carries no mutable state
        global _HEISENBERG_Z
        if _HEISENBERG_Z is None:
            _HEISENBERG_Z = Group("heisenberg_Z", "heisenberg_Z",
                                  generator_payloads=[(1, 0, 0), (0, 1, 0)])
        return _HEISENBERG_Z
    if param is not None and type(param) is not int:
        raise SpecError(f"{family} needs an integer parameter, got {param!r}",
                        family=family)
    if family == "quaternion8":
        if param is not None and param != 8:
            raise UnsupportedParameter("quaternion8 takes no parameter", param=param)
        cayley, labels = _quaternion_tables()
        return make_finite_group(cayley, name="quaternion8", labels=labels)
    if param is None:
        raise UnsupportedParameter(f"{family} needs a parameter", family=family)
    n = param
    if family == "cyclic":
        if not 1 <= n <= MAX_FINITE_ORDER:
            raise UnsupportedParameter(f"cyclic order {n} out of range", param=n)
        cayley, labels = _cyclic_tables(n)
        return make_finite_group(cayley, name=f"cyclic_{n}", labels=labels)
    if family == "dihedral":
        if not 1 <= n or 2 * n > MAX_FINITE_ORDER:
            raise UnsupportedParameter(f"dihedral parameter {n} out of range", param=n)
        cayley, labels = _dihedral_tables(n)
        return make_finite_group(cayley, name=f"dihedral_{n}", labels=labels)
    if family == "symmetric":
        if not 1 <= n <= 5:
            raise UnsupportedParameter(
                f"symmetric groups are supported for n <= 5, got {n}", param=n)
        cayley, labels = _symmetric_tables(n)
        return make_finite_group(cayley, name=f"symmetric_{n}", labels=labels)
    if family == "heisenberg_mod":
        if not 1 <= n or n ** 3 > MAX_FINITE_ORDER:
            raise UnsupportedParameter(
                f"heisenberg_mod parameter {n} out of range", param=n)
        cayley, labels = _heisenberg_mod_tables(n)
        return make_finite_group(cayley, name=f"heisenberg_mod_{n}", labels=labels)
    raise UnsupportedParameter(f"unknown builtin family {family!r}", family=family)


class Endomorphism:
    """A group endomorphism, applied with __call__.

    Finite groups store the total element map, proved a homomorphism on
    the generator pairs (see make_endomorphism). On heisenberg_Z, free
    nilpotent of class 2, any images p = phi(x), q = phi(y) extend, and
    expanding g = x^a y^b z^(c - a*b) gives one closed form for every map:

        phi(a, b, c) = (a p0 + b q0, a p1 + b q1, a p2 + b q2 + C(a,2) p0 p1
                        + C(b,2) q0 q1 + a b p1 q0 + c (p0 q1 - p1 q0)).

    The products p0 p1, q0 q1, p1 q0 and p0 q1 - p1 q0 are taken once per
    map, not once per call.
    """

    def __init__(self, group, table=None, gen_images=None, is_automorphism=False):
        self.group = group
        self.table = table
        self.gen_images = gen_images
        self.is_automorphism = is_automorphism
        if gen_images is not None:
            (p0, p1, p2), (q0, q1, q2) = gen_images
            self._closed_form = (p0, p1, p2, q0, q1, q2, p0 * p1, q0 * q1,
                                 p1 * q0, p0 * q1 - p1 * q0)

    def __call__(self, g: GroupElement) -> GroupElement:
        self.group._check(g)
        if self.table is not None:
            return self.group._elements[self.table[g.payload]]
        p0, p1, p2, q0, q1, q2, pp, qq, qp, det = self._closed_form
        a, b, c = g.payload
        return GroupElement(self.group, (
            a * p0 + b * q0,
            a * p1 + b * q1,
            a * p2 + b * q2 + (a * (a - 1) // 2) * pp
            + (b * (b - 1) // 2) * qq + a * b * qp + c * det))

    def __repr__(self):
        images = ", ".join(
            f"{self.group.label(g)}->{self.group.label(self(g))}"
            for g in self.group.generators)
        return f"Endomorphism({images})"


def identity_endomorphism(group: Group) -> Endomorphism:
    """The identity map, built as conjugation by e. Like every map that
    fixes the generators, the heisenberg_Z closed forms accept it as inner."""
    return inner_endomorphism(group, group.identity())


def twisted_class_indices(group: Group, sigma: Endomorphism,
                          tau: Endomorphism):
    """The (sigma, tau)-conjugacy classes of a finite group, as index lists.

    The class of a is {sigma(g^-1) a tau(g)}. Since g acts on the right
    (first g, then k is the same as g k), and every element of a finite
    group is a positive word in the generators, the orbit under the
    generator moves alone is the whole class. Each class is sorted, and
    classes are ordered by their least index.
    """
    cay = group.cayley
    inv = group.inverse_table
    moves = [(sigma.table[inv[s.payload]], tau.table[s.payload])
             for s in group.generators]
    seen = [False] * group.order
    classes = []
    for a in range(group.order):
        if seen[a]:
            continue
        seen[a] = True
        members = [a]
        for b in members:  # grows while scanned: a breadth-first orbit
            for left, right in moves:
                c = cay[cay[left][b]][right]
                if not seen[c]:
                    seen[c] = True
                    members.append(c)
        members.sort()
        classes.append(members)
    return classes


def make_endomorphism(group: Group, images) -> Endomorphism:
    """Extend generator images to an endomorphism and validate it.

    images is a list aligned with group.generators, or a dict keyed by
    the generators; a missing image or a list of the wrong length is
    malformed input and raises SpecError. Raises NotAHomomorphism with a
    witness pair when the extension fails to be multiplicative. On
    heisenberg_Z it never does: the commutator [p, q] = (0, 0, p0 q1 -
    p1 q0) of any two images is central, so the relators [x, [x, y]] and
    [y, [x, y]] map to e.
    """
    if isinstance(images, dict):
        missing = [g for g in group.generators if g not in images]
        if missing:
            raise SpecError(
                f"missing image for generator {group.label(missing[0])}",
                generator=group.element_to_json(missing[0]))
        images = [images[g] for g in group.generators]
    images = list(images)
    if len(images) != len(group.generators):
        raise SpecError(
            f"expected {len(group.generators)} generator images, got {len(images)}")
    for img in images:
        group._check(img)

    if group.kind == "heisenberg_Z":
        px, py = (img.payload for img in images)
        det = px[0] * py[1] - px[1] * py[0]
        return Endomorphism(group, gen_images=[px, py],
                            is_automorphism=abs(det) == 1)

    cay = group.cayley
    table = [None] * group.order
    e = group.identity_index
    table[e] = e
    frontier = [e]
    pairs = [(g.payload, img.payload) for g, img in zip(group.generators, images)]
    while frontier:
        nxt = []
        for w in frontier:
            for s, s_img in pairs:
                p = cay[w][s]
                if table[p] is None:
                    table[p] = cay[table[w]][s_img]
                    nxt.append(p)
        frontier = nxt
    # phi(g s) = phi(g) phi(s) for every g and generator s proves phi a
    # homomorphism: with phi(e) = e, induction on a positive word w s
    # gives phi(g w s) = phi(g w) phi(s) = phi(g) phi(w) phi(s) =
    # phi(g) phi(w s). Only a failure scans all (g, h), to report the
    # first failing pair in canonical order.
    if any(table[cay[g][s]] != cay[table[g]][s_img]
           for g in range(group.order) for s, s_img in pairs):
        g, h = next((g, h) for g in range(group.order)
                    for h in range(group.order)
                    if table[cay[g][h]] != cay[table[g]][table[h]])
        raise NotAHomomorphism(
            "phi(g*h) != phi(g)*phi(h)",
            witness=[group.element_to_json(group._elements[g]),
                     group.element_to_json(group._elements[h])])
    return Endomorphism(group, table=table,
                        is_automorphism=len(set(table)) == group.order)


def inner_endomorphism(group: Group, x: GroupElement) -> Endomorphism:
    """The automorphism g -> x g x^{-1}."""
    group._check(x)
    if group.kind == "heisenberg_Z":
        # x s x^-1 for the generators s = (1, 0, 0) and (0, 1, 0)
        x0, x1, _x2 = x.payload
        return Endomorphism(group, gen_images=[(1, 0, -x1), (0, 1, x0)],
                            is_automorphism=True)
    xi = x.payload
    x_inv = group.inverse_table[xi]
    table = [group.cayley[group.cayley[xi][g]][x_inv] for g in range(group.order)]
    return Endomorphism(group, table=table, is_automorphism=True)


def all_automorphisms(group: Group):
    """Every automorphism of a finite group, in deterministic order.

    Brute force over generator-image tuples; fine at the orders this
    library supports.
    """
    if group.kind != "finite":
        raise UnsupportedParameter("automorphism enumeration needs a finite group")
    found = []
    gens = group.generators
    candidates = [group.elements()] * len(gens)

    def rec(i, chosen):
        if i == len(gens):
            try:
                endo = make_endomorphism(group, chosen)
            except NotAHomomorphism:
                return
            if endo.is_automorphism:
                found.append(endo)
            return
        for img in candidates[i]:
            rec(i + 1, chosen + [img])

    rec(0, [])
    return found


# a namedtuple rather than a dataclass: importing dataclasses also loads
# inspect, ast, dis and tokenize, some 8 ms of the CLI's import
class HeisenbergParams(namedtuple("HeisenbergParams",
                                  "sigma_a sigma_b sigma_c tau_c")):
    """Witness entries for the inner pair sigma, tau on the Heisenberg group.

    sigma is conjugation by (sigma_a, sigma_b, sigma_c) and tau by
    (sigma_a, sigma_b, tau_c): the two witnesses share their (a, b)
    entries and differ only in the c entry, which conjugation ignores:
    sigma and tau are one map, and sigma_c, tau_c show only in the job
    header of `derivations central`.
    """

    __slots__ = ()

    def witnesses(self, group: Group):
        if group.kind != "heisenberg_Z":
            raise UnsupportedParameter("HeisenbergParams needs heisenberg_Z")
        s = group.element((self.sigma_a, self.sigma_b, self.sigma_c))
        t = group.element((self.sigma_a, self.sigma_b, self.tau_c))
        return s, t

    def endomorphisms(self, group: Group):
        s, t = self.witnesses(group)
        return inner_endomorphism(group, s), inner_endomorphism(group, t)
