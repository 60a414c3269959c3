"""Exact scalars and finite-support group-algebra arithmetic.

Scalars are Gaussian rationals: complex numbers with rational real and
imaginary parts, stored exactly, each part an int or a Fraction and
never a float. Every linear condition the library generates has integer
coefficients, so dimensions computed over this field agree with
dimensions over the full complex field while keeping all checks at
tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GroupMismatch, SpecError


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # each part is an int or a Fraction, never a float or a bool: ints
        # stay ints, so integral arithmetic pays no Fraction gcd, and
        # Fractions are not re-wrapped; == and hash agree across the two
        # (hash(3) == hash(Fraction(3))), and so do the printed parts
        t = type(re)
        self.re = re if t is int or t is Fraction else Fraction(re)
        t = type(im)
        self.im = im if t is int or t is Fraction else Fraction(im)

    @classmethod
    def parse(cls, re_str, im_str="0"):
        return cls(Fraction(re_str), Fraction(im_str))

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            _exact_div(self.re * other.re + self.im * other.im, norm),
            _exact_div(self.im * other.re - self.re * other.im, norm))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self):
        return {"re": str(self.re), "im": str(self.im)}


def _exact_div(num, den):
    # int / int is a float; the quotient of two ints is built as a Fraction
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    return num / den


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")


ZERO = GaussianRational(0)


class AlgebraElement:
    """A finite-support map from group elements to Gaussian rationals.

    Stored sparsely with no zero terms, so structural equality is
    mathematical equality. Immutable by convention: operations return
    new elements.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        self.group = group
        clean = {}
        if terms:
            for g, c in terms.items():
                group._check(g)
                c = _coerce(c)
                if c:
                    clean[g] = c
        self.terms = clean

    @classmethod
    def zero(cls, group):
        return cls(group)

    @classmethod
    def indicator(cls, group, g, coeff=1):
        return cls(group, {g: _coerce(coeff)})

    @classmethod
    def unit(cls, group):
        return cls.indicator(group, group.identity())

    def coefficient(self, g) -> GaussianRational:
        return self.terms.get(g, ZERO)

    def support(self):
        return sorted(self.terms, key=self.group.sort_key)

    def items(self):
        """Term pairs in canonical element order."""
        return [(g, self.terms[g]) for g in self.support()]

    def is_zero(self):
        return not self.terms

    def _check_group(self, other):
        if self.group is not other.group:
            raise GroupMismatch(
                f"algebra elements over {self.group.name} and {other.group.name}",
                expected=self.group.name, got=other.group.name)

    def __add__(self, other):
        self._check_group(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            prev = terms.get(g)
            if prev is None:
                terms[g] = c  # nonzero: terms hold no zero coefficient
                continue
            acc = prev + c
            if acc:
                terms[g] = acc
            else:
                terms.pop(g, None)
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = self.group
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        # negating each coefficient is cheaper than scaling by -1, and every
        # inner and quasi-inner derivation value is a difference
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = self.group
        out.terms = {g: -c for g, c in self.terms.items()}
        return out

    def scale(self, c) -> "AlgebraElement":
        c = _coerce(c)
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = self.group
        out.terms = {} if not c else {g: v * c for g, v in self.terms.items()}
        return out

    def __mul__(self, other):
        """Convolution: (f*g)(x) = sum over u*v = x of f(u)g(v)."""
        self._check_group(other)
        group = self.group
        acc = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                x = group.multiply(u, v)
                acc[x] = acc.get(x, ZERO) + cu * cv
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = group
        out.terms = {g: c for g, c in acc.items() if c}
        return out

    def right_mul(self, g_elem) -> "AlgebraElement":
        """Convolution with a single group element on the right."""
        group = self.group
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = group
        out.terms = {group.multiply(u, g_elem): c for u, c in self.terms.items()}
        return out

    def left_mul(self, g_elem) -> "AlgebraElement":
        """Convolution with a single group element on the left."""
        group = self.group
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = group
        out.terms = {group.multiply(g_elem, u): c for u, c in self.terms.items()}
        return out

    def apply(self, endo) -> "AlgebraElement":
        """Linear extension of a group endomorphism; colliding images accumulate."""
        acc = {}
        for g, c in self.terms.items():
            img = endo(g)
            prev = acc.get(img, ZERO) + c
            acc[img] = prev
        out = AlgebraElement.__new__(AlgebraElement)
        out.group = self.group
        out.terms = {g: c for g, c in acc.items() if c}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.group is other.group
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for g, c in self.items():
            parts.append(f"({c!r})*{self.group.label(g)}")
        return " + ".join(parts)

    # the key of the {elem, re, im} entry list in JSON
    json_key = "terms"

    def to_json(self):
        return {self.json_key: [
            {"elem": self.group.element_to_json(g), "re": str(c.re), "im": str(c.im)}
            for g, c in self.items()]}

    @classmethod
    def from_json(cls, group, obj):
        """Coefficients summed over the {elem, re, im} entries of the list
        at json_key; re and im default to 0 and are integers or rational
        strings such as "-3/4". Anything else raises SpecError."""
        if not isinstance(obj, dict):
            raise SpecError(f"{obj!r} is not an algebra element: expected "
                            f"an object with a {cls.json_key!r} list")
        entries = obj.get(cls.json_key, [])
        if not isinstance(entries, list):
            raise SpecError(f"{entries!r} is not a list of {{elem, re, im}} entries")
        out = {}
        for entry in entries:
            if not isinstance(entry, dict) or "elem" not in entry:
                raise SpecError(f"{entry!r} is not an {{elem, re, im}} entry")
            g = group.element_from_json(entry["elem"])
            c = GaussianRational(_rational(entry.get("re", "0")),
                                 _rational(entry.get("im", "0")))
            out[g] = out.get(g, ZERO) + c
        return cls(group, out)


def _rational(value):
    if type(value) in (int, str):  # bool and float are refused
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError(f"{value!r} is not an integer or a rational string")

