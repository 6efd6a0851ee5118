"""Exact plane arithmetic over the quadratic field Q(sqrt 3).

Reflection matrices of the Euclidean triangle groups, unfolded triangle
corners and squared distances all have coordinates of the form p + q*sqrt(3)
with rational p, q.  The gallery kernel puts unfolded corners at (X, Y*sqrt(3))
with integer X and Y, so its path lengths are sums of square roots of
integers; RadicalSum keeps them exact and comparable.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Q3:
    """p + q*sqrt(3) with rational coefficients.  Field operations are exact.

    Components may be ints or Fractions; integer inputs stay integers under
    ring operations, which keeps the geometry predicates fast.
    """

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        if not isinstance(p, (int, Fraction)):
            raise TypeError(f"Q3 wants exact components, got {type(p).__name__}")
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"Q3 wants exact components, got {type(q).__name__}")
        self.p = p
        self.q = q

    def __repr__(self):
        return f"Q3({self.p}, {self.q})"

    def __eq__(self, other):
        if isinstance(other, Q3):
            return self.p == other.p and self.q == other.q
        if isinstance(other, (int, Fraction)):
            return self.p == other and self.q == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __add__(self, other):
        other = _coerce(other)
        return Q3(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return Q3(-self.p, -self.q)

    def __sub__(self, other):
        other = _coerce(other)
        return Q3(self.p - other.p, self.q - other.q)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Q3(
            self.p * other.p + 3 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.p * self.p - 3 * self.q * self.q

    def inverse(self) -> Q3:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or zero-norm element")
        nf = _as_fraction(n)
        return Q3(_as_fraction(self.p) / nf, -_as_fraction(self.q) / nf)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign of the real number p + q*sqrt(3)."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        # mixed signs: compare p^2 with 3 q^2, the larger magnitude wins
        d = self.p * self.p - 3 * self.q * self.q
        big_is_rational = 1 if d > 0 else (-1 if d < 0 else 0)
        if big_is_rational == 0:
            return 0
        return big_is_rational if self.p > 0 else -big_is_rational

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(3.0)


def _coerce(x) -> Q3:
    if isinstance(x, Q3):
        return x
    if isinstance(x, (int, Fraction)):
        return Q3(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q3")


# RadicalSum.compare first encloses both sums in integer multiples of
# 2**-_FIRST_BITS, which parts nearly every pair of distinct lengths
_FIRST_BITS = 80


class RadicalSum:
    """sum(a * sqrt(n)) over the terms (a, n), for rational a >= 0 and
    integers n >= 0; terms with a or n zero are dropped.

    Terms whose radicands multiply to a perfect square share a square-free
    part, and compare and == put them in one class: sqrt(n) = r / m * sqrt(m)
    for the class's first radicand m and r = isqrt(n * m).  Square roots of
    distinct square-free integers are linearly independent over the
    rationals, so two sums are equal exactly when their coefficients agree
    in every class; otherwise enclosures of growing precision part them.
    Radicands are never factored.  One value has many spellings (sqrt(8) is
    2 * sqrt(2)), so the type is not hashable.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=()):
        self.terms = tuple((a, n) for a, n in terms if a and n)
        if any(a < 0 or n < 0 for a, n in self.terms):
            raise ValueError("RadicalSum wants coefficients and radicands >= 0")

    def _forms(self, other: RadicalSum) -> list[dict[int, Fraction]]:
        """Both sums as {class radicand: coefficient}, over shared classes."""
        classes: list[int] = []
        forms = []
        for terms in (self.terms, other.terms):
            form: dict[int, Fraction] = {}
            for a, n in terms:
                for m in classes:
                    r = math.isqrt(n * m)
                    if r * r == n * m:
                        break
                else:
                    classes.append(n)
                    m = r = n
                form[m] = form.get(m, 0) + a * Fraction(r, m)
            forms.append(form)
        return forms

    def compare(self, other: RadicalSum) -> int:
        """The sign of self minus other."""
        forms = self._forms(other)
        if forms[0] == forms[1]:
            return 0
        bits = _FIRST_BITS
        while True:
            (xlo, xhi), (ylo, yhi) = (_bounds(form, bits) for form in forms)
            if xlo > yhi:
                return 1
            if xhi < ylo:
                return -1
            bits *= 2

    def __eq__(self, other):
        if not isinstance(other, RadicalSum):
            return NotImplemented
        forms = self._forms(other)
        return forms[0] == forms[1]

    def squared(self) -> RadicalSum:
        terms = self.terms
        return RadicalSum(
            [(a * a * n, 1) for a, n in terms]
            + [(2 * a * b, n * m) for i, (a, n) in enumerate(terms) for b, m in terms[i + 1:]]
        )

    def __mul__(self, c):
        """The sum scaled by a rational c >= 0."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return RadicalSum((c * a, n) for a, n in self.terms)

    __rmul__ = __mul__

    def __repr__(self):
        return f"RadicalSum({list(self.terms)})"


def _bounds(form: dict[int, Fraction], bits: int) -> tuple[int, int]:
    """lo <= 2**bits * sum(a * sqrt(m)) <= hi over form's items (m, a)."""
    lo = hi = 0
    for m, a in form.items():
        num, den = a.numerator, a.denominator
        r = math.isqrt(m << 2 * bits)
        lo += num * r // den
        hi += -(-num * (r + 1) // den)
    return lo, hi


# -- planar points and vectors ------------------------------------------------

Point = tuple[Q3, Q3]


def pt(x, y) -> Point:
    return (_coerce(x), _coerce(y))


def p_sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def dot(a: Point, b: Point) -> Q3:
    return a[0] * b[0] + a[1] * b[1]


class Isometry:
    """Exact planar isometry x -> M x + t with entries in Q(sqrt 3)."""

    __slots__ = ("m00", "m01", "m10", "m11", "t0", "t1")

    def __init__(self, m00, m01, m10, m11, t0, t1):
        self.m00 = _coerce(m00)
        self.m01 = _coerce(m01)
        self.m10 = _coerce(m10)
        self.m11 = _coerce(m11)
        self.t0 = _coerce(t0)
        self.t1 = _coerce(t1)

    @classmethod
    def identity(cls) -> Isometry:
        return cls(1, 0, 0, 1, 0, 0)

    @classmethod
    def reflection(cls, a: Point, b: Point) -> Isometry:
        """Reflection across the line through distinct points a and b."""
        d = p_sub(b, a)
        dd = dot(d, d)
        if dd.sign() == 0:
            raise ValueError("reflection axis needs two distinct points")
        dx, dy = d
        m00 = (dx * dx - dy * dy) / dd
        m01 = (2 * dx * dy) / dd
        m10 = m01
        m11 = (dy * dy - dx * dx) / dd
        t0 = a[0] - (m00 * a[0] + m01 * a[1])
        t1 = a[1] - (m10 * a[0] + m11 * a[1])
        return cls(m00, m01, m10, m11, t0, t1)

    def apply(self, p: Point) -> Point:
        return (
            self.m00 * p[0] + self.m01 * p[1] + self.t0,
            self.m10 * p[0] + self.m11 * p[1] + self.t1,
        )

    def compose(self, other: Isometry) -> Isometry:
        """self after other: (self*other)(p) = self(other(p))."""
        return Isometry(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.t0 + self.m01 * other.t1 + self.t0,
            self.m10 * other.t0 + self.m11 * other.t1 + self.t1,
        )

    def is_orthogonal(self) -> bool:
        a, b, c, d = self.m00, self.m01, self.m10, self.m11
        det = a * d - b * c
        return (
            (a * a + c * c) == Q3(1)
            and (b * b + d * d) == Q3(1)
            and (a * b + c * d).is_zero()
            and (det == Q3(1) or det == Q3(-1))
        )

    def key(self):
        return (self.m00, self.m01, self.m10, self.m11, self.t0, self.t1)

    def __eq__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Isometry{self.key()}"
