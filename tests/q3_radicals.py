"""Exact plane arithmetic over the quadratic field Q(sqrt 3), kept as the
reference that the library's integer arithmetic is tested against.

Q3 and the Isometry matrices check the oracle's chamber walk, the Q(sqrt 3)
radical sums check trifold.rings.RadicalSum, and the Q(sqrt 3) point
predicates check the gallery kernel's integer ones.

Radicands here are field elements p + q*sqrt(3), reduced modulo field
squares by exact square roots in the field, and comparisons refine
rational interval enclosures.  The library's RadicalSum takes integer
radicands and classes them by perfect-square products instead, so the two
share no code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from trifold import rings


# -- the quadratic field ---------------------------------------------------------


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


# -- radical sums ------------------------------------------------------------------


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    num = math.isqrt(f.numerator)
    den = math.isqrt(f.denominator)
    if num * num != f.numerator or den * den != f.denominator:
        return None
    return Fraction(num, den)


def q3_sqrt(z: Q3) -> Q3 | None:
    """Nonnegative square root inside the field, or None if irrational."""
    s = z.sign()
    if s < 0:
        return None
    if s == 0:
        return Q3(0, 0)
    if z.q == 0:
        u = _fraction_sqrt(_as_fraction(z.p))
        if u is not None:
            return Q3(u, 0)
        v = _fraction_sqrt(_as_fraction(z.p) / 3)
        if v is not None:
            return Q3(0, v)
        return None
    t = _fraction_sqrt(_as_fraction(z.norm()))
    if t is None:
        return None
    half = Fraction(1, 2)
    for cand in ((z.p + t) * half, (z.p - t) * half):
        u = _fraction_sqrt(cand)
        if u is not None and u != 0:
            v = z.q / (2 * u)
            root = Q3(u, v)
            if root * root == z:
                return root if root.sign() >= 0 else -root
    return None


def q3_interval(z: Q3, prec: int) -> tuple[Fraction, Fraction]:
    lo3, hi3 = _sqrt3_interval(prec)
    if z.q >= 0:
        return (z.p + z.q * lo3, z.p + z.q * hi3)
    return (z.p + z.q * hi3, z.p + z.q * lo3)


_SQRT3_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def _sqrt3_interval(prec: int) -> tuple[Fraction, Fraction]:
    got = _SQRT3_CACHE.get(prec)
    if got is None:
        scale = 1 << prec
        root = math.isqrt(3 * scale * scale)
        got = (Fraction(root, scale), Fraction(root + 1, scale))
        _SQRT3_CACHE[prec] = got
    return got


def _sqrt_interval(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt on a nonnegative rational interval."""
    if lo < 0:
        lo = Fraction(0)
    scale = 1 << prec
    nlo = math.isqrt((lo.numerator * scale * scale) // lo.denominator) if lo else 0
    nhi = math.isqrt(-(-hi.numerator * scale * scale // hi.denominator)) + 1
    return (Fraction(nlo, scale), Fraction(nhi, scale))


class RadicalSum:
    """const + sum of signed square roots of Q(sqrt 3) values, kept canonical.

    Radicands are pairwise inequivalent modulo field squares, so two values
    are equal exactly when their representations coincide.  Strict comparison
    refines rational interval enclosures until the two values separate, which
    terminates because distinct exact reals eventually do.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: Q3 | int | Fraction = 0, terms=None):
        self.const = _coerce(const)
        self.terms: dict[Q3, int] = {}
        if terms:
            for z, s in terms.items():
                self._insert(s, z)

    @classmethod
    def sqrt_of(cls, z: Q3 | int | Fraction) -> RadicalSum:
        out = cls()
        out._insert(1, _coerce(z))
        return out

    def _insert(self, sign: int, z: Q3) -> None:
        if sign == 0 or z.is_zero():
            return
        if z.sign() < 0:
            raise ValueError("negative radicand")
        root = q3_sqrt(z)
        if root is not None:
            self.const = self.const + (root if sign > 0 else -root)
            return
        for w in list(self.terms):
            ratio = z / w
            s = q3_sqrt(ratio)
            if s is not None:
                # sigma*sqrt(z) + tau*sqrt(w) = (sigma*s + tau)*sqrt(w)
                coeff = (s if sign > 0 else -s) + (1 if self.terms[w] > 0 else -1)
                del self.terms[w]
                csign = coeff.sign()
                if csign != 0:
                    self._insert(csign, coeff * coeff * w)
                return
        self.terms[z] = sign

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Q3)):
            other = RadicalSum(other)
        out = RadicalSum(self.const + other.const, dict(self.terms))
        for z, s in other.terms.items():
            out._insert(s, z)
        return out

    def __neg__(self):
        return RadicalSum(-self.const, {z: -s for z, s in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Q3)):
            other = RadicalSum(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Q3)):
            other = RadicalSum(other)
        out = RadicalSum(self.const * other.const)
        for z, s in other.terms.items():
            _insert_scaled(out, self.const, s, z)
        for z, s in self.terms.items():
            _insert_scaled(out, other.const, s, z)
        for z1, s1 in self.terms.items():
            for z2, s2 in other.terms.items():
                out._insert(s1 * s2, z1 * z2)
        return out

    def squared(self) -> RadicalSum:
        return self * self

    def is_field_element(self) -> bool:
        return not self.terms

    def as_field_element(self) -> Q3:
        if self.terms:
            raise ValueError("value has irrational square-root terms")
        return self.const

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Q3)):
            other = RadicalSum(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, frozenset(self.terms.items())))

    def interval(self, prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = q3_interval(self.const, prec)
        for z, s in self.terms.items():
            zlo, zhi = q3_interval(z, prec)
            rlo, rhi = _sqrt_interval(zlo, zhi, prec)
            if s > 0:
                lo, hi = lo + rlo, hi + rhi
            else:
                lo, hi = lo - rhi, hi - rlo
        return lo, hi

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction, Q3)):
            other = RadicalSum(other)
        if self == other:
            return 0
        fast = _compare_fast(self, other)
        if fast is not None:
            return fast
        prec = 16
        while prec <= 1 << 14:
            alo, ahi = self.interval(prec)
            blo, bhi = other.interval(prec)
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            prec *= 2
        raise RuntimeError("interval refinement failed to separate values")

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def sign(self) -> int:
        return self.compare(RadicalSum(0))

    def __float__(self):
        value = float(self.const)
        for z, s in self.terms.items():
            value += s * math.sqrt(float(z))
        return value

    def __repr__(self):
        return f"RadicalSum({float(self):.6f})"


def _insert_scaled(out: RadicalSum, coeff: Q3, sign: int, z: Q3) -> None:
    """Add coeff * sign * sqrt(z) to out."""
    cs = coeff.sign()
    if cs == 0:
        return
    out._insert(sign * cs, coeff * coeff * z)


def _compare_fast(a: RadicalSum, b: RadicalSum) -> int | None:
    """Square-root-free comparison for the common one-term shapes."""
    if not a.terms and not b.terms:
        return (a.const - b.const).sign()
    if a.const == b.const and len(a.terms) == 1 and len(b.terms) == 1:
        (za, sa), = a.terms.items()
        (zb, sb), = b.terms.items()
        if sa == sb:
            diff = (za - zb).sign()
            return diff if sa > 0 else -diff
        return 1 if sa > 0 else -1
    if not a.terms and len(b.terms) == 1:
        flipped = _compare_const_vs_sqrt(a.const - b.const, *next(iter(b.terms.items())))
        return flipped
    if not b.terms and len(a.terms) == 1:
        got = _compare_const_vs_sqrt(b.const - a.const, *next(iter(a.terms.items())))
        return None if got is None else -got
    return None


def _compare_const_vs_sqrt(c: Q3, z: Q3, sign: int) -> int | None:
    """Sign of c - sign*sqrt(z), exact via one squaring."""
    cs = c.sign()
    if sign > 0:
        if cs <= 0:
            return -1 if z.sign() > 0 or cs < 0 else 0
        return (c * c - z).sign()
    if cs >= 0:
        return 1 if z.sign() > 0 or cs > 0 else 0
    return -(c * c - z).sign()


def reference(value: rings.RadicalSum) -> RadicalSum:
    """The library's integer-radicand sum as a reference sum."""
    out = RadicalSum(0)
    for a, n in value.terms:
        out = out + RadicalSum.sqrt_of(n) * a
    return out


# -- planar point predicates ---------------------------------------------------


def p_add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def p_scale(a: Point, c) -> Point:
    c = _coerce(c)
    return (a[0] * c, a[1] * c)


def cross(a: Point, b: Point) -> Q3:
    return a[0] * b[1] - a[1] * b[0]


def area2(a: Point, b: Point, c: Point) -> Q3:
    """Twice the signed area of the triangle a, b, c."""
    return cross(p_sub(b, a), p_sub(c, a))


def sqdist(a: Point, b: Point) -> Q3:
    d = p_sub(a, b)
    return dot(d, d)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact membership of p in the closed segment [a, b]."""
    if area2(a, b, p).sign() != 0:
        return False
    d = p_sub(b, a)
    t = dot(p_sub(p, a), d)
    return t.sign() >= 0 and (t - dot(d, d)).sign() <= 0


def segment_point_sqdist(a: Point, b: Point, p: Point) -> Q3:
    """Exact squared distance from point p to segment [a, b]."""
    d = p_sub(b, a)
    dd = dot(d, d)
    if dd.sign() == 0:
        return sqdist(a, p)
    t = dot(p_sub(p, a), d)
    if t.sign() <= 0:
        return sqdist(a, p)
    if (t - dd).sign() >= 0:
        return sqdist(b, p)
    foot = p_add(a, p_scale(d, t / dd))
    return sqdist(foot, p)
