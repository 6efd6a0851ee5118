"""The Q(sqrt 3) radical sums that trifold.rings.RadicalSum is tested against,
and the Q(sqrt 3) point predicates that the gallery kernel's integer ones
are tested against.

Radicands here are field elements p + q*sqrt(3), reduced modulo field
squares by exact square roots in the field, and comparisons refine
rational interval enclosures.  The library's RadicalSum takes integer
radicands and classes them by perfect-square products instead, so the two
share no code past Q3's field operations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from trifold import rings
from trifold.rings import Q3, Point, _as_fraction, _coerce, dot, p_sub


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
