"""Exact sums of square roots of integers.

The gallery kernel puts unfolded corners at (X, Y*sqrt(3)) with integer X
and Y, so its path lengths are sums of square roots of integers; RadicalSum
keeps them exact and comparable.
"""

from __future__ import annotations

import math
from fractions import Fraction


# RadicalSum.compare first encloses both sums in integer multiples of
# 2**-_FIRST_BITS, which parts nearly every pair of distinct lengths
_FIRST_BITS = 80


class RadicalSum:
    """sum(a * sqrt(n)) over the terms (a, n), for rational a >= 0 and
    integers n >= 0; terms with a or n zero are dropped.

    Terms whose radicands multiply to a perfect square share a square-free
    part, and compare and == put them in one class: sqrt(n) = r / m * sqrt(m)
    for the class's first radicand m and r = isqrt(n * m), so the class sums
    to sum(a * r) / m * sqrt(m), kept as the numerator sum(a * r), which is
    an integer when the coefficients are.  Square roots of distinct
    square-free integers are linearly independent over the rationals, so two
    sums are equal exactly when their numerators agree in every class;
    otherwise enclosures of growing precision part them.
    Radicands are never factored.  One value has many spellings (sqrt(8) is
    2 * sqrt(2)), so the type is not hashable.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=()):
        self.terms = tuple((a, n) for a, n in terms if a and n)
        if any(a < 0 or n < 0 for a, n in self.terms):
            raise ValueError("RadicalSum wants coefficients and radicands >= 0")

    def _forms(self, other: RadicalSum) -> list[dict[int, int | Fraction]]:
        """Both sums as {class radicand m: numerator}, over shared classes;
        a class contributes its numerator / m * sqrt(m)."""
        classes: list[int] = []
        forms = []
        for terms in (self.terms, other.terms):
            form: dict[int, int | Fraction] = {}
            for a, n in terms:
                for m in classes:
                    r = math.isqrt(n * m)
                    if r * r == n * m:
                        break
                else:
                    classes.append(n)
                    m = r = n
                form[m] = form.get(m, 0) + a * r
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


def _bounds(form: dict[int, int | Fraction], bits: int) -> tuple[int, int]:
    """lo <= 2**bits * sum(a / m * sqrt(m)) <= hi over form's items (m, a)."""
    lo = hi = 0
    for m, a in form.items():
        num, den = a.numerator, a.denominator * m
        r = math.isqrt(m << 2 * bits)
        lo += num * r // den
        hi += -(-num * (r + 1) // den)
    return lo, hi
