import math
import random
import time
from fractions import Fraction

import pytest

from trifold.rings import RadicalSum

import q3_radicals
from q3_radicals import (
    Isometry,
    Q3,
    area2,
    on_segment,
    pt,
    q3_sqrt,
    reference,
    segment_point_sqdist,
    sqdist,
)


def rand_q3(rng, span=8):
    return Q3(
        Fraction(rng.randrange(-span, span), rng.randrange(1, 5)),
        Fraction(rng.randrange(-span, span), rng.randrange(1, 5)),
    )


def test_field_axioms_on_random_elements():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = rand_q3(rng), rand_q3(rng), rand_q3(rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == Q3(1)


def test_sign_matches_float():
    rng = random.Random(2)
    for _ in range(500):
        a = rand_q3(rng)
        f = float(a)
        if abs(f) > 1e-9:
            assert a.sign() == (1 if f > 0 else -1)
    assert Q3(0, 0).sign() == 0
    # sign decisions that floats would get wrong stay exact
    tiny = Q3(26, -15)  # 26 - 15*sqrt(3) = 26 - 25.98...
    assert tiny.sign() == 1
    assert (-tiny).sign() == -1


# -- the Q(sqrt 3) reference sums of tests/q3_radicals.py -------------------------


def test_exact_square_roots_in_field():
    assert q3_sqrt(Q3(4)) == Q3(2)
    assert q3_sqrt(Q3(12)) == Q3(0, 2)  # sqrt(12) = 2*sqrt(3)
    assert q3_sqrt(Q3(7, 4)) == Q3(2, 1)  # (2 + sqrt3)^2 = 7 + 4 sqrt3
    assert q3_sqrt(Q3(2, 1)) is None
    assert q3_sqrt(Q3(-1)) is None
    rng = random.Random(3)
    for _ in range(100):
        a = rand_q3(rng)
        sq = a * a
        root = q3_sqrt(sq)
        assert root is not None and root * root == sq and root.sign() >= 0


def test_radical_sum_combines_equivalent_radicands():
    RadicalSum = q3_radicals.RadicalSum
    # sqrt(2+sqrt3) + sqrt(8+4 sqrt3) = 3 sqrt(2+sqrt3) = sqrt(18+9 sqrt3)
    a = RadicalSum.sqrt_of(Q3(2, 1)) + RadicalSum.sqrt_of(Q3(8, 4))
    assert a == RadicalSum.sqrt_of(Q3(18, 9))
    # perfect squares fold into the field part
    b = RadicalSum.sqrt_of(Q3(7, 4))
    assert b.is_field_element() and b.as_field_element() == Q3(2, 1)


def test_radical_sum_compare_and_identities():
    RadicalSum = q3_radicals.RadicalSum
    rng = random.Random(4)
    values = [Q3(2, 1), Q3(5, 0), Q3(1, 0), Q3(6, 3), Q3(11, 6)]
    for _ in range(100):
        xs = [rng.choice(values) for _ in range(rng.randint(1, 3))]
        ys = [rng.choice(values) for _ in range(rng.randint(1, 3))]
        a = RadicalSum(0)
        for x in xs:
            a = a + RadicalSum.sqrt_of(x)
        b = RadicalSum(0)
        for y in ys:
            b = b + RadicalSum.sqrt_of(y)
        fa = sum(math.sqrt(float(x)) for x in xs)
        fb = sum(math.sqrt(float(y)) for y in ys)
        cmp = a.compare(b)
        if abs(fa - fb) > 1e-9:
            assert cmp == (1 if fa > fb else -1)
        else:
            assert cmp == 0
    # squaring is exact
    s = RadicalSum.sqrt_of(Q3(2, 1)) + RadicalSum.sqrt_of(Q3(5, 0))
    sq = s.squared()
    assert abs(float(sq) - float(s) ** 2) < 1e-9
    # (sqrt a - sqrt a) vanishes structurally
    z = RadicalSum.sqrt_of(Q3(2, 1)) - RadicalSum.sqrt_of(Q3(2, 1))
    assert z == RadicalSum(0)


# -- integer-radicand sums against the reference -----------------------------------


def _random_root_sum(rng):
    """Up to four terms a * sqrt(n), zero coefficients and radicands among
    them; radicands share square-free parts often, so classes merge."""
    terms = []
    for _ in range(rng.randrange(5)):
        a = Fraction(rng.randrange(4), rng.randrange(1, 4))
        n = rng.choice((0, 1, 2, 3, 5, 6, 7)) * rng.choice((1, 1, 4, 9, 12))
        terms.append((a, n))
    return RadicalSum(terms)


def test_radical_sum_matches_reference_on_random_sums():
    rng = random.Random(15)
    ties = 0
    for _ in range(1500):
        x, y = _random_root_sum(rng), _random_root_sum(rng)
        rx, ry = reference(x), reference(y)
        got = x.compare(y)
        assert got == rx.compare(ry), (x, y)
        assert y.compare(x) == -got
        assert (x == y) == (rx == ry) == (got == 0), (x, y)
        ties += got == 0
        assert reference(x.squared()) == rx.squared(), x
        c = Fraction(rng.randrange(5), rng.randrange(1, 5))
        assert reference(x * c) == rx * c == reference(c * x), (x, c)
    assert ties > 100


def test_radical_sum_equal_under_other_radicands():
    assert RadicalSum([(1, 8)]) == RadicalSum([(2, 2)])
    assert RadicalSum([(1, 8)]).compare(RadicalSum([(2, 2)])) == 0
    assert RadicalSum([(1, 12), (1, 3)]) == RadicalSum([(1, 27)])
    assert RadicalSum([(1, 12), (1, 3)]).compare(RadicalSum([(1, 27)])) == 0
    # perfect squares are rationals: sqrt(4) + sqrt(9) = 5 * sqrt(1)
    assert RadicalSum([(1, 4), (1, 9)]) == RadicalSum([(5, 1)])
    # terms with a zero coefficient or radicand are zero
    assert RadicalSum([(0, 5), (3, 0)]) == RadicalSum()
    assert RadicalSum([(0, 5), (1, 2)]).compare(RadicalSum([(1, 2)])) == 0
    assert RadicalSum([(1, 2)]).compare(RadicalSum()) == 1
    assert RadicalSum([(1, 2)]).squared() == RadicalSum([(2, 1)])
    assert RadicalSum([(1, 2), (1, 8)]).squared() == RadicalSum([(18, 1)])
    with pytest.raises(TypeError):
        hash(RadicalSum())
    with pytest.raises(ValueError):
        RadicalSum([(-1, 2)])


def test_radical_sum_with_a_large_prime_radicand():
    # an 81-bit prime radicand and the rationals that enclose its root
    # closest at 80 bits: only a finer enclosure parts them, and the classes
    # are found by perfect-square products, never by factoring
    p = 1099511627858 ** 2 + 75
    r = math.isqrt(p << 160)
    below = RadicalSum([(Fraction(r, 1 << 80), 1)])
    above = RadicalSum([(Fraction(r + 1, 1 << 80), 1)])
    root = RadicalSum([(1, p)])
    start = time.perf_counter()
    assert root.compare(below) == 1 and below.compare(root) == -1
    assert root.compare(above) == -1
    assert RadicalSum([(1, p), (1, 4 * p)]) == RadicalSum([(3, p)])
    assert RadicalSum([(1, p), (1, 4 * p)]).compare(RadicalSum([(1, 9 * p), (1, 1)])) == -1
    assert root.squared() == RadicalSum([(p, 1)])
    assert time.perf_counter() - start < 1
    assert reference(root).compare(reference(below)) == 1
    assert reference(root).compare(reference(above)) == -1


def test_point_predicates():
    a, b = pt(0, 0), pt(4, 0)
    assert on_segment(pt(2, 0), a, b)
    assert on_segment(a, a, b) and on_segment(b, a, b)
    assert not on_segment(pt(5, 0), a, b)
    assert not on_segment(pt(2, 1), a, b)
    assert area2(a, b, pt(0, 1)).sign() > 0
    assert area2(a, b, pt(0, -1)).sign() < 0
    assert segment_point_sqdist(a, b, pt(2, 3)) == Q3(9)
    assert segment_point_sqdist(a, b, pt(-3, 4)) == Q3(25)


def test_reflections_are_exact_involutive_isometries():
    rng = random.Random(5)
    for _ in range(50):
        p1 = (rand_q3(rng), rand_q3(rng))
        p2 = (rand_q3(rng), rand_q3(rng))
        if p1 == p2:
            continue
        refl = Isometry.reflection(p1, p2)
        assert refl.is_orthogonal()
        assert refl.compose(refl) == Isometry.identity()
        assert refl.apply(p1) == p1 and refl.apply(p2) == p2
        q = (rand_q3(rng), rand_q3(rng))
        assert sqdist(refl.apply(q), refl.apply(p1)) == sqdist(q, p1)


def test_isometry_composition_is_associative_action():
    rng = random.Random(6)
    for _ in range(50):
        g = Isometry.reflection((rand_q3(rng), rand_q3(rng)), pt(1, 0))
        h = Isometry.reflection((rand_q3(rng), rand_q3(rng)), pt(0, 1))
        p = (rand_q3(rng), rand_q3(rng))
        assert g.compose(h).apply(p) == g.apply(h.apply(p))
