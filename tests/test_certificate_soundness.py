"""Soundness of the positivity certificates, checked at exact grid points.

A certificate is a claim about every point of a region; these tests check
the claim at exact dyadic points of the region, where a wrong bound shows up
as a point with mu <= 0.
"""

import random
from fractions import Fraction

from dmapreg import POSITIVE, UNKNOWN, WITNESS, Poly2, certify_positive_on_box
from dmapreg.dmap import _origin_radius

#: Remainder exponents a standard-form mu may carry: mixed terms of total
#: degree at least 3 and pure terms of degree at least 4.
MIXED = [(j, k) for j in range(1, 6) for k in range(1, 6) if 3 <= j + k <= 6]
PURE = [(j, 0) for j in range(4, 7)] + [(0, k) for k in range(4, 7)]


def standard_mu(beta, gamma, remainder):
    """mu = 4uv + 2 beta u^3 + 2 gamma v^3 + the remainder terms."""
    terms = {(1, 1): 4, (3, 0): 2 * beta, (0, 3): 2 * gamma}
    terms.update(remainder)
    return Poly2(terms)


def triangle_points(eps, steps=32):
    """The dyadic points (a, b) * eps / steps with a + b <= steps, minus the origin."""
    h = eps / steps
    return [
        (a * h, b * h)
        for a in range(steps + 1)
        for b in range(steps + 1 - a)
        if a or b
    ]


def assert_positive_near_origin(mu, beta, gamma):
    eps = _origin_radius(mu, beta, gamma)
    if eps is None:
        return None
    for point in triangle_points(eps):
        assert mu.eval(point) > 0, (str(mu), eps, point)
    return eps


def test_origin_radius_of_a_strong_mixed_term():
    mu = standard_mu(1, 1, {(1, 2): -100})
    eps = assert_positive_near_origin(mu, Fraction(1), Fraction(1))
    # 100 eps < min(4, 2, 2) first holds at eps = 1/64.
    assert eps == Fraction(1, 64)


def test_origin_radius_is_sound_on_random_standard_forms():
    rng = random.Random(2024)
    certified = 0
    for trial in range(60):
        beta = Fraction(rng.randint(1, 8), 4)
        gamma = Fraction(rng.randint(1, 8), 4)
        # Every third mu carries large mixed coefficients.
        scale = 1000 if trial % 3 == 0 else 8
        chosen = rng.sample(MIXED, rng.randint(1, 4)) + rng.sample(PURE, rng.randint(0, 2))
        remainder = {
            e: Fraction(rng.randint(-scale, scale), rng.choice((1, 2, 3, 8)))
            for e in chosen
        }
        mu = standard_mu(beta, gamma, remainder)
        if assert_positive_near_origin(mu, beta, gamma) is not None:
            certified += 1
    assert certified >= 50


def test_origin_radius_refuses_a_form_it_cannot_bound():
    # A uv remainder has e = 0, so no radius can be certified.
    mu = standard_mu(1, 1, {(1, 1): 5})
    assert _origin_radius(mu, Fraction(1), Fraction(1)) is None


def box_points(box, steps=8):
    a, b, c, d = box
    return [
        (a + (b - a) * i / steps, c + (d - c) * j / steps)
        for i in range(steps + 1)
        for j in range(steps + 1)
    ]


def test_box_certificates_are_sound():
    rng = random.Random(77)
    seen = {POSITIVE: 0, WITNESS: 0, UNKNOWN: 0}
    for _ in range(80):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
            for _ in range(rng.randint(1, 5))
        }
        terms[(0, 0)] = Fraction(rng.randint(0, 12), 4)
        poly = Poly2(terms)
        lo_u, lo_v = Fraction(rng.randint(0, 3), 4), Fraction(rng.randint(0, 3), 4)
        width = Fraction(1, rng.choice((4, 8)))
        box = (lo_u, lo_u + width, lo_v, lo_v + width)
        status, point = certify_positive_on_box(poly, box, max_depth=5)
        seen[status] += 1
        if status == POSITIVE:
            for p in box_points(box):
                if p != (0, 0):
                    assert poly.eval(p) > 0, (str(poly), box, p)
        elif status == WITNESS:
            assert box[0] <= point[0] <= box[1] and box[2] <= point[1] <= box[3]
            assert point != (0, 0)
            assert poly.eval(point) <= 0
    # Both kinds of certificate were exercised.
    assert seen[POSITIVE] >= 10 and seen[WITNESS] >= 10, seen
