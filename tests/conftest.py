"""Shared fixtures: seeded random D-maps, fields, and cascade projections.

All randomness flows through explicitly seeded random.Random instances so
every test run is reproducible; generators retry with geometrically shrunk
perturbations, which terminates because the unperturbed profile always
certifies.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings

from dmapreg import DMapRecord, Poly2, PolyVec, standardize, validate

Pair = Tuple[Fraction, Fraction]

# Property tests draw the same examples on every run, and keep no example
# database between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Exponents allowed to carry random higher-order geometry terms.
EXTRA_EXPONENTS = [
    (3, 0), (0, 3), (3, 1), (1, 3), (2, 2),
    (4, 0), (0, 4), (3, 2), (2, 3), (4, 1), (1, 4), (3, 3),
]


def dyadic(rng: random.Random, denom_pow: int = 6, max_num: int = 8) -> Fraction:
    """Random dyadic rational with |value| <= max_num / 2^denom_pow."""
    return Fraction(rng.randint(-max_num, max_num), 2**denom_pow)


def random_standard_dmap(rng: random.Random, extra: Optional[int] = None) -> DMapRecord:
    """A certified random D-map already in standard form.

    beta, gamma are drawn positive (<= 1), alpha, delta small, plus a few
    higher-order perturbation terms; perturbations (and then alpha, delta)
    are halved until the validator certifies positivity.
    """
    beta = Fraction(rng.randint(1, 4), 4)
    gamma = Fraction(rng.randint(1, 4), 4)
    alpha = Fraction(rng.randint(-2, 2), 8)
    delta = Fraction(rng.randint(-2, 2), 8)
    count = rng.randint(0, 6) if extra is None else extra
    chosen = rng.sample(EXTRA_EXPONENTS, count)
    extras: Dict[Tuple[int, int], Pair] = {
        e: (dyadic(rng), dyadic(rng)) for e in chosen
    }
    shrink = Fraction(1)
    for attempt in range(12):
        core_scale = Fraction(1) if attempt < 4 else shrink
        terms: Dict[Tuple[int, int], Pair] = {
            (2, 0): (Fraction(1), Fraction(0)),
            (0, 2): (Fraction(0), Fraction(1)),
            (2, 1): (alpha * core_scale, beta),
            (1, 2): (gamma, delta * core_scale),
        }
        for e, (c1, c2) in extras.items():
            terms[e] = (c1 * shrink, c2 * shrink)
        y = pair_map(terms)
        report = validate(y)
        if report.accepted and report.jacobian_positive == "certified":
            return standardize(y)
        shrink /= 2
    raise AssertionError("random D-map generation failed to certify")


def random_affine(rng: random.Random) -> Tuple[Tuple[Pair, Pair], Pair]:
    """Random invertible rational 2x2 matrix A (either orientation) and shift b."""
    while True:
        entries = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(4)]
        a, b, c, d = entries
        if a * d - b * c != 0:
            break
    shift = (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
    return ((a, b), (c, d)), shift


def pair_map(terms: Dict[Tuple[int, int], Pair]) -> PolyVec:
    """The R^2-valued map with the coefficient pair terms[e] at each exponent e."""
    return PolyVec(tuple(Poly2({e: pair[i] for e, pair in terms.items()}) for i in range(2)))


def affine_wrap(y: PolyVec, matrix: Tuple[Pair, Pair], shift: Pair) -> PolyVec:
    """x = A y + b as an exact polynomial map."""
    (a, b), (c, d) = matrix
    terms: Dict[Tuple[int, int], Pair] = {}
    for expo, (v1, v2) in y.terms.items():
        terms[expo] = (a * v1 + b * v2, c * v1 + d * v2)
    base = terms.get((0, 0), (Fraction(0), Fraction(0)))
    combined = (base[0] + shift[0], base[1] + shift[1])
    if combined == (Fraction(0), Fraction(0)):
        terms.pop((0, 0), None)
    else:
        terms[(0, 0)] = combined
    return pair_map(terms)


def random_reduced_terms(rng: random.Random, density: float = 0.5) -> Dict[Tuple[int, int], Fraction]:
    """Random scalar coefficients on total degree <= 6, skipping (2,0), (0,2)."""
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for j in range(7):
        for k in range(7 - j):
            if (j, k) in ((2, 0), (0, 2)):
                continue
            if rng.random() < density:
                value = dyadic(rng, 4, 16)
                if value != 0:
                    coeffs[(j, k)] = value
    return coeffs


#: Cumulative cascade stages in evaluation order.
CASE_ORDER = ("a", "b", "c", "d", "e")


def impose_conditions(
    record: DMapRecord,
    coeffs: Dict[Tuple[int, int], Fraction],
    through: Optional[str],
    kill_corner_cubics: bool = False,
) -> Poly2:
    """Reduced field from raw coefficients with cascade conditions imposed.

    ``through`` names the deepest case whose conditions are enforced (None
    for no conditions); ``kill_corner_cubics`` additionally zeroes w30, w03,
    which isolates the explicitly tabulated parts at levels 7 and 8.
    """
    alpha, beta, gamma, delta = record.params
    c = dict(coeffs)
    c.pop((2, 0), None)
    c.pop((0, 2), None)

    def get(j: int, k: int) -> Fraction:
        return c.get((j, k), Fraction(0))

    def put(j: int, k: int, value: Fraction) -> None:
        if value == 0:
            c.pop((j, k), None)
        else:
            c[(j, k)] = value

    stages = [] if through is None else CASE_ORDER[: CASE_ORDER.index(through) + 1]
    if kill_corner_cubics:
        put(3, 0, Fraction(0))
        put(0, 3, Fraction(0))
    for stage in stages:
        if stage == "a":
            put(1, 0, Fraction(0))
            put(0, 1, Fraction(0))
        elif stage == "b":
            put(1, 1, Fraction(0))
        elif stage == "c":
            put(2, 1, Fraction(0))
            put(1, 2, Fraction(0))
        elif stage == "d":
            put(3, 1, Fraction(3, 2) * alpha * get(3, 0))
            put(1, 3, Fraction(3, 2) * delta * get(0, 3))
        elif stage == "e":
            put(3, 0, Fraction(0))
            put(0, 3, Fraction(0))
            put(3, 1, Fraction(0))
            put(1, 3, Fraction(0))
            put(4, 1, 2 * alpha * get(4, 0) + beta * get(2, 2))
            put(1, 4, 2 * delta * get(0, 4) + gamma * get(2, 2))
    return Poly2(c)


def lift_field(
    record: DMapRecord, w: Poly2, z20: Fraction = Fraction(0), z02: Fraction = Fraction(0)
) -> Poly2:
    """A raw field z whose reduction is exactly w, with the given z20, z02."""
    y1, y2 = record.y.entries
    return w + y1 * z20 + y2 * z02


def expected_table(record: DMapRecord, w: Poly2, r: int) -> PolyVec:
    """Closed-form leading part (times 16) at level r, for fields satisfying
    the preceding cascade conditions (and w30 = w03 = 0 at levels 7, 8).

    This is an independent re-derivation used to cross-examine the computed
    quotient; it intentionally does not reuse the classifier's tables.
    """
    alpha, beta, gamma, delta = record.params

    def wc(j: int, k: int) -> Fraction:
        return w.coeff(j, k)

    def yc(j: int, k: int) -> Pair:
        value = record.y.coeff(j, k)
        return value

    if r == 3:
        a_coeff, d_coeff = -wc(1, 0), -wc(0, 1)
    elif r == 4:
        a_coeff, d_coeff = -wc(1, 1), -wc(1, 1)
    elif r == 5:
        a_coeff, d_coeff = -wc(1, 2), -wc(2, 1)
    elif r == 6:
        a_coeff = Fraction(3, 2) * delta * wc(0, 3) - wc(1, 3)
        d_coeff = Fraction(3, 2) * alpha * wc(3, 0) - wc(3, 1)
    elif r == 7:
        a_coeff = gamma * wc(2, 2) + 2 * delta * wc(0, 4) - wc(1, 4)
        d_coeff = beta * wc(2, 2) + 2 * alpha * wc(4, 0) - wc(4, 1)
    elif r == 8:
        y13, y03, y21 = yc(1, 3), yc(0, 3), yc(2, 1)
        # u-side geometry pairs enter component-swapped (u <-> v mirror).
        y31, y30, y12 = yc(3, 1)[::-1], yc(3, 0)[::-1], yc(1, 2)[::-1]
        vec_v = tuple(2 * p - 3 * delta * q - 2 * gamma * s for p, q, s in zip(y13, y03, y21))
        vec_u = tuple(2 * p - 3 * alpha * q - 2 * beta * s for p, q, s in zip(y31, y30, y12))
        a_coeff = -(
            wc(1, 5)
            - (wc(2, 2) / 2 * vec_v[0] + wc(0, 4) * vec_v[1])
            - gamma * wc(2, 3)
            - Fraction(5, 2) * delta * wc(0, 5)
        )
        d_coeff = -(
            wc(5, 1)
            - (wc(2, 2) / 2 * vec_u[0] + wc(4, 0) * vec_u[1])
            - beta * wc(3, 2)
            - Fraction(5, 2) * alpha * wc(5, 0)
        )
    else:
        raise ValueError(f"no table at level {r}")
    zero = Poly2.zero()
    return PolyVec(
        (
            Poly2.monomial(0, r, 16 * a_coeff),
            zero,
            zero,
            Poly2.monomial(r, 0, 16 * d_coeff),
        )
    )


@pytest.fixture(scope="session")
def canonical():
    from dmapreg import canonical_dmap

    return canonical_dmap()
