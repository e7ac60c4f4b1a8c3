"""Certified positivity of scalar polynomials on axis-aligned boxes.

The test is the classical tensor Bernstein bound: on a box, a polynomial is
bounded below by the minimum of its Bernstein coefficients, and the corner
coefficients are exact point values.  If the coefficient bound is
inconclusive the box is bisected in both directions and the quarters are
retried; candidate points (corners, centre) are evaluated exactly to search
for a genuine non-positivity witness.  All arithmetic is rational, so
"positive" and "witness" answers are certificates, never float estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

from .poly2 import Poly2

Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # (u_lo, u_hi, v_lo, v_hi)
Point = Tuple[Fraction, Fraction]

POSITIVE = "positive"
WITNESS = "witness"
UNKNOWN = "unknown"


@dataclass
class SubdivisionBudget:
    """Caps the number of boxes examined during certification."""

    remaining: int

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def _dense_coefficients(poly: Poly2) -> List[List[Fraction]]:
    if not isinstance(poly, Poly2):
        raise ValueError("positivity certification needs a scalar polynomial")
    m = poly.max_degree_u
    n = poly.max_degree_v
    dense = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for (j, k), value in poly.terms.items():
        dense[j][k] = value
    return dense


def restrict_to_box(poly: Poly2, box: Box) -> List[List[Fraction]]:
    """Monomial coefficients of poly(u_lo + w*s, v_lo + h*t) on the unit square."""
    a, b, c, d = box
    if not (b > a and d > c):
        raise ValueError("box must have positive extent in both directions")
    w = b - a
    h = d - c
    dense = _dense_coefficients(poly)
    m = len(dense) - 1
    n = len(dense[0]) - 1
    out = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for j in range(m + 1):
        for k in range(n + 1):
            coeff = dense[j][k]
            if coeff == 0:
                continue
            for r in range(j + 1):
                ur = comb(j, r) * a ** (j - r) * w**r
                if ur == 0:
                    continue
                for s in range(k + 1):
                    vs = comb(k, s) * c ** (k - s) * h**s
                    if vs != 0:
                        out[r][s] += coeff * ur * vs
    return out


def bernstein_coefficients(monomial: List[List[Fraction]]) -> List[List[Fraction]]:
    """Tensor Bernstein coefficients on the unit square from monomial ones."""
    m = len(monomial) - 1
    n = len(monomial[0]) - 1
    # First along u: rows of partial sums, then along v.
    partial = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for k in range(i + 1):
            factor = Fraction(comb(i, k), comb(m, k))
            for col in range(n + 1):
                partial[i][col] += factor * monomial[k][col]
    result = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for col_index in range(n + 1):
        for l in range(col_index + 1):
            factor = Fraction(comb(col_index, l), comb(n, l))
            for i in range(m + 1):
                result[i][col_index] += factor * partial[i][l]
    return result


def _witness_candidates(box: Box) -> Tuple[Point, ...]:
    a, b, c, d = box
    return (
        (a, c),
        (a, d),
        (b, c),
        (b, d),
        ((a + b) / 2, (c + d) / 2),
    )


def _find_witness(poly: Poly2, box: Box) -> Optional[Point]:
    for point in _witness_candidates(box):
        if point == (Fraction(0), Fraction(0)):
            continue
        if poly.eval(point) <= 0:
            return point
    return None


def certify_positive_on_box(
    poly: Poly2,
    box: Box,
    *,
    max_depth: int = 10,
    budget: Optional[SubdivisionBudget] = None,
) -> Tuple[str, Optional[Point]]:
    """Certify poly > 0 on the box, excluding the origin if it is a corner.

    Returns (POSITIVE, None), (WITNESS, point) with an exact point where
    poly <= 0 (never the origin), or (UNKNOWN, None) when the subdivision
    depth or box budget is exhausted.
    """
    if budget is None:
        budget = SubdivisionBudget(remaining=4000)
    if not budget.spend():
        return UNKNOWN, None
    coeffs = bernstein_coefficients(restrict_to_box(poly, box))
    if all(entry > 0 for row in coeffs for entry in row):
        return POSITIVE, None
    witness = _find_witness(poly, box)
    if witness is not None:
        return WITNESS, witness
    if max_depth <= 0:
        return UNKNOWN, None
    a, b, c, d = box
    mid_u = (a + b) / 2
    mid_v = (c + d) / 2
    unknown = False
    for u_lo, u_hi in ((a, mid_u), (mid_u, b)):
        for v_lo, v_hi in ((c, mid_v), (mid_v, d)):
            status, point = certify_positive_on_box(
                poly,
                (u_lo, u_hi, v_lo, v_hi),
                max_depth=max_depth - 1,
                budget=budget,
            )
            if status == WITNESS:
                return WITNESS, point
            if status == UNKNOWN:
                unknown = True
    return (UNKNOWN, None) if unknown else (POSITIVE, None)
