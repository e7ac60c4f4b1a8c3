"""Exact rational polynomial arithmetic for the benchmark's own checks.

A scalar polynomial is a dict ``{(j, k): Fraction}`` holding only nonzero
coefficients; an R^2-valued map is a pair of them.  Nothing here imports
dmapreg, so the expectations built from it are computed apart from the
program under test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Poly = Dict[Tuple[int, int], Fraction]
Map2 = Tuple[Poly, Poly]
JsonRational = Union[int, str]


def clean(terms: Iterable[Tuple[Tuple[int, int], Fraction]]) -> Poly:
    return {expo: Fraction(c) for expo, c in terms if c != 0}


def add(*polys: Poly) -> Poly:
    out: Dict[Tuple[int, int], Fraction] = {}
    for poly in polys:
        for expo, c in poly.items():
            out[expo] = out.get(expo, Fraction(0)) + c
    return clean(out.items())


def scale(poly: Poly, factor: Fraction) -> Poly:
    return clean((expo, factor * c) for expo, c in poly.items())


def mul(a: Poly, b: Poly) -> Poly:
    out: Dict[Tuple[int, int], Fraction] = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            expo = (j1 + j2, k1 + k2)
            out[expo] = out.get(expo, Fraction(0)) + c1 * c2
    return clean(out.items())


def diff(poly: Poly, var: int) -> Poly:
    """Partial derivative in u (var=1) or v (var=2)."""
    if var == 1:
        return clean(((j - 1, k), j * c) for (j, k), c in poly.items() if j > 0)
    return clean(((j, k - 1), k * c) for (j, k), c in poly.items() if k > 0)


def evaluate(poly: Poly, u: Fraction, v: Fraction) -> Fraction:
    return sum((c * u**j * v**k for (j, k), c in poly.items()), Fraction(0))


def jacobian_det(x: Map2) -> Poly:
    x1, x2 = x
    return add(mul(diff(x1, 1), diff(x2, 2)), scale(mul(diff(x1, 2), diff(x2, 1)), Fraction(-1)))


def affine_image(matrix: Sequence[Sequence[Fraction]], shift: Sequence[Fraction], y: Map2) -> Map2:
    """x = A y + b for a 2x2 matrix A and shift b."""
    (a, b), (c, d) = matrix
    x1 = add(scale(y[0], a), scale(y[1], b), {(0, 0): shift[0]})
    x2 = add(scale(y[0], c), scale(y[1], d), {(0, 0): shift[1]})
    return x1, x2


def inverse2(matrix: Sequence[Sequence[Fraction]]) -> Tuple[Tuple[Fraction, Fraction], ...]:
    (a, b), (c, d) = matrix
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


# -- JSON encoding, as the dmapreg job format writes rationals ----------------


def to_json(q: Fraction) -> JsonRational:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def from_json(value: JsonRational) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def map_rows(x: Map2) -> List[list]:
    """Geometry term rows [j, k, c1, c2] in lexicographic exponent order."""
    expos = sorted(set(x[0]) | set(x[1]))
    zero = Fraction(0)
    return [[j, k, to_json(x[0].get((j, k), zero)), to_json(x[1].get((j, k), zero))] for j, k in expos]


def field_rows(z: Poly) -> List[list]:
    return [[j, k, to_json(c)] for (j, k), c in sorted(z.items())]


def rows_to_map(rows: Sequence[Sequence[JsonRational]]) -> Map2:
    x1 = clean(((r[0], r[1]), from_json(r[2])) for r in rows)
    x2 = clean(((r[0], r[1]), from_json(r[3])) for r in rows)
    return x1, x2


def rows_to_field(rows: Sequence[Sequence[JsonRational]]) -> Poly:
    return clean(((r[0], r[1]), from_json(r[2])) for r in rows)
