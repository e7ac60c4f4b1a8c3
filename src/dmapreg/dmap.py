"""Degenerate geometry maps on the unit square and their standard form.

A D-map is a bijective polynomial map x: [0,1]^2 -> Omega whose Jacobian
vanishes at the corner (0,0) in the prescribed degenerate way:

  i)   the coefficients x10, x01, x11 are zero (so Dx(0,0) = 0),
  ii)  det Dx does not vanish anywhere else on the square,
  iii) the coefficient pairs [x20, x21], [x02, x12], [x20, x02] each have
       full rank.

Every such map can be normalised by the affine change y = T (x - x00) with
T = [x20, x02]^{-1}.  The standard form y then has y20 = (1,0), y02 = (0,1)
and carries four free low-order parameters (alpha, beta, gamma, delta) with
y21 = (alpha, beta), y12 = (gamma, delta); its Jacobian determinant expands
as mu = 4uv + 2 beta u^3 + 2 gamma v^3 + higher-order remainder.  Positivity
of mu away from the origin is what property ii) means after normalisation,
and it forces beta > 0 and gamma > 0.

The validator checks i) and iii) exactly and certifies ii) in two tiers: an
exact domination bound near the origin plus Bernstein certificates on a
dyadic tiling of the rest of the square, with a dense rational sampling
fallback when the certification budget runs out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bernstein import (
    POSITIVE,
    UNKNOWN,
    WITNESS,
    SubdivisionBudget,
    certify_positive_on_box,
)
from .poly2 import Poly2, PolyMat2, PolyVec, U, V, adjugate2, det2, mat2, vec2

Pair = Tuple[Fraction, Fraction]
Matrix2 = Tuple[Pair, Pair]

CERTIFIED = "certified"
SAMPLED_ONLY = "sampled_only"
FAILED = "failed"

_F0 = Fraction(0)
_F1 = Fraction(1)

#: Certification budget: the subdivision depth and the number of Bernstein
#: boxes per map, and the side of the sampling grid used when certification
#: gives up.
MAX_DEPTH = 10
MAX_BOXES = 4000
SAMPLE_N = 48


class ValidationError(ValueError):
    """Raised when a map offered as a D-map fails validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(f"map rejected: {report.summary()}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the D-map checks, one flag per property."""

    degeneracy_ok: bool
    rank_20_21_ok: bool
    rank_02_12_ok: bool
    rank_20_02_ok: bool
    jacobian_positive: str  # CERTIFIED, SAMPLED_ONLY or FAILED
    failure_witness: Optional[Pair]

    @property
    def accepted(self) -> bool:
        return (
            self.degeneracy_ok
            and self.rank_20_21_ok
            and self.rank_02_12_ok
            and self.rank_20_02_ok
            and self.jacobian_positive != FAILED
        )

    def summary(self) -> str:
        problems = []
        if not self.degeneracy_ok:
            problems.append("x10/x01/x11 not all zero")
        if not self.rank_20_21_ok:
            problems.append("[x20, x21] singular")
        if not self.rank_02_12_ok:
            problems.append("[x02, x12] singular")
        if not self.rank_20_02_ok:
            problems.append("[x20, x02] singular")
        if self.jacobian_positive == FAILED:
            problems.append(f"Jacobian determinant not positive (witness {self.failure_witness})")
        return "; ".join(problems) if problems else "accepted"


@dataclass(frozen=True)
class DMapRecord:
    """A validated D-map together with its standard form and cached symbols."""

    x: PolyVec
    x00: Pair
    T: Matrix2
    y: PolyVec
    params: Tuple[Fraction, Fraction, Fraction, Fraction]  # (alpha, beta, gamma, delta)
    mu: Poly2
    gamma_adj: PolyMat2
    positivity_certified: bool


def jacobian(map2: PolyVec) -> PolyMat2:
    """Jacobian matrix [[d1 y1, d2 y1], [d1 y2, d2 y2]] of an R^2-valued map."""
    if not isinstance(map2, PolyVec) or len(map2.entries) != 2:
        raise ValueError("jacobian is defined for R^2-valued maps")
    y1, y2 = map2.entries
    return mat2(y1.diff(1), y1.diff(2), y2.diff(1), y2.diff(2))


def _det_pair(a: Pair, b: Pair) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _apply_matrix(m: Matrix2, vec: Pair) -> Pair:
    return (
        m[0][0] * vec[0] + m[0][1] * vec[1],
        m[1][0] * vec[0] + m[1][1] * vec[1],
    )


def _standard_form(x: PolyVec) -> Tuple[Pair, Matrix2, PolyVec]:
    """Normalising data (x00, T, y) for a map that passed the rank checks."""
    x20 = x.coeff(2, 0)
    x02 = x.coeff(0, 2)
    det = _det_pair(x20, x02)
    T: Matrix2 = (
        (x02[1] / det, -x02[0] / det),
        (-x20[1] / det, x20[0] / det),
    )
    images = {expo: _apply_matrix(T, vec) for expo, vec in x.terms.items() if expo != (0, 0)}
    y = PolyVec(tuple(Poly2({e: vec[i] for e, vec in images.items()}) for i in range(2)))
    return x.coeff(0, 0), T, y


# -- positivity tier ---------------------------------------------------------


def _negative_parameter_witness(mu: Poly2, beta: Fraction, gamma: Fraction) -> Optional[Pair]:
    """Exact non-positivity witness when beta < 0 or gamma < 0.

    For beta < 0 the determinant goes negative along (2t, -beta t^2), where
    mu = 8 beta t^3 + O(t^4); for gamma < 0 along (-gamma t^2, 2t).
    """
    curves = []
    if beta < 0:
        curves.append(lambda t: (2 * t, -beta * t * t))
    if gamma < 0:
        curves.append(lambda t: (-gamma * t * t, 2 * t))
    for curve in curves:
        for i in range(1, 80):
            t = Fraction(1, 2**i)
            point = curve(t)
            if point[0] <= 1 and point[1] <= 1 and mu.eval(point) <= 0:
                return point
    return None


def _origin_radius(mu: Poly2, beta: Fraction, gamma: Fraction) -> Optional[Fraction]:
    """Dyadic eps with mu > 0 certified on {u + v <= eps} minus the origin.

    Writes mu = 4uv + 2 beta u^3 + 2 gamma v^3 + nu and bounds each remainder
    term on the wedge v <= u by |c| eps^e (uv + u^3) with e >= 1 (and
    symmetrically on u <= v), so mu >= (4 - C)uv + (2 beta - C)u^3 > 0 once
    the coefficient sum C = C(eps) drops below min(4, 2 beta, 2 gamma).
    """
    nu = (
        mu
        - Poly2.monomial(1, 1, 4)
        - Poly2.monomial(3, 0, 2 * beta)
        - Poly2.monomial(0, 3, 2 * gamma)
    )
    exponents: List[Tuple[Fraction, int]] = []
    for (j, k), coeff in nu.terms.items():
        if j >= 1 and k >= 1:
            e = j + k - 2
        else:
            e = max(j, k) - 3
        if e < 1:
            # Cannot happen for a genuine standard form; refuse to certify.
            return None
        exponents.append((abs(coeff), e))
    threshold = min(Fraction(4), 2 * beta, 2 * gamma)
    # For eps <= 1, C(eps) <= eps * sum|c| as every e >= 1; so eps = 2^-last,
    # with 2^last > sum|c| / threshold, always qualifies.
    last = max(1, int(sum(mag for mag, _ in exponents) / threshold).bit_length())
    for i in range(1, last):
        eps = Fraction(1, 2**i)
        if sum(mag * eps**e for mag, e in exponents) < threshold:
            return eps
    return Fraction(1, 2**last)


def _strip_boxes(inner: Fraction) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Dyadic boxes covering the square minus [0, inner]^2, inner = 2^-i."""
    boxes = []
    lo = _F1
    while lo > inner:
        hi = lo
        lo = lo / 2
        boxes.append((lo, hi, _F0, _F1))
    lo = _F1
    while lo > inner:
        hi = lo
        lo = lo / 2
        boxes.append((_F0, inner, lo, hi))
    return boxes


def _sample_grid(mu: Poly2) -> Tuple[str, Optional[Pair]]:
    """Dense rational sampling fallback: exact sign checks on a SAMPLE_N grid."""
    points = [Fraction(a, SAMPLE_N) for a in range(SAMPLE_N + 1)]
    u_powers = {}
    max_j = mu.max_degree_u
    for u in points:
        powers = [Fraction(1)]
        for _ in range(max_j):
            powers.append(powers[-1] * u)
        u_powers[u] = powers
    by_k: Dict[int, List[Tuple[int, Fraction]]] = {}
    for (j, k), coeff in mu.terms.items():
        by_k.setdefault(k, []).append((j, coeff))
    for u in points:
        powers = u_powers[u]
        row = {k: sum((c * powers[j] for j, c in entries), _F0) for k, entries in by_k.items()}
        for v in points:
            if u == 0 and v == 0:
                continue
            value = _F0
            vp = Fraction(1)
            last_k = 0
            for k in sorted(row):
                vp = vp * v ** (k - last_k)
                last_k = k
                value += row[k] * vp
            if value <= 0:
                return FAILED, (u, v)
    return SAMPLED_ONLY, None


def _check_positivity(
    mu: Poly2, beta: Fraction, gamma: Fraction, trust_jacobian: bool
) -> Tuple[str, Optional[Pair]]:
    if trust_jacobian:
        return _sample_grid(mu)
    if beta < 0 or gamma < 0:
        witness = _negative_parameter_witness(mu, beta, gamma)
        if witness is not None:
            return FAILED, witness
        return _sample_grid(mu)
    eps = _origin_radius(mu, beta, gamma)
    if eps is None:
        return _sample_grid(mu)
    budget = SubdivisionBudget(remaining=MAX_BOXES)
    for box in _strip_boxes(eps / 2):
        status, point = certify_positive_on_box(mu, box, max_depth=MAX_DEPTH, budget=budget)
        if status == WITNESS:
            return FAILED, point
        if status == UNKNOWN:
            return _sample_grid(mu)
    return CERTIFIED, None


# -- public operations -------------------------------------------------------


def _analyze(x: PolyVec, trust_jacobian: bool) -> Tuple[ValidationReport, Optional[DMapRecord]]:
    if not isinstance(x, PolyVec) or len(x.entries) != 2:
        raise ValueError("a geometry map must be R^2-valued")
    if x.is_zero:
        raise ValueError("the zero polynomial is not a geometry map")
    zero_pair = (_F0, _F0)
    degeneracy_ok = all(x.coeff(j, k) == zero_pair for j, k in ((1, 0), (0, 1), (1, 1)))
    x20 = x.coeff(2, 0)
    x02 = x.coeff(0, 2)
    x21 = x.coeff(2, 1)
    x12 = x.coeff(1, 2)
    rank_20_21 = _det_pair(x20, x21) != 0
    rank_02_12 = _det_pair(x02, x12) != 0
    rank_20_02 = _det_pair(x20, x02) != 0
    if not (degeneracy_ok and rank_20_21 and rank_02_12 and rank_20_02):
        report = ValidationReport(
            degeneracy_ok, rank_20_21, rank_02_12, rank_20_02, FAILED, None
        )
        return report, None
    x00, T, y = _standard_form(x)
    alpha, beta = y.coeff(2, 1)
    gamma, delta = y.coeff(1, 2)
    dy = jacobian(y)
    mu = det2(dy)
    status, witness = _check_positivity(mu, beta, gamma, trust_jacobian)
    report = ValidationReport(True, True, True, True, status, witness)
    if status == FAILED:
        return report, None
    record = DMapRecord(
        x=x,
        x00=x00,
        T=T,
        y=y,
        params=(alpha, beta, gamma, delta),
        mu=mu,
        gamma_adj=adjugate2(dy),
        positivity_certified=(status == CERTIFIED),
    )
    return report, record


def validate(x: PolyVec, *, trust_jacobian: bool = False) -> ValidationReport:
    """Check the D-map properties of x and report each flag."""
    report, _ = _analyze(x, trust_jacobian)
    return report


def standardize(x: PolyVec, *, trust_jacobian: bool = False) -> DMapRecord:
    """Validate x and return its standard-form record; reject otherwise."""
    report, record = _analyze(x, trust_jacobian)
    if record is None:
        raise ValidationError(report)
    return record


def reduce_field(record: DMapRecord, z: Poly2) -> Poly2:
    """Subtract the tangential linear part: w = z - z20*y1 - z02*y2.

    The reduced field has w20 = w02 = 0 and represents the same function up
    to a linear polynomial in the image coordinates, which leaves every
    second-order smoothness question unchanged.
    """
    if not isinstance(z, Poly2):
        raise ValueError("the field must be a scalar polynomial")
    z20 = z.coeff(2, 0)
    z02 = z.coeff(0, 2)
    y1, y2 = record.y.entries
    return z - z20 * y1 - z02 * y2


@functools.lru_cache(maxsize=1)
def canonical_dmap() -> DMapRecord:
    """The reference map y* = (u^2 + u v^2, v^2 + u^2 v), fully certified."""
    return standardize(vec2(U**2 + U * V**2, V**2 + U**2 * V))
