"""Independent numeric verification of the symbolic classification.

The sharp membership statements are about integrals of (mu^{-l} |P|)^p mu
over the parameter square, which are singular only at the degenerate corner
(0,0).  The oracle therefore integrates over truncated domains
Sigma \\ [0, eps_j]^2 for the dyadic shrink eps_j = 2^{-j} and inspects how
the truncated values I(eps_j) grow: convergence shows up as geometrically
decaying increments, a logarithmic blow-up as constant increments, and a
power blow-up as geometrically growing increments.  The increments are
exactly the integrals over the dyadic annuli [0, 2^{1-j}]^2 \\ [0, 2^{-j}]^2,
so each is computed once, independently, by adaptive tensor Gauss-Legendre
panels - no catastrophic cancellation between levels.

The slope of log2(increment) per level j is fitted over the last six levels;
thresholds: slope < -0.5 -> convergent, |slope| <= 0.1 -> divergent_log,
slope > 0.1 -> divergent_power, anything else -> inconclusive.  An annulus
that runs out of panels short of its tolerance makes the verdict
inconclusive too, whatever the slope.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .constraints import c1_residuals
from .dmap import DMapRecord, canonical_dmap, jacobian
from .poly2 import Poly2

PLike = Union[int, Fraction]

CONVERGENT = "convergent"
DIVERGENT_LOG = "divergent_log"
DIVERGENT_POWER = "divergent_power"
INCONCLUSIVE = "inconclusive"

GAUSS_ORDER = 32
ANNULUS_REL_TOL = 1e-10
MAX_PANELS_PER_ANNULUS = 800
MAX_J = 24


class QuadratureError(RuntimeError):
    """mu <= 0 at a quadrature node, or the integrand overflows there."""


# -- adaptive quadrature -----------------------------------------------------


@functools.cache
def _gauss_rule() -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of GAUSS_ORDER on [-1, 1].  Built
    on first use: numpy.polynomial and the rule cost about 2 MB of memory,
    which a process that never runs the oracle does not pay."""
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


class _Integrand:
    """(mu^{-l}|P|)^p mu evaluated in log space to dodge overflow.

    |P| is the euclidean norm of the components: equivalent to any other
    vector norm (so the divergence verdict is unaffected) and smooth away
    from common zeros, which keeps Gauss panels spectrally accurate.  Each
    polynomial is a coefficient matrix M evaluated on the tensor grid as
    U M V^T, with U and V power tables of the node vectors.
    """

    def __init__(self, mu: Poly2, P: Poly2, ell: int, p: float):
        self.matrices = []
        for poly in (mu, *P.components()):
            matrix = np.zeros((poly.max_degree_u + 1, poly.max_degree_v + 1))
            for (j, k), (value,) in poly.terms.items():
                matrix[j, k] = float(value)
            self.matrices.append(matrix)
        self.shape = tuple(max(m.shape[i] for m in self.matrices) for i in (0, 1))
        self.p = p
        self.mu_exponent = 1.0 - ell * p

    def __call__(self, u_nodes: np.ndarray, v_nodes: np.ndarray) -> np.ndarray:
        pu = np.power.outer(u_nodes, np.arange(self.shape[0]))
        pv = np.power.outer(v_nodes, np.arange(self.shape[1]))
        mu_vals, *components = (
            pu[:, : m.shape[0]] @ m @ pv[:, : m.shape[1]].T for m in self.matrices
        )
        if np.min(mu_vals) <= 0.0:
            raise QuadratureError("Jacobian determinant non-positive at a quadrature node")
        square_sum = np.square(components[0])
        for values in components[1:]:
            square_sum += np.square(values)
        with np.errstate(divide="ignore"):
            log_f = 0.5 * self.p * np.log(square_sum) + self.mu_exponent * np.log(mu_vals)
        with np.errstate(over="raise"):
            try:
                return np.exp(log_f)
            except FloatingPointError as exc:
                raise QuadratureError("integrand overflow at a quadrature node") from exc


Rect = Tuple[float, float, float, float]


def _panel(integrand: _Integrand, rect: Rect) -> float:
    a, b, c, d = rect
    nodes, weights = _gauss_rule()
    u_nodes = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    v_nodes = 0.5 * (c + d) + 0.5 * (d - c) * nodes
    values = integrand(u_nodes, v_nodes)
    scale = 0.25 * (b - a) * (d - c)
    return float(scale * (weights @ values @ weights))


def _split4(rect: Rect) -> Tuple[Rect, ...]:
    a, b, c, d = rect
    mu_ = 0.5 * (a + b)
    mv_ = 0.5 * (c + d)
    return ((a, mu_, c, mv_), (a, mu_, mv_, d), (mu_, b, c, mv_), (mu_, b, mv_, d))


def _integrate_region(integrand: _Integrand, rects: Sequence[Rect]) -> Tuple[float, bool]:
    """Adaptive tensor Gauss-Legendre over a union of rectangles.

    Each leaf is a heap entry (-error, order, rect, fine): fine is the sum of
    its four quarter panels, error its distance from the whole panel.  The
    worst leaf (the oldest among equals) is split until the summed error
    meets ANNULUS_REL_TOL.  Returns the sum over the leaves and whether it
    met the tolerance within MAX_PANELS_PER_ANNULUS panels.
    """
    heap: List[Tuple[float, int, Rect, float]] = []
    order = 0
    todo = rects
    while True:
        for rect in todo:
            coarse = _panel(integrand, rect)
            fine = math.fsum(_panel(integrand, child) for child in _split4(rect))
            order += 1
            heapq.heappush(heap, (-abs(fine - coarse), order, rect, fine))
        # fsum is correctly rounded, so the order of the leaves never matters.
        total = math.fsum(leaf[3] for leaf in heap)
        if math.fsum(-leaf[0] for leaf in heap) <= ANNULUS_REL_TOL * max(abs(total), 1e-300):
            return total, True
        if 5 * order >= MAX_PANELS_PER_ANNULUS:
            return total, False
        todo = _split4(heapq.heappop(heap)[2])


def _annulus_rects(j: int) -> Tuple[Rect, ...]:
    """Graded rectangles covering annulus level j (level 1: outer region).

    Away from the axes mu ~ uv, but below v ~ u^2 (resp. left of u ~ v^2)
    the cubic edge terms take over; a plain rectangle spanning that
    transition needs deep adaptive splitting.  Grading the strips
    dyadically down to the transition height keeps the integrand's
    variation per strip bounded, so each strip is one accepted panel.
    """
    a = 2.0**-j
    b = 2.0 ** (1 - j)
    rects = []
    # [a, b] x [0, b], graded in v down to a^2.
    hi = b
    while hi > a * a:
        rects.append((a, b, 0.5 * hi, hi))
        hi *= 0.5
    rects.append((a, b, 0.0, hi))
    # [0, a] x [a, b], graded in u down to a^2.
    hi = a
    while hi > a * a:
        rects.append((0.5 * hi, hi, a, b))
        hi *= 0.5
    rects.append((0.0, hi, a, b))
    return tuple(rects)


# -- divergence diagnostics --------------------------------------------------


@dataclass(frozen=True)
class DivergenceDiagnostic:
    """Truncated integrals I(eps_j) with the fitted growth verdict.

    ``rate_estimate`` is the fitted slope of log2(increment) per level: about
    -r for convergence rate eps^r, about 0 for logarithmic divergence, about
    +q for a power divergence I(eps) ~ eps^{-q}.
    """

    epsilons: Tuple[float, ...]
    values: Tuple[float, ...]
    verdict: str
    rate_estimate: float


def _fit_slope(points: Sequence[Tuple[int, float]]) -> float:
    js = [float(j) for j, _ in points]
    logs = [math.log2(d) for _, d in points]
    n = len(points)
    mean_j = sum(js) / n
    mean_log = sum(logs) / n
    denom = sum((j - mean_j) ** 2 for j in js)
    if denom == 0.0:
        return 0.0
    return sum((j - mean_j) * (l - mean_log) for j, l in zip(js, logs)) / denom


def _verdict_from_increments(
    increments: Sequence[Tuple[int, float]], total: float
) -> Tuple[str, float]:
    if total <= 0.0:
        return CONVERGENT, 0.0
    window = list(increments)[-6:]
    floor = 1e-13 * total
    positive = [(j, d) for j, d in window if d > floor]
    if len(positive) < 2:
        last_j, last_d = window[-1]
        if last_d <= floor:
            # Increments vanished below resolution: the sequence stabilised.
            return CONVERGENT, 0.0
        # Only the newest increment registers against the running total: each
        # annulus dwarfs the sum of all earlier ones.  A convergent tail is
        # decreasing, so this pattern can only be a steep power blow-up.
        older = [(j, d) for j, d in window[:-1] if d > 0.0]
        if not older:
            return DIVERGENT_POWER, float("inf")
        return DIVERGENT_POWER, _fit_slope(older + [(last_j, last_d)])
    slope = _fit_slope(positive)
    if slope < -0.5:
        return CONVERGENT, slope
    if abs(slope) <= 0.1:
        return DIVERGENT_LOG, slope
    if slope > 0.1:
        return DIVERGENT_POWER, slope
    return INCONCLUSIVE, slope


def truncated_norm(
    record: DMapRecord,
    P: Poly2,
    ell: int,
    p: PLike,
    j_max: int = 20,
) -> DivergenceDiagnostic:
    """Truncated-domain integrals of (mu^{-l}|P|)^p mu with a growth verdict.

    I(eps_j) integrates over the square minus [0, eps_j]^2 for eps_j = 2^-j,
    j = 2..j_max; the domain is decomposed into dyadic annuli so each
    increment is an independent, positively-weighted quadrature.
    """
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if not 4 <= j_max <= MAX_J:
        raise ValueError(f"j_max must be between 4 and {MAX_J}")
    integrand = _Integrand(record.mu, P, ell, float(p))
    annuli = [_integrate_region(integrand, _annulus_rects(j)) for j in range(1, j_max + 1)]
    values = tuple(itertools.accumulate(value for value, _ in annuli))[1:]
    increments = [(j, annuli[j - 1][0]) for j in range(2, j_max + 1)]
    verdict, rate = _verdict_from_increments(increments, values[-1])
    if not all(met for _, met in annuli):
        verdict = INCONCLUSIVE
    return DivergenceDiagnostic(
        epsilons=tuple(2.0**-j for j in range(2, j_max + 1)),
        values=values,
        verdict=verdict,
        rate_estimate=rate,
    )


def monomial_oracle(
    m: int,
    n: int,
    ell: int,
    p: PLike,
    record: Optional[DMapRecord] = None,
    j_max: int = 20,
) -> DivergenceDiagnostic:
    """truncated_norm for the plain monomial u^m v^n over the reference map."""
    if m < 0 or n < 0:
        raise ValueError("exponents must be non-negative")
    if record is None:
        record = canonical_dmap()
    return truncated_norm(record, Poly2.monomial(m, n), ell, p, j_max=j_max)


# -- closed-form cross-check -------------------------------------------------


@dataclass(frozen=True)
class SubstitutedBounds:
    """Closed-form bracket for the model integral of u^m v^n / mu^l over the
    lower wedge, via the substitution (u, v) = (st, s^2 t (1 - t)).

    The substituted integrand factorises as s^{e1} * t^{e2} (1-t)^{p n}; the
    integral over the wedge is bounded between the s-range [0,1] and [0,2]
    products.  An exponent at or below -1 means divergence.
    """

    divergent: bool
    lower: float
    upper: float


def substituted_norm(m: int, n: int, ell: int, p: PLike) -> SubstitutedBounds:
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if m < 0 or n < 0 or ell < 0:
        raise ValueError("m, n, ell must be non-negative")
    e1 = p * (m + 2 * n - 3 * ell) + 5
    e2 = p * (m + n - 2 * ell) + 3
    e3 = p * n
    if e1 <= -1 or e2 <= -1:
        return SubstitutedBounds(divergent=True, lower=math.inf, upper=math.inf)
    s_lower = 1.0 / float(e1 + 1)
    s_upper = 2.0 ** float(e1 + 1) / float(e1 + 1)
    beta_value = math.exp(
        math.lgamma(float(e2 + 1)) + math.lgamma(float(e3 + 1)) - math.lgamma(float(e2 + e3 + 2))
    )
    return SubstitutedBounds(
        divergent=False, lower=s_lower * beta_value, upper=s_upper * beta_value
    )


# -- gradient limit at the collapsed corner ----------------------------------


@dataclass(frozen=True)
class GradientLimitReport:
    """Observed gradients along rays into the corner against the exact limit."""

    limit: Tuple[Fraction, Fraction]
    observed: Tuple[Tuple[Fraction, Tuple[float, float]], ...]
    max_deviation: float


def gradient_limit_check(
    record: DMapRecord, z: Poly2, j_max: int = 20
) -> GradientLimitReport:
    """Compare grad f along rays (t, lambda t), t = 2^-j_max, with the limit.

    Requires z to satisfy the differentiability conditions; the limit is
    -(n1, n2)/n3 for the normal direction n = s20 x s02 built from the
    surface coefficients s_jk = (x_jk, z_jk).
    """
    residuals = [(label, res) for label, res in c1_residuals(record, z) if res != 0]
    if residuals:
        labels = ", ".join(label for label, _ in residuals)
        raise ValueError(f"field violates the differentiability conditions: {labels}")
    x20 = record.x.coeff(2, 0)
    x02 = record.x.coeff(0, 2)
    s20 = (x20[0], x20[1], z.coeff(2, 0))
    s02 = (x02[0], x02[1], z.coeff(0, 2))
    normal = (
        s20[1] * s02[2] - s20[2] * s02[1],
        s20[2] * s02[0] - s20[0] * s02[2],
        s20[0] * s02[1] - s20[1] * s02[0],
    )
    limit = (-normal[0] / normal[2], -normal[1] / normal[2])
    dx = jacobian(record.x)
    dz1 = z.diff(1)
    dz2 = z.diff(2)
    t = Fraction(1, 2**j_max)
    observed = []
    worst = Fraction(0)
    for lam in (Fraction(1, 4), Fraction(1), Fraction(4)):
        point = (t, lam * t)
        a = dx[(0, 0)].eval(point)
        b = dx[(0, 1)].eval(point)
        c = dx[(1, 0)].eval(point)
        d = dx[(1, 1)].eval(point)
        det = a * d - b * c
        g1 = dz1.eval(point)
        g2 = dz2.eval(point)
        grad = ((g1 * d - g2 * c) / det, (-g1 * b + g2 * a) / det)
        worst = max(worst, abs(grad[0] - limit[0]), abs(grad[1] - limit[1]))
        observed.append((lam, (float(grad[0]), float(grad[1]))))
    return GradientLimitReport(
        limit=limit, observed=tuple(observed), max_deviation=float(worst)
    )


# -- endpoint-singular reference integral ------------------------------------


def log_squared_integral(upper: PLike = Fraction(1, 2), tol: float = 1e-10) -> float:
    """Numerically integrate 1/(x ln^2 x) from 0 to upper (< 1).

    The integrand blows up at 0 with a 1/ln tail that plain truncation cannot
    reach, so the quadrature uses a tanh-sinh (double-exponential)
    substitution x = (b/2)(1 + tanh((pi/2) sinh t)) with log-stable factors,
    under trapezoidal step-halving.
    """
    b = float(Fraction(upper))
    if not 0.0 < b < 1.0:
        raise ValueError("upper must lie in (0, 1)")
    log_half_b = math.log(b / 2.0)
    t_cut = 30.0

    def transformed(t: float) -> float:
        w = 0.5 * math.pi * math.sinh(t)
        # log(1 + tanh w) and (1 - tanh w), stable for large |w|.
        if w >= 0.0:
            log1p_tanh = math.log(2.0) - math.log1p(math.exp(-2.0 * w))
            one_minus_tanh = 2.0 * math.exp(-2.0 * w) / (1.0 + math.exp(-2.0 * w))
        else:
            log1p_tanh = math.log(2.0) + 2.0 * w - math.log1p(math.exp(2.0 * w))
            one_minus_tanh = 2.0 / (1.0 + math.exp(2.0 * w))
        log_x = log_half_b + log1p_tanh
        dx_over_x = 0.5 * math.pi * math.cosh(t) * one_minus_tanh
        return dx_over_x / (log_x * log_x)

    def trapezoid(h: float) -> float:
        steps = int(t_cut / h)
        total = transformed(0.0)
        for i in range(1, steps + 1):
            total += transformed(i * h) + transformed(-i * h)
        return h * total

    h = 0.5
    previous = trapezoid(h)
    for _ in range(8):
        h *= 0.5
        current = trapezoid(h)
        if abs(current - previous) <= tol * abs(current):
            return current
        previous = current
    return previous
