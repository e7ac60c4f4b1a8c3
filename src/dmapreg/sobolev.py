"""Symbolic Sobolev-membership classification over a degenerate map.

For a validated map with standard form y and a polynomial field z, the
composite f = z o x^{-1} has first/second derivatives that are rational
functions with denominator mu = det Dy.  Membership of f in W^{k,p} reduces
to integrability of mu^{-l} P against the area weight mu, where P is an
explicit polynomial "quotient": with Gamma = adj Dy, P = Dz Gamma (l = 1)
for k = 1, and P = Gamma^T Q Gamma (l = 3) for k = 2, where the symmetric
Q = mu D^2 w - sum_a (Dw Gamma)_a D^2 y_a acts on the reduced field w; so
P has three distinct entries, P11, P12 = P21 and P22.

The arithmetic backbone is the weight w(m, n) = m + n + min(m, n): the
monomial u^m v^n / mu^l lies in L^p iff w(m, n) > 3l - 6/p.  Sorting the
terms of P by weight gives the leading parts Lambda_r P, and membership for
p in the band Pi(r, l) is equivalent to Lambda_r P = 0.  The classifier
walks the coefficient-condition cascade (cases a, b, c, ... on z or on the
reduced field w) and cross-validates every step against the corresponding
Lambda_r P = 0 test on the exactly computed quotient; any disagreement
raises InternalInconsistencyError, since it would mean the two formulations
of the same criterion fell out of sync.  The classifier reads P only up to
MAX_CASE_WEIGHT = 8, so it builds P under that weight bound: each product
keeps its terms of weight <= 8 only, exactly, as weight is superadditive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .dmap import DMapRecord, reduce_field
from .poly2 import Exponent, Poly2

PLike = Union[int, Fraction]

#: Leading parts are only examined up to this weight (case f sits at r = 8).
MAX_CASE_WEIGHT = 8


class InternalInconsistencyError(RuntimeError):
    """The coefficient cascade and the leading-part test disagreed."""


def weight(m: int, n: int) -> int:
    """The integrability weight of u^m v^n: m + n + min(m, n)."""
    if m < 0 or n < 0:
        raise ValueError("exponents must be non-negative")
    return m + n + min(m, n)


def _dot(pairs: Sequence[Tuple[Poly2, Poly2]], bound: Optional[int]) -> Poly2:
    """sum a * b over pairs of scalar polynomials, keeping weights <= ``bound``.

    Terms are walked in order of weight, and the walk stops once a pair's
    weights sum past the bound: weight is superadditive, w(e + e') >= w(e) +
    w(e'), so no skipped pair reaches a kept term.  None is no bound.
    """
    acc: Dict[Exponent, Fraction] = {}
    for a, b in pairs:
        left, right = (
            sorted(((weight(*e), e, c) for e, (c,) in f.terms.items()), key=lambda t: t[0])
            for f in (a, b)
        )
        for wa, (ja, ka), ca in left:
            for wb, (jb, kb), cb in right:
                if bound is not None and wa + wb > bound:
                    break
                expo = (ja + jb, ka + kb)
                acc[expo] = acc.get(expo, 0) + ca * cb
    return Poly2(1, {e: (c,) for e, c in acc.items() if bound is None or weight(*e) <= bound})


def monomial_in_Lp(m: int, n: int, ell: int, p: PLike) -> bool:
    """Exact membership test for u^m v^n / mu^l in L^p with weight mu."""
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return weight(m, n) > 3 * ell - Fraction(6) / p


def p_range(r: int, ell: int) -> Tuple[Fraction, Optional[Fraction]]:
    """The band Pi(r, l) = [6/(3l - r), 6/(3l - 1 - r)); None means infinity."""
    if 3 * ell - r <= 0:
        raise ValueError(f"p_range undefined for r={r}, ell={ell} (need r < 3*ell)")
    lower = Fraction(6, 3 * ell - r)
    upper = Fraction(6, 3 * ell - 1 - r) if 3 * ell - 1 - r > 0 else None
    return lower, upper


def leading_part(P: Poly2, r: int) -> Poly2:
    """Terms of P whose exponents have weight at most r."""
    return P.filter_terms(lambda j, k: weight(j, k) <= r)


@dataclass(frozen=True)
class QuotientData:
    """The polynomial quotient P with its denominator power l for order k."""

    k: int
    P: Poly2
    ell: int


def _times_gamma(
    record: DMapRecord, row: Sequence[Poly2], l: int, bound: Optional[int]
) -> Poly2:
    """Entry l of the row vector ``row`` times Gamma, to weight ``bound``."""
    g = record.gamma_adj
    return _dot([(row[0], g[(0, l)]), (row[1], g[(1, l)])], bound)


def quotient_first(record: DMapRecord, z: Poly2) -> QuotientData:
    """First-order quotient P = Dz * Gamma (so Dh o y = mu^{-1} P)."""
    if z.dim != 1:
        raise ValueError("the field must be a scalar polynomial")
    row = [_times_gamma(record, (z.diff(1), z.diff(2)), l, None) for l in range(2)]
    return QuotientData(k=1, P=Poly2.from_components(row), ell=1)


def _second_order_row(record: DMapRecord, w: Poly2, bound: Optional[int]) -> Poly2:
    """The components (11, 12, 21, 22) of P = Gamma^T Q Gamma, to weight ``bound``.

    Q = mu D^2 w - sum_a (Dw Gamma)_a D^2 y_a and P are symmetric, so only
    Q11, Q12, Q22 and, through R = Q Gamma, P11, P12, P22 are built.
    """
    dw = (w.diff(1), w.diff(2))
    y = record.y.components()
    weighted = [(record.mu, w)] + [(-_times_gamma(record, dw, a, bound), y[a]) for a in range(2)]
    q: List[List[Poly2]] = [[Poly2.zero()] * 2 for _ in range(2)]
    for i, j in ((0, 0), (0, 1), (1, 1)):
        q[i][j] = q[j][i] = _dot([(c, f.diff(i + 1).diff(j + 1)) for c, f in weighted], bound)
    r = [[_times_gamma(record, q[i], l, bound) for l in range(2)] for i in range(2)]
    # P_kl = sum_i Gamma_ik R_il, entry k of the column (R_0l, R_1l) times Gamma.
    p11, p12, p22 = (
        _times_gamma(record, (r[0][l], r[1][l]), k, bound) for k, l in ((0, 0), (0, 1), (1, 1))
    )
    return Poly2.from_components([p11, p12, p12, p22])


def quotient_second(record: DMapRecord, w: Poly2) -> QuotientData:
    """Second-order quotient for a reduced field (requires w20 = w02 = 0)."""
    if w.dim != 1:
        raise ValueError("the field must be a scalar polynomial")
    if w.coeff(2, 0) != 0 or w.coeff(0, 2) != 0:
        raise ValueError("quotient_second expects a reduced field with w20 = w02 = 0")
    return QuotientData(k=2, P=_second_order_row(record, w, None), ell=3)


def quotient(record: DMapRecord, z: Poly2, k: int) -> QuotientData:
    """The order-k quotient of a raw field; order 2 reduces the field first."""
    if k == 1:
        return quotient_first(record, z)
    return quotient_second(record, reduce_field(record, z))


# -- the cascade -------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Classification outcome for f = z o x^{-1} at differentiation order k.

    ``p_sup`` is the supremum of the open-ended membership band [1, p_sup);
    None encodes that every finite p is included.  A ``p_sup`` of 1 encodes
    the empty band (second order only).  ``conjectured_bounded`` marks the
    terminal case, where the derivatives are additionally expected - but not
    proven - to be bounded.
    """

    k: int
    case_label: str
    p_sup: Optional[Fraction]
    failed_conditions: Tuple[str, ...]
    conjectured_bounded: bool

    def contains(self, p: PLike) -> bool:
        p = Fraction(p)
        if p < 1:
            raise ValueError("p must be at least 1")
        if self.p_sup is None:
            return True
        return p < self.p_sup

    @property
    def p_interval(self) -> str:
        if self.p_sup is None:
            return "[1, inf)"
        if self.p_sup == 1:
            return "empty"
        return f"[1, {self.p_sup})"



def agreement_probes(report: RegularityReport) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """(p inside, p outside) probes for checking a classification by oracle.

    Probes sit far enough from the band edge that the increment decay/growth
    rates (at least one log2 unit per level inside, half a unit outside)
    clear the verdict thresholds for every reachable band.
    """
    sup = report.p_sup
    if sup is None:
        return Fraction(6), None
    if sup == 1:
        return None, Fraction(3, 2)
    return max(Fraction(1), sup - 1), sup + Fraction(1, 2)

#: A linear form on the coefficients of a field: {(j, k): coefficient}.
Form = Dict[Tuple[int, int], Fraction]
Condition = Tuple[str, Form]


def evaluate_form(form: Form, field: Poly2) -> Fraction:
    """The value of a linear form on the coefficients of a scalar field."""
    return sum((c * field.coeff(j, k) for (j, k), c in form.items()), Fraction(0))


def _k1_conditions() -> List[List[Condition]]:
    return [
        [],
        [("z10", {(1, 0): 1}), ("z01", {(0, 1): 1})],
        [("z11", {(1, 1): 1})],
    ]


def _k2_conditions(record: DMapRecord) -> List[List[Condition]]:
    alpha, beta, gamma, delta = record.params
    pair = record.y.coeff
    # The u-side identity mirrors the v-side one under the u <-> v swap, which
    # also exchanges the two map components; hence the reversed pairs here.
    vec_u = [
        2 * a - 3 * alpha * b - 2 * beta * g
        for a, b, g in zip(pair(3, 1)[::-1], pair(3, 0)[::-1], pair(1, 2)[::-1])
    ]
    vec_v = [
        2 * a - 3 * delta * b - 2 * gamma * g
        for a, b, g in zip(pair(1, 3), pair(0, 3), pair(2, 1))
    ]
    return [
        [("w10", {(1, 0): 1}), ("w01", {(0, 1): 1})],
        [("w11", {(1, 1): 1})],
        [("w21", {(2, 1): 1}), ("w12", {(1, 2): 1})],
        [
            ("w31 - (3/2)*alpha*w30", {(3, 1): 1, (3, 0): -Fraction(3, 2) * alpha}),
            ("w13 - (3/2)*delta*w03", {(1, 3): 1, (0, 3): -Fraction(3, 2) * delta}),
        ],
        [
            ("w30", {(3, 0): 1}),
            ("w03", {(0, 3): 1}),
            ("w31", {(3, 1): 1}),
            ("w13", {(1, 3): 1}),
            ("w41 - 2*alpha*w40 - beta*w22", {(4, 1): 1, (4, 0): -2 * alpha, (2, 2): -beta}),
            ("w14 - 2*delta*w04 - gamma*w22", {(1, 4): 1, (0, 4): -2 * delta, (2, 2): -gamma}),
        ],
        [
            (
                "w51 - [w22/2, w40].swap(2*y31 - 3*alpha*y30 - 2*beta*y12) - beta*w32 - (5/2)*alpha*w50",
                {
                    (5, 1): 1,
                    (2, 2): -vec_u[0] / 2,
                    (4, 0): -vec_u[1],
                    (3, 2): -beta,
                    (5, 0): -Fraction(5, 2) * alpha,
                },
            ),
            (
                "w15 - [w22/2, w04].(2*y13 - 3*delta*y03 - 2*gamma*y21) - gamma*w23 - (5/2)*delta*w05",
                {
                    (1, 5): 1,
                    (2, 2): -vec_v[0] / 2,
                    (0, 4): -vec_v[1],
                    (2, 3): -gamma,
                    (0, 5): -Fraction(5, 2) * delta,
                },
            ),
        ],
    ]


def case_bands(k: int) -> List[Tuple[str, int, Optional[Fraction]]]:
    """(case, weight r, p_sup) for each case of the order-k cascade, in order.

    Case i sits at r = i for k = 1 and at r = 3 + i for k = 2, up to
    r = 3l - 1, whose band is unbounded; p_sup is the top of Pi(r, l).
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    ell, first = (1, 0) if k == 1 else (3, 3)
    return [
        (chr(ord("a") + r - first), r, p_range(r, ell)[1]) for r in range(first, 3 * ell)
    ]


def cascade(
    record: DMapRecord, k: int
) -> List[Tuple[str, int, Optional[Fraction], List[Condition]]]:
    """The paper's cascade of order k: (case, r, p_sup, conditions) in order.

    Each condition is a labelled linear form that must vanish; the forms act
    on the raw field z for k = 1 and on the reduced field w for k = 2.
    """
    conditions = _k1_conditions() if k == 1 else _k2_conditions(record)
    return [
        band + (conds,) for band, conds in zip(case_bands(k), conditions, strict=True)
    ]


def classify(
    record: DMapRecord, z: Poly2, k: int, q: Optional[QuotientData] = None
) -> RegularityReport:
    """Classify f = z o x^{-1} in W^{k,p}: deepest satisfied case and p band.

    The coefficient cascade is evaluated in order and stops at the first
    violated case; each evaluated verdict is cross-validated against the
    vanishing of the matching leading part of the quotient polynomial.  A
    caller that already holds ``q = quotient(record, z, k)`` passes it in,
    and its leading parts are read instead of building them again.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if z.dim != 1:
        raise ValueError("the field must be a scalar polynomial")
    if q is not None and q.k != k:
        raise ValueError(f"an order-{q.k} quotient given for order {k}")
    field = z if k == 1 else reduce_field(record, z)
    if q is not None:
        P = q.P
    elif k == 1:
        P = quotient_first(record, z).P
    else:
        P = _second_order_row(record, field, MAX_CASE_WEIGHT)

    # Case a of the first-order cascade is unconditional, so k=1 never stays
    # here; for k=2 the empty band [1, 1) is a real outcome.
    case_label = "none"
    p_sup: Optional[Fraction] = Fraction(1)
    failed: Tuple[str, ...] = ()
    for case, r, sup, conditions in cascade(record, k):
        residuals = [(label, evaluate_form(form, field)) for label, form in conditions]
        cascade_zero = all(residual == 0 for _, residual in residuals)
        leading_zero = leading_part(P, r).is_zero
        if cascade_zero != leading_zero:
            raise InternalInconsistencyError(
                f"case {case!r}: coefficient cascade says "
                f"{'satisfied' if cascade_zero else 'violated'} but the leading part "
                f"Lambda_{r} P is {'zero' if leading_zero else 'nonzero'}"
            )
        if not cascade_zero:
            failed = tuple(
                f"{label} = 0 (residual {residual})"
                for label, residual in residuals
                if residual != 0
            )
            break
        case_label = case
        p_sup = sup
    return RegularityReport(
        k=k,
        case_label=case_label,
        p_sup=p_sup,
        failed_conditions=failed,
        conjectured_bounded=(p_sup is None),
    )
