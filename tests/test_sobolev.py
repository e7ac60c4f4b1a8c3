"""Weights, bands, quotients and the classification cascade."""

import random
from fractions import Fraction

import pytest

from dmapreg import (
    Poly2,
    PolyVec,
    U,
    V,
    canonical_dmap,
    classify,
    leading_part,
    monomial_in_Lp,
    p_range,
    quotient,
    quotient_first,
    quotient_second,
    reduce_field,
    weight,
)
from dmapreg.sobolev import MAX_CASE_WEIGHT, _dot, _second_order_row
from conftest import (
    expected_table,
    impose_conditions,
    lift_field,
    random_reduced_terms,
    random_standard_dmap,
)


def test_weight_values():
    assert weight(0, 0) == 0
    assert weight(1, 0) == 1
    assert weight(1, 1) == 3
    assert weight(2, 1) == 4
    assert weight(2, 2) == 6
    assert weight(5, 1) == 7
    with pytest.raises(ValueError):
        weight(-1, 0)


def test_monomial_membership_strict_inequality():
    # weight(1,1) = 3 against threshold 3*1 - 6/p.
    assert monomial_in_Lp(1, 1, 1, 2)          # 3 > 0
    assert monomial_in_Lp(1, 1, 1, 1000)       # 3 > 3 - 6/1000
    assert not monomial_in_Lp(2, 2, 3, 2)      # 6 > 9 - 3 fails (equality)
    assert monomial_in_Lp(2, 2, 3, Fraction(9, 5))
    assert not monomial_in_Lp(0, 0, 1, 2)
    with pytest.raises(ValueError):
        monomial_in_Lp(1, 1, 1, Fraction(1, 2))


def test_p_range_bands():
    assert p_range(0, 1) == (Fraction(2), Fraction(3))
    assert p_range(1, 1) == (Fraction(3), Fraction(6))
    assert p_range(2, 1) == (Fraction(6), None)
    assert p_range(3, 3) == (Fraction(1), Fraction(6, 5))
    assert p_range(4, 3) == (Fraction(6, 5), Fraction(3, 2))
    assert p_range(7, 3) == (Fraction(3), Fraction(6))
    assert p_range(8, 3) == (Fraction(6), None)
    with pytest.raises(ValueError):
        p_range(3, 1)


def test_leading_part_filters_by_weight():
    p = PolyVec((U * V + V**3, U**5))
    assert leading_part(p, 2).is_zero  # uv and v^3 have weight 3, u^5 weight 5
    l3 = leading_part(p, 3)
    assert l3.entries[0] == U * V + V**3
    assert l3.entries[1].is_zero


def test_first_quotient_canonical_by_hand():
    record = canonical_dmap()
    q = quotient_first(record, Poly2.monomial(2, 0))
    assert q.k == 1 and q.ell == 1
    # Dz = (2u, 0); Gamma = [[2v + u^2, -2uv], [-2uv, 2u + v^2]].
    assert q.P.entries[0] == Poly2.monomial(1, 1, 4) + Poly2.monomial(3, 0, 2)
    assert q.P.entries[1] == Poly2.monomial(2, 1, -4)


def test_second_quotient_requires_reduced_field():
    record = canonical_dmap()
    with pytest.raises(ValueError):
        quotient_second(record, Poly2.monomial(2, 0))


def _chain_rule(y, z, point):
    """Dh and D^2h of h = z o y^{-1} at y(point), as exact Fractions.

    Dh = Dz Dy^{-1} and D^2h = Dy^{-T} (D^2z - sum_a (Dh)_a D^2y_a) Dy^{-1},
    from the raw field and the map alone, with Dy inverted pointwise.
    """
    comps = y.entries

    def at(f, *vars_):
        for var in vars_:
            f = f.diff(var)
        return f.eval(point)

    dy = [[at(c, i) for i in (1, 2)] for c in comps]
    det = dy[0][0] * dy[1][1] - dy[0][1] * dy[1][0]
    inv = [[dy[1][1] / det, -dy[0][1] / det], [-dy[1][0] / det, dy[0][0] / det]]
    dh = [sum(at(z, i + 1) * inv[i][l] for i in range(2)) for l in range(2)]
    m = [
        [at(z, i, j) - sum(dh[a] * at(comps[a], i, j) for a in range(2)) for j in (1, 2)]
        for i in (1, 2)
    ]
    d2h = [
        sum(inv[i][k] * m[i][j] * inv[j][l] for i in range(2) for j in range(2))
        for k in range(2)
        for l in range(2)
    ]
    return det, dh, d2h


def test_quotients_follow_the_chain_rule():
    """P1 / mu = Dh and P2 / mu^3 = D^2h, in the order (11, 12, 21, 22).

    The quotients factor the derivatives of h = z o y^{-1} through Gamma =
    adj Dy; here Dh and D^2h come from inverting Dy at each point instead,
    with P2 built from the reduced field and D^2h from the raw one.
    """
    rng = random.Random(36)
    for _ in range(8):
        record = random_standard_dmap(rng)
        dense = {(j, k): Fraction(rng.randint(-9, 9), 4) for j in range(6) for k in range(6)}
        z = Poly2(dense)
        first = quotient(record, z, 1).P
        second = quotient(record, z, 2)
        assert second.ell == 3 and second.k == 2
        for _ in range(3):
            point = (Fraction(rng.randint(1, 15), 16), Fraction(rng.randint(1, 15), 16))
            mu, dh, d2h = _chain_rule(record.y, z, point)
            assert [c.eval(point) / mu for c in first.entries] == dh
            assert [c.eval(point) / mu**3 for c in second.P.entries] == d2h


def test_weight_bounded_product_keeps_the_light_terms():
    rng = random.Random(37)

    def sparse():
        terms = {}
        for _ in range(rng.randint(0, 8)):
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = coeff
        return Poly2(terms)

    for _ in range(20):
        pairs = [(sparse(), sparse()) for _ in range(rng.randint(1, 3))]
        full = sum((a * b for a, b in pairs), Poly2.zero())
        assert _dot(pairs, None) == full
        for r in range(11):
            assert _dot(pairs, r) == leading_part(full, r)


def test_truncated_quotient_agrees_with_full():
    rng = random.Random(32)
    for case_f in (False, False, False, True):
        record = random_standard_dmap(rng)
        w = impose_conditions(record, random_reduced_terms(rng), "e" if case_f else None)
        if case_f:
            # Complete w to case f: move w15 and w51 onto the case-f identities.
            table = expected_table(record, w, 8)
            w += Poly2.monomial(1, 5, table.coeff(0, 8)[0] / 16)
            w += Poly2.monomial(5, 1, table.coeff(8, 0)[3] / 16)
        full = quotient_second(record, w).P
        truncated = _second_order_row(record, w, MAX_CASE_WEIGHT)
        assert truncated == leading_part(full, MAX_CASE_WEIGHT)
        assert truncated.is_zero == case_f


def test_classify_reads_a_given_quotient():
    rng = random.Random(35)
    for _ in range(3):
        record = random_standard_dmap(rng)
        w = impose_conditions(record, random_reduced_terms(rng), None)
        z = lift_field(record, w, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        for k in (1, 2):
            given = classify(record, z, k, quotient(record, z, k))
            assert given == classify(record, z, k)
    record = canonical_dmap()
    with pytest.raises(ValueError):
        classify(record, U**2, 2, quotient(record, U**2, 1))


def test_k1_cascade_levels():
    record = canonical_dmap()
    # Case a only: z10 nonzero.
    rep = classify(record, U + U * V, 1)
    assert rep.case_label == "a" and rep.p_sup == 3
    assert rep.failed_conditions and "z10" in rep.failed_conditions[0]
    assert not rep.conjectured_bounded
    # Case b: z10 = z01 = 0 but z11 nonzero.
    rep = classify(record, U * V, 1)
    assert rep.case_label == "b" and rep.p_sup == 6
    # Case c: unbounded band.
    rep = classify(record, Poly2.monomial(2, 0), 1)
    assert rep.case_label == "c" and rep.p_sup is None
    assert rep.p_interval == "[1, inf)"
    assert rep.conjectured_bounded


def _set_coeff(w, j, k, value):
    return w + Poly2.monomial(j, k, value - w.coeff(j, k))


def _f_identity_rhs(record, w):
    """Right-hand sides the (5,1) and (1,5) coefficients must match at the
    terminal cascade level, re-derived locally."""
    alpha, beta, gamma, delta = record.params
    yc = record.y.coeff
    vec_v = tuple(2 * a - 3 * delta * b - 2 * gamma * g
                  for a, b, g in zip(yc(1, 3), yc(0, 3), yc(2, 1)))
    # u-side geometry pairs are component-swapped (u <-> v mirror).
    vec_u = tuple(2 * a - 3 * alpha * b - 2 * beta * g
                  for a, b, g in zip(yc(3, 1)[::-1], yc(3, 0)[::-1], yc(1, 2)[::-1]))
    rhs_15 = (w.coeff(2, 2) / 2 * vec_v[0] + w.coeff(0, 4) * vec_v[1]
              + gamma * w.coeff(2, 3) + Fraction(5, 2) * delta * w.coeff(0, 5))
    rhs_51 = (w.coeff(2, 2) / 2 * vec_u[0] + w.coeff(4, 0) * vec_u[1]
              + beta * w.coeff(3, 2) + Fraction(5, 2) * alpha * w.coeff(5, 0))
    return rhs_51, rhs_15


def test_k2_cascade_levels():
    rng = random.Random(33)
    record = random_standard_dmap(rng)
    base = random_reduced_terms(rng)
    alpha, beta, gamma, delta = record.params

    def classify_w(w):
        z = lift_field(record, w, Fraction(1, 2), Fraction(-1, 3))
        return classify(record, z, 2)

    # No conditions at all: generic fields stop before case a.
    w = _set_coeff(impose_conditions(record, dict(base), None), 1, 0, Fraction(1))
    rep = classify_w(w)
    assert rep.case_label == "none" and rep.p_sup == 1
    assert rep.p_interval == "empty"
    # Case a holds, b fails.
    w = _set_coeff(impose_conditions(record, dict(base), "a"), 1, 1, Fraction(1))
    rep = classify_w(w)
    assert rep.case_label == "a" and rep.p_sup == Fraction(6, 5)
    # Case b holds, c fails.
    w = _set_coeff(impose_conditions(record, dict(base), "b"), 1, 2, Fraction(1))
    rep = classify_w(w)
    assert rep.case_label == "b" and rep.p_sup == Fraction(3, 2)
    # Case c holds, d fails: push w31 off the required multiple of w30.
    w = impose_conditions(record, dict(base), "c")
    w = _set_coeff(w, 3, 1, Fraction(3, 2) * alpha * w.coeff(3, 0) + 1)
    rep = classify_w(w)
    assert rep.case_label == "c" and rep.p_sup == 2
    # Case d holds, e fails: break the (4,1) identity only.
    w = impose_conditions(record, dict(base), "d")
    w = _set_coeff(w, 3, 0, Fraction(0))
    w = _set_coeff(w, 0, 3, Fraction(0))
    w = _set_coeff(w, 3, 1, Fraction(0))
    w = _set_coeff(w, 1, 3, Fraction(0))
    w = _set_coeff(w, 4, 1, 2 * alpha * w.coeff(4, 0) + beta * w.coeff(2, 2) + 1)
    rep = classify_w(w)
    assert rep.case_label == "d" and rep.p_sup == 3
    # Case e holds, f fails: break the (5,1) identity only.
    w = impose_conditions(record, dict(base), "e")
    rhs_51, _ = _f_identity_rhs(record, w)
    w = _set_coeff(w, 5, 1, rhs_51 + 1)
    rep = classify_w(w)
    assert rep.case_label == "e" and rep.p_sup == 6
    assert not rep.conjectured_bounded
    # Full cascade: impose everything including the terminal identities.
    w = impose_conditions(record, dict(base), "e")
    rhs_51, rhs_15 = _f_identity_rhs(record, w)
    w = _set_coeff(_set_coeff(w, 5, 1, rhs_51), 1, 5, rhs_15)
    rep = classify(record, lift_field(record, w, Fraction(2)), 2)
    assert rep.case_label == "f" and rep.p_sup is None
    assert rep.conjectured_bounded


def test_classify_input_validation():
    record = canonical_dmap()
    with pytest.raises(ValueError):
        classify(record, U, 3)
    with pytest.raises(ValueError):
        classify(record, record.y, 1)


def test_linear_field_is_fully_regular_both_orders():
    # z built purely from the map components composes to a linear function.
    rng = random.Random(34)
    record = random_standard_dmap(rng)
    y1, y2 = record.y.entries
    z = y1 * Fraction(3, 2) + y2 * Fraction(-5, 4)
    rep1 = classify(record, z, 1)
    rep2 = classify(record, z, 2)
    assert rep1.case_label == "c" and rep1.p_sup is None
    assert rep2.case_label == "f" and rep2.p_sup is None
    # And the second quotient itself vanishes: w = 0.
    assert reduce_field(record, z).is_zero


def test_report_contains():
    record = canonical_dmap()
    rep = classify(record, U * V, 1)  # p_sup = 6
    assert rep.contains(2) and rep.contains(Fraction(59, 10))
    assert not rep.contains(6) and not rep.contains(7)
    with pytest.raises(ValueError):
        rep.contains(Fraction(1, 2))
