"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (bypassing capture) with the measured
quantities; a failed criterion shows up as an ordinary pytest failure.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dmapreg import (
    CONVERGENT,
    DIVERGENT_LOG,
    DIVERGENT_POWER,
    INCONCLUSIVE,
    CoefficientSpace,
    InternalInconsistencyError,
    Poly2,
    PolyVec,
    U,
    V,
    admissible_basis,
    c1_residuals,
    check_membership,
    classify,
    constraints_for,
    gradient_limit_check,
    leading_part,
    log_squared_integral,
    monomial_in_Lp,
    monomial_oracle,
    quotient_second,
    reduce_field,
    standardize,
    truncated_norm,
    validate,
    vec2,
)
from conftest import (
    affine_wrap,
    dyadic,
    expected_table,
    impose_conditions,
    lift_field,
    pair_map,
    random_affine,
    random_reduced_terms,
    random_standard_dmap,
)


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def test_criterion_1_closed_form_integral(announce):
    start = time.perf_counter()
    half = log_squared_integral()
    quarter = log_squared_integral(Fraction(1, 4))
    elapsed = time.perf_counter() - start
    err_half = abs(half - 1.0 / math.log(2.0))
    err_quarter = abs(quarter - 1.0 / math.log(4.0))
    assert err_half < 1e-8
    assert err_quarter < 1e-8
    assert elapsed < 1.0
    announce(
        f"PASS criterion 1: endpoint-singular integral = {half:.10f}, "
        f"errors {err_half:.1e} and {err_quarter:.1e} < 1e-8 ({elapsed:.2f} s < 1 s)"
    )


@pytest.mark.slow
def test_criterion_2_monomial_oracle_equivalence(announce):
    start = time.perf_counter()
    p_values = (Fraction(1), Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(6))
    checked = 0
    for m in range(5):
        for n in range(5):
            for ell in (1, 2, 3):
                for p in p_values:
                    member = monomial_in_Lp(m, n, ell, p)
                    diag = monomial_oracle(m, n, ell, p, j_max=20)
                    assert diag.verdict != INCONCLUSIVE, (m, n, ell, p, diag)
                    if member:
                        assert diag.verdict == CONVERGENT, (m, n, ell, p, diag)
                    else:
                        assert diag.verdict in (DIVERGENT_LOG, DIVERGENT_POWER), (m, n, ell, p, diag)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(
        f"PASS criterion 2: oracle matches the exact criterion on {checked}/450 "
        f"tuples at j_max = 20, zero disagreements, none inconclusive ({elapsed:.0f} s < 300 s)"
    )


# (level, conditions imposed through, additionally zero the corner cubics)
_LEVEL_SETUP = [
    (3, None, False),
    (4, "a", False),
    (5, "b", False),
    (6, "c", False),
    (7, "d", True),
    (8, "e", False),
]


@pytest.mark.slow
def test_criterion_3_leading_part_tables(announce):
    rng = random.Random(2026)
    identities = 0
    for _ in range(50):
        record = random_standard_dmap(rng)
        coeffs = random_reduced_terms(rng, density=0.8)
        for r, through, kill in _LEVEL_SETUP:
            w = impose_conditions(record, coeffs, through, kill_corner_cubics=kill)
            P = quotient_second(record, w).P
            assert leading_part(P, r) == expected_table(record, w, r), (r, through)
            identities += 1
    announce(
        f"PASS criterion 3: {identities} leading-part identities "
        f"(50 random maps x levels 3..8) hold with exact rational equality"
    )


# Deepest level at which the mixed quotient components must vanish, given the
# deepest satisfied case.
_MIXED_LEVEL = {"none": 3, "a": 4, "b": 5, "c": 6, "d": 7, "e": 8, "f": 8}


@pytest.mark.slow
def test_criterion_4_cascade_cross_validation(announce):
    rng = random.Random(803)
    depths = [None, "a", "b", "c", "d", "e"]
    cases_seen = set()
    for i in range(200):
        base = random_standard_dmap(rng)
        matrix, shift = random_affine(rng)
        record = standardize(affine_wrap(base.y, matrix, shift))
        if i % 3 == 0:
            terms = dict(random_reduced_terms(rng, density=0.6))
            for expo in ((2, 0), (0, 2)):
                value = dyadic(rng, 4, 16)
                if value != 0:
                    terms[expo] = value
            z = Poly2(terms)
        else:
            w = impose_conditions(record, random_reduced_terms(rng, 0.6), depths[i % 6])
            z = lift_field(record, w, z20=dyadic(rng, 3, 4), z02=dyadic(rng, 3, 4))
        # Any InternalInconsistencyError propagates and fails the criterion.
        report_1 = classify(record, z, 1)
        report_2 = classify(record, z, 2)
        cases_seen.add((1, report_1.case_label))
        cases_seen.add((2, report_2.case_label))
        components = quotient_second(record, reduce_field(record, z)).P.entries
        level = _MIXED_LEVEL[report_2.case_label]
        assert leading_part(components[1], level).is_zero, report_2.case_label
        assert leading_part(components[2], level).is_zero, report_2.case_label
    depth_count = len({label for k, label in cases_seen if k == 2})
    announce(
        f"PASS criterion 4: 200 random (x, z) classified with zero internal "
        f"inconsistencies; mixed quotient components vanish through each "
        f"reached level ({depth_count} distinct second-order cases exercised)"
    )


def test_criterion_5_c1_but_not_W22(canonical, announce):
    z = Poly2.monomial(2, 0) + Poly2.monomial(1, 2) + Poly2.monomial(3, 1)
    assert all(residual == 0 for _, residual in c1_residuals(canonical, z))
    report = classify(canonical, z, 2)
    assert report.case_label == "c"
    assert report.p_sup == 2
    assert not report.conjectured_bounded
    assert not report.contains(2)
    quotient = quotient_second(canonical, reduce_field(canonical, z))
    at_2 = truncated_norm(canonical, quotient.P, quotient.ell, 2, j_max=20)
    at_95 = truncated_norm(canonical, quotient.P, quotient.ell, Fraction(9, 5), j_max=20)
    assert at_2.verdict in (DIVERGENT_LOG, DIVERGENT_POWER)
    assert at_95.verdict == CONVERGENT
    announce(
        f"PASS criterion 5: differentiable fixture stops at case c (p_sup = 2); "
        f"oracle p = 2 {at_2.verdict} (rate {at_2.rate_estimate:+.3f}), "
        f"p = 9/5 {at_95.verdict} (rate {at_95.rate_estimate:+.3f})"
    )


def test_criterion_6_gradient_limits(canonical, announce):
    y1, y2 = canonical.y.entries
    fixtures = [
        (y1, (Fraction(1), Fraction(0))),
        (y2, (Fraction(0), Fraction(1))),
        (2 * y1 + 3 * y2 + Poly2.monomial(3, 0, Fraction(1, 8)), (Fraction(2), Fraction(3))),
    ]
    worst = 0.0
    for z, limit in fixtures:
        report = gradient_limit_check(canonical, z, j_max=20)
        assert report.limit == limit
        assert report.max_deviation < 1e-6
        worst = max(worst, report.max_deviation)
    announce(
        f"PASS criterion 6: gradient limits (1,0), (0,1), (2,3) reproduced at "
        f"j = 20; worst ray deviation {worst:.2e} < 1e-6"
    )


_CASE_DEPTH = {"none": 0, "a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6}


def test_criterion_7_constraint_dimensions(canonical, announce):
    space = CoefficientSpace(3, 3)
    system_c = constraints_for(canonical, 2, Fraction(3, 2), space)
    assert system_c.rank == 5 and system_c.admissible_dimension == 11
    system_d = constraints_for(canonical, 2, 2, space)
    assert system_d.rank == 7 and system_d.admissible_dimension == 9
    reclassified = 0
    for system, target in ((system_c, "c"), (system_d, "d")):
        for element in admissible_basis(system):
            member, violated = check_membership(system, element)
            assert member, violated
            report = classify(canonical, element, 2)
            assert _CASE_DEPTH[report.case_label] >= _CASE_DEPTH[target], (
                target,
                report.case_label,
            )
            reclassified += 1
    announce(
        f"PASS criterion 7: bicubic systems rank 5 (dim 11) and rank 7 (dim 9); "
        f"{reclassified} admissible basis elements re-classify at or past their target case"
    )


def _negative_parameter_map(beta: Fraction, gamma: Fraction) -> PolyVec:
    return pair_map(
        {
            (2, 0): (Fraction(1), Fraction(0)),
            (0, 2): (Fraction(0), Fraction(1)),
            (2, 1): (Fraction(0), Fraction(beta)),
            (1, 2): (Fraction(gamma), Fraction(0)),
        },
    )


def test_criterion_8_invariance_and_rejection(announce):
    rng = random.Random(5150)
    compared = 0
    for _ in range(50):
        record = random_standard_dmap(rng)
        matrix, shift = random_affine(rng)
        wrapped = standardize(affine_wrap(record.y, matrix, shift))
        w = impose_conditions(
            record, random_reduced_terms(rng, 0.5), rng.choice([None, "a", "b", "c"])
        )
        z = lift_field(record, w, z20=dyadic(rng, 3, 4), z02=dyadic(rng, 3, 4))
        y1, y2 = record.y.entries
        shifted = z + dyadic(rng, 2, 4) + y1 * dyadic(rng, 2, 4) + y2 * dyadic(rng, 2, 4)
        for k in (1, 2):
            assert classify(record, z, k) == classify(wrapped, shifted, k)
            compared += 1

    counterexamples = [vec2(U**2 + U * V**2, V**2 - U**2 * V)]
    for sign_target in ("beta", "gamma"):
        for magnitude in (Fraction(0), Fraction(-1, 4), Fraction(-1, 2), Fraction(-1), Fraction(-2)):
            good = Fraction(rng.randint(1, 4), 4)
            if sign_target == "beta":
                counterexamples.append(_negative_parameter_map(magnitude, good))
            else:
                counterexamples.append(_negative_parameter_map(good, magnitude))
    for _ in range(5):
        matrix, shift = random_affine(rng)
        counterexamples.append(
            affine_wrap(_negative_parameter_map(Fraction(-1), Fraction(1, 2)), matrix, shift)
        )
    rejected = sum(1 for x in counterexamples if not validate(x).accepted)
    assert rejected == len(counterexamples)
    announce(
        f"PASS criterion 8: {compared} classification reports identical across "
        f"affine reparametrization + linear field shift; {rejected}/"
        f"{len(counterexamples)} non-positive beta/gamma maps rejected"
    )
