"""Numeric verification oracles."""

import heapq
import math
import random
from fractions import Fraction

import pytest

from dmapreg import (
    CONVERGENT,
    DIVERGENT_LOG,
    DIVERGENT_POWER,
    INCONCLUSIVE,
    Poly2,
    QuadratureError,
    U,
    V,
    agreement_probes,
    classify,
    gradient_limit_check,
    log_squared_integral,
    monomial_in_Lp,
    monomial_oracle,
    quotient_first,
    quotient_second,
    reduce_field,
    substituted_norm,
    truncated_norm,
    verify,
)


def test_log_squared_integral_half():
    value = log_squared_integral()
    assert math.isclose(value, 1.0 / math.log(2.0), rel_tol=0, abs_tol=1e-8)


def test_log_squared_integral_quarter():
    value = log_squared_integral(Fraction(1, 4))
    assert math.isclose(value, 1.0 / math.log(4.0), rel_tol=0, abs_tol=1e-8)


def test_log_squared_integral_rejects_bad_upper():
    for bad in (0, 1, 2, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            log_squared_integral(bad)


def test_substituted_norm_closed_form():
    bounds = substituted_norm(1, 1, 1, 2)
    assert not bounds.divergent
    assert math.isclose(bounds.lower, 1.0 / 360.0, rel_tol=1e-12)
    assert math.isclose(bounds.upper, 8.0 / 45.0, rel_tol=1e-12)
    assert bounds.lower <= bounds.upper


def test_substituted_norm_divergent():
    bounds = substituted_norm(0, 0, 1, 2)
    assert bounds.divergent
    assert bounds.lower == math.inf and bounds.upper == math.inf


def test_substituted_norm_matches_weight_criterion():
    for m in range(4):
        for n in range(4):
            for ell in (1, 2):
                for p in (1, Fraction(3, 2), 2):
                    bounds = substituted_norm(m, n, ell, p)
                    # The substitution bound only sees one ordering of (m, n);
                    # divergence there implies divergence of the symmetric
                    # membership test.
                    if bounds.divergent:
                        assert not monomial_in_Lp(m, n, ell, p) or not monomial_in_Lp(
                            n, m, ell, p
                        )


def test_substituted_norm_validation():
    with pytest.raises(ValueError):
        substituted_norm(-1, 0, 1, 2)
    with pytest.raises(ValueError):
        substituted_norm(0, 0, -1, 2)
    with pytest.raises(ValueError):
        substituted_norm(0, 0, 1, Fraction(1, 2))


def test_agreement_probes_table(canonical):
    unbounded = classify(canonical, U + U * V, 1)  # p_sup = 3
    below, above = agreement_probes(unbounded)
    assert below == 2 and above == Fraction(7, 2)

    empty = classify(canonical, U, 2)  # p_sup = 1: integrability fails for all p
    below, above = agreement_probes(empty)
    assert below is None and above == Fraction(3, 2)

    bounded = classify(canonical, U * U, 1)  # p_sup = None
    below, above = agreement_probes(bounded)
    assert below == 6 and above is None

    narrow = classify(canonical, U * V, 2)  # p_sup = 6/5
    below, above = agreement_probes(narrow)
    assert below == 1 and above == Fraction(17, 10)


def test_gradient_limit_canonical_components(canonical):
    y1, y2 = canonical.y.components()
    report = gradient_limit_check(canonical, y1, j_max=12)
    assert report.limit == (Fraction(1), Fraction(0))
    assert report.max_deviation < 1e-6
    report = gradient_limit_check(canonical, y2, j_max=12)
    assert report.limit == (Fraction(0), Fraction(1))
    lambdas = [lam for lam, _ in report.observed]
    assert lambdas == [Fraction(1, 4), Fraction(1), Fraction(4)]


def test_gradient_limit_mixed_field(canonical):
    y1, y2 = canonical.y.components()
    z = 2 * y1 + 3 * y2 + U**3 * Fraction(1, 8)
    # The observed gradients converge at rate O(t), t = 2^-j_max.
    report = gradient_limit_check(canonical, z, j_max=12)
    assert report.limit == (Fraction(2), Fraction(3))
    assert report.max_deviation < 1e-4
    deeper = gradient_limit_check(canonical, z, j_max=16)
    assert deeper.max_deviation < report.max_deviation / 8


def test_gradient_limit_requires_c1(canonical):
    with pytest.raises(ValueError):
        gradient_limit_check(canonical, U)


def test_truncated_norm_validation(canonical):
    P = quotient_first(canonical, U * U).P
    with pytest.raises(ValueError):
        truncated_norm(canonical, P, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        truncated_norm(canonical, P, 1, 2, j_max=3)
    with pytest.raises(ValueError):
        truncated_norm(canonical, P, 1, 2, j_max=25)
    with pytest.raises(ValueError):
        truncated_norm(canonical, P, -1, 2)


def test_monomial_oracle_validation():
    with pytest.raises(ValueError):
        monomial_oracle(-1, 0, 1, 2)
    with pytest.raises(ValueError):
        monomial_oracle(0, 0, 1, 2, j_max=30)


def test_diagnostic_structure(canonical):
    diag = monomial_oracle(2, 1, 1, 2, j_max=8)
    assert len(diag.epsilons) == len(diag.values) == 7
    assert diag.epsilons[0] == 0.25 and diag.epsilons[-1] == 2.0 ** -8
    # Cumulative integrals of a nonnegative integrand grow with shrinking eps.
    for earlier, later in zip(diag.values, diag.values[1:]):
        assert later >= earlier - 1e-12 * abs(earlier)
    assert diag.verdict == CONVERGENT


def test_oracle_convergent_case():
    diag = monomial_oracle(4, 0, 1, 1, j_max=12)
    assert monomial_in_Lp(4, 0, 1, 1)
    assert diag.verdict == CONVERGENT
    assert diag.rate_estimate < -0.5 or diag.rate_estimate == 0.0


def test_oracle_log_divergence():
    # weight(2, 1) = 4 == 3*2 - 6/3: borderline, log-divergent.
    assert not monomial_in_Lp(2, 1, 2, 3)
    diag = monomial_oracle(2, 1, 2, 3, j_max=12)
    assert diag.verdict == DIVERGENT_LOG
    assert abs(diag.rate_estimate) <= 0.1


def test_oracle_symmetric_borderline_divergent():
    # weight(2, 2) = 6 == 3*3 - 6/2 is borderline too, but the dyadic
    # increments grow ~ j (an extra log factor), so shallow runs report a
    # power flavor; either divergent verdict is the correct call here.
    assert not monomial_in_Lp(2, 2, 3, 2)
    diag = monomial_oracle(2, 2, 3, 2, j_max=12)
    assert diag.verdict in (DIVERGENT_LOG, DIVERGENT_POWER)


def test_oracle_power_divergence():
    diag = monomial_oracle(0, 0, 3, 2, j_max=10)
    assert diag.verdict == DIVERGENT_POWER
    assert diag.rate_estimate > 0.1


def test_truncated_norm_on_quotient(canonical):
    z = U * U + U * V**2 + U**3 * V
    report = classify(canonical, z, 2)
    assert report.p_sup == 2
    P = quotient_second(canonical, reduce_field(canonical, z)).P
    convergent = truncated_norm(canonical, P, 3, Fraction(9, 5), j_max=10)
    assert convergent.verdict == CONVERGENT
    divergent = truncated_norm(canonical, P, 3, Fraction(5, 2), j_max=10)
    assert divergent.verdict == DIVERGENT_POWER


def test_classification_agreement_on_random_instances():
    # For random (map, field) instances and both derivative orders, the
    # oracle must corroborate the classified interval: convergent at the
    # inside probe, divergent (either flavour) at the outside probe.  Probes
    # come from agreement_probes, whose offsets keep the fitted increment
    # slopes clear of the inconclusive window at moderate depth.
    from conftest import (
        CASE_ORDER,
        dyadic,
        impose_conditions,
        lift_field,
        random_reduced_terms,
        random_standard_dmap,
    )

    rng = random.Random(904)
    sups_seen = set()
    for i in range(20):
        record = random_standard_dmap(rng)
        if i % 3 == 0:
            terms = dict(random_reduced_terms(rng, density=0.5))
            for expo in ((2, 0), (0, 2)):
                value = dyadic(rng, 4, 16)
                if value != 0:
                    terms[expo] = value
            z = Poly2(1, {expo: (value,) for expo, value in terms.items()})
        else:
            depth = (None, *CASE_ORDER)[i % 6]
            w = impose_conditions(record, random_reduced_terms(rng, 0.5), depth)
            z = lift_field(record, w, z20=dyadic(rng, 3, 4), z02=dyadic(rng, 3, 4))
        for k in (1, 2):
            report = classify(record, z, k)
            sups_seen.add((k, report.p_sup))
            if k == 2:
                quotient = quotient_second(record, reduce_field(record, z))
            else:
                quotient = quotient_first(record, z)
            inside, outside = agreement_probes(report)
            if inside is not None:
                diag = truncated_norm(record, quotient.P, quotient.ell, inside, j_max=12)
                assert diag.verdict == CONVERGENT, (i, k, report.p_sup, inside, diag.verdict)
            if outside is not None:
                diag = truncated_norm(record, quotient.P, quotient.ell, outside, j_max=12)
                assert diag.verdict in (DIVERGENT_LOG, DIVERGENT_POWER), (
                    i, k, report.p_sup, outside, diag.verdict,
                )
    # The random mix must exercise more than one band per order.
    assert len({sup for k, sup in sups_seen if k == 1}) >= 2
    assert len({sup for k, sup in sups_seen if k == 2}) >= 3


def test_truncated_norm_is_deterministic(canonical):
    z = U * U + U * V**2
    P = quotient_second(canonical, reduce_field(canonical, z)).P
    first = truncated_norm(canonical, P, 3, Fraction(2), j_max=10)
    second = truncated_norm(canonical, P, 3, Fraction(2), j_max=10)
    assert first == second  # bit-identical floats, not just approximately
    assert first.values == second.values


# -- the adaptive integrator against a reference copy --------------------------


def _reference_integrate_region(integrand, rects):
    """The integrator as it stood before its rewrite around one heap, kept as a
    reference: it keeps every leaf in a dict beside the heap, sorts the
    leaves before the final sum, and raises when the panel budget runs out."""
    rel_tol, max_panels = verify.ANNULUS_REL_TOL, verify.MAX_PANELS_PER_ANNULUS
    panels_used = 0
    counter = 0
    heap = []
    leaves = {}

    def make_leaf(rect):
        nonlocal panels_used, counter
        coarse = verify._panel(integrand, rect)
        children = verify._split4(rect)
        child_vals = tuple(verify._panel(integrand, child) for child in children)
        panels_used += 5
        fine = math.fsum(child_vals)
        error = abs(fine - coarse)
        counter += 1
        heapq.heappush(heap, (-error, counter, rect, fine, children, child_vals))
        leaves[counter] = (rect, fine, error)

    for rect in rects:
        make_leaf(rect)
    while True:
        total = math.fsum(value for _, value, _ in leaves.values())
        total_error = math.fsum(err for _, _, err in leaves.values())
        if total_error <= rel_tol * max(abs(total), 1e-300):
            break
        if panels_used >= max_panels:
            raise QuadratureError(f"needed more than {max_panels} panels for tolerance {rel_tol:g}")
        neg_error, leaf_id, rect, fine, children, child_vals = heapq.heappop(heap)
        if leaf_id not in leaves:
            continue
        if -neg_error <= 0.0:
            break
        del leaves[leaf_id]
        for child in children:
            make_leaf(child)
    ordered = sorted(leaves.values(), key=lambda item: item[0])
    return math.fsum(value for _, value, _ in ordered)


def test_integrator_matches_its_reference_copy(canonical, monkeypatch):
    # Seeded k = 1 and k = 2 quotients on seeded maps, plus (u - 1/3)^2 on the
    # reference map, whose p = 1 integrand has a kink that exhausts the panel
    # budget.  Where the reference converges the rewrite returns the same
    # float from the same number of panels; where it raises, the rewrite
    # reports the shortfall after the same number of panels.
    from conftest import (
        CASE_ORDER,
        dyadic,
        impose_conditions,
        lift_field,
        random_reduced_terms,
        random_standard_dmap,
    )

    calls = [0]
    panel = verify._panel

    def counted(integrand, rect):
        calls[0] += 1
        return panel(integrand, rect)

    monkeypatch.setattr(verify, "_panel", counted)
    rng = random.Random(1717)
    cases = [(canonical, quotient_first(canonical, (U - Fraction(1, 3)) ** 2))]
    for depth in (None, *CASE_ORDER):
        record = random_standard_dmap(rng)
        w = impose_conditions(record, random_reduced_terms(rng, 0.5), depth)
        z = lift_field(record, w, z20=dyadic(rng, 3, 4), z02=dyadic(rng, 3, 4))
        cases += [(record, quotient_first(record, z)), (record, quotient_second(record, w))]
    tally = {"first pass": 0, "refined": 0, "short": 0}
    for record, q in cases:
        for p in (1, 2, 3.5):
            integrand = verify._Integrand(record.mu, q.P, q.ell, p)
            for j in range(1, 7):
                rects = verify._annulus_rects(j)
                calls[0] = 0
                try:
                    expected = _reference_integrate_region(integrand, rects)
                except QuadratureError:
                    expected = None
                reference_calls, calls[0] = calls[0], 0
                value, met = verify._integrate_region(integrand, rects)
                assert calls[0] == reference_calls, (p, j)
                assert met == (expected is not None), (p, j)
                if met:
                    assert value == expected, (p, j)
                first_pass = calls[0] == 5 * len(rects)
                tally["short" if not met else "first pass" if first_pass else "refined"] += 1
    assert tally["refined"] >= 15 and tally["short"] >= 1, tally


def test_exhausted_panel_budget_is_inconclusive(monkeypatch):
    # A smooth integrand that meets the tolerance on its first pass, once the
    # tolerance is out of reach and the budget ends at the first pass: every
    # annulus falls short, the verdict is inconclusive and nothing raises,
    # while the values and the fitted slope stay those of the first pass.
    reached = monomial_oracle(4, 0, 1, 1, j_max=8)
    monkeypatch.setattr(verify, "ANNULUS_REL_TOL", 0.0)
    monkeypatch.setattr(verify, "MAX_PANELS_PER_ANNULUS", 1)
    diag = monomial_oracle(4, 0, 1, 1, j_max=8)
    assert reached.verdict == CONVERGENT and diag.verdict == INCONCLUSIVE
    assert diag.values == reached.values
    assert diag.rate_estimate == reached.rate_estimate
