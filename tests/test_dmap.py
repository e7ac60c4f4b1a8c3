"""Validation, standardisation and field reduction for degenerate maps."""

import random
from fractions import Fraction

import pytest

from dmapreg import dmap
from dmapreg import (
    Poly2,
    U,
    V,
    ValidationError,
    canonical_dmap,
    jacobian,
    reduce_field,
    standardize,
    validate,
    vec2,
)
from conftest import affine_wrap, pair_map, random_affine, random_standard_dmap


def test_canonical_map_accepted_and_certified():
    record = canonical_dmap()
    report = validate(record.x)
    assert report.accepted
    assert report.degeneracy_ok
    assert report.rank_20_21_ok and report.rank_02_12_ok and report.rank_20_02_ok
    assert report.jacobian_positive == "certified"
    assert report.failure_witness is None
    assert record.positivity_certified


def test_canonical_standard_form_data():
    record = canonical_dmap()
    assert record.params == (0, 1, 1, 0)
    assert record.x00 == (0, 0)
    assert record.T == ((1, 0), (0, 1))
    # mu = 4uv + 2u^3 + 2v^3 - 3u^2 v^2
    expected = (
        Poly2.monomial(1, 1, 4)
        + Poly2.monomial(3, 0, 2)
        + Poly2.monomial(0, 3, 2)
        + Poly2.monomial(2, 2, -3)
    )
    assert record.mu == expected


def test_jacobian_entries():
    m = jacobian(vec2(U**2, V**2))
    assert m[(0, 0)] == U * 2
    assert m[(0, 1)].is_zero
    assert m[(1, 0)].is_zero
    assert m[(1, 1)] == V * 2


def test_degeneracy_failure_detected():
    # x10 nonzero violates the corner degeneracy.
    x = vec2(U + U**2 + U * V**2, V**2 + U**2 * V)
    report = validate(x)
    assert not report.degeneracy_ok
    assert not report.accepted
    assert report.jacobian_positive == "failed"
    with pytest.raises(ValidationError) as err:
        standardize(x)
    assert not err.value.report.degeneracy_ok


def test_rank_failure_beta_zero():
    # Without a u^2 v term in the second component, [x20, x21] is singular.
    x = vec2(U**2 + U * V**2, V**2)
    report = validate(x)
    assert report.degeneracy_ok
    assert not report.rank_20_21_ok
    assert not report.accepted


def test_rank_failure_gamma_zero():
    x = vec2(U**2, V**2 + U**2 * V)
    report = validate(x)
    assert not report.rank_02_12_ok
    assert not report.accepted


def test_rank_failure_collinear_quadratics():
    # x20 parallel to x02.
    x = vec2(U**2 + V**2 + U**2 * V + U * V**2, U**2 + V**2 + U**2 * V - U * V**2)
    report = validate(x)
    assert not report.rank_20_02_ok
    assert not report.accepted


def test_negative_beta_rejected_with_exact_witness():
    x = vec2(U**2 + U * V**2, V**2 - U**2 * V)
    report = validate(x)
    assert report.degeneracy_ok and report.rank_20_21_ok
    assert report.jacobian_positive == "failed"
    assert not report.accepted
    witness = report.failure_witness
    assert witness is not None
    record_mu = _standard_mu(x)
    assert record_mu.eval(witness) <= 0


def test_negative_gamma_rejected_with_exact_witness():
    x = vec2(U**2 - U * V**2, V**2 + U**2 * V)
    report = validate(x)
    assert report.jacobian_positive == "failed"
    assert not report.accepted
    witness = report.failure_witness
    assert witness is not None
    assert _standard_mu(x).eval(witness) <= 0


def _standard_mu(x):
    from dmapreg import det2

    return det2(jacobian(x))


def test_non_dmap_inputs_rejected():
    with pytest.raises(ValueError):
        validate(U + V)  # scalar, not a map
    with pytest.raises(ValueError):
        validate(vec2(Poly2.zero(), Poly2.zero()))


def test_sampling_tier_when_certification_budget_tiny(monkeypatch):
    record = canonical_dmap()
    monkeypatch.setattr(dmap, "MAX_BOXES", 1)
    report = validate(record.x)
    assert report.accepted
    assert report.jacobian_positive == "sampled_only"
    rec = standardize(record.x)
    assert not rec.positivity_certified


def test_small_beta_map_is_certified():
    # beta = 2^-20 puts the origin radius at 2^-20: the search must go that
    # deep for the map to be certified instead of sampled.
    beta = Fraction(1, 2**20)
    x = pair_map({
        (2, 0): (1, 0), (0, 2): (0, 1), (2, 1): (0, beta), (1, 2): (1, 0),
        (1, 3): (Fraction(1, 2), Fraction(-1, 4)), (3, 1): (Fraction(1, 8), 0),
    })
    report = validate(x)
    assert report.accepted and report.jacobian_positive == "certified"
    record = standardize(x)
    assert record.params[1] == beta and record.positivity_certified
    eps = dmap._origin_radius(record.mu, beta, Fraction(1))
    assert eps == beta
    for a in range(9):
        point = (eps * a / 8, eps * (8 - a) / 8)
        assert record.mu.eval(point) > 0


def test_trust_jacobian_skips_certification():
    record = canonical_dmap()
    report = validate(record.x, trust_jacobian=True)
    assert report.accepted
    assert report.jacobian_positive == "sampled_only"
    # A genuinely sign-changing map is still caught by the sample grid.
    bad = vec2(U**2 + U * V**2, V**2 - U**2 * V)
    report = validate(bad, trust_jacobian=True)
    assert report.jacobian_positive == "failed"
    assert not report.accepted


def test_standard_form_is_idempotent():
    rng = random.Random(21)
    for _ in range(5):
        record = random_standard_dmap(rng)
        again = standardize(record.y)
        assert again.y == record.y
        assert again.params == record.params
        assert again.T == ((1, 0), (0, 1))


def test_affine_wrap_recovers_standard_form():
    rng = random.Random(22)
    for _ in range(5):
        record = random_standard_dmap(rng)
        matrix, shift = random_affine(rng)
        x = affine_wrap(record.y, matrix, shift)
        wrapped = standardize(x)
        assert wrapped.y == record.y
        assert wrapped.params == record.params
        assert wrapped.x00 == shift
        assert wrapped.mu == record.mu


def test_reduce_field_zeroes_quadratic_tangentials():
    record = canonical_dmap()
    rng = random.Random(23)
    for _ in range(5):
        z = Poly2(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-6, 6), 4)
                for _ in range(6)
            },
        )
        w = reduce_field(record, z)
        assert w.coeff(2, 0) == 0
        assert w.coeff(0, 2) == 0
        # Reconstruction: z = w + z20 y1 + z02 y2.
        y1, y2 = record.y.entries
        assert w + y1 * z.coeff(2, 0) + y2 * z.coeff(0, 2) == z


def test_reduce_field_rejects_vector_field():
    record = canonical_dmap()
    with pytest.raises(ValueError):
        reduce_field(record, record.y)


def test_validation_report_summary_text():
    x = vec2(U**2 + U * V**2, V**2)
    report = validate(x)
    text = report.summary()
    assert "[x20, x21] singular" in text
    accepted = validate(canonical_dmap().x)
    assert accepted.summary() == "accepted"
