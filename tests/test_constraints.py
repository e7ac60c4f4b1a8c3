"""Linear coefficient constraint systems and admissible bases."""

import random
from fractions import Fraction

import pytest

from dmapreg import (
    CoefficientSpace,
    Poly2,
    U,
    V,
    admissible_basis,
    c1_residuals,
    c1_system,
    canonical_dmap,
    case_for_p,
    check_membership,
    classify,
    constraints_for,
)
from dmapreg import constraints
from dmapreg.constraints import _rref
from conftest import random_standard_dmap


def test_space_indexing():
    space = CoefficientSpace(3, 3)
    assert space.dimension == 16
    idx = space.indices()
    assert idx[0] == (0, 0) and idx[-1] == (3, 3)
    for pos, (j, k) in enumerate(idx):
        assert space.index_of(j, k) == pos
    assert space.contains(3, 0) and not space.contains(4, 0)
    with pytest.raises(ValueError):
        space.index_of(4, 0)
    with pytest.raises(ValueError):
        CoefficientSpace(-1, 2)


def test_space_contains_poly():
    space = CoefficientSpace(2, 2)
    assert space.contains_poly(U**2 * V**2)
    assert not space.contains_poly(U**3)


def test_rref_known_rank():
    rng = random.Random(41)
    for _ in range(10):
        n_cols = 6
        base = [
            [Fraction(rng.randint(-5, 5)) for _ in range(n_cols)] for _ in range(3)
        ]
        combos = []
        for _ in range(3):
            weights = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            combos.append(
                [sum(w * base[i][c] for i, w in enumerate(weights)) for c in range(n_cols)]
            )
        reduced, pivots = _rref(base + combos)
        true_rank = len(_rref(base)[1])
        assert len(pivots) == true_rank
        # Reduced rows have leading 1 at their pivot and zeros above/below.
        for r, col in enumerate(pivots):
            assert reduced[r][col] == 1
            for other in range(len(reduced)):
                if other != r:
                    assert reduced[other][col] == 0


def test_case_for_p():
    assert case_for_p(1, 1) == "a"
    assert case_for_p(1, Fraction(5, 2)) == "a"
    assert case_for_p(1, 3) == "b"
    assert case_for_p(1, 6) == "c"
    assert case_for_p(1, 100) == "c"
    assert case_for_p(2, 1) == "a"
    assert case_for_p(2, Fraction(6, 5)) == "b"
    assert case_for_p(2, Fraction(3, 2)) == "c"
    assert case_for_p(2, 2) == "d"
    assert case_for_p(2, 3) == "e"
    assert case_for_p(2, 6) == "f"
    with pytest.raises(ValueError):
        case_for_p(3, 2)
    with pytest.raises(ValueError):
        case_for_p(2, Fraction(1, 2))


def test_c1_system_canonical():
    record = canonical_dmap()
    system = c1_system(record)
    assert system.space == CoefficientSpace(2, 2)
    assert system.labels == (
        "c1:z10",
        "c1:z01",
        "c1:z11",
        "c1:z21 - alpha*z20 - beta*z02",
        "c1:z12 - gamma*z20 - delta*z02",
    )
    assert system.rank == 5
    assert system.admissible_dimension == 4
    basis = admissible_basis(system)
    assert len(basis) == 4
    for element in basis:
        ok, violated = check_membership(system, element)
        assert ok and violated == ()
        assert all(res == 0 for _, res in c1_residuals(record, element))


def test_c1_residuals_flag_violations():
    record = canonical_dmap()
    residuals = dict(c1_residuals(record, U + U * V))
    assert residuals["z10"] == 1
    assert residuals["z11"] == 1
    assert residuals["z01"] == 0
    # z = y1 satisfies every differentiability condition.
    y1, _ = record.y.entries
    assert all(res == 0 for _, res in c1_residuals(record, y1))


def test_k1_constraints():
    record = canonical_dmap()
    space = CoefficientSpace(2, 2)
    none_needed = constraints_for(record, 1, 2, space)
    assert none_needed.rank == 0
    assert none_needed.admissible_dimension == space.dimension
    case_b = constraints_for(record, 1, 4, space)
    assert case_b.labels == ("k1:b:z10", "k1:b:z01")
    assert case_b.rank == 2
    case_c = constraints_for(record, 1, 10, space)
    assert case_c.labels == ("k1:b:z10", "k1:b:z01", "k1:c:z11")
    assert case_c.rank == 3


def test_k2_constraints_frozen_ranks():
    record = canonical_dmap()
    space = CoefficientSpace(3, 3)
    sys_a = constraints_for(record, 2, 1, space)
    assert len(sys_a.rows) == 2 and sys_a.rank == 2
    assert sys_a.admissible_dimension == 14
    sys_c = constraints_for(record, 2, Fraction(3, 2), space)
    assert len(sys_c.rows) == 5 and sys_c.rank == 5
    assert sys_c.admissible_dimension == 11
    sys_d = constraints_for(record, 2, 2, space)
    assert len(sys_d.rows) == 7 and sys_d.rank == 7
    assert sys_d.admissible_dimension == 9
    sys_f = constraints_for(record, 2, 6, space)
    assert len(sys_f.rows) == 15
    assert sys_f.rank >= 7
    assert sys_f.admissible_dimension == space.dimension - sys_f.rank


def test_k2_basis_reclassifies_at_or_past_target(canonical):
    space = CoefficientSpace(3, 3)
    target_sup = {
        "a": Fraction(6, 5), "b": Fraction(3, 2), "c": Fraction(2),
        "d": Fraction(3), "e": Fraction(6), "f": None,
    }
    for p in (1, Fraction(3, 2), 2, 6):
        case = case_for_p(2, p)
        system = constraints_for(canonical, 2, p, space)
        for element in admissible_basis(system):
            report = classify(canonical, element, 2)
            sup = target_sup[case]
            if sup is None:
                assert report.p_sup is None
            else:
                assert report.p_sup is None or report.p_sup >= sup


def test_admissible_basis_reuses_the_reduction(canonical, monkeypatch):
    calls = []
    original = constraints._rref
    monkeypatch.setattr(constraints, "_rref", lambda rows: calls.append(rows) or original(rows))
    system = constraints_for(canonical, 2, 2, CoefficientSpace(3, 3))
    admissible_basis(system)
    assert len(calls) == 1


def test_membership_violation_reported():
    record = canonical_dmap()
    system = constraints_for(record, 2, 2, CoefficientSpace(3, 3))
    ok, violated = check_membership(system, U)
    assert not ok
    assert any("w10" in label for label in violated)
    with pytest.raises(ValueError):
        check_membership(system, Poly2.monomial(4, 0))


def test_pullback_uses_map_coefficients():
    # w12 = z12 - gamma z20 - delta z02 via the reduction, so the case-c row
    # must couple z12 with z20 on the reference map (gamma = 1).
    record = canonical_dmap()
    space = CoefficientSpace(2, 2)
    system = constraints_for(record, 2, Fraction(3, 2), space)
    row = dict(zip(system.labels, system.rows))["k2:c:w12"]
    as_map = {space.indices()[i]: value for i, value in enumerate(row) if value != 0}
    assert as_map == {(1, 2): Fraction(1), (2, 0): Fraction(-1)}


def test_random_map_systems_are_consistent(canonical):
    rng = random.Random(42)
    space = CoefficientSpace(3, 3)
    for _ in range(5):
        record = random_standard_dmap(rng)
        for p in (1, Fraction(3, 2), 3):
            system = constraints_for(record, 2, p, space)
            assert system.rank <= len(system.rows)
            basis = admissible_basis(system)
            assert len(basis) == system.admissible_dimension
            for element in basis:
                ok, violated = check_membership(system, element)
                assert ok, violated


def test_space_too_small_makes_conditions_automatic():
    # In a space without the coefficients a condition references, the
    # condition constrains nothing beyond the structural zeros.
    record = canonical_dmap()
    tiny = CoefficientSpace(1, 1)
    system = constraints_for(record, 2, 6, tiny)
    # Only w10, w01, w11 (and pullback traces) can act on a bilinear space.
    assert system.rank <= tiny.dimension
    basis = admissible_basis(system)
    for element in basis:
        assert check_membership(system, element)[0]
