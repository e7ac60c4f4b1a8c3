"""Exact polynomial and matrix algebra."""

import random
from fractions import Fraction

import pytest

from dmapreg import Poly2, PolyVec, U, V, adjugate2, det2, mat2, vec2


def test_monomial_and_constant_basics():
    m = Poly2.monomial(2, 3, Fraction(5, 4))
    assert m.coeff(2, 3) == Fraction(5, 4)
    assert m.coeff(0, 0) == 0
    assert m.total_degree == 5
    assert m.max_degree_u == 2 and m.max_degree_v == 3
    c = Poly2.constant(7)
    assert c.coeff(0, 0) == 7
    assert Poly2.zero().is_zero
    assert not m.is_zero


def test_zero_terms_are_stripped():
    p = Poly2({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coeff(0, 1) == 2


def test_invalid_construction():
    with pytest.raises(ValueError):
        Poly2({(-1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        Poly2({(0, 0): (Fraction(1),)})  # a vector coefficient
    # bool is a subclass of int, but neither an exponent nor a coefficient.
    for terms in ({(True, 0): 1}, {(0, False): 1}, {(1, 0): True}):
        with pytest.raises(ValueError):
            Poly2(terms)
    with pytest.raises(ValueError):
        Poly2.monomial(True, 0)
    with pytest.raises(ValueError):
        Poly2.monomial(1, 0, False)
    with pytest.raises(ValueError):
        U**True


def test_arithmetic_matches_evaluation():
    rng = random.Random(101)
    for _ in range(25):
        a = Poly2(
            {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5)) for _ in range(4)}
        )
        b = Poly2(
            {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5)) for _ in range(4)}
        )
        pt = (Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4))
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a ** 3).eval(pt) == a.eval(pt) ** 3


def test_scalar_multiplication_and_negation():
    p = U * V + Poly2.constant(1)
    q = p * Fraction(3, 2)
    pt = (Fraction(1, 2), Fraction(1, 3))
    assert q.eval(pt) == p.eval(pt) * Fraction(3, 2)
    assert (-p).eval(pt) == -p.eval(pt)
    assert (p * 0).is_zero


def test_diff():
    p = Poly2.monomial(3, 2)  # u^3 v^2
    assert p.diff(1) == Poly2.monomial(2, 2, 3)
    assert p.diff(2) == Poly2.monomial(3, 1, 2)
    assert Poly2.constant(5).diff(1).is_zero
    with pytest.raises(ValueError):
        p.diff(3)


def test_vector_polynomials():
    v = vec2(U**2, V**2 + U)
    assert v == PolyVec((U**2, V**2 + U))
    assert v.coeff(2, 0) == (1, 0)
    assert v.coeff(1, 0) == (0, 1)
    c1, c2 = v.entries
    assert c1 == U**2
    assert c2 == V**2 + U
    assert v.terms == {(2, 0): (1, 0), (0, 2): (0, 1), (1, 0): (0, 1)}
    assert v.sorted_terms() == sorted(v.terms.items())
    assert v.filter_terms(lambda j, k: k == 0) == vec2(U**2, U)
    assert not v.is_zero and vec2(Poly2.zero(), Poly2.zero()).is_zero
    pt = (Fraction(1, 2), Fraction(1, 3))
    assert tuple(c.eval(pt) for c in v.entries) == (Fraction(1, 4), Fraction(1, 9) + Fraction(1, 2))


def test_dim_mismatch_rejected():
    scalar = U + V
    vector = vec2(U, V)
    with pytest.raises(TypeError):
        scalar + vector
    with pytest.raises(TypeError):
        vector * vector  # a PolyVec has no arithmetic
    with pytest.raises(ValueError):
        PolyVec((scalar, vector))  # entries are scalar polynomials
    with pytest.raises(ValueError):
        PolyVec(())


def test_filter_and_sorted_terms():
    p = U**2 + V**3 + U * V
    only_u = p.filter_terms(lambda j, k: k == 0)
    assert only_u == U**2
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == sorted(exps)


def test_str_rendering():
    p = Poly2.monomial(2, 1, Fraction(-3, 4)) + Poly2.constant(1)
    text = str(p)
    assert "u^2" in text and "v" in text
    assert str(Poly2.zero()) == "0"


def test_call_matches_eval():
    p = U**2 + V
    assert p(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)


def test_matrix_det_adjugate_identity():
    rng = random.Random(202)
    for _ in range(10):
        entries = [
            Poly2(
                {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4)) for _ in range(3)}
            )
            for _ in range(4)
        ]
        m = mat2(*entries)
        adj = adjugate2(m)
        d = det2(m)
        # adj(M) * M = det(M) * I, entrywise.
        for i in range(2):
            for j in range(2):
                acc = Poly2.zero()
                for t in range(2):
                    acc = acc + adj[(i, t)] * m[(t, j)]
                assert acc == (d if i == j else Poly2.zero())

