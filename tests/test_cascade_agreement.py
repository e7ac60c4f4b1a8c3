"""The cascade and the constraint system are two readings of one criterion.

On seeded random maps, plain and affinely wrapped, and on fields built to
stop at every depth of the order-2 cascade, ``classify`` must put p inside
the band exactly when the field satisfies ``constraints_for`` at p; and the
five C1 residuals must vanish exactly when the field satisfies ``c1_system``.
The p values sit on every band edge and just inside every band.  And the
classification must not change when u and v swap places.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dmapreg import (
    CoefficientSpace,
    Poly2,
    c1_residuals,
    c1_system,
    check_membership,
    classify,
    constraints_for,
    standardize,
)
from conftest import (
    CASE_ORDER,
    affine_wrap,
    expected_table,
    impose_conditions,
    lift_field,
    random_affine,
    random_reduced_terms,
    random_standard_dmap,
)

#: Finite band edges 6 / (3l - 1 - r) of the order-1 (l = 1) and order-2 (l = 3) cascades.
EDGES = {
    1: [Fraction(3), Fraction(6)],
    2: [Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(6)],
}
JUST = Fraction(1, 1000)


def _probes(k):
    ps = {Fraction(1), Fraction(100)}
    for edge in EDGES[k]:
        ps.update((edge - JUST, edge, edge + JUST))
    return sorted(ps)


def _maps(rng):
    for wrapped in (False, True, False, True):
        record = random_standard_dmap(rng)
        if wrapped:
            record = standardize(affine_wrap(record.y, *random_affine(rng)))
        yield record


def _complete_to_f(record, w):
    """A field past case e, with w15 and w51 set so that Lambda_8 P vanishes."""
    table = expected_table(record, w, 8) * Fraction(1, 16)
    return w + Poly2.monomial(1, 5, table.coeff(0, 8)[0]) + Poly2.monomial(5, 1, table.coeff(8, 0)[3])


def _fields(record, rng):
    """Reduced fields stopping before case a, after each of a..e, and after f."""
    coeffs = random_reduced_terms(rng, density=0.6)
    for term in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 0), (0, 3), (4, 1), (1, 4)):
        coeffs.setdefault(term, Fraction(rng.randint(1, 9), 4))
    for through in (None,) + CASE_ORDER:
        yield impose_conditions(record, coeffs, through)
    yield _complete_to_f(record, impose_conditions(record, coeffs, "e"))


def test_cascade_agrees_with_constraint_systems():
    rng = random.Random(2306)
    reached = {1: set(), 2: set()}
    c1_seen = set()
    for record in _maps(rng):
        for w in _fields(record, rng):
            z = lift_field(record, w, Fraction(rng.randint(-6, 6), 5), Fraction(rng.randint(-6, 6), 7))
            space = CoefficientSpace(z.max_degree_u, z.max_degree_v)
            for k in (1, 2):
                report = classify(record, z, k)
                reached[k].add(report.case_label)
                for p in _probes(k):
                    system = constraints_for(record, k, p, space)
                    assert report.contains(p) == check_membership(system, z)[0], (k, p, report)
            c1 = all(residual == 0 for _, residual in c1_residuals(record, z))
            assert c1 == check_membership(c1_system(record, space), z)[0]
            c1_seen.add(c1)
    assert reached == {1: {"a", "b", "c"}, 2: {"none", "a", "b", "c", "d", "e", "f"}}
    assert c1_seen == {True, False}


def _swap(poly):
    """poly(v, u), with the components of a map exchanged too."""
    return Poly2(poly.dim, {(k, j): coeffs[::-1] for (j, k), coeffs in poly.terms.items()})


@st.composite
def mirrored_jobs(draw):
    """(map, field, its mirror image, depth): a seeded standard-form map and a
    field built to stop after ``depth`` (None: before case a; "f": completed
    through the level-8 table), and the same pair with u and v swapped."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.sampled_from((None, *CASE_ORDER, "f")))
    record = random_standard_dmap(rng)
    w = impose_conditions(record, random_reduced_terms(rng, 0.5), "e" if depth == "f" else depth)
    if depth == "f":
        w = _complete_to_f(record, w)
    z = lift_field(record, w, Fraction(rng.randint(-6, 6), 5), Fraction(rng.randint(-6, 6), 7))
    return record, z, standardize(_swap(record.y)), depth


@settings(max_examples=60, deadline=None)
@given(job=mirrored_jobs())
def test_classification_is_invariant_under_swapping_u_and_v(job):
    record, z, mirror, depth = job
    alpha, beta, gamma, delta = record.params
    assert mirror.params == (delta, gamma, beta, alpha)
    for k in (1, 2):
        report = classify(record, z, k)
        swapped = classify(mirror, _swap(z), k)
        assert (swapped.case_label, swapped.p_sup) == (report.case_label, report.p_sup), (k, depth)
    if depth == "f":
        assert report.case_label == "f"
