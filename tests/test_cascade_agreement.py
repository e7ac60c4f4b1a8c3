"""The cascade and the constraint system are two readings of one criterion.

On seeded random maps, plain and affinely wrapped, and on fields built to
stop at every depth of the order-2 cascade, ``classify`` must put p inside
the band exactly when the field satisfies ``constraints_for`` at p; and the
five C1 residuals must vanish exactly when the field satisfies ``c1_system``.
The p values sit on every band edge and just inside every band.
"""

import random
from fractions import Fraction

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


def _fields(record, rng):
    """Reduced fields stopping before case a, after each of a..e, and after f."""
    coeffs = random_reduced_terms(rng, density=0.6)
    for term in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 0), (0, 3), (4, 1), (1, 4)):
        coeffs.setdefault(term, Fraction(rng.randint(1, 9), 4))
    for through in (None,) + CASE_ORDER:
        yield impose_conditions(record, coeffs, through)
    w = impose_conditions(record, coeffs, "e")
    table = expected_table(record, w, 8) * Fraction(1, 16)
    yield w + Poly2.monomial(1, 5, table.coeff(0, 8)[0]) + Poly2.monomial(5, 1, table.coeff(8, 0)[3])


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
