"""Linear coefficient constraints for target Sobolev membership.

Given a validated map and a bidegree box of polynomial fields, the smoothness
conditions of the classification cascade are linear in the field
coefficients.  This module materialises them as labelled exact-rational rows
over the coefficient space, row-reduces them (fraction-free elimination with
deterministic pivoting), and produces a basis of the admissible subspace in
reduced echelon order.

Second-order conditions are stated on the reduced field w and pulled back to
the raw coefficients through w_jk = z_jk - z20 (y_jk)_1 - z02 (y_jk)_2.  Any
referenced coefficient outside the space is structurally zero, so conditions
involving only such coefficients become automatic (zero rows) rather than
errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .dmap import DMapRecord
from .poly2 import Poly2
from .sobolev import Condition, Form, cascade, case_bands, evaluate_form

PLike = Union[int, Fraction]
_F0 = Fraction(0)


@dataclass(frozen=True)
class CoefficientSpace:
    """Fields of bidegree at most (max_deg_u, max_deg_v), lexicographic order."""

    max_deg_u: int
    max_deg_v: int

    def __post_init__(self) -> None:
        if self.max_deg_u < 0 or self.max_deg_v < 0:
            raise ValueError("degrees must be non-negative")

    @property
    def dimension(self) -> int:
        return (self.max_deg_u + 1) * (self.max_deg_v + 1)

    def indices(self) -> List[Tuple[int, int]]:
        return [
            (j, k)
            for j in range(self.max_deg_u + 1)
            for k in range(self.max_deg_v + 1)
        ]

    def contains(self, j: int, k: int) -> bool:
        return 0 <= j <= self.max_deg_u and 0 <= k <= self.max_deg_v

    def index_of(self, j: int, k: int) -> int:
        if not self.contains(j, k):
            raise ValueError(f"({j}, {k}) outside the space")
        return j * (self.max_deg_v + 1) + k

    def contains_poly(self, z: Poly2) -> bool:
        return all(self.contains(j, k) for j, k in z.terms)


@dataclass(frozen=True)
class ConstraintSystem:
    """Labelled linear conditions over a coefficient space, with their RREF."""

    space: CoefficientSpace
    rows: Tuple[Tuple[Fraction, ...], ...]
    labels: Tuple[str, ...]
    reduced: Tuple[Tuple[Fraction, ...], ...]
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def admissible_dimension(self) -> int:
        return self.space.dimension - self.rank


# -- exact elimination -------------------------------------------------------


def _primitive(row: List[int]) -> List[int]:
    g = 0
    for entry in row:
        g = gcd(g, entry)
    return [entry // g for entry in row] if g > 1 else row


def _rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form with pivot columns.

    The elimination is fraction-free: rows are scaled to integers, updated by
    exact cross-multiplication and kept primitive (gcd-reduced), with
    deterministic pivoting (first nonzero column, smallest row index).  Only
    the final normalisation to leading ones divides.
    """
    if not rows:
        return [], []
    width = len(rows[0])
    matrix: List[List[int]] = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged constraint matrix")
        scale = 1
        for entry in row:
            scale = lcm(scale, entry.denominator)
        matrix.append(_primitive([int(entry * scale) for entry in row]))
    height = len(matrix)
    pivots: List[int] = []
    rank = 0
    for col in range(width):
        pivot_row = next((i for i in range(rank, height) if matrix[i][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for i in range(height):
            factor = matrix[i][col]
            if i == rank or factor == 0:
                continue
            row_i = matrix[i]
            row_p = matrix[rank]
            for j in range(width):
                row_i[j] = row_i[j] * pivot - factor * row_p[j]
            row_i[col] = 0
            matrix[i] = _primitive(row_i)
        pivots.append(col)
        rank += 1
    reduced: List[List[Fraction]] = []
    for i, col in enumerate(pivots):
        pivot = matrix[i][col]
        reduced.append([Fraction(entry, pivot) for entry in matrix[i]])
    return reduced, pivots


# -- condition construction --------------------------------------------------


def case_for_p(k: int, p: PLike) -> str:
    """The case whose band [previous sup, own sup) contains p."""
    bands = case_bands(k)
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    return next(case for case, _, sup in bands if sup is None or p < sup)


def _pullback(record: DMapRecord, form: Form) -> Form:
    """A w-condition as a z-condition.

    The reduction w_jk = z_jk - z20 (y_jk)_1 - z02 (y_jk)_2 moves each term of
    the form onto z_jk, z20 and z02.
    """
    pulled = dict(form)
    for (j, k), coeff in form.items():
        y1, y2 = record.y.coeff(j, k)
        pulled[(2, 0)] = pulled.get((2, 0), _F0) - coeff * y1
        pulled[(0, 2)] = pulled.get((0, 2), _F0) - coeff * y2
    return pulled


def _row(form: Form, space: CoefficientSpace) -> List[Fraction]:
    """Row of a z-condition; coefficients outside the space are zero."""
    row = [_F0] * space.dimension
    for (j, k), coeff in form.items():
        if space.contains(j, k):
            row[space.index_of(j, k)] += coeff
    return row


def _build_system(
    space: CoefficientSpace, labelled_forms: List[Condition]
) -> ConstraintSystem:
    rows = tuple(tuple(_row(form, space)) for _, form in labelled_forms)
    reduced, pivots = _rref(rows)
    return ConstraintSystem(
        space=space,
        rows=rows,
        labels=tuple(label for label, _ in labelled_forms),
        reduced=tuple(tuple(row) for row in reduced),
        pivots=tuple(pivots),
    )


def constraints_for(
    record: DMapRecord, k: int, p: PLike, space: CoefficientSpace
) -> ConstraintSystem:
    """Cumulative conditions for membership in W^{k,p} over the given space."""
    selected = case_for_p(k, p)
    labelled: List[Condition] = []
    for case, _, _, conditions in cascade(record, k):
        for label, form in conditions:
            z_form = form if k == 1 else _pullback(record, form)
            labelled.append((f"k{k}:{case}:{label}", z_form))
        if case == selected:
            break
    return _build_system(space, labelled)


def _c1_forms(record: DMapRecord) -> List[Condition]:
    """Continuous differentiability: the order-1 cascade through case c plus
    the two coplanarity identities of the second-order terms."""
    alpha, beta, gamma, delta = record.params
    return [cond for *_, conditions in cascade(record, 1) for cond in conditions] + [
        ("z21 - alpha*z20 - beta*z02", {(2, 1): 1, (2, 0): -alpha, (0, 2): -beta}),
        ("z12 - gamma*z20 - delta*z02", {(1, 2): 1, (2, 0): -gamma, (0, 2): -delta}),
    ]


def c1_system(
    record: DMapRecord, space: Optional[CoefficientSpace] = None
) -> ConstraintSystem:
    """The five conditions for a continuously differentiable composite."""
    if space is None:
        space = CoefficientSpace(2, 2)
    labelled = [(f"c1:{label}", form) for label, form in _c1_forms(record)]
    return _build_system(space, labelled)


def c1_residuals(record: DMapRecord, z: Poly2) -> List[Tuple[str, Fraction]]:
    """Exact residuals of the five differentiability conditions for z."""
    if not isinstance(z, Poly2):
        raise ValueError("the field must be a scalar polynomial")
    return [(label, evaluate_form(form, z)) for label, form in _c1_forms(record)]


def admissible_basis(system: ConstraintSystem) -> Tuple[Poly2, ...]:
    """Nullspace basis of the constraint rows, in reduced echelon order."""
    space = system.space
    pivot_set = set(system.pivots)
    free_cols = [col for col in range(space.dimension) if col not in pivot_set]
    indices = space.indices()
    basis = []
    for free in free_cols:
        coeffs: Dict[Tuple[int, int], Fraction] = {indices[free]: Fraction(1)}
        for row, pivot_col in zip(system.reduced, system.pivots):
            if row[free] != 0:
                coeffs[indices[pivot_col]] = -row[free]
        basis.append(Poly2(coeffs))
    return tuple(basis)


def check_membership(system: ConstraintSystem, z: Poly2) -> Tuple[bool, Tuple[str, ...]]:
    """Evaluate every labelled condition on z; report the violated ones."""
    if not isinstance(z, Poly2):
        raise ValueError("the field must be a scalar polynomial")
    if not system.space.contains_poly(z):
        raise ValueError("field has support outside the coefficient space")
    vector = [z.coeff(j, k) for j, k in system.space.indices()]
    violated = []
    for label, row in zip(system.labels, system.rows):
        residual = sum((a * b for a, b in zip(row, vector)), _F0)
        if residual != 0:
            violated.append(label)
    return (not violated, tuple(violated))
