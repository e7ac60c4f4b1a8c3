"""Sparse bivariate polynomials with exact rational coefficients.

Polynomials live on the parameter square in the variables (u, v).  A
``Poly2`` is scalar: a term is an exponent pair (j, k) mapped to a rational
coefficient.  All arithmetic is exact (``fractions.Fraction``); coefficients
are kept in canonical form and zero coefficients are never stored, so
structural equality of the term dictionaries is semantic equality.  A vector
of polynomials, such as a geometry map (x1, x2) or the entries of a
derivative quotient, is a ``PolyVec`` of scalar entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, int]
ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value: ScalarLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise ValueError(f"coefficient entries must be int or Fraction, got {value!r}")


@dataclass(frozen=True)
class Poly2:
    """A sparse bivariate polynomial with rational coefficients."""

    terms: Mapping[Exponent, Fraction]

    def __post_init__(self) -> None:
        clean: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            j, k = expo
            if not (_is_int(j) and _is_int(k)) or j < 0 or k < 0:
                raise ValueError(f"exponents must be non-negative integers, got {expo!r}")
            value = _as_fraction(coeff)
            if value:
                clean[(j, k)] = value
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    @classmethod
    def constant(cls, value: ScalarLike) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, j: int, k: int, coeff: ScalarLike = 1) -> "Poly2":
        return cls({(j, k): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, j: int, k: int) -> Fraction:
        return self.terms.get((j, k), _ZERO)

    @property
    def max_degree_u(self) -> int:
        return max((j for j, _ in self.terms), default=0)

    @property
    def max_degree_v(self) -> int:
        return max((k for _, k in self.terms), default=0)

    @property
    def total_degree(self) -> int:
        return max((j + k for j, k in self.terms), default=0)

    def filter_terms(self, keep: Callable[[int, int], bool]) -> "Poly2":
        return Poly2({e: c for e, c in self.terms.items() if keep(*e)})

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "Poly2 | None":
        if isinstance(other, Poly2):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly2.constant(other)
        return None

    def __add__(self, other: object) -> "Poly2":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, value in rhs.terms.items():
            terms[expo] = terms.get(expo, _ZERO) + value
        return Poly2(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> "Poly2":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Poly2":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: object) -> "Poly2":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms: dict[Exponent, Fraction] = {}
        for (j1, k1), a in self.terms.items():
            for (j2, k2), b in rhs.terms.items():
                expo = (j1 + j2, k1 + k2)
                terms[expo] = terms.get(expo, _ZERO) + a * b
        return Poly2(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not _is_int(exponent) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Poly2.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def diff(self, var: int) -> "Poly2":
        """Partial derivative with respect to u (var=1) or v (var=2)."""
        if var not in (1, 2):
            raise ValueError(f"var must be 1 (u) or 2 (v), got {var!r}")
        terms: dict[Exponent, Fraction] = {}
        for (j, k), value in self.terms.items():
            if var == 1 and j > 0:
                terms[(j - 1, k)] = j * value
            elif var == 2 and k > 0:
                terms[(j, k - 1)] = k * value
        return Poly2(terms)

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != 2:
            raise ValueError("evaluation point must be a pair (u, v)")
        u, v = (_as_fraction(c) for c in point)
        total = _ZERO
        for (j, k), value in self.terms.items():
            total += value * (u**j * v**k)
        return total

    def __call__(self, u: ScalarLike, v: ScalarLike) -> Fraction:
        return self.eval((u, v))

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for (j, k), value in self.sorted_terms():
            mono = "*".join(
                ([f"u^{j}" if j > 1 else "u"] if j else [])
                + ([f"v^{k}" if k > 1 else "v"] if k else [])
            )
            if not mono:
                pieces.append(str(value))
            elif value == 1:
                pieces.append(mono)
            elif value == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{value}*{mono}")
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")


#: The coordinate polynomials, handy for building test data: U**2 + U*V**2 etc.
U = Poly2.monomial(1, 0)
V = Poly2.monomial(0, 1)


@dataclass(frozen=True)
class PolyVec:
    """A vector of scalar polynomials, read term by term: the coefficient at
    an exponent is the tuple of the entries' coefficients there."""

    entries: Tuple[Poly2, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries or not all(isinstance(entry, Poly2) for entry in entries):
            raise ValueError("a PolyVec needs one or more scalar polynomials")
        object.__setattr__(self, "entries", entries)

    @property
    def terms(self) -> Dict[Exponent, Tuple[Fraction, ...]]:
        """Exponent -> entry coefficients, over every exponent some entry carries."""
        exponents = dict.fromkeys(e for entry in self.entries for e in entry.terms)
        return {e: self.coeff(*e) for e in exponents}

    @property
    def is_zero(self) -> bool:
        return all(entry.is_zero for entry in self.entries)

    def coeff(self, j: int, k: int) -> Tuple[Fraction, ...]:
        return tuple(entry.coeff(j, k) for entry in self.entries)

    def filter_terms(self, keep: Callable[[int, int], bool]) -> "PolyVec":
        return PolyVec(tuple(entry.filter_terms(keep) for entry in self.entries))

    def sorted_terms(self) -> list[tuple[Exponent, Tuple[Fraction, ...]]]:
        return sorted(self.terms.items())


def vec2(first: Poly2, second: Poly2) -> PolyVec:
    """An R^2-valued polynomial from its two scalar entries."""
    return PolyVec((first, second))


@dataclass(frozen=True)
class PolyMat2:
    """A 2x2 matrix of scalar polynomials, stored row-major."""

    entries: Tuple[Tuple[Poly2, Poly2], Tuple[Poly2, Poly2]]

    def __post_init__(self) -> None:
        if len(self.entries) != 2 or any(len(row) != 2 for row in self.entries):
            raise ValueError("PolyMat2 requires a 2x2 grid of entries")
        for row in self.entries:
            for entry in row:
                if not isinstance(entry, Poly2):
                    raise ValueError("matrix entries must be scalar polynomials")

    def __getitem__(self, index: Tuple[int, int]) -> Poly2:
        i, j = index
        return self.entries[i][j]


def mat2(a: Poly2, b: Poly2, c: Poly2, d: Poly2) -> PolyMat2:
    """Build [[a, b], [c, d]]."""
    return PolyMat2(((a, b), (c, d)))


def det2(matrix: PolyMat2) -> Poly2:
    m = matrix.entries
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def adjugate2(matrix: PolyMat2) -> PolyMat2:
    m = matrix.entries
    return mat2(m[1][1], -m[0][1], -m[1][0], m[0][0])
