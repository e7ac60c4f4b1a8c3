"""Sparse bivariate polynomials with exact rational coefficients.

Polynomials live on the parameter square in the variables (u, v) and carry
vector coefficients of a fixed dimension ``dim``: a term is an exponent pair
(j, k) mapped to a coefficient vector in Q^dim.  Scalar polynomials are the
special case ``dim == 1``.  All arithmetic is exact (``fractions.Fraction``);
coefficients are kept in canonical form and zero coefficient vectors are never
stored, so structural equality of the term dictionaries is semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, int]
ScalarLike = Union[int, Fraction]
CoeffLike = Union[int, Fraction, Sequence[ScalarLike]]

_ZERO = Fraction(0)


def _as_fraction(value: ScalarLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"coefficient entries must be int or Fraction, got {value!r}")


def _as_vector(value: CoeffLike, dim: int) -> Tuple[Fraction, ...]:
    if isinstance(value, (int, Fraction)):
        if dim != 1:
            raise ValueError(f"scalar coefficient given for dim {dim}")
        return (_as_fraction(value),)
    vec = tuple(_as_fraction(entry) for entry in value)
    if len(vec) != dim:
        raise ValueError(f"coefficient vector of length {len(vec)}, expected {dim}")
    return vec


@dataclass(frozen=True)
class Poly2:
    """A sparse bivariate polynomial with coefficients in Q^dim."""

    dim: int
    terms: Mapping[Exponent, Tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        clean: dict[Exponent, Tuple[Fraction, ...]] = {}
        for expo, coeff in self.terms.items():
            j, k = expo
            if not (isinstance(j, int) and isinstance(k, int)) or j < 0 or k < 0:
                raise ValueError(f"exponents must be non-negative integers, got {expo!r}")
            vec = _as_vector(coeff, self.dim)
            if any(entry != 0 for entry in vec):
                clean[(j, k)] = vec
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int = 1) -> "Poly2":
        return cls(dim, {})

    @classmethod
    def constant(cls, value: CoeffLike, dim: int = 1) -> "Poly2":
        return cls(dim, {(0, 0): _as_vector(value, dim)})

    @classmethod
    def monomial(cls, j: int, k: int, coeff: CoeffLike = 1, dim: int = 1) -> "Poly2":
        return cls(dim, {(j, k): _as_vector(coeff, dim)})

    @classmethod
    def from_components(cls, components: Sequence["Poly2"]) -> "Poly2":
        """Pack scalar polynomials into one vector-valued polynomial."""
        if not components:
            raise ValueError("need at least one component")
        if any(comp.dim != 1 for comp in components):
            raise ValueError("components must be scalar polynomials")
        dim = len(components)
        terms: dict[Exponent, list[Fraction]] = {}
        for index, comp in enumerate(components):
            for expo, (value,) in comp.terms.items():
                terms.setdefault(expo, [_ZERO] * dim)[index] = value
        return cls(dim, {expo: tuple(vec) for expo, vec in terms.items()})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, j: int, k: int) -> Union[Fraction, Tuple[Fraction, ...]]:
        vec = self.terms.get((j, k), (_ZERO,) * self.dim)
        return vec[0] if self.dim == 1 else vec

    def component(self, index: int) -> "Poly2":
        if not 0 <= index < self.dim:
            raise ValueError(f"component {index} out of range for dim {self.dim}")
        return Poly2(1, {expo: (vec[index],) for expo, vec in self.terms.items()})

    def components(self) -> Tuple["Poly2", ...]:
        return tuple(self.component(i) for i in range(self.dim))

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
        return Poly2(self.dim, {e: c for e, c in self.terms.items() if keep(*e)})

    def sorted_terms(self) -> list[tuple[Exponent, Tuple[Fraction, ...]]]:
        return sorted(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "Poly2 | None":
        if isinstance(other, Poly2):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly2.constant(other, dim=1)
        return None

    def __add__(self, other: object) -> "Poly2":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.dim != rhs.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {rhs.dim}")
        terms = {expo: list(vec) for expo, vec in self.terms.items()}
        for expo, vec in rhs.terms.items():
            if expo in terms:
                terms[expo] = [a + b for a, b in zip(terms[expo], vec)]
            else:
                terms[expo] = list(vec)
        return Poly2(self.dim, {e: tuple(v) for e, v in terms.items()})

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2(self.dim, {e: tuple(-x for x in v) for e, v in self.terms.items()})

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
        if self.dim != 1 and rhs.dim != 1:
            raise ValueError("at least one factor of a product must be scalar")
        scalar, vector = (self, rhs) if self.dim == 1 else (rhs, self)
        dim = vector.dim
        terms: dict[Exponent, list[Fraction]] = {}
        for (j1, k1), (s,) in scalar.terms.items():
            for (j2, k2), vec in vector.terms.items():
                expo = (j1 + j2, k1 + k2)
                acc = terms.setdefault(expo, [_ZERO] * dim)
                for index, entry in enumerate(vec):
                    acc[index] += s * entry
        return Poly2(dim, {e: tuple(v) for e, v in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if self.dim != 1:
            raise ValueError("powers are defined for scalar polynomials only")
        if not isinstance(exponent, int) or exponent < 0:
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
        terms: dict[Exponent, Tuple[Fraction, ...]] = {}
        for (j, k), vec in self.terms.items():
            if var == 1 and j > 0:
                terms[(j - 1, k)] = tuple(j * entry for entry in vec)
            elif var == 2 and k > 0:
                terms[(j, k - 1)] = tuple(k * entry for entry in vec)
        return Poly2(self.dim, terms)

    def eval(self, point: Sequence[ScalarLike]) -> Union[Fraction, Tuple[Fraction, ...]]:
        """Exact evaluation at a rational point; scalar polynomials give a Fraction."""
        if len(point) != 2:
            raise ValueError("evaluation point must be a pair (u, v)")
        u = _as_fraction(point[0]) if not isinstance(point[0], Fraction) else point[0]
        v = _as_fraction(point[1]) if not isinstance(point[1], Fraction) else point[1]
        total = [_ZERO] * self.dim
        for (j, k), vec in self.terms.items():
            factor = u**j * v**k
            for index, entry in enumerate(vec):
                total[index] += entry * factor
        return total[0] if self.dim == 1 else tuple(total)

    def __call__(self, u: ScalarLike, v: ScalarLike) -> Union[Fraction, Tuple[Fraction, ...]]:
        return self.eval((u, v))

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.dim > 1:
            return "(" + ", ".join(str(c) for c in self.components()) + ")"
        pieces = []
        for (j, k), (value,) in self.sorted_terms():
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


def vec2(first: Poly2, second: Poly2) -> Poly2:
    """Pack two scalar polynomials into an R^2-valued polynomial."""
    return Poly2.from_components([first, second])


@dataclass(frozen=True)
class PolyMat2:
    """A 2x2 matrix of scalar polynomials, stored row-major."""

    entries: Tuple[Tuple[Poly2, Poly2], Tuple[Poly2, Poly2]]

    def __post_init__(self) -> None:
        if len(self.entries) != 2 or any(len(row) != 2 for row in self.entries):
            raise ValueError("PolyMat2 requires a 2x2 grid of entries")
        for row in self.entries:
            for entry in row:
                if entry.dim != 1:
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

