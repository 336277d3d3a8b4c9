"""Exact rational linear algebra: RREF, spans, reduction modulo a span.

Everything here works over exact Fractions; there is deliberately no
floating-point path anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Raised when vector/matrix dimensions do not line up."""


def frac(x) -> Fraction:
    """x as an exact Fraction, from an int, a Fraction or a "p/q" string.  A
    float is refused: its binary value is rarely the number that was meant."""
    if isinstance(x, float):
        raise TypeError(f"refusing the float {x!r}: give an int, a Fraction or a 'p/q' string")
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    v = tuple(entries)
    for e in v:
        if type(e) is not Fraction:
            return tuple(map(frac, v))
    return v


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a - b for a, b in zip(u, v))


def rref(rows: Sequence[Sequence]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row-echelon form with exact arithmetic.

    Returns (rref_rows, pivot_columns); the input is not modified.  The
    output keeps the shape of the input (zero rows stay at the bottom).
    """
    m = [[frac(e) for e in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


class Subspace:
    """A subspace of K^n held as a canonical RREF basis.

    The representation is deterministic: two equal subspaces always
    produce identical basis rows and pivot columns.
    """

    def __init__(self, ambient_dim: int, basis: Sequence[Vector], pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis: tuple[Vector, ...] = tuple(vector(b) for b in basis)
        self.pivots: tuple[int, ...] = tuple(pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"

    def reduce(self, v: Vector) -> Vector:
        """Subtract the unique span element matching v on the pivot columns."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} vs ambient dimension {self.ambient_dim}"
            )
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f != 0:
                for j in range(self.ambient_dim):
                    w[j] -= f * row[j]
        return tuple(w)

    def complement_indices(self) -> tuple[int, ...]:
        pivot_set = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivot_set)

def span(vectors: Sequence[Vector], ambient_dim: int) -> Subspace:
    """Canonical RREF basis of the linear span of the given vectors."""
    vectors = [vector(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} vs ambient dimension {ambient_dim}"
            )
    if not vectors:
        return Subspace(ambient_dim, [], [])
    reduced, pivots = rref(vectors)
    return Subspace(ambient_dim, [tuple(r) for r in reduced[: len(pivots)]], pivots)
