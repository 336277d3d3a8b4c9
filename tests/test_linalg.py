from fractions import Fraction

import pytest

from splitalg.linalg import (
    DimensionMismatch,
    basis_vector,
    frac,
    rref,
    span,
    vector,
    zero_vector,
)

from oracle import project


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span([vector([1])], 2)
    with pytest.raises(DimensionMismatch):
        span([vector([1, 0])], 2).reduce(vector([1]))


def test_rref_exact():
    rows = [vector([2, 4, 6]), vector([1, 2, 4])]
    reduced, pivots = rref(rows)
    assert pivots == (0, 2)
    assert reduced[0] == vector([1, 2, 0])
    assert reduced[1] == vector([0, 0, 1])


def test_rref_fractions_stay_exact():
    rows = [vector([Fraction(1, 3), Fraction(1, 7)])]
    reduced, pivots = rref(rows)
    assert reduced[0] == vector([1, Fraction(3, 7)])
    assert pivots == (0,)


def test_span_membership_and_reduce():
    s = span([vector([1, 1, 0]), vector([0, 1, 1])], 3)
    assert s.dim == 2
    assert s.reduce(vector([1, 2, 1])) == zero_vector(3)
    assert any(s.reduce(vector([0, 0, 1])))
    assert any(s.reduce(vector([1, 0, 0])))


def test_complement_and_project():
    """Coset coordinates: reduce modulo the span, read the non-pivot
    columns (`oracle.project`)."""
    s = span([vector([1, 0, 2])], 3)
    assert s.complement_indices() == (1, 2)
    # e0 = (1,0,2) mod the subspace, so its coset is -2*e2-coset... projected
    # coordinates live on indices 1 and 2.
    p = project(s, basis_vector(3, 0))
    assert len(p) == 2
    # projecting a subspace element gives zero
    assert project(s, vector([2, 0, 4])) == (Fraction(0), Fraction(0))
    # projection is linear: p(u+v) = p(u)+p(v)
    u, v = vector([1, 2, 3]), vector([-1, 5, 0])
    add = lambda p, q: tuple(a + b for a, b in zip(p, q, strict=True))
    assert project(s, add(u, v)) == add(project(s, u), project(s, v))


def test_span_of_nothing():
    s = span([], 4)
    assert s.dim == 0
    assert s.complement_indices() == (0, 1, 2, 3)
    assert s.reduce(zero_vector(4)) == zero_vector(4)
    assert s.reduce(basis_vector(4, 2)) == basis_vector(4, 2)


def test_frac_parses():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(5) == Fraction(5)
