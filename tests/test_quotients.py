from fractions import Fraction

import pytest

from splitalg.constructions import induced_quadri, induced_six
from splitalg.identities import QUADRI_TO_DENDRIFORM_COLLAPSE, check
from splitalg.linalg import basis_vector, span
from splitalg.model import (
    Algebra,
    BilinearOp,
    SpecError,
    dendriform_to_quadri,
    evaluate,
)
from splitalg.operators import (
    check_dend_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
)
from splitalg.quotients import (
    Ideal,
    QuotientError,
    embed_averaging,
    ideal_generated,
    quadri_to_relative_setup,
    quotient_algebra,
    six_to_homomorphic_setup,
    splitting_ideal,
)
from splitalg.samples import truncated_polynomial_algebra


def test_ideal_generated_saturates(poly):
    n = poly.dimension
    # the ideal generated by x^2 in the truncated polynomials is (x^2, x^3, x^4)
    ideal = ideal_generated(poly, [basis_vector(n, 1)])
    assert ideal.subspace.dim == 3
    assert ideal.is_closed()
    assert ideal.subspace.contains(basis_vector(n, 3))
    assert not ideal.subspace.contains(basis_vector(n, 0))


def test_ideal_closure_witness(poly):
    n = poly.dimension
    not_an_ideal = Ideal(poly, span([basis_vector(n, 0)], n))
    witness = not_an_ideal.closure_witness()
    assert witness is not None
    assert not not_an_ideal.is_closed()


def test_splitting_ideal_zero_on_promoted(dend):
    q = dendriform_to_quadri(dend)
    assert splitting_ideal(q).subspace.dim == 0


def test_splitting_ideal_requires_split_signature(dend):
    with pytest.raises(SpecError):
        splitting_ideal(dend)


def test_quotient_round_trip(quadri):
    ideal = splitting_ideal(quadri)
    assert ideal.is_closed()
    quotient, proj = quotient_algebra(
        quadri, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE, signature="dendriform"
    )
    assert quotient.dimension == quadri.dimension - ideal.subspace.dim
    assert check(quotient, "dendriform").ok
    # projection is surjective and a homomorphism onto the quotient
    assert proj.rank() == quotient.dimension

    rep, proj2 = quadri_to_relative_setup(quadri)
    assert proj2 == proj
    assert check(rep, "dend-representation").ok
    assert check_relative_averaging(rep, proj2).ok
    # the induced quadri structure reproduces the original tensors exactly
    back = induced_quadri(rep, proj2)
    assert back.same_tensors(quadri.with_signature("quadri", {o: o for o in quadri.operations}))
    for opname in quadri.operations:
        assert back.op(opname) == quadri.op(opname)


def test_quotient_round_trip_nontrivial(dend):
    """Same round trip on a quadri algebra whose splitting ideal is not
    zero (induced by the dual-extension projection)."""
    from splitalg.constructions import dual_extension

    act, proj = dual_extension(dend)
    q = induced_quadri(act.representation, proj)
    ideal = splitting_ideal(q)
    assert ideal.subspace.dim > 0
    rep, proj2 = quadri_to_relative_setup(q)
    assert check(rep.base, "dendriform").ok
    assert check_relative_averaging(rep, proj2).ok
    back = induced_quadri(rep, proj2)
    for opname in q.operations:
        assert back.op(opname) == q.op(opname)


def test_quotient_rejects_non_ideal(poly):
    n = poly.dimension
    bad = Ideal(poly, span([basis_vector(n, 0)], n))
    with pytest.raises(QuotientError):
        quotient_algebra(poly, bad, {"mul": "mul"}, signature="associative")


def test_quotient_rejects_ideal_of_another_dimension(poly):
    """An ideal of an algebra of another dimension is refused as input."""
    other = truncated_polynomial_algebra(3)
    with pytest.raises(SpecError):
        quotient_algebra(poly, Ideal(other, span([], 3)), {"mul": "mul"}, signature="associative")


def test_quotient_rejects_ill_defined_collapse(poly):
    """Merging two operations that disagree modulo the ideal must fail."""
    n = poly.dimension
    zero = BilinearOp.zero(n, n, n)
    two_ops = Algebra(n, "raw", {"a": poly.op("mul"), "b": zero})
    ideal = ideal_generated(two_ops, [basis_vector(n, 1)])
    # mul and zero differ by x*x = x^2 which lies in the ideal, so collapsing
    # works there; quotient by the zero ideal must refuse instead
    zero_ideal = Ideal(two_ops, span([], n))
    with pytest.raises(QuotientError):
        quotient_algebra(two_ops, zero_ideal, {"a": "m", "b": "m"}, signature="raw")


def test_embed_averaging(quadri):
    ambient, averaging, inclusion = embed_averaging(quadri)
    n = quadri.dimension
    assert check(ambient, "dendriform").ok
    assert check_dend_averaging(ambient, averaging).ok
    # the inclusion is injective
    assert inclusion.rank() == n
    # reproduction of the four operations through the averaging formulas:
    # inc(x op_vdash y) = T(inc x) * inc(y), inc(x op_dashv y) = inc(x) * T(inc y)
    pairs = {
        "prec_vdash": ("prec", True),
        "succ_vdash": ("succ", True),
        "prec_dashv": ("prec", False),
        "succ_dashv": ("succ", False),
    }
    for opname, (amb_op, left_twist) in pairs.items():
        for i in range(n):
            for j in range(n):
                xi, yj = inclusion.column(i), inclusion.column(j)
                if left_twist:
                    expected = evaluate(ambient.op(amb_op), averaging.apply(xi), yj)
                else:
                    expected = evaluate(ambient.op(amb_op), xi, averaging.apply(yj))
                got = inclusion.apply(quadri.op(opname).coeffs[i][j])
                assert got == expected, (opname, i, j)


def test_six_round_trip(six):
    act, proj = six_to_homomorphic_setup(six)
    assert check(act, "dend-action").ok
    assert check_homomorphic_relative(act, proj).ok
    back = induced_six(act, proj)
    for opname in six.operations:
        assert back.op(opname) == six.op(opname)


def test_six_setup_rejects_bad_perp():
    """A six-shaped tensor collection whose perp pair is not dendriform
    must be refused before any quotient is attempted."""
    one = BilinearOp(1, 1, 1, [[[Fraction(1)]]])
    zero = BilinearOp.zero(1, 1, 1)
    ops = {name: zero for name in
           ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")}
    # e prec_perp e = e succ_perp e = e violates the dendriform axioms
    ops["prec_perp"] = one
    ops["succ_perp"] = one
    fake = Algebra(1, "six", ops)
    with pytest.raises(QuotientError):
        six_to_homomorphic_setup(fake)
