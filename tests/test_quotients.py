from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.constructions import PreconditionFailure, dual_extension, induced_quadri, induced_six
from splitalg.documents import parse_document
from splitalg.identities import QUADRI_TO_DENDRIFORM_COLLAPSE, check
from splitalg.linalg import basis_vector, span
from splitalg.model import (
    SIGNATURE_OPS,
    Algebra,
    BilinearOp,
    LinearMap,
    SpecError,
    adjoint_representation,
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
    half,
    perp_dendriform_part,
    quadri_part,
)
from splitalg.operators import (
    check_dend_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
)
from splitalg.quotients import (
    Ideal,
    QuotientError,
    dendriform_quotient,
    embed_averaging,
    ideal_generated,
    quadri_to_relative_setup,
    quotient_algebra,
    six_to_homomorphic_setup,
    splitting_ideal,
)
from splitalg.samples import truncated_polynomial_algebra

from conftest import random_quadri
from oracle import project
from test_engine import DIMS, SCALARS, algebras, tensors


def test_ideal_generated_saturates(poly):
    n = poly.dimension
    # the ideal generated by x^2 in the truncated polynomials is (x^2, x^3, x^4)
    ideal = ideal_generated(poly, [basis_vector(n, 1)])
    assert ideal.subspace.dim == 3
    assert ideal.closure_witness() is None
    assert not any(ideal.subspace.reduce(basis_vector(n, 3)))
    assert any(ideal.subspace.reduce(basis_vector(n, 0)))


def test_ideal_closure_witness(poly):
    n = poly.dimension
    not_an_ideal = Ideal(poly, span([basis_vector(n, 0)], n))
    assert not_an_ideal.closure_witness() is not None


def test_splitting_ideal_zero_on_promoted(dend):
    q = dendriform_to_quadri(dend)
    assert splitting_ideal(q).subspace.dim == 0
    # on the six promotion too: the quotient is d itself by the identity
    s = dendriform_to_six(dend)
    assert splitting_ideal(s).subspace.dim == 0
    base, projection = dendriform_quotient(s)
    assert (base.op("prec"), base.op("succ")) == (dend.op("prec"), dend.op("succ"))
    assert projection == LinearMap.identity(dend.dimension)


def test_splitting_ideal_requires_split_signature(dend):
    """One line for an algebra of another signature and for a module, which
    has no signature to compare."""
    for obj in (dend, adjoint_representation(dend)):
        with pytest.raises(SpecError) as exc:
            splitting_ideal(obj)
        assert str(exc.value) == "splitting ideal needs a quadri or six algebra"


def test_quotient_round_trip(quadri):
    ideal = splitting_ideal(quadri)
    assert ideal.closure_witness() is None
    quotient, proj = quotient_algebra(quadri, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE)
    assert quotient.signature == "dendriform"
    assert quotient.dimension == quadri.dimension - ideal.subspace.dim
    assert check(quotient, "dendriform").ok
    # projection is surjective and a homomorphism onto the quotient
    assert span(proj.matrix, quadri.dimension).dim == quotient.dimension

    rep, proj2 = quadri_to_relative_setup(quadri)
    assert proj2 == proj
    assert check(rep, "dend-representation").ok
    assert check_relative_averaging(rep, proj2).ok
    # the induced quadri structure reproduces the original tensors exactly
    back = induced_quadri(rep, proj2)
    assert (back.dimension, back.operations) == (quadri.dimension, quadri.operations)


def test_quotient_round_trip_nontrivial(dend):
    """Same round trip on a quadri algebra whose splitting ideal is not
    zero (induced by the dual-extension projection)."""
    from splitalg.constructions import dual_extension

    act, proj = dual_extension(dend)
    q = induced_quadri(act, proj)
    ideal = splitting_ideal(q)
    assert ideal.subspace.dim > 0
    rep, proj2 = quadri_to_relative_setup(q)
    assert check(rep.base, "dendriform").ok
    assert check_relative_averaging(rep, proj2).ok
    back = induced_quadri(rep, proj2)
    for opname in q.operations:
        assert back.op(opname) == q.op(opname)


def test_quotient_context_built_once_per_subspace(monkeypatch):
    """The converse theorem builds the quotient context of the final
    subspace once: the ideal keeps it from its last saturation round for
    the closure check, the quotient tensors and the actions."""
    from splitalg import quotients
    from splitalg.constructions import hemisemidirect
    from splitalg.model import adjoint_representation
    from splitalg.samples import truncated_polynomial_dendriform

    q = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(3)))
    final = splitting_ideal(q).subspace.basis
    built = []
    context = quotients._context
    monkeypatch.setattr(quotients, "_context", lambda a, sub: built.append(sub.basis) or context(a, sub))
    quadri_to_relative_setup(q)
    assert built.count(final) == 1


def test_quotient_rejects_non_ideal(poly):
    n = poly.dimension
    bad = Ideal(poly, span([basis_vector(n, 0)], n))
    with pytest.raises(QuotientError):
        quotient_algebra(poly, bad, {"mul": "mul"})


def test_a_saturated_ideal_is_scanned_for_closure_once(monkeypatch):
    """The closure scan of the ideal splitting_ideal returns is its last
    saturation round: quotient_algebra runs no scan of its own on it, and
    one on a new Ideal of the same subspace."""
    from splitalg import quotients
    from splitalg.constructions import hemisemidirect
    from splitalg.model import adjoint_representation
    from splitalg.samples import truncated_polynomial_dendriform

    scans = []
    failures = quotients._failures
    monkeypatch.setattr(quotients, "_failures", lambda ctx, sorts, groups: scans.append(sorts) or failures(ctx, sorts, groups))
    q = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(2)))
    ideal = splitting_ideal(q)
    rounds = scans.count(("I", "A"))
    assert rounds >= 1
    base, projection = quotient_algebra(q, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE)
    assert scans.count(("I", "A")) == rounds
    again, again_projection = quotient_algebra(q, Ideal(q, ideal.subspace), QUADRI_TO_DENDRIFORM_COLLAPSE)
    assert scans.count(("I", "A")) == rounds + 1
    assert (again.operations, again_projection) == (base.operations, projection)


@pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "escapes read"])
def test_quotient_refuses_an_unsaturated_ideal_with_its_witness(poly, read_first):
    """An Ideal that is not closed is refused with its first escape, whether
    or not its escapes were read before: the scan is kept, not skipped."""
    n = poly.dimension
    bad = Ideal(poly, span([basis_vector(n, 0)], n))
    if read_first:
        assert bad.escapes
    with pytest.raises(QuotientError) as exc:
        quotient_algebra(poly, bad, {"mul": "mul"})
    assert exc.value.witness == bad.closure_witness() == ("mul", 0, 0, "left")
    assert str(exc.value) == "not an ideal: operation 'mul' escapes the subspace at ideal basis 0, ambient basis 0 (left)"


def test_quotient_rejects_ideal_of_another_dimension(poly):
    """An ideal of an algebra of another dimension is refused as input."""
    other = truncated_polynomial_algebra(3)
    with pytest.raises(SpecError):
        quotient_algebra(poly, Ideal(other, span([], 3)), {"mul": "mul"})


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
        quotient_algebra(two_ops, zero_ideal, {"a": "m", "b": "m"})


def test_quotient_signature_is_the_one_of_the_collapse_targets(poly):
    """The quotient takes the signature whose operations are exactly the
    collapse's targets, else raw."""
    n = poly.dimension
    ideal = ideal_generated(poly, [basis_vector(n, n - 1)])
    assert quotient_algebra(poly, ideal, {"mul": "mul"})[0].signature == "associative"
    assert quotient_algebra(poly, ideal, {"mul": "m"})[0].signature == "raw"
    pair = Algebra(n, "raw", {"a": poly.op("mul"), "b": poly.op("mul")})
    assert quotient_algebra(pair, ideal_generated(pair, []), {"a": "prec", "b": "succ"})[0].signature == "dendriform"
    assert quotient_algebra(pair, ideal_generated(pair, []), {"a": "prec"})[0].signature == "raw"


def test_embed_averaging(quadri):
    ambient, averaging, inclusion = embed_averaging(quadri)
    n = quadri.dimension
    assert check(ambient, "dendriform").ok
    assert check_dend_averaging(ambient, averaging).ok
    # the inclusion is injective
    assert span(inclusion.matrix, n).dim == n
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


def _block_embedding(q):
    """embed_averaging's maps written as blocks on quotient + original
    space, quotient first: the averaging operator (xbar, y) -> (ybar, 0)
    and the inclusion x -> (0, x)."""
    rep, projection = quadri_to_relative_setup(q)
    r, n = rep.base.dimension, q.dimension
    total = r + n
    averaging = LinearMap(total, total, [*([0] * r + list(row) for row in projection.matrix), *[[0] * total] * n])
    inclusion = LinearMap(n, total, [*[[0] * n] * r, *LinearMap.identity(n).matrix])
    return averaging, inclusion


# name -> the quadri algebra, from the session fixtures
QUADRI_INPUTS = {
    "quadri fixture": lambda get: get("quadri"),
    "recipe document": lambda get: parse_document(Path(get("recipe_doc_path")).read_text()).algebras["quadri"],
    "promoted dendriform": lambda get: dendriform_to_quadri(get("dend")),
    "induced by the dual extension": lambda get: induced_quadri(*dual_extension(get("dend"))),
    "quadri part of the six fixture": lambda get: quadri_part(get("six")),
}


@pytest.mark.parametrize("name", QUADRI_INPUTS)
def test_embed_averaging_maps_are_the_block_maps(name, request):
    """The embedding's maps, tabulated in the product's context, are the
    block matrices that place the quotient before the original space."""
    q = QUADRI_INPUTS[name](request.getfixturevalue)
    assert check(q, "quadri").ok
    ambient, averaging, inclusion = embed_averaging(q)
    assert (averaging, inclusion) == _block_embedding(q)
    assert ambient.dimension == averaging.source_dim


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
    with pytest.raises(PreconditionFailure, match="input is not a six algebra") as exc:
        six_to_homomorphic_setup(fake)
    identities = [v.identity for v in exc.value.verdict.violations]
    assert identities and all(i.startswith("dend.") for i in identities)


def test_quadri_setup_rejects_non_quadri():
    """The converse theorem assumes the quadri axioms; an algebra of quadri
    signature that fails them is refused with the failing verdict."""
    q = random_quadri(0)
    assert not check(q, "quadri").ok
    with pytest.raises(PreconditionFailure) as exc:
        quadri_to_relative_setup(q)
    assert exc.value.verdict.render() == check(q, "quadri").render()
    with pytest.raises(PreconditionFailure):
        embed_averaging(q)


def _six(n: int, **entries) -> Algebra:
    """A six-signature algebra whose operations are zero except the given
    {operation: {(i, j): k}} products e_i * e_j = e_k."""
    ops = {}
    for name in SIGNATURE_OPS["six"]:
        table = entries.get(name, {})
        ops[name] = BilinearOp.build(
            n, n, n, lambda i, j, t=table: basis_vector(n, t[i, j]) if (i, j) in t else (Fraction(0),) * n
        )
    return Algebra(n, "six", ops)


def test_six_setup_rejects_non_six():
    """The perp pair is zero (so dendriform) and the quadri part, whose only
    non-zero products are e succ_dashv e = e succ_vdash e = e, is quadri; but
    the six chains succ_vdash(succ_perp) = succ_vdash(succ_vdash) and
    succ_dashv(succ_perp) = succ_dashv(succ_vdash) fail, so the compatibility
    axioms alone refuse it."""
    s = _six(1, succ_dashv={(0, 0): 0}, succ_vdash={(0, 0): 0})
    assert check(perp_dendriform_part(s), "dendriform").ok
    assert check(quadri_part(s), "quadri").ok
    with pytest.raises(PreconditionFailure, match="not a six algebra") as exc:
        six_to_homomorphic_setup(s)
    assert [(v.identity, v.witness) for v in exc.value.verdict.violations] == [
        ("six.2.4a", (0, 0, 0)), ("six.3.4a", (0, 0, 0))]


def test_six_setup_rejects_non_quadri_part():
    """Six axioms hold (every product of a prec_vdash value is zero), but the
    quadri part fails quadri.1b at (e0, e0, e1)."""
    s = _six(2, prec_vdash={(0, 1): 1})
    assert check(s, "six").ok
    with pytest.raises(PreconditionFailure, match="input is not a six algebra") as exc:
        six_to_homomorphic_setup(s)
    assert [v.identity for v in exc.value.verdict.violations] == ["quadri.1b"]
    assert exc.value.verdict.violations[0].witness == (0, 0, 1)


# ----------------------------------------------------------------------
# The quotient code against the plain Fraction loops it replaced, on
# generated raw algebras: products by model.evaluate, membership by a zero
# Subspace.reduce and coset coordinates by oracle.project.

def reference_products(a, vectors):
    """((op, vector index, basis index, side), product), in the order of
    the closure witness."""
    n = a.dimension
    for opname in sorted(a.operations):
        op = a.op(opname)
        for bi, b in enumerate(vectors):
            for i in range(n):
                e = basis_vector(n, i)
                yield (opname, bi, i, "left"), evaluate(op, b, e)
                yield (opname, bi, i, "right"), evaluate(op, e, b)


def reference_closure_witness(a, sub):
    for witness, product in reference_products(a, sub.basis):
        if any(sub.reduce(product)):
            return witness
    return None


def reference_ideal_generated(a, generators):
    n = a.dimension
    current = span(list(generators), n)
    while True:
        bigger = span([*current.basis, *(p for _, p in reference_products(a, current.basis))], n)
        if bigger.dim == current.dim:
            return current
        current = bigger


def reference_quotient(a, sub, collapse, signature):
    witness = reference_closure_witness(a, sub)
    if witness is not None:
        raise QuotientError(
            f"not an ideal: operation {witness[0]!r} escapes the subspace "
            f"at ideal basis {witness[1]}, ambient basis {witness[2]} ({witness[3]})",
            witness,
        )
    n = a.dimension
    complement = sub.complement_indices()
    qdim = len(complement)
    preimages = {}
    for src, dst in collapse.items():
        preimages.setdefault(dst, []).append(src)
    for dst, srcs in sorted(preimages.items()):
        srcs = sorted(srcs)
        first = a.op(srcs[0])
        for other_name in srcs[1:]:
            other = a.op(other_name)
            for i in range(n):
                for j in range(n):
                    if any(sub.reduce(tuple(f - o for f, o in zip(first.coeffs[i][j], other.coeffs[i][j])))):
                        raise QuotientError(
                            f"ill-defined collapse: {srcs[0]!r} and {other_name!r} "
                            f"disagree modulo the ideal at basis pair ({i}, {j})",
                            (srcs[0], other_name, i, j),
                        )

    def quotient_op(op):
        return BilinearOp.build(
            qdim, qdim, qdim, lambda al, be: project(sub, op.coeffs[complement[al]][complement[be]])
        )

    ops = {dst: quotient_op(a.op(sorted(srcs)[0])) for dst, srcs in preimages.items()}
    projection = LinearMap(
        n, qdim, [[project(sub, basis_vector(n, j))[al] for j in range(n)] for al in range(qdim)]
    )
    return Algebra(qdim, signature, ops), projection


# "var" and "map" are term-syntax words; a raw algebra may still use them.
OP_NAMES = st.lists(st.sampled_from(["mul", "var", "map", "b"]), min_size=1, max_size=2, unique=True)


def _graded(op):
    """op cut so that e_i * e_j lies in the span of the e_k with k > max(i, j):
    proper non-zero ideals are then common."""
    return BilinearOp(op.left_dim, op.right_dim, op.out_dim,
                      [[[c if k > max(i, j) else 0 for k, c in enumerate(v)]
                        for j, v in enumerate(row)] for i, row in enumerate(op.coeffs)])


@st.composite
def raw_algebras(draw):
    """Half of them graded (_graded)."""
    n, graded = draw(DIMS), draw(st.booleans())
    ops = {}
    for name in draw(OP_NAMES):
        op = draw(tensors(n, n, n))
        ops[name] = _graded(op) if graded else op
    return Algebra(n, "raw", ops)


@st.composite
def subspaces(draw, n):
    """Vectors spanning the zero space, the whole space, the last k basis
    vectors (0 < k < n when n > 1) or one to three random vectors."""
    return draw(st.one_of(
        st.just([]),
        st.just([basis_vector(n, i) for i in range(n)]),
        st.integers(1, max(1, n - 1)).map(lambda k: [basis_vector(n, i) for i in range(k, n)]),
        st.lists(st.lists(SCALARS, min_size=n, max_size=n).map(tuple), min_size=1, max_size=3),
    ))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), a=raw_algebras())
def test_closure_and_ideal_match_reference(data, a):
    vectors = data.draw(subspaces(a.dimension))
    sub = span(vectors, a.dimension)
    assert Ideal(a, sub).closure_witness() == reference_closure_witness(a, sub)
    ideal = ideal_generated(a, vectors)
    assert ideal.subspace == reference_ideal_generated(a, vectors)
    assert ideal.closure_witness() is None


def _firsts(q):
    """{half: the tensor of the first operation of that half}."""
    firsts = {}
    for name, op in q.operations.items():
        firsts.setdefault(half(name), op)
    return firsts


def reference_splitting_generators(q):
    """The differences op(e_i, e_j) - first(e_i, e_j), cell by cell, for each
    operation op and the first operation first of its half."""
    firsts = _firsts(q)
    return [tuple(c - f for c, f in zip(cell, first_cell))
            for name, op in q.operations.items()
            for row, first_row in zip(op.coeffs, firsts[half(name)].coeffs)
            for cell, first_cell in zip(row, first_row) if cell != first_cell]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), signature=st.sampled_from(["quadri", "six"]))
def test_splitting_ideal_matches_reference(data, signature):
    """The splitting ideal is the one the dense-cell differences generate.
    Each operation may copy the first of its half, and half the algebras
    are graded, so that the zero ideal and proper ideals are common."""
    q, graded = data.draw(algebras(signature)), data.draw(st.booleans())
    copies = data.draw(st.lists(st.booleans(), min_size=len(q.operations), max_size=len(q.operations)))
    firsts = _firsts(q)
    ops = {name: firsts[half(name)] if copy else op for copy, (name, op) in zip(copies, q.operations.items())}
    q = Algebra(q.dimension, signature, {name: _graded(op) if graded else op for name, op in ops.items()})
    assert splitting_ideal(q).subspace == reference_ideal_generated(q, reference_splitting_generators(q))


def outcome(build):
    """(quotient tensors in order, projection), or the error and witness."""
    try:
        q, projection = build()
    except QuotientError as e:
        return str(e), e.witness
    return q.dimension, q.signature, list(q.operations.items()), projection


@settings(max_examples=150, deadline=None)
@given(data=st.data(), a=raw_algebras(), saturate=st.booleans())
def test_quotient_matches_reference(data, a, saturate):
    """Tensors and projection are equal, or both refuse with the same
    message and witness (not an ideal, or an ill-defined collapse)."""
    vectors = data.draw(subspaces(a.dimension))
    sub = ideal_generated(a, vectors).subspace if saturate else span(vectors, a.dimension)
    names = sorted(a.operations)
    collapse = dict(zip(names, data.draw(st.lists(st.sampled_from(["m", "p"]), min_size=len(names),
                                                  max_size=len(names)))))
    if data.draw(st.booleans()):  # drop an operation from the pairing
        collapse.pop(names[-1])
    got = outcome(lambda: quotient_algebra(a, Ideal(a, sub), collapse))
    assert got == outcome(lambda: reference_quotient(a, sub, collapse, "raw"))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), a=raw_algebras())
def test_quotient_by_an_ideal_whose_closure_was_scanned_matches_reference(data, a):
    """The ideal ideal_generated returns, and an Ideal of a drawn span whose
    escapes were read first, give the reference's quotient or refusal: the
    closure verdict quotient_algebra reuses is the one it would compute."""
    vectors = data.draw(subspaces(a.dimension))
    collapse = {name: "m" for name in a.operations}
    ideal = ideal_generated(a, vectors)
    assert outcome(lambda: quotient_algebra(a, ideal, collapse)) == outcome(
        lambda: reference_quotient(a, ideal.subspace, collapse, "raw"))
    drawn = Ideal(a, span(vectors, a.dimension))
    drawn.escapes
    assert outcome(lambda: quotient_algebra(a, drawn, collapse)) == outcome(
        lambda: reference_quotient(a, drawn.subspace, collapse, "raw"))
