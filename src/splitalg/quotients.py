"""Splitting ideals, quotient algebras and the quotient-map theorems."""

from __future__ import annotations

from typing import Mapping, Sequence

from .constructions import semidirect
from .identities import QUADRI_TO_DENDRIFORM_COLLAPSE, check
from .linalg import Subspace, Vector, basis_vector, span, vec_sub
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    evaluate,
    perp_dendriform_part,
)


class QuotientError(SpecError):
    """Quotient construction failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _products(a: Algebra, vectors: Sequence[Vector]):
    """((op, vector index, basis index, side), product) for every operation
    in sorted order, vector and basis element: the vector times the basis
    element ("left") before the basis element times the vector ("right")."""
    n = a.dimension
    for opname in sorted(a.operations):
        op = a.op(opname)
        for bi, b in enumerate(vectors):
            for i in range(n):
                e = basis_vector(n, i)
                yield (opname, bi, i, "left"), evaluate(op, b, e)
                yield (opname, bi, i, "right"), evaluate(op, e, b)


class Ideal:
    def __init__(self, ambient: Algebra, subspace: Subspace):
        if subspace.ambient_dim != ambient.dimension:
            raise SpecError("subspace ambient dimension does not match the algebra")
        self.ambient = ambient
        self.subspace = subspace

    def __repr__(self) -> str:
        return f"Ideal(dim {self.subspace.dim} of {self.ambient!r})"

    def closure_witness(self):
        """First (op, ideal basis index, ambient basis index, side) whose
        product escapes the subspace, or None if closed."""
        for witness, product in _products(self.ambient, self.subspace.basis):
            if not self.subspace.contains(product):
                return witness
        return None

    def is_closed(self) -> bool:
        return self.closure_witness() is None


def ideal_generated(a: Algebra, generators: Sequence[Vector]) -> Ideal:
    """Least subspace containing the generators and closed under left and
    right multiplication by every operation.

    Saturates by multiplying the current basis with all basis elements on
    both sides and re-spanning; the rank can only grow, so this terminates
    in at most `dimension` iterations.  Multiplying by basis elements only
    is enough by bilinearity.
    """
    n = a.dimension
    current = span(list(generators), n)
    while True:
        products = [*current.basis, *(p for _, p in _products(a, current.basis))]
        bigger = span(products, n)
        if bigger.dim == current.dim:
            return Ideal(a, current)
        current = bigger


def splitting_ideal(q: Algebra) -> Ideal:
    """Ideal generated by the split-operation differences
    x prec_vdash y - x prec_dashv y and x succ_vdash y - x succ_dashv y."""
    if q.signature not in ("quadri", "six"):
        raise SpecError("splitting ideal needs a quadri or six signature")
    pv, pd = q.op("prec_vdash"), q.op("prec_dashv")
    sv, sd = q.op("succ_vdash"), q.op("succ_dashv")
    n = q.dimension
    generators = []
    for i in range(n):
        for j in range(n):
            generators.append(vec_sub(pv.coeffs[i][j], pd.coeffs[i][j]))
            generators.append(vec_sub(sv.coeffs[i][j], sd.coeffs[i][j]))
    return ideal_generated(q, generators)


def quotient_algebra(
    a: Algebra,
    ideal: Ideal,
    collapse: Mapping[str, str],
    signature: str = "raw",
) -> tuple[Algebra, LinearMap]:
    """Quotient of a by the ideal, with operations renamed (and merged)
    through the collapse pairing: every ambient operation in the pairing
    descends to the named quotient operation.  Ambient operations absent
    from the pairing are dropped.

    The quotient basis is the cosets of the complement (non-pivot)
    coordinates, which makes the output deterministic.  Both the ideal
    closure and the agreement of merged operations modulo the ideal are
    checked, not assumed.
    """
    witness = Ideal(a, ideal.subspace).closure_witness()
    if witness is not None:
        raise QuotientError(
            f"not an ideal: operation {witness[0]!r} escapes the subspace "
            f"at ideal basis {witness[1]}, ambient basis {witness[2]} ({witness[3]})",
            witness,
        )
    n = a.dimension
    sub = ideal.subspace
    complement = sub.complement_indices()
    qdim = len(complement)

    # Merged operations must agree modulo the ideal.
    preimages: dict[str, list[str]] = {}
    for src, dst in collapse.items():
        preimages.setdefault(dst, []).append(src)
    for dst, srcs in sorted(preimages.items()):
        srcs = sorted(srcs)
        first = a.op(srcs[0])
        for other_name in srcs[1:]:
            other = a.op(other_name)
            for i in range(n):
                for j in range(n):
                    diff = vec_sub(first.coeffs[i][j], other.coeffs[i][j])
                    if not sub.contains(diff):
                        raise QuotientError(
                            f"ill-defined collapse: {srcs[0]!r} and {other_name!r} "
                            f"disagree modulo the ideal at basis pair ({i}, {j})",
                            (srcs[0], other_name, i, j),
                        )

    def quotient_op(src_name: str) -> BilinearOp:
        op = a.op(src_name)
        return BilinearOp.build(
            qdim,
            qdim,
            qdim,
            lambda alpha, beta: sub.project(op.coeffs[complement[alpha]][complement[beta]]),
        )

    ops = {dst: quotient_op(sorted(srcs)[0]) for dst, srcs in preimages.items()}
    quotient = Algebra(qdim, signature, ops)
    projection = LinearMap(
        n,
        qdim,
        [
            [sub.project(basis_vector(n, j))[alpha] for j in range(n)]
            for alpha in range(qdim)
        ],
    )
    return quotient, projection


def _quotient_actions(
    q: Algebra, base_dim: int, complement: Sequence[int]
) -> dict[str, BilinearOp]:
    """The four actions of the quotient dendriform algebra on the original
    space, via coset lifts: xbar prec_l y = x prec_vdash y and
    y prec_r xbar = y prec_dashv x (succ analogues)."""
    n = q.dimension
    pv, pd = q.op("prec_vdash"), q.op("prec_dashv")
    sv, sd = q.op("succ_vdash"), q.op("succ_dashv")
    return {
        "prec_l": BilinearOp.build(
            base_dim, n, n, lambda alpha, j: pv.coeffs[complement[alpha]][j]
        ),
        "succ_l": BilinearOp.build(
            base_dim, n, n, lambda alpha, j: sv.coeffs[complement[alpha]][j]
        ),
        "prec_r": BilinearOp.build(
            n, base_dim, n, lambda j, alpha: pd.coeffs[j][complement[alpha]]
        ),
        "succ_r": BilinearOp.build(
            n, base_dim, n, lambda j, alpha: sd.coeffs[j][complement[alpha]]
        ),
    }


def quadri_to_relative_setup(q: Algebra) -> tuple[Representation, LinearMap]:
    """The converse theorem: from a quadri-dendriform algebra, build the
    quotient dendriform algebra, its representation on the original space,
    and the quotient map as a relative averaging operator."""
    if q.signature != "quadri":
        raise SpecError("expected a quadri-dendriform algebra")
    ideal = splitting_ideal(q)
    base, projection = quotient_algebra(
        q, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE, signature="dendriform"
    )
    complement = ideal.subspace.complement_indices()
    actions = _quotient_actions(q, base.dimension, complement)
    rep = Representation(base, q.dimension, actions)
    return rep, projection


def embed_averaging(q: Algebra) -> tuple[Algebra, LinearMap, LinearMap]:
    """Embed a quadri-dendriform algebra into an averaging dendriform
    algebra: ambient = semidirect(quotient, original space), the averaging
    operator (xbar, y) -> (ybar, 0), and the inclusion x -> (0, x)."""
    rep, projection = quadri_to_relative_setup(q)
    ambient = semidirect(rep, verify=False)
    r, n = rep.base.dimension, q.dimension
    total = r + n
    matrix = [[0] * total for _ in range(total)]
    for alpha in range(r):
        for j in range(n):
            matrix[alpha][r + j] = projection.matrix[alpha][j]
    averaging = LinearMap(total, total, matrix)
    inclusion = LinearMap(
        n, total, [[1 if i >= r and i - r == j else 0 for j in range(n)] for i in range(total)]
    )
    return ambient, averaging, inclusion


def six_to_homomorphic_setup(s: Algebra) -> tuple[Action, LinearMap]:
    """From a six-dendriform algebra: quotient by the splitting ideal of
    the quadri part, act on the perp dendriform algebra, and return the
    quotient map as a homomorphic relative averaging operator."""
    if s.signature != "six":
        raise SpecError("expected a six-dendriform algebra")
    target = perp_dendriform_part(s)
    report = check(target, "dendriform")
    if not report.ok:
        raise QuotientError("target not dendriform: the perp pair fails the dendriform axioms")
    ideal = splitting_ideal(s)
    base, projection = quotient_algebra(
        s, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE, signature="dendriform"
    )
    complement = ideal.subspace.complement_indices()
    actions = _quotient_actions(s, base.dimension, complement)
    act = Action(base, target, actions)
    return act, projection
