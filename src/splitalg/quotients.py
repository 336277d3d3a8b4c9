"""Splitting ideals, quotient algebras and the quotient-map theorems.

A subspace I of an algebra A and the quotient Q = A / I are maps in one
identity-engine context: B: I -> A the subspace basis, P: A -> A reduction
modulo I, L: Q -> A the complement basis and Pi: A -> Q the quotient
coordinates.  Closure and the agreement of merged operations are schema
scans in them, and the quotient tensors are term tables."""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .constructions import PreconditionFailure, semidirect
from .identities import (
    QUADRI_TO_DENDRIFORM_COLLAPSE,
    OpContext,
    _Program,
    app,
    apply_map,
    check,
    equation,
    tabulate,
    var,
)
from .linalg import Subspace, Vector, span, vec_sub
from .model import (
    Action,
    Algebra,
    LinearMap,
    Representation,
    SpecError,
    perp_dendriform_part,
    quadri_part,
    reduction,
)


class QuotientError(SpecError):
    """Quotient construction failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _context(a: Algebra, sub: Subspace) -> OpContext:
    """a's operations as "op:<name>" (no raw name clashes with the term
    syntax) and the maps B, P, L and Pi of I (sort I) and Q (sort Q)."""
    n, complement = a.dimension, sub.complement_indices()
    p = reduction(sub)
    return OpContext(
        {"op:" + name: (op, "A", "A", "A") for name, op in a.operations.items()},
        {"A": n, "I": sub.dim, "Q": len(complement)},
        {
            "B": (LinearMap(sub.dim, n, [[b[r] for b in sub.basis] for r in range(n)]), "I", "A"),
            "P": (p, "A", "A"),
            "L": (LinearMap(len(complement), n, [[int(r == c) for c in complement] for r in range(n)]), "Q", "A"),
            "Pi": (LinearMap(n, len(complement), [p.matrix[c] for c in complement]), "A", "Q"),
        },
    )


_x, _y = var(0), var(1)
_Bx, _Lx, _Ly = apply_map("B", _x), apply_map("L", _x), apply_map("L", _y)


def _op(name: str, left, right):
    return app("op:" + name, left, right)


def _sides(name: str):
    """(side, term) in slots (I, A): the subspace basis element times the
    basis element ("left") before the basis element times it ("right")."""
    return ("left", _op(name, _Bx, _y)), ("right", _op(name, _y, _Bx))


def _first(ctx: OpContext, sorts, groups):
    """(label, basis tuple) of the first equation lhs = rhs that fails,
    scanning the groups of (label, lhs, rhs) in order; None if all hold."""
    labels = [label for group in groups for label, _, _ in group]
    ids = map(str, itertools.count())
    schemas = [tuple(equation(next(ids), sorts, lhs, rhs) for _, lhs, rhs in group) for group in groups]
    for eqid, witness, _, _ in _Program(ctx, schemas).violations():
        return labels[int(eqid)], witness
    return None


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
        product escapes the subspace, or None if closed: P(op(Bx, y)) = 0
        and P(op(y, Bx)) = 0, operation by operation in sorted order."""
        groups = [[((name, side), apply_map("P", term), ()) for side, term in _sides(name)]
                  for name in sorted(self.ambient.operations)]
        found = _first(_context(self.ambient, self.subspace), ("I", "A"), groups)
        return found and (found[0][0], *found[1], found[0][1])

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
    table = {(name, side): term for name in sorted(a.operations) for side, term in _sides(name)}
    while True:
        products = tabulate(_context(a, current), ("I", "A"), table).values()
        bigger = span([*current.basis, *(v for op in products for row in op.coeffs for v in row)], n)
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
    generators = [
        vec_sub(split.coeffs[i][j], other.coeffs[i][j])
        for i in range(n) for j in range(n) for split, other in ((pv, pd), (sv, sd))
    ]
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
    preimages: dict[str, list[str]] = {}
    for src, dst in collapse.items():
        a.op(src)  # an unknown operation is refused here
        preimages.setdefault(dst, []).append(src)
    firsts = {dst: min(srcs) for dst, srcs in preimages.items()}
    ctx = _context(a, ideal.subspace)

    # Merged operations must agree modulo the ideal: P(first(x, y)) = P(other(x, y)).
    groups = [[((first, other), apply_map("P", _op(first, _x, _y)), apply_map("P", _op(other, _x, _y)))]
              for dst, first in sorted(firsts.items()) for other in sorted(preimages[dst])[1:]]
    found = _first(ctx, ("A", "A"), groups)
    if found is not None:
        (first, other), (i, j) = found
        raise QuotientError(
            f"ill-defined collapse: {first!r} and {other!r} "
            f"disagree modulo the ideal at basis pair ({i}, {j})",
            (first, other, i, j),
        )
    ops = tabulate(ctx, ("Q", "Q"), {dst: apply_map("Pi", _op(src, _Lx, _Ly)) for dst, src in firsts.items()})
    return Algebra(ctx.dims["Q"], signature, ops), ctx.maps["Pi"][0]


def _require(a: Algebra, catalog_name: str, message: str) -> None:
    """Refuse an input that fails the axioms a converse theorem assumes."""
    report = check(a, catalog_name)
    if not report.ok:
        raise PreconditionFailure(message, report)


def _converse(a: Algebra):
    """(quotient dendriform algebra by the splitting ideal, its actions on the
    original space by coset lifts: xbar prec_l y = x prec_vdash y and
    y prec_r xbar = y prec_dashv x (succ analogues), quotient map)."""
    ideal = splitting_ideal(a)
    base, projection = quotient_algebra(a, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE, signature="dendriform")
    ctx = _context(a, ideal.subspace)
    actions = {
        **tabulate(ctx, ("Q", "A"), {"prec_l": _op("prec_vdash", _Lx, _y), "succ_l": _op("succ_vdash", _Lx, _y)}),
        **tabulate(ctx, ("A", "Q"), {"prec_r": _op("prec_dashv", _x, _Ly), "succ_r": _op("succ_dashv", _x, _Ly)}),
    }
    return base, actions, projection


def quadri_to_relative_setup(q: Algebra) -> tuple[Representation, LinearMap]:
    """The converse theorem: from a quadri-dendriform algebra, build the
    quotient dendriform algebra, its representation on the original space,
    and the quotient map as a relative averaging operator."""
    if q.signature != "quadri":
        raise SpecError("expected a quadri-dendriform algebra")
    _require(q, "quadri", "input is not a quadri-dendriform algebra")
    base, actions, projection = _converse(q)
    return Representation(base, q.dimension, actions), projection


def embed_averaging(q: Algebra) -> tuple[Algebra, LinearMap, LinearMap]:
    """Embed a quadri-dendriform algebra into an averaging dendriform
    algebra: ambient = semidirect(quotient, original space), the averaging
    operator (xbar, y) -> (ybar, 0), and the inclusion x -> (0, x)."""
    rep, projection = quadri_to_relative_setup(q)
    ambient = semidirect(rep, verify=False)
    r, n = rep.base.dimension, q.dimension
    total = r + n
    averaging = LinearMap(total, total, [*([0] * r + list(row) for row in projection.matrix), *[[0] * total] * n])
    inclusion = LinearMap(n, total, [*[[0] * n] * r, *LinearMap.identity(n).matrix])
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
    _require(s, "six", "input is not a six-dendriform algebra")
    _require(quadri_part(s), "quadri", "the quadri part is not a quadri-dendriform algebra")
    base, actions, projection = _converse(s)
    return Action(base, target, actions), projection
