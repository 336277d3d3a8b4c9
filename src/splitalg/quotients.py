"""Splitting ideals, quotient algebras and the quotient-map theorems.

A subspace I of an algebra A and the quotient Q = A / I are maps in one
identity-engine context: B: I -> A the subspace basis, P: A -> A reduction
modulo I, L: Q -> A the complement basis and Pi: A -> Q the quotient
coordinates.  Closure and the agreement of merged operations are schema
scans in them, and the quotient tensors are term tables."""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from .constructions import _require_axioms, _semidirect
from .identities import (
    QUADRI_TO_DENDRIFORM_COLLAPSE,
    OpContext,
    _Program,
    app,
    apply_map,
    context_for,
    equation,
    fits,
    needs,
    on_sort,
    tabulate,
    var,
)
from .linalg import Subspace, Vector, span
from .model import (
    Action,
    Algebra,
    LinearMap,
    Representation,
    SpecError,
    half,
    perp_dendriform_part,
    reduction,
    signature_of,
)


class QuotientError(SpecError):
    """Quotient construction failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _context(a: Algebra, sub: Subspace) -> OpContext:
    """a's operations on the sort A under their own names, and the maps B,
    P, L and Pi of I (sort I) and Q (sort Q)."""
    n, complement = a.dimension, sub.complement_indices()
    p = reduction(sub)
    return OpContext(
        on_sort(a.operations, "A"),
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


def _sides(name: str):
    """(side, term) in slots (I, A): the subspace basis element times the
    basis element ("left") before the basis element times it ("right")."""
    return ("left", app(name, _Bx, _y)), ("right", app(name, _y, _Bx))


def _failures(ctx: OpContext, sorts, groups):
    """(label, basis tuple, residual ints, scale) of each failure of an
    equation lhs = rhs, scanning the groups of (label, lhs, rhs) in order;
    the labels are the equation ids."""
    schemas = [tuple(equation(label, sorts, lhs, rhs) for label, lhs, rhs in group) for group in groups]
    return _Program(ctx, schemas).violations()


class Ideal:
    def __init__(self, ambient: Algebra, subspace: Subspace):
        if subspace.ambient_dim != ambient.dimension:
            raise SpecError("subspace ambient dimension does not match the algebra")
        self.ambient = ambient
        self.subspace = subspace

    def __repr__(self) -> str:
        return f"Ideal(dim {self.subspace.dim} of {self.ambient!r})"

    @cached_property
    def context(self) -> OpContext:
        """The ambient's operations and the maps of the subspace, built once."""
        return _context(self.ambient, self.subspace)

    @cached_property
    def escapes(self) -> list:
        """The failures of P(op(Bx, y)) = 0 and P(op(y, Bx)) = 0, labelled
        (op, side), operation by operation in sorted order, scanned once:
        each residual is a product that escapes the subspace, reduced modulo
        it.  The saturation round that finds none leaves its ideal's verdict
        here for quotient_algebra."""
        groups = [[((name, side), apply_map("P", term), ()) for side, term in _sides(name)]
                  for name in sorted(self.ambient.operations)]
        return list(_failures(self.context, ("I", "A"), groups))

    def closure_witness(self):
        """First (op, ideal basis index, ambient basis index, side) whose
        product escapes the subspace, or None if closed."""
        return next(((name, *witness, side) for (name, side), witness, _, _ in self.escapes), None)

def ideal_generated(a: Algebra, generators: Sequence[Vector]) -> Ideal:
    """Least subspace containing the generators and closed under left and
    right multiplication by every operation.

    Saturates by adding the products of the current basis with all basis
    elements on both sides that escape it, reduced modulo it (the same span);
    the rank grows with every round that adds one, so this terminates in at
    most `dimension` rounds.  Multiplying by basis elements only is enough by
    bilinearity.
    """
    n = a.dimension
    ideal = Ideal(a, span(list(generators), n))
    while True:
        # a residual is the reduced product times its scale: the same span
        escaped = [residual for _, _, residual, _ in ideal.escapes]
        if not escaped:
            return ideal
        ideal = Ideal(a, span([*ideal.subspace.basis, *escaped], n))


def splitting_ideal(q: Algebra) -> Ideal:
    """Ideal generated by the residuals of op(x, y) = first(x, y), first the
    first operation of op's half, each a difference x prec_X y - x prec_Y y
    or x succ_X y - x succ_Y y times its scale: it identifies each split
    operation with the others of its half, so for a six algebra perp with
    vdash and dashv too."""
    if not (fits(q, "quadri") or fits(q, "six")):
        raise SpecError(f"splitting ideal needs {needs('quadri', 'six')}")
    firsts = {half(name): name for name in reversed(q.operations)}  # each half's first wins
    groups = [[(name, app(name, _x, _y), app(firsts[half(name)], _x, _y))] for name in q.operations]
    return ideal_generated(q, [residual for _, _, residual, _ in _failures(context_for(q), ("A", "A"), groups)])


def quotient_algebra(
    a: Algebra,
    ideal: Ideal,
    collapse: Mapping[str, str],
) -> tuple[Algebra, LinearMap]:
    """Quotient of a by the ideal, with operations renamed (and merged)
    through the collapse pairing: every ambient operation in the pairing
    descends to the named quotient operation.  Ambient operations absent
    from the pairing are dropped.  The quotient's signature is the one whose
    operations are exactly the pairing's targets, else raw.

    The quotient basis is the cosets of the complement (non-pivot)
    coordinates, which makes the output deterministic.  Both the ideal
    closure and the agreement of merged operations modulo the ideal are
    checked, not assumed; the closure scan of an ideal that ideal_generated
    returns is the one its last round ran (Ideal.escapes).
    """
    if ideal.ambient is not a:
        ideal = Ideal(a, ideal.subspace)
    witness = ideal.closure_witness()
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
    ctx = ideal.context

    # Merged operations must agree modulo the ideal: P(first(x, y)) = P(other(x, y)).
    groups = [[((first, other), apply_map("P", app(first, _x, _y)), apply_map("P", app(other, _x, _y)))]
              for dst, first in sorted(firsts.items()) for other in sorted(preimages[dst])[1:]]
    for (first, other), (i, j), _, _ in _failures(ctx, ("A", "A"), groups):
        raise QuotientError(
            f"ill-defined collapse: {first!r} and {other!r} "
            f"disagree modulo the ideal at basis pair ({i}, {j})",
            (first, other, i, j),
        )
    ops = tabulate(ctx, ("Q", "Q"), {dst: apply_map("Pi", app(src, _Lx, _Ly)) for dst, src in firsts.items()})
    return Algebra(ctx.dims["Q"], signature_of(ops), ops), ctx.maps["Pi"][0]


def dendriform_quotient(a: Algebra) -> tuple[Algebra, LinearMap]:
    """The dendriform algebra a / splitting ideal, each split pair merged,
    and the quotient map."""
    _require_axioms(a, "quadri", "six")
    return quotient_algebra(a, splitting_ideal(a), QUADRI_TO_DENDRIFORM_COLLAPSE)


def _converse(a: Algebra):
    """(quotient dendriform algebra by the splitting ideal, its actions on the
    original space by coset lifts: xbar prec_l y = x prec_vdash y and
    y prec_r xbar = y prec_dashv x (succ analogues), quotient map)."""
    ideal = splitting_ideal(a)
    base, projection = quotient_algebra(a, ideal, QUADRI_TO_DENDRIFORM_COLLAPSE)
    ctx = ideal.context
    actions = {
        **tabulate(ctx, ("Q", "A"), {"prec_l": app("prec_vdash", _Lx, _y), "succ_l": app("succ_vdash", _Lx, _y)}),
        **tabulate(ctx, ("A", "Q"), {"prec_r": app("prec_dashv", _x, _Ly), "succ_r": app("succ_dashv", _x, _Ly)}),
    }
    return base, actions, projection


def quadri_to_relative_setup(q: Algebra) -> tuple[Representation, LinearMap]:
    """The converse theorem: from a quadri-dendriform algebra, build the
    quotient dendriform algebra, its representation on the original space,
    and the quotient map as a relative averaging operator."""
    _require_axioms(q, "quadri")
    base, actions, projection = _converse(q)
    return Representation(base, q.dimension, actions), projection


def embed_averaging(q: Algebra) -> tuple[Algebra, LinearMap, LinearMap]:
    """Embed a quadri-dendriform algebra into an averaging dendriform
    algebra: ambient = semidirect(quotient, original space), the averaging
    operator (xbar, y) -> (ybar, 0), and the inclusion x -> (0, x)."""
    rep, projection = quadri_to_relative_setup(q)
    ambient = _semidirect(rep)
    r, n = rep.base.dimension, q.dimension
    total = r + n
    averaging = LinearMap(total, total, [*([0] * r + list(row) for row in projection.matrix), *[[0] * total] * n])
    inclusion = LinearMap(n, total, [*[[0] * n] * r, *LinearMap.identity(n).matrix])
    return ambient, averaging, inclusion


def six_to_homomorphic_setup(s: Algebra) -> tuple[Action, LinearMap]:
    """From a six-dendriform algebra: quotient by its splitting ideal (perp
    included), act on the perp dendriform algebra, and return the quotient
    map as a homomorphic relative averaging operator."""
    _require_axioms(s, "six")
    base, actions, projection = _converse(s)
    return Action(base, perp_dendriform_part(s), actions), projection
