"""The reference evaluator: interprets a schema at arbitrary slot values in
`Fraction` arithmetic, one term at a time.  The tests hold the library's
sparse evaluator (`identities._Program`) and `tabulate` to it.  Also a
printer of a schema in the notation `identities.axioms` reads, which the
reader and README's catalog listing are held to, the
coset coordinates of a vector modulo a subspace, which the reference
quotient reads, the splitting rule with a degree-3 span comparison,
which the catalogs are held to, and the input rule of the theorems part by
part, which the one scan of each type's hypothesis is held to."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from splitalg.constructions import PreconditionFailure
from splitalg.identities import CATALOG_NAMES, Expr, IdentitySchema, OpContext, Term, app, check, fits, needs
from splitalg.linalg import Subspace, Vector, rref
from splitalg.model import SpecError, evaluate, perp_dendriform_part, quadri_part


def eval_term(term: Term, schema: IdentitySchema, ctx: OpContext, values) -> tuple[Vector, str]:
    """(value, sort) of a term at the slot values.  As in the library, a
    term's kind is its shape: a variable is a pair, a map application holds
    the map's name in second place, and an operation two terms."""
    if len(term) == 2:
        return values[term[1]], schema.slot_sorts[term[1]]
    if isinstance(term[1], str):
        m, source, target = ctx.resolve_map(term[1])
        value, sort = eval_expr(term[2], schema, ctx, values)
        if sort != source:
            raise SpecError(f"map {term[1]!r} applied to an argument of the wrong sort")
        return m.apply(value), target
    left, lsort = eval_term(term[1], schema, ctx, values)
    right, rsort = eval_term(term[2], schema, ctx, values)
    op, out = ctx.resolve(term[0], lsort, rsort)
    return evaluate(op, left, right), out


def eval_expr(e: Expr, schema: IdentitySchema, ctx: OpContext, values):
    """(value, sort) of a non-empty expression; (None, None) for the empty one."""
    total = sort = None
    for coef, term in e:
        v, sort = eval_term(term, schema, ctx, values)
        scaled = tuple(coef * a for a in v)
        total = scaled if total is None else tuple(a + b for a, b in zip(total, scaled, strict=True))
    return total, sort


def evaluate_schema(schema: IdentitySchema, ctx: OpContext, values: Sequence[Vector]) -> Vector:
    """lhs - rhs of a schema at arbitrary slot values (not just basis); the
    empty tuple for 0 = 0, where no term fixes a sort."""
    difference = schema.lhs + tuple((-c, term) for c, term in schema.rhs)
    return eval_expr(difference, schema, ctx, values)[0] or ()


def formula(schema: IdentitySchema) -> str:
    """The schema as `identities.axioms` reads it, written from its term
    tuples: slots x, y, z, an operation between its two arguments, a map as
    name(...), + between terms and 0 for an empty side.  Every coefficient
    is 1, as in every axiom the library writes."""
    def term(t: Term, nested: bool) -> str:
        if len(t) == 2:
            return "xyz"[t[1]]
        if isinstance(t[1], str):
            return f"{t[1]}({side(t[2])})"
        text = f"{term(t[1], True)} {t[0]} {term(t[2], True)}"
        return f"({text})" if nested else text

    def side(e: Expr) -> str:
        assert all(c == 1 for c, _ in e), e
        return " + ".join(term(t, False) for _, t in e) or "0"

    return f"{side(schema.lhs)} = {side(schema.rhs)}"


def project(sub: Subspace, v: Vector) -> Vector:
    """Coset representative of v in the complement (non-pivot) coordinates."""
    reduced = sub.reduce(v)
    return tuple(reduced[c] for c in sub.complement_indices())


# ----------------------------------------------------------------------
# The splitting rule (the successor of Bai, Bellier, Guo and Ni, "Splitting
# of operations, Manin products, and Rota-Baxter operators", IMRN 2013):
# each operation o splits into prec_o and succ_o (for "mul", prec and succ),
# and each axiom yields one axiom per variable.  That variable carries the
# split: an operation on the path from the root to it becomes its prec part
# when the variable sits in the left argument and its succ part when in the
# right one; an operation off the path becomes the sum of both parts.


def _slots(term: Term) -> set:
    return {term[1]} if len(term) == 2 else _slots(term[1]) | _slots(term[2])


def split_term(term: Term, slot: int | None) -> list[Term]:
    """The terms whose sum is `term` split at `slot`; at a slot the term does
    not read (None), the sum over both parts of every operation."""
    if len(term) == 2:
        return [term]
    op, left, right = term
    sides = ("prec",) if slot in _slots(left) else ("succ",) if slot in _slots(right) else ("prec", "succ")
    return [app(side if op == "mul" else f"{side}_{op}", a, b)
            for side in sides for a in split_term(left, slot) for b in split_term(right, slot)]


def split_expr(e: Expr, slot: int | None) -> Expr:
    return tuple((c, t) for c, term in e for t in split_term(term, slot))


def successor(schemas: Sequence[IdentitySchema]) -> list[IdentitySchema]:
    """The split axioms: schema s gives s@0, s@1, ... one per slot."""
    return [IdentitySchema(f"{s.id}@{slot}", s.slot_sorts, split_expr(s.lhs, slot), split_expr(s.rhs, slot))
            for s in schemas for slot in range(len(s.slot_sorts))]


def rename(schemas: Sequence[IdentitySchema], names: dict) -> list[IdentitySchema]:
    """The schemas with each operation op read as names.get(op, op)."""
    def term(t: Term) -> Term:
        return t if len(t) == 2 else app(names.get(t[0], t[0]), term(t[1]), term(t[2]))

    return [IdentitySchema(s.id, s.slot_sorts, tuple((c, term(t)) for c, t in s.lhs),
                           tuple((c, term(t)) for c, t in s.rhs)) for s in schemas]


def degree3_vector(schema: IdentitySchema, ops: Sequence[str]) -> Vector:
    """lhs - rhs of a degree-3 schema in the basis of the monomials
    (x o1 y) o2 z and x o2 (y o1 z) over the operations ops: 2 * len(ops)**2
    coordinates.  The variables must stand in the order x, y, z."""
    index = {op: k for k, op in enumerate(ops)}
    n = len(ops)
    out = [Fraction(0)] * (2 * n * n)
    x, y, z = ("var", 0), ("var", 1), ("var", 2)
    for sign, e in ((1, schema.lhs), (-1, schema.rhs)):
        for c, (outer, left, right) in e:
            if len(left) == 3:
                shape, inner, args = 0, left[0], (left[1], left[2], right)
            else:
                shape, inner, args = 1, right[0], (left, right[1], right[2])
            if args != (x, y, z):
                raise ValueError(f"{schema.id}: not a degree-3 term in the order x, y, z")
            out[(shape * n + index[outer]) * n + index[inner]] += sign * c
    return tuple(out)


def rank(schemas: Sequence[IdentitySchema], ops: Sequence[str]) -> int:
    """The dimension of the span of the schemas' degree-3 vectors."""
    return len(rref([degree3_vector(s, ops) for s in schemas])[1]) if schemas else 0


# ----------------------------------------------------------------------
# The input rule of the theorems part by part: each part of an input is
# checked against its own catalog, and the first part that fails refuses the
# input with its verdict.  `constructions._require_axioms` runs the same
# rule as one scan of the input type's `identities.hypothesis`.


def reference_parts(obj) -> list:
    """(part, catalog, refusal message) of each part of the input's
    hypothesis, in the order they are checked: a module's base and an
    action's target as dendriform algebras, then each catalog the input fits
    (an action's before a representation's); a six algebra's perp pair
    first and its quadri part last."""
    parts = [(getattr(obj, side), "dendriform", f"{side} algebra is not dendriform")
             for side in ("base", "target") if hasattr(obj, side)]
    parts += [(obj, name, f"input is not {needs(name)}") for name in CATALOG_NAMES if fits(obj, name)]
    if fits(obj, "six"):
        perp = (perp_dendriform_part(obj), "dendriform", "target not dendriform: the perp pair fails the dendriform axioms")
        parts = [perp, *parts, (quadri_part(obj), "quadri", "the quadri part is not a quadri-dendriform algebra")]
    return parts


def reference_require_axioms(obj, *catalogs: str) -> None:
    """Refuse an input no catalog reads with one line, then one with a part
    that fails its catalog with the first failing part's verdict."""
    if not any(fits(obj, name) for name in catalogs):
        raise SpecError(f"expected {needs(*catalogs)}")
    for part, catalog_name, message in reference_parts(obj):
        report = check(part, catalog_name)
        if not report.ok:
            raise PreconditionFailure(message, report)
