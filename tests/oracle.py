"""The reference evaluator: interprets a schema at arbitrary slot values in
`Fraction` arithmetic, one term at a time.  The tests hold the library's
sparse evaluator (`identities._Program`) and `tabulate` to it."""

from __future__ import annotations

from typing import Sequence

from splitalg.identities import Expr, IdentitySchema, OpContext, Term
from splitalg.linalg import Vector, vec_add
from splitalg.model import SpecError, evaluate


def eval_term(term: Term, schema: IdentitySchema, ctx: OpContext, values) -> tuple[Vector, str]:
    """(value, sort) of a term at the slot values."""
    if term[0] == "var":
        return values[term[1]], schema.slot_sorts[term[1]]
    if term[0] == "map":
        m, source, target = ctx.resolve_map(term[1])
        value, sort = eval_expr(term[2], schema, ctx, values)
        if sort != source:
            raise SpecError(f"map {term[1]!r} applied to an argument of the wrong sort")
        return m.apply(value), target
    op, ls, rs, out = ctx.resolve(term[0])
    left, lsort = eval_term(term[1], schema, ctx, values)
    right, rsort = eval_term(term[2], schema, ctx, values)
    if (lsort, rsort) != (ls, rs):
        raise SpecError(
            f"operation {term[0]!r} applied to arguments of the wrong sort"
        )
    return evaluate(op, left, right), out


def eval_expr(e: Expr, schema: IdentitySchema, ctx: OpContext, values):
    """(value, sort) of a non-empty expression; (None, None) for the empty one."""
    total = sort = None
    for coef, term in e:
        v, sort = eval_term(term, schema, ctx, values)
        scaled = tuple(coef * a for a in v)
        total = scaled if total is None else vec_add(total, scaled)
    return total, sort


def evaluate_schema(schema: IdentitySchema, ctx: OpContext, values: Sequence[Vector]) -> Vector:
    """lhs - rhs of a schema at arbitrary slot values (not just basis); the
    empty tuple for 0 = 0, where no term fixes a sort."""
    difference = schema.lhs + tuple((-c, term) for c, term in schema.rhs)
    return eval_expr(difference, schema, ctx, values)[0] or ()
