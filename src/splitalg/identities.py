"""Multilinear identity schemas and their exhaustive evaluation on basis tuples.

An identity is a formal equation between linear combinations of terms in
one to three variable slots.  Slots carry a sort: A for the base algebra,
V for a module (operator and morphism checks name further sorts).  Checking
an identity on every basis tuple is equivalent to checking it on all
vectors, by multilinearity.

Chained equalities in the source axioms (a brace listing k equal
expressions) are encoded as the k-1 consecutive pairwise equations; the
remaining mathematically redundant pairs are available via paranoid=True.

Every check in the package (catalogs, operator kinds, graph closure,
morphisms, differentials) is a list of schema groups run by `_scan`, the
only code that visits basis tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from .linalg import Vector, basis_vector, vec_sub
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    evaluate,
)

# A term is a variable leaf ("var", slot), a bilinear operation applied to
# two terms (op_name, left_term, right_term), or a linear map applied to a
# linear combination of terms ("map", map_name, expr).
Term = Union[tuple[str, int], tuple[str, "Term", "Term"], tuple[str, str, "Expr"]]
# An expression is a linear combination of terms; the empty one is zero.
Expr = tuple[tuple[Fraction, Term], ...]

DEFAULT_VIOLATION_CAP = 100


def var(slot: int) -> Term:
    return ("var", slot)


def app(op: str, left: Term, right: Term) -> Term:
    return (op, left, right)


def expr(*terms: Term) -> Expr:
    return tuple((Fraction(1), t) for t in terms)


def apply_map(name: str, argument) -> Term:
    """The map `name` applied to a term or to a non-empty expression."""
    return ("map", name, _as_expr(argument))


def _as_expr(e) -> Expr:
    """A term becomes the expression 1*term; expressions pass through."""
    if not e or isinstance(e[0], tuple):
        return tuple(e)
    return expr(e)


@dataclass(frozen=True)
class IdentitySchema:
    id: str
    slot_sorts: tuple[str, ...]
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Violation:
    identity: str
    witness: tuple[int, ...]
    residual: Vector

    def to_dict(self) -> dict:
        from .documents import scalar_to_json

        return {
            "id": self.identity,
            "witness": list(self.witness),
            "residual": [scalar_to_json(e) for e in self.residual],
        }


@dataclass
class ViolationReport:
    """Outcome of a check.  Operator-style checks set `kind`, which adds a
    `kind: pass/FAIL` head to render() and a "kind" key to to_dict()."""

    checked: int
    violations: list[Violation]
    truncated: bool = False
    kind: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        d = {} if self.kind is None else {"kind": self.kind}
        d["checked"] = self.checked
        d["violations"] = [v.to_dict() for v in self.violations]
        if self.truncated:
            d["truncated"] = True
        return d

    def render(self) -> str:
        if self.kind is None:
            head = f"checked {self.checked} instance(s): " + (
                "all passed" if self.ok else f"{len(self.violations)} violation(s)"
            )
        else:
            verdict = "pass" if self.ok else "FAIL"
            head = f"{self.kind}: {verdict} ({self.checked} instance(s) checked)"
        lines = [head]
        for v in self.violations:
            lines.append(
                f"  {v.identity} at {v.witness}: residual"
                f" [{', '.join(str(e) for e in v.residual)}]"
            )
        if self.truncated:
            lines.append("  ... report truncated")
        return "\n".join(lines)


class UnknownCatalog(SpecError):
    pass


# ----------------------------------------------------------------------
# Catalog construction

_x, _y, _z = var(0), var(1), var(2)


def equation(eqid, sorts, lhs, rhs) -> IdentitySchema:
    """Schema lhs = rhs; each side is a term or an expression, () is zero."""
    return IdentitySchema(eqid, tuple(sorts), _as_expr(lhs), _as_expr(rhs))


def _chain(eqid: str, sorts, exprs: Sequence, paranoid: bool) -> list[IdentitySchema]:
    """Encode E1 = E2 = ... = Ek as consecutive pairs (plus the redundant
    pairs when paranoid)."""
    out = []
    letters = "abcdefgh"
    for n in range(len(exprs) - 1):
        out.append(equation(f"{eqid}{letters[n]}", sorts, exprs[n], exprs[n + 1]))
    if paranoid:
        for i in range(len(exprs)):
            for j in range(i + 2, len(exprs)):
                out.append(equation(f"{eqid}p{i + 1}{j + 1}", sorts, exprs[i], exprs[j]))
    return out


def _dend_shape(ids, sorts, pair12, pair23, pair_out, pair_out2):
    """Three axioms of dendriform shape on possibly mixed sorts.

    Each pair is a (prec-like, succ-like) operation name tuple: pair12
    combines slots 1,2; pair23 combines slots 2,3; pair_out joins the
    (1,2)-product with slot 3; pair_out2 joins slot 1 with the
    (2,3)-product.  For the plain dendriform axioms all four coincide.
    """
    p12, s12 = pair12
    p23, s23 = pair23
    po, so = pair_out
    po2, so2 = pair_out2
    e1 = equation(
        ids[0],
        sorts,
        app(po, app(p12, _x, _y), _z),
        expr(app(po2, _x, app(p23, _y, _z)), app(po2, _x, app(s23, _y, _z))),
    )
    e2 = equation(
        ids[1],
        sorts,
        app(po, app(s12, _x, _y), _z),
        app(so2, _x, app(p23, _y, _z)),
    )
    e3 = equation(
        ids[2],
        sorts,
        app(so2, _x, app(s23, _y, _z)),
        expr(app(so, app(p12, _x, _y), _z), app(so, app(s12, _x, _y), _z)),
    )
    return [e1, e2, e3]


def _catalog_associative(paranoid: bool):
    return [
        equation(
            "assoc",
            ("A", "A", "A"),
            app("mul", app("mul", _x, _y), _z),
            app("mul", _x, app("mul", _y, _z)),
        )
    ]


def _catalog_dendriform(paranoid: bool):
    pair = ("prec", "succ")
    return _dend_shape(("dend.1", "dend.2", "dend.3"), ("A", "A", "A"), pair, pair, pair, pair)


def _diass_equations(dashv: str, vdash: str, ids):
    A3 = ("A", "A", "A")
    return [
        equation(ids[0], A3, app(dashv, app(dashv, _x, _y), _z), app(dashv, _x, app(vdash, _y, _z))),
        equation(ids[1], A3, app(dashv, app(dashv, _x, _y), _z), app(dashv, _x, app(dashv, _y, _z))),
        equation(ids[2], A3, app(dashv, app(vdash, _x, _y), _z), app(vdash, _x, app(dashv, _y, _z))),
        equation(ids[3], A3, app(vdash, app(dashv, _x, _y), _z), app(vdash, _x, app(vdash, _y, _z))),
        equation(ids[4], A3, app(vdash, app(vdash, _x, _y), _z), app(vdash, _x, app(vdash, _y, _z))),
    ]


def _catalog_diassociative(paranoid: bool):
    return _diass_equations("dashv", "vdash", ["di.1", "di.2", "di.3", "di.4", "di.5"])


def _catalog_triassociative(paranoid: bool):
    A3 = ("A", "A", "A")
    eqs = _diass_equations("dashv", "vdash", ["tri.1", "tri.2", "tri.3", "tri.4", "tri.5"])
    eqs.append(
        equation("tri.6", A3, app("perp", app("perp", _x, _y), _z), app("perp", _x, app("perp", _y, _z)))
    )
    eqs += [
        equation("tri.7", A3, app("dashv", app("dashv", _x, _y), _z), app("dashv", _x, app("perp", _y, _z))),
        equation("tri.8", A3, app("dashv", app("perp", _x, _y), _z), app("perp", _x, app("dashv", _y, _z))),
        equation("tri.9", A3, app("perp", app("dashv", _x, _y), _z), app("perp", _x, app("vdash", _y, _z))),
        equation("tri.10", A3, app("perp", app("vdash", _x, _y), _z), app("vdash", _x, app("perp", _y, _z))),
        equation("tri.11", A3, app("vdash", app("perp", _x, _y), _z), app("vdash", _x, app("vdash", _y, _z))),
    ]
    return eqs


def _catalog_quadri(paranoid: bool):
    A3 = ("A", "A", "A")
    pv, pd, sv, sd = "prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"
    eqs: list[IdentitySchema] = []
    eqs += _chain(
        "quadri.1",
        A3,
        [
            app(pv, app(pv, _x, _y), _z),
            app(pv, app(pd, _x, _y), _z),
            expr(app(pv, _x, app(pv, _y, _z)), app(pv, _x, app(sv, _y, _z))),
        ],
        paranoid,
    )
    eqs += _chain(
        "quadri.2",
        A3,
        [
            app(pv, app(sv, _x, _y), _z),
            app(pv, app(sd, _x, _y), _z),
            app(sv, _x, app(pv, _y, _z)),
        ],
        paranoid,
    )
    eqs += _chain(
        "quadri.3",
        A3,
        [
            app(sv, _x, app(sv, _y, _z)),
            expr(app(sv, app(pv, _x, _y), _z), app(sv, app(sv, _x, _y), _z)),
            expr(app(sv, app(pd, _x, _y), _z), app(sv, app(sd, _x, _y), _z)),
            expr(app(sv, app(pv, _x, _y), _z), app(sv, app(sd, _x, _y), _z)),
            expr(app(sv, app(pd, _x, _y), _z), app(sv, app(sv, _x, _y), _z)),
        ],
        paranoid,
    )
    eqs.append(
        equation(
            "quadri.4",
            A3,
            app(pd, app(pv, _x, _y), _z),
            expr(app(pv, _x, app(pd, _y, _z)), app(pv, _x, app(sd, _y, _z))),
        )
    )
    eqs.append(
        equation("quadri.5", A3, app(pd, app(sv, _x, _y), _z), app(sv, _x, app(pd, _y, _z)))
    )
    eqs.append(
        equation(
            "quadri.6",
            A3,
            app(sv, _x, app(sd, _y, _z)),
            expr(app(sd, app(pv, _x, _y), _z), app(sd, app(sv, _x, _y), _z)),
        )
    )
    eqs += _chain(
        "quadri.7",
        A3,
        [
            app(pd, app(pd, _x, _y), _z),
            expr(app(pd, _x, app(pv, _y, _z)), app(pd, _x, app(sv, _y, _z))),
            expr(app(pd, _x, app(pd, _y, _z)), app(pd, _x, app(sd, _y, _z))),
            expr(app(pd, _x, app(pv, _y, _z)), app(pd, _x, app(sd, _y, _z))),
            expr(app(pd, _x, app(pd, _y, _z)), app(pd, _x, app(sv, _y, _z))),
        ],
        paranoid,
    )
    eqs += _chain(
        "quadri.8",
        A3,
        [
            app(pd, app(sd, _x, _y), _z),
            app(sd, _x, app(pv, _y, _z)),
            app(sd, _x, app(pd, _y, _z)),
        ],
        paranoid,
    )
    eqs += _chain(
        "quadri.9",
        A3,
        [
            app(sd, _x, app(sv, _y, _z)),
            app(sd, _x, app(sd, _y, _z)),
            expr(app(sd, app(pd, _x, _y), _z), app(sd, app(sd, _x, _y), _z)),
        ],
        paranoid,
    )
    return eqs


def _catalog_six(paranoid: bool):
    """The 9 + 8 + 8 compatibility axioms between the perp pair and the
    quadri quadruple.  The embedded dendriform and quadri axioms are not
    repeated here; check them via perp_dendriform_part / quadri_part."""
    A3 = ("A", "A", "A")
    pv, pd, sv, sd = "prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"
    pp, sp = "prec_perp", "succ_perp"
    eqs: list[IdentitySchema] = []
    eqs.append(
        equation(
            "six.1.1",
            A3,
            app(pp, app(pv, _x, _y), _z),
            expr(app(pv, _x, app(pp, _y, _z)), app(pv, _x, app(sp, _y, _z))),
        )
    )
    eqs.append(equation("six.1.2", A3, app(pp, app(sv, _x, _y), _z), app(sv, _x, app(pp, _y, _z))))
    eqs.append(
        equation(
            "six.1.3",
            A3,
            app(sv, _x, app(sp, _y, _z)),
            expr(app(sp, app(pv, _x, _y), _z), app(sp, app(sv, _x, _y), _z)),
        )
    )
    eqs.append(
        equation(
            "six.1.4",
            A3,
            app(pp, app(pd, _x, _y), _z),
            expr(app(pp, _x, app(pv, _y, _z)), app(pp, _x, app(sv, _y, _z))),
        )
    )
    eqs.append(equation("six.1.5", A3, app(pp, app(sd, _x, _y), _z), app(sp, _x, app(pv, _y, _z))))
    eqs.append(
        equation(
            "six.1.6",
            A3,
            app(sp, _x, app(sv, _y, _z)),
            expr(app(sp, app(pd, _x, _y), _z), app(sp, app(sd, _x, _y), _z)),
        )
    )
    eqs.append(
        equation(
            "six.1.7",
            A3,
            app(pd, app(pp, _x, _y), _z),
            expr(app(pp, _x, app(pd, _y, _z)), app(pp, _x, app(sd, _y, _z))),
        )
    )
    eqs.append(equation("six.1.8", A3, app(pd, app(sp, _x, _y), _z), app(sp, _x, app(pd, _y, _z))))
    eqs.append(
        equation(
            "six.1.9",
            A3,
            app(sp, _x, app(sd, _y, _z)),
            expr(app(sd, app(pp, _x, _y), _z), app(sd, app(sp, _x, _y), _z)),
        )
    )
    # four chains of three, outer op applied to three inner variants
    for n, (outer, position) in enumerate(
        [(pv, "p"), (pv, "s"), (sv, "p"), (sv, "s")], start=1
    ):
        inner = {"p": (pp, pv, pd), "s": (sp, sv, sd)}[position]
        eqs += _chain(
            f"six.2.{n}",
            A3,
            [app(outer, app(i, _x, _y), _z) for i in inner],
            paranoid,
        )
    # four chains of three, inner variants on the right argument
    for n, (outer, position) in enumerate(
        [(pd, "p"), (sd, "p"), (pd, "s"), (sd, "s")], start=1
    ):
        inner = {"p": (pp, pv, pd), "s": (sp, sv, sd)}[position]
        eqs += _chain(
            f"six.3.{n}",
            A3,
            [app(outer, _x, app(i, _y, _z)) for i in inner],
            paranoid,
        )
    return eqs


def _catalog_dend_representation(paranoid: bool):
    d = ("prec", "succ")
    l = ("prec_l", "succ_l")
    r = ("prec_r", "succ_r")
    eqs = []
    eqs += _dend_shape(("rep.1", "rep.2", "rep.3"), ("A", "A", "V"), d, l, l, l)
    eqs += _dend_shape(("rep.4", "rep.5", "rep.6"), ("A", "V", "A"), l, r, r, l)
    eqs += _dend_shape(("rep.7", "rep.8", "rep.9"), ("V", "A", "A"), r, d, r, r)
    return eqs


def _catalog_dend_action(paranoid: bool):
    # prec_t / succ_t are the target algebra's own dendriform operations.
    l = ("prec_l", "succ_l")
    r = ("prec_r", "succ_r")
    t = ("prec_t", "succ_t")
    eqs = []
    eqs += _dend_shape(("act.1", "act.2", "act.3"), ("A", "V", "V"), l, t, t, l)
    eqs += _dend_shape(("act.4", "act.5", "act.6"), ("V", "A", "V"), r, l, t, t)
    eqs += _dend_shape(("act.7", "act.8", "act.9"), ("V", "V", "A"), t, r, r, t)
    return eqs


_CATALOGS = {
    "associative": _catalog_associative,
    "dendriform": _catalog_dendriform,
    "diassociative": _catalog_diassociative,
    "triassociative": _catalog_triassociative,
    "quadri": _catalog_quadri,
    "six": _catalog_six,
    "dend-representation": _catalog_dend_representation,
    "dend-action": _catalog_dend_action,
}

CATALOG_NAMES = tuple(sorted(_CATALOGS))


def catalog(name: str, paranoid: bool = False) -> list[IdentitySchema]:
    try:
        builder = _CATALOGS[name]
    except KeyError:
        raise UnknownCatalog(
            f"unknown catalog {name!r}; known: {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder(paranoid)


# ----------------------------------------------------------------------
# Evaluation

class OpContext:
    """Resolves operation and map names to tensors with sorted signatures,
    and knows the dimension of each sort."""

    def __init__(self, ops: Mapping[str, tuple], dims: Mapping[str, int], maps: Mapping[str, tuple] | None = None):
        self.ops = dict(ops)
        self.dims = dict(dims)
        self.maps = dict(maps or {})

    def resolve(self, name: str) -> tuple[BilinearOp, str, str, str]:
        try:
            return self.ops[name]
        except KeyError:
            raise SpecError(f"object supplies no operation {name!r}") from None

    def resolve_map(self, name: str) -> tuple[LinearMap, str, str]:
        try:
            return self.maps[name]
        except KeyError:
            raise SpecError(f"no linear map {name!r} to apply") from None


def context_for(obj) -> OpContext:
    if isinstance(obj, Algebra):
        ops = {
            name: (op, "A", "A", "A") for name, op in obj.operations.items()
        }
        return OpContext(ops, {"A": obj.dimension, "V": 0})
    if isinstance(obj, Action):
        ctx = context_for(obj.representation)
        ctx.ops["prec_t"] = (obj.target.op("prec"), "V", "V", "V")
        ctx.ops["succ_t"] = (obj.target.op("succ"), "V", "V", "V")
        return ctx
    if isinstance(obj, Representation):
        ops = {
            name: (op, "A", "A", "A") for name, op in obj.base.operations.items()
        }
        ops["prec_l"] = (obj.actions["prec_l"], "A", "V", "V")
        ops["succ_l"] = (obj.actions["succ_l"], "A", "V", "V")
        ops["prec_r"] = (obj.actions["prec_r"], "V", "A", "V")
        ops["succ_r"] = (obj.actions["succ_r"], "V", "A", "V")
        return OpContext(ops, {"A": obj.base.dimension, "V": obj.module_dim})
    raise SpecError(f"cannot check identities on {type(obj).__name__}")


# The reference evaluator: interprets a schema at arbitrary slot values.
# The tests compare the compiled scan below against it.

def _eval_term(term: Term, schema: IdentitySchema, ctx: OpContext, values) -> tuple[Vector, str]:
    """(value, sort) of a term at the slot values."""
    if term[0] == "var":
        return values[term[1]], schema.slot_sorts[term[1]]
    if term[0] == "map":
        m, source, target = ctx.resolve_map(term[1])
        value, sort = _eval_expr(term[2], schema, ctx, values)
        if sort != source:
            raise SpecError(f"map {term[1]!r} applied to an argument of the wrong sort")
        return m.apply(value), target
    op, ls, rs, out = ctx.resolve(term[0])
    left, lsort = _eval_term(term[1], schema, ctx, values)
    right, rsort = _eval_term(term[2], schema, ctx, values)
    if (lsort, rsort) != (ls, rs):
        raise SpecError(
            f"operation {term[0]!r} applied to arguments of the wrong sort"
        )
    return evaluate(op, left, right), out


def _eval_expr(e: Expr, schema: IdentitySchema, ctx: OpContext, values):
    """(value, sort) of a non-empty expression; (None, None) for the empty one."""
    total = sort = None
    for coef, term in e:
        v, sort = _eval_term(term, schema, ctx, values)
        scaled = tuple(coef * a for a in v)
        total = scaled if total is None else tuple(a + b for a, b in zip(total, scaled))
    return total, sort


def evaluate_schema(schema: IdentitySchema, ctx: OpContext, values: Sequence[Vector]) -> Vector:
    """lhs - rhs of a schema at arbitrary slot values (not just basis)."""
    lhs = _eval_expr(schema.lhs, schema, ctx, values)[0]
    rhs = _eval_expr(schema.rhs, schema, ctx, values)[0]
    if rhs is None:
        return lhs
    if lhs is None:
        return tuple(-a for a in rhs)
    return vec_sub(lhs, rhs)


# ----------------------------------------------------------------------
# The scan
#
# A check compiles each distinct subterm (keyed by the term and the slot
# sorts of its group) once, into a function of the basis tuple bound to the
# context's tensors.  A subterm reading fewer slots than its group has is
# tabulated over the slots it reads; an operation on two basis leaves and a
# map on a basis leaf need no table, as they look up structure constants
# and columns.  Terms reading every slot are evaluated per tuple and
# dropped.  The scan goes group by group and, inside a group, tuple-major:
# at each basis tuple (lexicographic order), every equation of the group.

_ZERO = Fraction(0)


def _unit(c):
    """Plain ints for +-1, which _lincomb tests for cheaply."""
    return int(c) if c in (1, -1) else c


@functools.lru_cache(maxsize=64)
def _basis(dim: int) -> tuple[Vector, ...]:
    return tuple(basis_vector(dim, i) for i in range(dim))


def _lincomb(pairs) -> Vector | None:
    """sum c * v over (c, v) pairs; None when there are none."""
    acc = None
    for c, v in pairs:
        if acc is None:
            acc = v if c == 1 else tuple(map(neg, v)) if c == -1 else tuple(c * a for a in v)
        elif c == 1:
            acc = tuple(map(add, acc, v))
        elif c == -1:
            acc = tuple(map(sub, acc, v))
        else:
            acc = tuple(a + c * b for a, b in zip(acc, v))
    return acc


def _product(cells, out_dim: int, x: Vector, y: Vector) -> Vector:
    """x * y, from the non-zero (k, c) of each structure-constant vector."""
    out = [_ZERO] * out_dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            row = cells[i]
            for j, b in ys:
                if row[j]:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
    return tuple(out)


def _image(columns, out_dim: int, v: Vector) -> Vector:
    """M v, from the non-zero (k, c) of each column of M."""
    out = [_ZERO] * out_dim
    for j, a in enumerate(v):
        if a:
            for k, c in columns[j]:
                out[k] += a * c
    return tuple(out)


def _compile(term: Term, sorts: tuple[str, ...], ctx: OpContext, memo: dict):
    """(function of the basis tuple, output sort, slots read, slot if the
    term is a variable leaf) for a term in a group with these slot sorts."""
    key = (term, sorts)
    if key in memo:
        return memo[key]
    if term[0] == "var":
        s, basis = term[1], _basis(ctx.dims[sorts[term[1]]])
        memo[key] = (lambda idx: basis[idx[s]]), sorts[s], (s,), s
        return memo[key]
    if term[0] == "map":
        m, source, out_sort = ctx.resolve_map(term[1])
        args = [(_unit(c), _compile(t, sorts, ctx, memo)) for c, t in term[2]]
        if any(arg[1] != source for _, arg in args):
            raise SpecError(f"map {term[1]!r} applied to an argument of the wrong sort")
        columns = [m.column(j) for j in range(m.source_dim)]
        if len(args) == 1 and args[0][0] == 1 and args[0][1][3] is not None:
            fn, lookup = (lambda idx, s=args[0][1][3]: columns[idx[s]]), True
        else:
            sparse = [[(k, c) for k, c in enumerate(col) if c] for col in columns]
            terms = [(c, arg[0]) for c, arg in args]
            fn = lambda idx: _image(sparse, m.target_dim, _lincomb((c, f(idx)) for c, f in terms))
            lookup = False
        children = [arg for _, arg in args]
    else:
        op, ls, rs, out_sort = ctx.resolve(term[0])
        children = [_compile(term[1], sorts, ctx, memo), _compile(term[2], sorts, ctx, memo)]
        (lf, lsort, _, a), (rf, rsort, _, b) = children
        if (lsort, rsort) != (ls, rs):
            raise SpecError(f"operation {term[0]!r} applied to arguments of the wrong sort")
        lookup = a is not None and b is not None
        if lookup:
            fn = lambda idx: op.coeffs[idx[a]][idx[b]]
        else:  # the non-zero structure constants, sparsified once per check
            if ("cells", term[0]) not in memo:
                memo["cells", term[0]] = [
                    [[(k, c) for k, c in enumerate(v) if c] for v in row] for row in op.coeffs
                ]
            cells = memo["cells", term[0]]
            fn = lambda idx: _product(cells, op.out_dim, lf(idx), rf(idx))
    slots = tuple(sorted({s for child in children for s in child[2]}))
    if not lookup and len(slots) < len(sorts):
        fn = _tabulate(fn, slots, [ctx.dims[sorts[s]] for s in slots])
    memo[key] = fn, out_sort, slots, None
    return memo[key]


def _tabulate(fn, slots: tuple[int, ...], dims: list[int]):
    """Evaluate fn once per assignment of the slots it reads; the result
    looks the value up."""
    idx = [0] * (slots[-1] + 1)
    table = {}
    for assignment in itertools.product(*map(range, dims)):
        for s, i in zip(slots, assignment):
            idx[s] = i
        table[assignment] = fn(idx)
    return lambda idx: table[tuple(idx[s] for s in slots)]


def tabulate(ctx: OpContext, sorts: Sequence[str], table: Mapping[str, Term]) -> dict[str, BilinearOp]:
    """Each term of the table, in two slots of these sorts, as the bilinear
    operation of its values on the basis pairs; compiled as the scan
    compiles it, with one memo for the whole table."""
    memo: dict = {}
    sorts = tuple(sorts)
    left, right = (ctx.dims[s] for s in sorts)
    ops = {}
    for name, term in table.items():
        fn, out_sort = _compile(term, sorts, ctx, memo)[:2]
        rows = [[fn((i, j)) for j in range(right)] for i in range(left)]
        ops[name] = BilinearOp(left, right, ctx.dims[out_sort], rows)
    return ops


def _scan(ctx: OpContext, groups, max_violations: int, kind: str | None = None) -> ViolationReport:
    """Evaluate every equation of every group on every basis tuple of its
    slot sorts; collect the non-zero residuals up to the cap.  The schemas
    of a group share their slot sorts."""
    memo: dict = {}
    compiled = []
    for group in groups:
        sorts = group[0].slot_sorts
        tops: dict = {}  # function -> position in the values of a tuple
        equations = []
        for schema in group:
            if schema.slot_sorts != sorts:
                raise SpecError("the schemas of a group must share their slot sorts")
            coefs: dict[int, Fraction] = {}
            out_sorts = set()
            for sign, side in ((1, schema.lhs), (-1, schema.rhs)):
                for c, term in side:
                    fn, out_sort = _compile(term, sorts, ctx, memo)[:2]
                    out_sorts.add(out_sort)
                    position = tops.setdefault(fn, len(tops))
                    coefs[position] = coefs.get(position, 0) + sign * c
            if len(out_sorts) > 1:
                raise SpecError(f"schema {schema.id!r} equates terms of different sorts")
            equations.append((schema.id, [(_unit(c), p) for p, c in coefs.items() if c]))
        compiled.append((sorts, list(tops), equations))
    checked = 0
    violations: list[Violation] = []
    truncated = False
    for sorts, tops, equations in compiled:
        ranges = [range(ctx.dims[s]) for s in sorts]
        checked += len(equations) * math.prod(map(len, ranges))
        for idx in itertools.product(*ranges):
            values = [f(idx) for f in tops]
            for eqid, signed in equations:
                residual = _lincomb((c, values[p]) for c, p in signed)
                if residual is not None and any(residual):
                    if len(violations) < max_violations:
                        violations.append(Violation(eqid, idx, residual))
                    else:
                        truncated = True
    return ViolationReport(checked, violations, truncated, kind)


def check(
    obj,
    catalog_name: str,
    paranoid: bool = False,
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> ViolationReport:
    """Evaluate every schema of the catalog on every basis tuple consistent
    with the slot sorts; collect all nonzero residuals (up to the cap)."""
    schemas = catalog(catalog_name, paranoid=paranoid)
    return check_schemas(obj, schemas, max_violations=max_violations)


def check_schemas(
    obj, schemas: Sequence[IdentitySchema], max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Each schema is its own group, so witnesses come schema by schema."""
    return _scan(context_for(obj), [(schema,) for schema in schemas], max_violations)


def check_morphism(
    f: LinearMap,
    source: Algebra,
    target: Algebra,
    op_pairing: Mapping[str, str],
    max_violations: int = DEFAULT_VIOLATION_CAP,
) -> ViolationReport:
    """Check f(a * b) = f(a) *' f(b) on basis pairs, for every source
    operation * paired with a target operation *'."""
    if f.source_dim != source.dimension or f.target_dim != target.dimension:
        raise SpecError(
            f"map {f.source_dim}->{f.target_dim} does not match algebras of "
            f"dimensions {source.dimension}, {target.dimension}"
        )
    ops, groups = {}, []
    for src_name, tgt_name in sorted(op_pairing.items()):
        src, tgt = "source:" + src_name, "target:" + tgt_name
        ops[src] = (source.op(src_name), "A", "A", "A")
        ops[tgt] = (target.op(tgt_name), "B", "B", "B")
        lhs = apply_map("f", app(src, var(0), var(1)))
        rhs = app(tgt, apply_map("f", var(0)), apply_map("f", var(1)))
        groups.append((equation(f"morphism:{src_name}->{tgt_name}", ("A", "A"), lhs, rhs),))
    ctx = OpContext(ops, {"A": source.dimension, "B": target.dimension}, {"f": (f, "A", "B")})
    return _scan(ctx, groups, max_violations)


QUADRI_TO_DENDRIFORM_COLLAPSE = {
    "prec_vdash": "prec",
    "prec_dashv": "prec",
    "succ_vdash": "succ",
    "succ_dashv": "succ",
}
