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
morphisms, differentials) is a list of schema groups run by `_scan`.  A
three-slot group made only of depth-2 products of its three slots (every
catalog's) is contracted as sparse tensors; every other group visits its
basis tuples one by one.  An operator search instead compiles its kind into
polynomials in the entries of its map (`residual_polynomials`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from .linalg import Vector, vec_add
from .model import (
    ACTION_SORTS,
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
        return not self.violations and not self.truncated

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
    eqs += _dend_shape(("quadri.4", "quadri.5", "quadri.6"), A3, (pv, sv), (pd, sd), (pd, sd), (pv, sv))
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
    eqs = _dend_shape(("six.1.1", "six.1.2", "six.1.3"), A3, (pv, sv), (pp, sp), (pp, sp), (pv, sv))
    eqs += _dend_shape(("six.1.4", "six.1.5", "six.1.6"), A3, (pd, sd), (pv, sv), (pp, sp), (pp, sp))
    eqs += _dend_shape(("six.1.7", "six.1.8", "six.1.9"), A3, (pp, sp), (pd, sd), (pd, sd), (pp, sp))
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
    if isinstance(obj, Representation):
        ops = {
            name: (op, "A", "A", "A") for name, op in obj.base.operations.items()
        }
        ops.update((name, (obj.actions[name], *sorts)) for name, sorts in ACTION_SORTS.items())
        if isinstance(obj, Action):
            ops["prec_t"] = (obj.target.op("prec"), "V", "V", "V")
            ops["succ_t"] = (obj.target.op("succ"), "V", "V", "V")
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
        total = scaled if total is None else vec_add(total, scaled)
    return total, sort


def evaluate_schema(schema: IdentitySchema, ctx: OpContext, values: Sequence[Vector]) -> Vector:
    """lhs - rhs of a schema at arbitrary slot values (not just basis); the
    empty tuple for 0 = 0, where no term fixes a sort."""
    difference = schema.lhs + tuple((-c, term) for c, term in schema.rhs)
    return _eval_expr(difference, schema, ctx, values)[0] or ()


# ----------------------------------------------------------------------
# The scan
#
# A program compiles schema groups once against a context's signature (its
# operation and map names with their sorts, and the dimension of each
# sort): each distinct subterm, keyed by the term and the slot sorts of its
# group, becomes a node whose binder reads the context's current tensors
# and returns a function of the basis tuple.  (An operator search does not
# bind candidate maps: it compiles its kind into polynomials in the map's
# entries, residual_polynomials below.)  A subterm reading fewer slots
# than its group has is tabulated at bind over the slots it reads; an
# operation on two basis leaves and a map on a basis leaf look up structure
# constants and columns.  Terms reading every slot are evaluated per tuple.
# The scan goes group by group and, inside a group, tuple-major: at each
# basis tuple (lexicographic order), every equation of the group.
#
# A group of three slots whose every term is op2(op1(x_a, x_b), x_c) or
# op2(x_c, op1(x_a, x_b)), for a, b, c its three slots, is contracted
# instead: each such term binds to a sparse tensor, {rank of the basis tuple
# in lexicographic order: its value}, built by joining op1's non-zero cells
# with op2's rows (inner product on the left) or columns (on the right).  An
# equation's residuals are the sum of its terms' tensors, so only tuples in
# their supports are visited; the non-zero ones are reported in (tuple,
# equation position) order, the order of the scan, with the same residuals.
#
# All of it runs on Python ints.  Each tensor and map is scaled by D, the
# lcm of the denominators of its non-zero entries, once in its lifetime (its
# integer_form); basis leaves are 0/1 ints.  A bound node carries its scale
# s, the product of the scales of its nodes, and its value is the true value
# times s.  An equation (or a map argument) brings its terms to one scale S,
# the lcm of their scales times the lcm of the denominators of their
# coefficients, so a residual r is exactly zero iff r is, and its true value
# is r / S.  Scales are worked out at every bind, as D changes with T.


def _common_scale(pairs) -> tuple[int, list[int]]:
    """(S, the ints c * S / s) for terms of scale s with coefficients c."""
    scale = math.lcm(*(s for _, s in pairs)) * math.lcm(*(c.denominator for c, _ in pairs))
    return scale, [c.numerator * (scale // s) // c.denominator for c, s in pairs]


def _lincomb(pairs) -> tuple[int, ...] | None:
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


def _product(cells, out_dim: int, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x * y, from the non-zero (k, c) of each structure-constant vector."""
    out = [0] * out_dim
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


def _image(columns, out_dim: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """M v, from the non-zero (k, c) of each column of M."""
    out = [0] * out_dim
    for j, a in enumerate(v):
        if a:
            for k, c in columns[j]:
                out[k] += a * c
    return tuple(out)


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


def _contraction_shape(term: Term):
    """(outer op, inner op, (a, b, c), inner on the left) when the term is
    op2(op1(x_a, x_b), x_c) or op2(x_c, op1(x_a, x_b)) for slots a, b, c
    a permutation of 0, 1, 2; None otherwise."""
    if term[0] in ("var", "map"):
        return None
    outer, left, right = term
    on_left = left[0] != "var"
    inner, leaf = (left, right) if on_left else (right, left)
    if leaf[0] != "var" or inner[0] in ("var", "map") or inner[1][0] != "var" or inner[2][0] != "var":
        return None
    slots = (inner[1][1], inner[2][1], leaf[1])
    return (outer, inner[0], slots, on_left) if sorted(slots) == [0, 1, 2] else None


def _term_tensor(inner_cells, outer_cells, strides, on_left: bool, out_dim: int) -> dict:
    """{rank: value ints} over the basis tuples where the term is not
    (structurally) zero: inner_cells[p][q] are op1's non-zero (m, c) at
    x_a = e_p, x_b = e_q, outer_cells op2's, and the tuple of (p, q, r),
    r the index of x_c, has rank p*sa + q*sb + r*sc for strides (sa, sb, sc)."""
    sa, sb, sc = strides
    if on_left:  # row m of op2: x_c = e_r on the right of e_m
        line = lambda m: [(r, cells) for r, cells in enumerate(outer_cells[m]) if cells]
    else:  # column m of op2: x_c = e_r on the left of e_m
        line = lambda m: [(r, row[m]) for r, row in enumerate(outer_cells) if row[m]]
    lines: dict[int, list] = {}
    tensor: dict[int, list[int]] = {}
    for p, row in enumerate(inner_cells):
        for q, cells in enumerate(row):
            base = p * sa + q * sb
            for m, c1 in cells:
                if m not in lines:
                    lines[m] = line(m)
                for r, cells2 in lines[m]:
                    rank = base + r * sc
                    v = tensor.get(rank)
                    if v is None:
                        v = tensor[rank] = [0] * out_dim
                    for k, c2 in cells2:
                        v[k] += c1 * c2
    return tensor


def _unrank(rank: int, dims) -> tuple[int, int, int]:
    """The basis tuple of a rank in the lexicographic order on three slots."""
    i, rest = divmod(rank, dims[1] * dims[2])
    return (i, *divmod(rest, dims[2]))


def _contracted_violations(bound, tensors, dims):
    """violations() of a contracted group: each equation's residual as the
    sum of its terms' tensors, {rank: residual ints}; the non-zero ones in
    (tuple, equation position) order."""
    found = []
    for position, (eqid, scale, signed) in enumerate(bound):
        residuals: dict = {}
        get = residuals.get
        for c, p in signed:
            for rank, v in tensors[p].items():
                old = get(rank)
                residuals[rank] = _lincomb(((c, v),) if old is None else ((1, old), (c, v)))
        found += [(rank, position, eqid, r, scale) for rank, r in residuals.items() if any(r)]
    found.sort(key=lambda f: f[:2])
    for rank, _, eqid, residual, scale in found:
        yield eqid, _unrank(rank, dims), residual, scale


class _Program:
    """Schema groups (and terms) compiled against the signature of a
    context; `violations` binds the context's current tensors and scans."""

    def __init__(self, ctx: OpContext, groups=()):
        self.ctx = ctx
        # per node, children first: (binder (fns, scales) -> (fn, scale),
        # (slots, dims) to tabulate the bound function over, or None)
        self.binders: list = []
        self._memo: dict = {}
        # (slot sorts, nodes bound before the group runs, top nodes,
        # [(equation id, [(coefficient, top position)])], contracted)
        self.groups = [self._group(group) for group in groups]
        # per group, the tensors no later group reads: dropped after it, so
        # a check holds only the tensors it has still to read
        last = {n: g for g, group in enumerate(self.groups) if group[4] for n in group[2]}
        self.released = [[n for n, g in last.items() if g == group] for group in range(len(self.groups))]

    def _group(self, group):
        sorts = group[0].slot_sorts
        contracted = len(sorts) == 3 and all(
            _contraction_shape(term) for schema in group for _, term in schema.lhs + schema.rhs
        )
        tops: dict[int, int] = {}  # node -> position in the values of a tuple
        equations = []
        for schema in group:
            if schema.slot_sorts != sorts:
                raise SpecError("the schemas of a group must share their slot sorts")
            coefs: dict[int, Fraction] = {}
            out_sorts = set()
            for sign, side in ((1, schema.lhs), (-1, schema.rhs)):
                for c, term in side:
                    node, out_sort, _, _ = self.compile(term, sorts, contracted)
                    out_sorts.add(out_sort)
                    top = tops.setdefault(node, len(tops))
                    coefs[top] = coefs.get(top, 0) + sign * c
            if len(out_sorts) > 1:
                raise SpecError(f"schema {schema.id!r} equates terms of different sorts")
            equations.append((schema.id, [(c, top) for top, c in coefs.items() if c]))
        return sorts, len(self.binders), list(tops), equations, contracted

    def compile(self, term: Term, sorts: tuple[str, ...], contracted: bool = False):
        """(node, output sort, slots read, slot if the term is a variable
        leaf) for a term in a group with these slot sorts; the node of a
        contracted term binds to its sparse tensor, not to a function."""
        key = (term, sorts, contracted)
        if key not in self._memo:
            binder, table, *compiled = (self._compile_contracted if contracted else self._compile)(term, sorts)
            self.binders.append((binder, table))
            self._memo[key] = (len(self.binders) - 1, *compiled)
        return self._memo[key]

    def _compile(self, term: Term, sorts: tuple[str, ...]):
        """(binder, table, output sort, slots read, leaf slot) of a new node."""
        ctx = self.ctx
        if term[0] == "var":
            s, dim = term[1], ctx.dims[sorts[term[1]]]
            basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
            fn = lambda idx: basis[idx[s]]
            return (lambda fns, scales: (fn, 1)), None, sorts[s], (s,), s
        if term[0] == "map":
            name = term[1]
            _, source, out_sort = ctx.resolve_map(name)
            children = [self.compile(t, sorts) for _, t in term[2]]
            if any(child[1] != source for child in children):
                raise SpecError(f"map {name!r} applied to an argument of the wrong sort")
            coefs, nodes = [c for c, _ in term[2]], [child[0] for child in children]
            leaf = children[0][3] if len(children) == 1 and coefs[0] == 1 else None
            lookup = leaf is not None

            def bind(fns, scales):
                m = ctx.maps[name][0]
                d, columns, sparse = m.integer_form
                if lookup:
                    return (lambda idx: columns[idx[leaf]]), d
                arg_scale, ints = _common_scale([(c, scales[n]) for c, n in zip(coefs, nodes)])
                terms = [(c, fns[n]) for c, n in zip(ints, nodes)]
                return (lambda idx: _image(sparse, m.target_dim, _lincomb((c, f(idx)) for c, f in terms))), d * arg_scale
        else:
            name = term[0]
            _, ls, rs, out_sort = ctx.resolve(name)
            children = [self.compile(term[1], sorts), self.compile(term[2], sorts)]
            (left, lsort, _, a), (right, rsort, _, b) = children
            if (lsort, rsort) != (ls, rs):
                raise SpecError(f"operation {name!r} applied to arguments of the wrong sort")
            lookup = a is not None and b is not None

            def bind(fns, scales):
                op = ctx.ops[name][0]
                d, rows, cells = op.integer_form
                scale = d * scales[left] * scales[right]
                if lookup:
                    return (lambda idx: rows[idx[a]][idx[b]]), scale
                lf, rf = fns[left], fns[right]
                return (lambda idx: _product(cells, op.out_dim, lf(idx), rf(idx))), scale
        slots = tuple(sorted({s for child in children for s in child[2]}))
        table = None if lookup or len(slots) == len(sorts) else (slots, [ctx.dims[sorts[s]] for s in slots])
        return bind, table, out_sort, slots, None

    def _compile_contracted(self, term: Term, sorts: tuple[str, ...]):
        """_compile for a term of contraction shape, with the same refusals
        in the same order."""
        ctx = self.ctx
        outer, inner, (a, b, c), on_left = _contraction_shape(term)
        _, ols, ors, out_sort = ctx.resolve(outer)
        _, ils, irs, mid = ctx.resolve(inner)
        if (ils, irs) != (sorts[a], sorts[b]):
            raise SpecError(f"operation {inner!r} applied to arguments of the wrong sort")
        if (ols, ors) != ((mid, sorts[c]) if on_left else (sorts[c], mid)):
            raise SpecError(f"operation {outer!r} applied to arguments of the wrong sort")
        _, d1, d2 = (ctx.dims[s] for s in sorts)
        strides = (d1 * d2, d2, 1)
        strides = (strides[a], strides[b], strides[c])

        def bind(fns, scales):
            d_in, _, inner_cells = ctx.ops[inner][0].integer_form
            op = ctx.ops[outer][0]
            d_out, _, outer_cells = op.integer_form
            tensor = _term_tensor(inner_cells, outer_cells, strides, on_left, op.out_dim)
            return tensor, d_in * d_out

        return bind, None, out_sort, (0, 1, 2), None

    def bind(self, fns: list, scales: list, end: int | None = None) -> None:
        """Extend fns and scales, each node's function of the basis tuple
        (its value times its scale, in ints) and its scale, to the first
        `end` nodes, on the context's current tensors."""
        for binder, table in self.binders[len(fns):end]:
            fn, scale = binder(fns, scales)
            fns.append(fn if table is None else _tabulate(fn, *table))
            scales.append(scale)

    def violations(self):
        """(equation id, basis tuple, residual ints, scale) of each non-zero
        residual in scan order, lazily: a caller that needs only the first
        binds and evaluates no further."""
        fns, scales = [], []
        for released, (sorts, end, tops, equations, contracted) in zip(self.released, self.groups):
            self.bind(fns, scales, end)
            bound = []
            for eqid, terms in equations:
                scale, ints = _common_scale([(c, scales[tops[p]]) for c, p in terms])
                bound.append((eqid, scale, [(c, p) for c, (_, p) in zip(ints, terms)]))
            dims = [self.ctx.dims[s] for s in sorts]
            if contracted:
                yield from _contracted_violations(bound, [fns[n] for n in tops], dims)
                for n in released:
                    fns[n] = None
                continue
            values_of = [fns[n] for n in tops]
            for idx in itertools.product(*map(range, dims)):
                values = [f(idx) for f in values_of]
                for eqid, scale, signed in bound:
                    residual = _lincomb((c, values[p]) for c, p in signed)
                    if residual is not None and any(residual):
                        yield eqid, idx, residual, scale


# ----------------------------------------------------------------------
# Residuals as polynomials in the entries of a map
#
# An operator search fixes the operations and varies the map T over a grid,
# so T's entries are kept as variables: the entry in row r and column c of a
# map from a sort of dimension m is variable r*m + c, the row-major position
# of the entry.  A value is a sparse vector {component: polynomial}, and a
# polynomial is {monomial: int} with a monomial the sorted tuple of its
# variables.  Operations multiply through the non-zero cells of their
# integer forms and carry scales as the scan does; a map node multiplies by
# the variables of its column.

_ONE = {(): 1}


def _poly_mul_add(target: dict, c: int, p: dict, q: dict) -> None:
    """target += c * p * q, for polynomials."""
    for m1, a in p.items():
        for m2, b in q.items():
            mono = tuple(sorted(m1 + m2))
            target[mono] = target.get(mono, 0) + c * a * b


def _poly_value(term: Term, ctx: OpContext, idx, shape, memo: dict):
    """(vector, scale) of a term at the basis tuple idx, with the map
    nodes applying a symbolic map of shape (source_dim, target_dim)."""
    if term not in memo:
        if term[0] == "var":
            memo[term] = {idx[term[1]]: _ONE}, 1
        elif term[0] == "map":
            source_dim, target_dim = shape
            scale, vec = _poly_combine(term[2], ctx, idx, shape, memo)
            out: dict = {}
            for c, p in vec.items():
                for r in range(target_dim):
                    _poly_mul_add(out.setdefault(r, {}), 1, p, {(r * source_dim + c,): 1})
            memo[term] = out, scale
        else:
            d, _, cells = ctx.resolve(term[0])[0].integer_form
            (x, sx), (y, sy) = (_poly_value(t, ctx, idx, shape, memo) for t in term[1:])
            out = {}
            for i, p in x.items():
                for j, q in y.items():
                    for k, c in cells[i][j]:
                        _poly_mul_add(out.setdefault(k, {}), c, p, q)
            memo[term] = out, d * sx * sy
    return memo[term]


def _poly_combine(e: Expr, ctx: OpContext, idx, shape, memo: dict):
    """(S, S times the vector) of an expression, S as in the scan."""
    values = [_poly_value(term, ctx, idx, shape, memo) for _, term in e]
    scale, ints = _common_scale([(c, s) for (c, _), (_, s) in zip(e, values)])
    out: dict = {}
    for c, (vec, _) in zip(ints, values):
        for k, p in vec.items():
            _poly_mul_add(out.setdefault(k, {}), c, p, _ONE)
    return scale, out


def residual_polynomials(ctx: OpContext, groups, source_dim: int, target_dim: int) -> list[dict]:
    """Every equation of the groups at every basis tuple of its slot sorts,
    with each map node applying one source_dim -> target_dim map whose
    entries are the variables: one polynomial {monomial: int} per non-zero
    (equation, basis tuple, output component), a non-zero multiple of the
    residual's."""
    found = []
    for group in groups:
        dims = [ctx.dims[s] for s in group[0].slot_sorts]
        for idx in itertools.product(*map(range, dims)):
            memo: dict = {}
            for schema in group:
                difference = schema.lhs + tuple((-c, term) for c, term in schema.rhs)
                _, residual = _poly_combine(difference, ctx, idx, (source_dim, target_dim), memo)
                for p in residual.values():
                    p = {mono: a for mono, a in p.items() if a}
                    if p:
                        found.append(p)
    return found


def tabulate(ctx: OpContext, sorts: Sequence[str], table: Mapping[str, Term]) -> dict[str, BilinearOp]:
    """Each term of the table, in two slots of these sorts, as the bilinear
    operation of its values on the basis pairs; compiled as the scan
    compiles it, in one program for the whole table."""
    program, sorts = _Program(ctx), tuple(sorts)
    left, right = (ctx.dims[s] for s in sorts)
    compiled = {name: program.compile(term, sorts) for name, term in table.items()}
    fns, scales = [], []
    program.bind(fns, scales)
    ops = {}
    for name, (node, out_sort, _, _) in compiled.items():
        fn, scale = fns[node], scales[node]
        rows = [[tuple(Fraction(a, scale) for a in fn((i, j))) for j in range(right)] for i in range(left)]
        ops[name] = BilinearOp(left, right, ctx.dims[out_sort], rows)
    return ops


def _scan(ctx: OpContext, groups, max_violations: int, kind: str | None = None) -> ViolationReport:
    """Evaluate every equation of every group on every basis tuple of its
    slot sorts; collect the non-zero residuals up to the cap.  The schemas
    of a group share their slot sorts."""
    program = _Program(ctx, groups)
    checked = sum(len(eqs) * math.prod(ctx.dims[s] for s in sorts) for sorts, _, _, eqs, _ in program.groups)
    violations: list[Violation] = []
    truncated = False
    for eqid, idx, residual, scale in program.violations():
        if len(violations) < max_violations:
            violations.append(Violation(eqid, idx, tuple(Fraction(r, scale) for r in residual)))
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
