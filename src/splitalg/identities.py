"""Multilinear identity schemas and their exhaustive evaluation on basis tuples.

An identity is a formal equation between linear combinations of terms in
one to three variable slots.  Slots carry a sort: A for the base algebra,
V for a module (operator and morphism checks name further sorts).  Every
term is multilinear: it reads each slot exactly once.  So checking an
identity on every basis tuple is equivalent to checking it on all vectors,
and the evaluator refuses, with a SpecError, a term that repeats a slot or
leaves one out, where that equivalence fails.

Chained equalities in the source axioms (a brace listing k equal
expressions) are encoded as the k-1 consecutive pairwise equations.  The
other pairs are redundant: at every basis tuple the residual of pair (i, j)
is the sum of the consecutive residuals between i and j, so it vanishes
wherever those do.

Every check in the package (catalogs, operator kinds, graph closure,
morphisms, differentials, quotients) is a list of schema groups evaluated
by one sparse evaluator (_Program): each subterm becomes a table of its
non-zero values over the basis tuples of the slots it reads, and an
equation's residuals are the sum of its terms' tables.  Its one output,
violations(), is what every caller reads: a term's table (tabulate) is the
residuals of term = 0.  An operator search runs the same evaluator once,
with the entries of its map as the variables of polynomials
(residual_polynomials).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .linalg import Vector
from .model import (
    ACTION_SORTS,
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
    half,
)

# A term is a variable leaf ("var", slot), a bilinear operation applied to
# two terms (op_name, left_term, right_term), or a linear map applied to a
# linear combination of terms ("map", map_name, expr).  The evaluator tells
# them apart by shape, so no operation or map name is reserved.
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


class _Record:
    """A record of named fields: field-wise ==, a hash of the fields and a
    repr that lists them, for subclasses that name their fields in
    __slots__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class IdentitySchema(_Record):
    __slots__ = ("id", "slot_sorts", "lhs", "rhs")

    def __init__(self, id: str, slot_sorts: tuple[str, ...], lhs: Expr, rhs: Expr):
        self.id, self.slot_sorts, self.lhs, self.rhs = id, slot_sorts, lhs, rhs


class Violation(_Record):
    __slots__ = ("identity", "witness", "residual")

    def __init__(self, identity: str, witness: tuple[int, ...], residual: Vector):
        self.identity, self.witness, self.residual = identity, witness, residual

    def to_dict(self) -> dict:
        from .documents import scalar_to_json

        return {
            "id": self.identity,
            "witness": list(self.witness),
            "residual": [scalar_to_json(e) for e in self.residual],
        }


class ViolationReport(_Record):
    """Outcome of a check.  Operator-style checks set `kind`, which adds a
    `kind: pass/FAIL` head to render() and a "kind" key to to_dict()."""

    __slots__ = ("checked", "violations", "truncated", "kind")
    __hash__ = None  # unhashable, like the list of violations it holds

    def __init__(self, checked: int, violations: list[Violation], truncated: bool = False,
                 kind: str | None = None):
        self.checked, self.violations, self.truncated, self.kind = checked, violations, truncated, kind

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
_A3 = ("A", "A", "A")


def equation(eqid, sorts, lhs, rhs) -> IdentitySchema:
    """Schema lhs = rhs; each side is a term or an expression, () is zero."""
    return IdentitySchema(eqid, tuple(sorts), _as_expr(lhs), _as_expr(rhs))


def _chain(eqid: str, sorts, exprs: Sequence) -> list[IdentitySchema]:
    """Encode E1 = E2 = ... = Ek as its k-1 consecutive pairs."""
    return [
        equation(f"{eqid}{'abcdefgh'[n]}", sorts, exprs[n], exprs[n + 1])
        for n in range(len(exprs) - 1)
    ]


def _dend_shape(ids, pair12, pair23, pair_out, pair_out2):
    """Three axioms of dendriform shape on the sorts A, A, A.

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
        _A3,
        app(po, app(p12, _x, _y), _z),
        expr(app(po2, _x, app(p23, _y, _z)), app(po2, _x, app(s23, _y, _z))),
    )
    e2 = equation(
        ids[1],
        _A3,
        app(po, app(s12, _x, _y), _z),
        app(so2, _x, app(p23, _y, _z)),
    )
    e3 = equation(
        ids[2],
        _A3,
        app(so2, _x, app(s23, _y, _z)),
        expr(app(so, app(p12, _x, _y), _z), app(so, app(s12, _x, _y), _z)),
    )
    return [e1, e2, e3]


def _catalog_associative():
    return [
        equation(
            "assoc",
            _A3,
            app("mul", app("mul", _x, _y), _z),
            app("mul", _x, app("mul", _y, _z)),
        )
    ]


def _catalog_dendriform():
    pair = ("prec", "succ")
    return _dend_shape(("dend.1", "dend.2", "dend.3"), pair, pair, pair, pair)


def _diass_equations(dashv: str, vdash: str, ids):
    return [
        equation(ids[0], _A3, app(dashv, app(dashv, _x, _y), _z), app(dashv, _x, app(vdash, _y, _z))),
        equation(ids[1], _A3, app(dashv, app(dashv, _x, _y), _z), app(dashv, _x, app(dashv, _y, _z))),
        equation(ids[2], _A3, app(dashv, app(vdash, _x, _y), _z), app(vdash, _x, app(dashv, _y, _z))),
        equation(ids[3], _A3, app(vdash, app(dashv, _x, _y), _z), app(vdash, _x, app(vdash, _y, _z))),
        equation(ids[4], _A3, app(vdash, app(vdash, _x, _y), _z), app(vdash, _x, app(vdash, _y, _z))),
    ]


def _catalog_diassociative():
    return _diass_equations("dashv", "vdash", ["di.1", "di.2", "di.3", "di.4", "di.5"])


def _catalog_triassociative():
    eqs = _diass_equations("dashv", "vdash", ["tri.1", "tri.2", "tri.3", "tri.4", "tri.5"])
    eqs.append(
        equation("tri.6", _A3, app("perp", app("perp", _x, _y), _z), app("perp", _x, app("perp", _y, _z)))
    )
    eqs += [
        equation("tri.7", _A3, app("dashv", app("dashv", _x, _y), _z), app("dashv", _x, app("perp", _y, _z))),
        equation("tri.8", _A3, app("dashv", app("perp", _x, _y), _z), app("perp", _x, app("dashv", _y, _z))),
        equation("tri.9", _A3, app("perp", app("dashv", _x, _y), _z), app("perp", _x, app("vdash", _y, _z))),
        equation("tri.10", _A3, app("perp", app("vdash", _x, _y), _z), app("vdash", _x, app("perp", _y, _z))),
        equation("tri.11", _A3, app("vdash", app("perp", _x, _y), _z), app("vdash", _x, app("vdash", _y, _z))),
    ]
    return eqs


def _catalog_quadri():
    pv, pd, sv, sd = "prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"
    eqs: list[IdentitySchema] = []
    eqs += _chain(
        "quadri.1",
        _A3,
        [
            app(pv, app(pv, _x, _y), _z),
            app(pv, app(pd, _x, _y), _z),
            expr(app(pv, _x, app(pv, _y, _z)), app(pv, _x, app(sv, _y, _z))),
        ],
    )
    eqs += _chain(
        "quadri.2",
        _A3,
        [
            app(pv, app(sv, _x, _y), _z),
            app(pv, app(sd, _x, _y), _z),
            app(sv, _x, app(pv, _y, _z)),
        ],
    )
    eqs += _chain(
        "quadri.3",
        _A3,
        [
            app(sv, _x, app(sv, _y, _z)),
            expr(app(sv, app(pv, _x, _y), _z), app(sv, app(sv, _x, _y), _z)),
            expr(app(sv, app(pd, _x, _y), _z), app(sv, app(sd, _x, _y), _z)),
            expr(app(sv, app(pv, _x, _y), _z), app(sv, app(sd, _x, _y), _z)),
            expr(app(sv, app(pd, _x, _y), _z), app(sv, app(sv, _x, _y), _z)),
        ],
    )
    eqs += _dend_shape(("quadri.4", "quadri.5", "quadri.6"), (pv, sv), (pd, sd), (pd, sd), (pv, sv))
    eqs += _chain(
        "quadri.7",
        _A3,
        [
            app(pd, app(pd, _x, _y), _z),
            expr(app(pd, _x, app(pv, _y, _z)), app(pd, _x, app(sv, _y, _z))),
            expr(app(pd, _x, app(pd, _y, _z)), app(pd, _x, app(sd, _y, _z))),
            expr(app(pd, _x, app(pv, _y, _z)), app(pd, _x, app(sd, _y, _z))),
            expr(app(pd, _x, app(pd, _y, _z)), app(pd, _x, app(sv, _y, _z))),
        ],
    )
    eqs += _chain(
        "quadri.8",
        _A3,
        [
            app(pd, app(sd, _x, _y), _z),
            app(sd, _x, app(pv, _y, _z)),
            app(sd, _x, app(pd, _y, _z)),
        ],
    )
    eqs += _chain(
        "quadri.9",
        _A3,
        [
            app(sd, _x, app(sv, _y, _z)),
            app(sd, _x, app(sd, _y, _z)),
            expr(app(sd, app(pd, _x, _y), _z), app(sd, app(sd, _x, _y), _z)),
        ],
    )
    return eqs


def _catalog_six():
    """The 9 + 8 + 8 compatibility axioms between the perp pair and the
    quadri quadruple.  The embedded dendriform and quadri axioms are not
    repeated here: constructions._require_axioms checks every six input's
    perp_dendriform_part and quadri_part."""
    pv, pd, sv, sd = "prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv"
    pp, sp = "prec_perp", "succ_perp"
    eqs = _dend_shape(("six.1.1", "six.1.2", "six.1.3"), (pv, sv), (pp, sp), (pp, sp), (pv, sv))
    eqs += _dend_shape(("six.1.4", "six.1.5", "six.1.6"), (pd, sd), (pv, sv), (pp, sp), (pp, sp))
    eqs += _dend_shape(("six.1.7", "six.1.8", "six.1.9"), (pp, sp), (pd, sd), (pd, sd), (pp, sp))
    # four chains of three, outer op applied to three inner variants
    for n, (outer, position) in enumerate(
        [(pv, "p"), (pv, "s"), (sv, "p"), (sv, "s")], start=1
    ):
        inner = {"p": (pp, pv, pd), "s": (sp, sv, sd)}[position]
        eqs += _chain(f"six.2.{n}", _A3, [app(outer, app(i, _x, _y), _z) for i in inner])
    # four chains of three, inner variants on the right argument
    for n, (outer, position) in enumerate(
        [(pd, "p"), (sd, "p"), (pd, "s"), (sd, "s")], start=1
    ):
        inner = {"p": (pp, pv, pd), "s": (sp, sv, sd)}[position]
        eqs += _chain(f"six.3.{n}", _A3, [app(outer, _x, app(i, _y, _z)) for i in inner])
    return eqs


def _dendriform_on(prefix: str, patterns) -> list[IdentitySchema]:
    """The dendriform axioms on each sort pattern, numbered on from
    prefix.1: an operation on a mixed pair of sorts is an action of its
    half, so these are the dendriform axioms of the semidirect product
    that read those sorts (Bai-Bellier-Guo-Ni)."""
    return [IdentitySchema(f"{prefix}.{3 * p + k}", tuple(sorts), s.lhs, s.rhs)
            for p, sorts in enumerate(patterns) for k, s in enumerate(_catalog_dendriform(), 1)]


_CATALOGS = {
    "associative": _catalog_associative,
    "dendriform": _catalog_dendriform,
    "diassociative": _catalog_diassociative,
    "triassociative": _catalog_triassociative,
    "quadri": _catalog_quadri,
    "six": _catalog_six,
    "dend-representation": lambda: _dendriform_on("rep", ("AAV", "AVA", "VAA")),
    "dend-action": lambda: _dendriform_on("act", ("AVV", "VAV", "VVA")),
}

CATALOG_NAMES = tuple(sorted(_CATALOGS))

_MODULE_TYPES = {"dend-representation": Representation, "dend-action": Action}


def fits(obj, catalog_name: str) -> bool:
    """Is obj of the type the catalog reads: a module catalog's type (an
    action is a representation), any other's an algebra of its name?"""
    module = _MODULE_TYPES.get(catalog_name)
    return isinstance(obj, module) if module else isinstance(obj, Algebra) and obj.signature == catalog_name


def catalog_of(obj) -> str:
    """The catalog of obj's own type: an action's, a representation's, an algebra's signature."""
    return next((name for name, module in _MODULE_TYPES.items() if type(obj) is module), None) or obj.signature


def needs(*catalog_names: str) -> str:
    """That type as a noun: "an action", "a quadri or six algebra"."""
    modules = [_MODULE_TYPES[name].__name__.lower() for name in catalog_names if name in _MODULE_TYPES]
    noun = " or ".join(modules or catalog_names) + ("" if modules else " algebra")
    return ("an " if noun[0] in "aeiou" else "a ") + noun


_BUILT: dict[str, tuple[IdentitySchema, ...]] = {}  # each catalog, built once


def catalog(name: str) -> list[IdentitySchema]:
    """The catalog's schemas, built on the first call: each call returns a
    list of its own, so a caller that changes it leaves the next call's alone."""
    schemas = _BUILT.get(name)
    if schemas is None:
        try:
            builder = _CATALOGS[name]
        except KeyError:
            raise UnknownCatalog(
                f"unknown catalog {name!r}; known: {', '.join(CATALOG_NAMES)}"
            ) from None
        schemas = _BUILT[name] = tuple(builder())
    return list(schemas)


# ----------------------------------------------------------------------
# Evaluation

class OpContext:
    """Resolves an operation by (name, left sort, right sort) to its tensor
    and output sort, and a map by name to its tensor and sorts; knows the
    dimension of each sort.  Refuses a map whose shape does not fit the
    dimensions of its source and target sorts."""

    def __init__(self, ops: Mapping[tuple, tuple], dims: Mapping[str, int], maps: Mapping[str, tuple] | None = None):
        self.ops = dict(ops)
        self.dims = dict(dims)
        self.maps = dict(maps or {})
        for name, (f, source, target) in self.maps.items():
            m, n = self.dims[source], self.dims[target]
            if (f.source_dim, f.target_dim) != (m, n):
                raise SpecError(
                    f"map {name} is {f.source_dim}->{f.target_dim}, but its sorts {source}->{target} need {m}->{n}")

    def resolve(self, name: str, left: str, right: str) -> tuple[BilinearOp, str]:
        try:
            return self.ops[name, left, right]
        except KeyError:
            raise SpecError(f"object supplies no operation {name!r} on {left} x {right}") from None

    def resolve_map(self, name: str) -> tuple[LinearMap, str, str]:
        try:
            return self.maps[name]
        except KeyError:
            raise SpecError(f"no linear map {name!r} to apply") from None


def on_sort(ops: Mapping[str, BilinearOp], sort: str) -> dict:
    """Operations on one sort, keyed as an OpContext resolves them."""
    return {(name, sort, sort): (op, sort) for name, op in ops.items()}


def context_for(obj, maps: Mapping[str, tuple] | None = None) -> OpContext:
    """The object's operations on the sorts A (algebra or base) and V
    (module), with the maps.  An operation of a module is named by its half:
    prec on A x V is the left action prec_l, on V x A the right action
    prec_r, and on V x V an action's target product."""
    if isinstance(obj, Algebra):
        return OpContext(on_sort(obj.operations, "A"), {"A": obj.dimension, "V": 0}, maps)
    if isinstance(obj, Representation):
        ops = on_sort(obj.base.operations, "A")
        ops.update(((half(name), left, right), (obj.actions[name], out))
                   for name, (left, right, out) in ACTION_SORTS.items())
        if isinstance(obj, Action):
            ops.update(on_sort(obj.target.operations, "V"))
        return OpContext(ops, {"A": obj.base.dimension, "V": obj.module_dim}, maps)
    raise SpecError(f"cannot check identities on {type(obj).__name__}")


# ----------------------------------------------------------------------
# The evaluator
#
# Every check in the package, and the operator search, runs here.  A
# program compiles schema groups once against a context's signature (its
# operation and map names with their sorts, and the dimension of each
# sort): each distinct subterm, keyed by the term and the slot sorts of its
# group, becomes a node that reads some of the group's slots.  A program has
# one output, violations(): it evaluates each node on the context's current
# tensors to its table, {rank: value}, over the basis tuples of the slots it
# reads where the value can be non-zero:
# the rank counts tuples in lexicographic order, and a value is the dense
# list of its components.  Sums, operations and maps all read a value's
# non-zero components in place, with compress(enumerate(v), v).
#
# Every term is multilinear: it reads each slot of its group exactly once.
# The program refuses any other at compile time, since on a term that
# repeats a slot or leaves one out, a verdict on the basis tuples says
# nothing of other vectors: the two arguments of an operation read disjoint
# slots, the terms of a map argument read the same slots, and each term of
# an equation reads all the slots of its group.
#
# - A variable leaf's table is the basis.
# - An operation joins its arguments' tables through its non-zero
#   structure constants, indexing one table by component.
# - A map applies its sparse columns to the sum of its argument's terms.
#
# An equation's residuals are the sum of its terms' tables over its group's
# slots, so only tuples in their supports are visited; the non-zero ones
# are reported in (tuple, equation position) order.  Groups are evaluated
# one by one, and after each, the tables no later group reads are dropped.
# A term's own table (tabulate) is the residuals of the equation term = 0.
#
# All of it runs on Python ints.  Each tensor and map is scaled by D, the
# lcm of the denominators of its non-zero entries, once in its lifetime (its
# integer_form); basis leaves are 0/1 ints.  A node carries its scale
# s, the product of the scales of its nodes, and its value is the true value
# times s.  An equation (or a map argument) brings its terms to one scale S,
# the lcm of their scales times the lcm of the denominators of their
# coefficients, so a residual r is exactly zero iff r is, and its true value
# is r / S.  Scales are worked out at every evaluation, as D changes with T.
# The evaluator only adds, multiplies and tests for zero, so a map whose
# entries are polynomials (VariableMap) evaluates the same way.


def _common_scale(pairs) -> tuple[int, list[int]]:
    """(S, the ints c * S / s) for terms of scale s with coefficients c."""
    scale = math.lcm(*(s for _, s in pairs)) * math.lcm(*(c.denominator for c, _ in pairs))
    return scale, [c.numerator * (scale // s) // c.denominator for c, s in pairs]


def _sum(parts) -> dict:
    """sum c * table over the (c, table) parts, of tables over the same slots."""
    out: dict = {}
    get = out.get
    for c, table in parts:
        for rank, v in table.items():
            w = get(rank)
            if w is None:
                out[rank] = list(v) if c == 1 else [c * a for a in v]
            else:
                for k, a in compress(enumerate(v), v):
                    w[k] += c * a
    return out


def _join(rows, cols, left, lplace, right, rplace, out_dim: int) -> dict:
    """The table of x * y from the tables of x and y, which read disjoint
    slots, and the non-zero structure constants, rows[i] = [(j, [(k, c)])]
    and cols[j] = [(i, the same)]: the rank of a pair is lplace[x's rank] +
    rplace[y's rank].  The larger table is walked and the smaller indexed by
    component, so each line of the index serves many entries."""
    if len(right) > len(left):
        left, lplace, right, rplace, rows = right, rplace, left, lplace, cols
    index: dict = {}  # component j -> [(rank part, value_j)] of the smaller
    for rank, v in right.items():
        part = rplace[rank]
        for j, b in compress(enumerate(v), v):
            index.setdefault(j, []).append((part, b))
    lines: dict = {}  # component i -> [(rank part, [(k, value_j * c_ij)])]
    out: dict = {}
    get = out.get
    for rank, v in left.items():
        base = lplace[rank]
        for i, a in compress(enumerate(v), v):
            line = lines.get(i)
            if line is None:
                line = lines[i] = [
                    (part, cells if b == 1 else [(k, b * c) for k, c in cells])
                    for j, cells in rows[i]
                    for part, b in index.get(j, ())
                ]
            for part, cells in line:
                w = get(base + part)
                if w is None:
                    w = out[base + part] = [0] * out_dim
                for k, bc in cells:
                    w[k] += a * bc
    return out


def _residuals(equations, tables: list, scales: list) -> list:
    """(rank, position, equation id, residual ints, scale) of each non-zero
    residual of a group's equations, in (rank, position) order."""
    found = []
    for position, (eqid, terms) in enumerate(equations):
        scale, ints = _common_scale([(c, scales[n]) for c, n in terms])
        sums = _sum(zip(ints, [tables[n] for _, n in terms]))
        found += [(rank, position, eqid, tuple(r), scale) for rank, r in sums.items() if any(r)]
    found.sort()  # (rank, position) pairs are distinct
    return found


@cache
def _basis(n: int) -> dict:
    """The table of a variable on a sort of dimension n, e_i at rank i; one
    per dimension, shared by every program, which only read it."""
    return {i: tuple(int(i == j) for j in range(n)) for i in range(n)}


def _unrank(rank: int, reversed_dims) -> tuple[int, ...]:
    """The basis tuple of a rank in the lexicographic order, for the slot
    dimensions in reverse."""
    idx = ()
    for d in reversed_dims:
        rank, i = divmod(rank, d)
        idx = (i, *idx)
    return idx


class _Program:
    """Schema groups compiled against the signature of a context; its one
    output, `violations`, evaluates them on the context's current tensors."""

    def __init__(self, ctx: OpContext, groups):
        self.ctx = ctx
        # per node: its binder (tables, scales) -> (table, scale), and the
        # nodes it reads
        self.binders: list = []
        self.reads: list = []
        self._memo: dict = {}
        self._ranked: dict = {}  # _ranks, computed once
        # (slot sorts, nodes evaluated before the group runs,
        # [(equation id, [(coefficient, node)])])
        self.groups = [self._group(group) for group in groups]
        # per group, the nodes whose tables no later group reads: dropped
        # after it, so a check holds only the tables it has still to read
        last, start = {}, 0
        for g, (_, end, equations) in enumerate(self.groups):
            for n in range(start, end):
                last.update((child, g) for child in self.reads[n])
            last.update((n, g) for _, terms in equations for _, n in terms)
            start = end
        self.released: list[list[int]] = [[] for _ in self.groups]
        for n, g in last.items():
            self.released[g].append(n)

    def _group(self, group):
        sorts = group[0].slot_sorts
        slots = tuple(range(len(sorts)))
        equations = []
        for schema in group:
            if schema.slot_sorts != sorts:
                raise SpecError("the schemas of a group must share their slot sorts")
            coefs: dict[int, Fraction] = {}
            read: dict[int, tuple] = {}
            out_sorts = set()
            for sign, side in ((1, schema.lhs), (-1, schema.rhs)):
                for c, term in side:
                    node, out_sort, read[node] = self.compile(term, sorts)
                    out_sorts.add(out_sort)
                    c = c if sign == 1 else -c
                    coefs[node] = coefs[node] + c if node in coefs else c
            if len(out_sorts) > 1:
                raise SpecError(f"schema {schema.id!r} equates terms of different sorts")
            if any(r != slots for r in read.values()):
                raise SpecError(f"schema {schema.id!r} has a term that does not read all its slots (not multilinear)")
            terms = [(c, node) for node, c in coefs.items() if c]
            equations.append((schema.id, terms))
        return sorts, len(self.binders), equations

    def compile(self, term: Term, sorts: tuple[str, ...]):
        """(node, output sort, slots read) for a term in a group with these
        slot sorts."""
        key = (term, sorts)
        found = self._memo.get(key)  # one lookup: hashing a term walks its whole tree
        if found is None:
            binder, reads, *compiled = self._compile(term, sorts)
            self.binders.append(binder)
            self.reads.append(reads)
            found = self._memo[key] = (len(self.binders) - 1, *compiled)
        return found

    def _compile(self, term: Term, sorts: tuple[str, ...]):
        """(binder, nodes read, output sort, slots read) of a new node.  A pair
        is a variable, a name in second place a map, two terms an operation."""
        ctx = self.ctx
        if len(term) == 2:
            s = term[1]
            basis = _basis(ctx.dims[sorts[s]])
            return (lambda tables, scales: (basis, 1)), (), sorts[s], (s,)
        if isinstance(term[1], str):
            name = term[1]
            _, source, out_sort = ctx.resolve_map(name)
            children = [self.compile(t, sorts) for _, t in term[2]]
            if any(child[1] != source for child in children):
                raise SpecError(f"map {name!r} applied to an argument of the wrong sort")
            reads = {child[2] for child in children}
            if len(reads) > 1:
                raise SpecError(f"map {name!r} applied to terms that read different slots (not multilinear)")
            slots = reads.pop() if reads else ()
            argument = [(c, node) for (c, _), (node, _, _) in zip(term[2], children)]
            out_dim = ctx.dims[out_sort]

            def bind(tables, scales):
                d, columns = ctx.maps[name][0].integer_form
                scale, ints = _common_scale([(c, scales[n]) for c, n in argument])
                image = {}
                for rank, v in _sum(zip(ints, [tables[n] for _, n in argument])).items():
                    w = image[rank] = [0] * out_dim
                    for j, a in compress(enumerate(v), v):
                        for k, c in columns[j]:
                            w[k] += a * c
                return image, d * scale

            return bind, [node for _, node in argument], out_sort, slots
        name = term[0]
        left, lsort, lslots = self.compile(term[1], sorts)
        right, rsort, rslots = self.compile(term[2], sorts)
        out_sort = ctx.resolve(name, lsort, rsort)[1]
        if set(lslots) & set(rslots):
            raise SpecError(f"operation {name!r} applied to arguments that read a common slot (not multilinear)")
        # the arguments may read their slots out of order, as op(y, x) does
        slots = tuple(sorted(lslots + rslots))
        dims = tuple(ctx.dims[s] for s in sorts)
        lplace, rplace = self._ranks(lslots, slots, dims), self._ranks(rslots, slots, dims)
        out_dim = ctx.dims[out_sort]

        def bind(tables, scales):
            d, rows, cols = ctx.ops[name, lsort, rsort][0].integer_form
            table = _join(rows, cols, tables[left], lplace, tables[right], rplace, out_dim)
            return table, d * scales[left] * scales[right]

        return bind, (left, right), out_sort, slots

    def _ranks(self, slots, onto, dims):
        """Per rank over the slots: its rank over the slots `onto`, which
        hold them, with the entries of the other slots 0."""
        key = (slots, onto, dims)
        if key not in self._ranked:
            strides, step = {}, 1
            for s in reversed(onto):
                strides[s], step = step, step * dims[s]
            ranks = [0]
            for s in slots:
                ranks = [r + i * strides[s] for r in ranks for i in range(dims[s])]
            self._ranked[key] = ranks
        return self._ranked[key]

    def violations(self):
        """(equation id, basis tuple, residual ints, scale) of each non-zero
        residual in scan order, group by group, on the context's current
        tensors: a caller that needs only the first binds no further group.
        tables[n] and scales[n] are node n's table (its values times its
        scale, in ints) and its scale; after each group, the tables no later
        group reads are dropped."""
        tables, scales = [], []
        for released, (sorts, end, equations) in zip(self.released, self.groups):
            for binder in self.binders[len(tables):end]:
                table, scale = binder(tables, scales)
                tables.append(table)
                scales.append(scale)
            reversed_dims = [self.ctx.dims[s] for s in reversed(sorts)]
            for rank, _, eqid, residual, scale in _residuals(equations, tables, scales):
                yield eqid, _unrank(rank, reversed_dims), residual, scale
            for n in released:
                tables[n] = None


def tabulate(ctx: OpContext, sorts: Sequence[str], table: Mapping[str, Term | Expr]) -> dict[str, BilinearOp]:
    """Each entry of the table, a term or a non-empty expression whose terms
    read both of two slots of these sorts once, as the bilinear operation of
    its values on the basis pairs: the residuals of entry = 0, one group per
    entry in one program, evaluated as a check evaluates them.  A pair with
    no residual holds the zero of the entry's output sort.  Each operation
    keeps the residuals' ints as its integer form (BilinearOp.from_integers)."""
    schemas = {name: equation(name, sorts, entry, ()) for name, entry in table.items()}
    program = _Program(ctx, [(schema,) for schema in schemas.values()])
    dims = tuple(ctx.dims[s] for s in sorts)
    # compile returns the node the program already holds for an entry's first term
    out_dims = {name: ctx.dims[program.compile(s.lhs[0][1], s.slot_sorts)[1]] for name, s in schemas.items()}
    cells: dict = {name: {} for name in schemas}
    for name, pair, residual, scale in program.violations():
        cells[name][pair] = residual, scale
    return {name: BilinearOp.from_integers(*dims, d, cells[name]) for name, d in out_dims.items()}


# ----------------------------------------------------------------------
# Residuals as polynomials in the entries of a map
#
# An operator search fixes the operations and varies the map T over a grid,
# so it binds T once to a map whose entries are variables: the entry in row
# r and column c of a map from a space of dimension m is variable r*m + c,
# its row-major position.  The entries are _Polys, closed under + and * with
# ints, so the evaluator's tables hold polynomials and one bind of the
# kind's groups gives every residual as a polynomial in T's entries.


class _Poly(dict):
    """A polynomial with int coefficients, {monomial: coefficient}, a
    monomial the sorted tuple of its variables; closed under + and * with
    ints, and never changed once made."""

    __slots__ = ()

    def __mul__(self, other):
        if type(other) is not _Poly:
            return self if other == 1 else _Poly({m: a * other for m, a in self.items()})
        out = _Poly()
        get = out.get
        for m1, a in self.items():
            for m2, b in other.items():
                m = m1 + m2 if not m1 or not m2 or m1[-1] <= m2[0] else tuple(sorted(m1 + m2))
                out[m] = get(m, 0) + a * b
        return out

    __rmul__ = __mul__

    def __add__(self, other):
        if type(other) is not _Poly:
            return self + _Poly({(): other}) if other else self
        out = _Poly(self)
        get = out.get
        for m, b in other.items():
            out[m] = get(m, 0) + b
        return out

    __radd__ = __add__

    def __bool__(self) -> bool:
        return any(self.values())


class VariableMap:
    """A source_dim -> target_dim map whose entries are variables, in the
    integer form the evaluator reads: bound in place of T, it makes every
    residual a polynomial in T's entries (residual_polynomials)."""

    def __init__(self, source_dim: int, target_dim: int):
        self.source_dim, self.target_dim = source_dim, target_dim
        self.integer_form = 1, [[(r, _Poly({(r * source_dim + c,): 1})) for r in range(target_dim)]
                                for c in range(source_dim)]


def residual_polynomials(ctx: OpContext, groups) -> list[dict]:
    """Each non-zero component of each residual of the groups, in a context
    whose maps may be VariableMaps, as a polynomial {monomial: int}: a
    non-zero multiple of the component's true value."""
    polys = ({m: a for m, a in (p if isinstance(p, _Poly) else {(): p}).items() if a}
             for _, _, residual, _ in _Program(ctx, groups).violations() for p in residual)
    return [p for p in polys if p]


def _scan(ctx: OpContext, groups, max_violations=DEFAULT_VIOLATION_CAP, kind: str | None = None) -> ViolationReport:
    """Evaluate every equation of every group on every basis tuple of its
    slot sorts; collect the non-zero residuals up to the cap, and stop at
    the first one past it.  The schemas of a group share their slot sorts."""
    program = _Program(ctx, groups)
    checked = sum(len(eqs) * math.prod(ctx.dims[s] for s in sorts) for sorts, _, eqs in program.groups)
    violations: list[Violation] = []
    truncated = False
    for eqid, idx, residual, scale in program.violations():
        if len(violations) >= max_violations:
            # the cap is full: bind no further group
            truncated = True
            break
        violations.append(Violation(eqid, idx, tuple(Fraction(r, scale) for r in residual)))
    return ViolationReport(checked, violations, truncated, kind)


def check(obj, catalog_name: str) -> ViolationReport:
    """Evaluate every schema of the catalog on every basis tuple consistent
    with the slot sorts; collect all nonzero residuals (up to the cap).  An
    object the catalog does not read (`fits`) is refused first, in one line."""
    schemas = catalog(catalog_name)
    if not fits(obj, catalog_name):
        raise SpecError(f"catalog {catalog_name!r} needs {needs(catalog_name)}")
    return check_schemas(obj, schemas)


def check_schemas(obj, schemas: Sequence[IdentitySchema]) -> ViolationReport:
    """Each schema is its own group, so witnesses come schema by schema."""
    return _scan(context_for(obj), [(schema,) for schema in schemas])


def check_morphism(
    f: LinearMap,
    source: Algebra,
    target: Algebra,
    op_pairing: Mapping[str, str],
) -> ViolationReport:
    """Check f(a * b) = f(a) *' f(b) on basis pairs, for every source
    operation * paired with a target operation *'."""
    ops, groups = {}, []
    for src, tgt in sorted(op_pairing.items()):
        ops[src, "A", "A"] = (source.op(src), "A")
        ops[tgt, "B", "B"] = (target.op(tgt), "B")
        lhs = apply_map("f", app(src, var(0), var(1)))
        rhs = app(tgt, apply_map("f", var(0)), apply_map("f", var(1)))
        groups.append((equation(f"morphism:{src}->{tgt}", ("A", "A"), lhs, rhs),))
    ctx = OpContext(ops, {"A": source.dimension, "B": target.dimension}, {"f": (f, "A", "B")})
    return _scan(ctx, groups)


QUADRI_TO_DENDRIFORM_COLLAPSE = {name: half(name) for name in SIGNATURE_OPS["quadri"]}
