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
_ONE = Fraction(1)  # every unit coefficient: Fraction's constructor runs in Python


def var(slot: int) -> Term:
    return ("var", slot)


def app(op: str, left: Term, right: Term) -> Term:
    return (op, left, right)


def expr(*terms: Term) -> Expr:
    return tuple((_ONE, t) for t in terms)


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

_A3 = "AAA"


def equation(eqid, sorts, lhs, rhs) -> IdentitySchema:
    """Schema lhs = rhs; each side is a term or an expression, () is zero."""
    return IdentitySchema(eqid, tuple(sorts), _as_expr(lhs), _as_expr(rhs))


_ENDS = {"+", "=", ")", None}  # what may follow an operand or a product; None: the end
_MARKS = {"(", ")", "+", "=", "0", "x", "y", "z", None}  # never an operation's or a map's name


def axioms(sorts, *formulas: str) -> list[IdentitySchema]:
    """The schemas of formulas "id: E1 = E2 = ... = Ek" on slots of these
    sorts, written as the paper writes them: the slots x, y, z; an operation
    named between its two arguments, as in (x prec y) succ z; a map applied
    as T(...); + between terms, and 0 for an empty side.  A brace of k > 2
    expressions is its k-1 consecutive pairs, with ids suffixed a, b, ...
    Every coefficient is 1.  A token the notation does not allow where it
    stands is refused with a SpecError naming the formula's id."""
    sorts, schemas = tuple(sorts), []
    slots = {name: var(n) for n, name in enumerate("xyz"[:len(sorts)])}

    def refuse(expected):
        found = "the end" if tokens[-1] is None else repr(tokens[-1])
        raise SpecError(f"formula {eqid!r}: expected {expected}, found {found}")

    def operand() -> Term:
        token = tokens[-1]
        if token in slots:
            tokens.pop()
            return slots[token]
        if token != "(" and (token in _MARKS or tokens[-2] != "("):
            refuse(f"a slot ({', '.join(slots)}), '(' or a map")
        del tokens[-1 if token == "(" else -2:]  # the parenthesis, or the map's name and its parenthesis
        inner = product() if token == "(" else apply_map(token, terms())
        if tokens[-1] != ")":
            refuse("')'")
        tokens.pop()
        return inner

    def product() -> Term:
        term = operand()
        if tokens[-1] not in _ENDS:
            if tokens[-1] in _MARKS:
                refuse("an operation, '+', '=' or ')'")
            term = app(tokens.pop(), term, operand())
            if tokens[-1] not in _ENDS:
                refuse("'+', '=', ')' or the end")
        return term

    def terms() -> Expr:
        found = [product()]
        while tokens[-1] == "+":
            tokens.pop()
            found.append(product())
        return expr(*found)

    for formula in formulas:
        eqid, colon, body = formula.partition(": ")
        if not (colon and eqid.strip()):
            raise SpecError(f"formula {formula!r} has no id")
        tokens = [None, *body.replace("(", " ( ").replace(")", " ) ").split()[::-1]]  # the next token last
        sides = []
        while not sides or tokens[-1] == "=" and tokens.pop():  # a side, then one after each '='
            sides.append(() if tokens[-1] == "0" and tokens.pop() else terms())  # 0: the empty side
        if tokens[-1] is not None or len(sides) < 2:
            refuse("'='")
        ids = [eqid] if len(sides) == 2 else [eqid + chr(ord("a") + n) for n in range(len(sides) - 1)]
        schemas += [IdentitySchema(i, sorts, lhs, rhs) for i, lhs, rhs in zip(ids, sides, sides[1:])]
    return schemas


def _dendriform(sorts=_A3, prefix="dend", first=1, p="prec", s="succ") -> list[IdentitySchema]:
    """Loday's dendriform axioms of the pair (p, s), numbered prefix.first on."""
    return axioms(sorts, f"{prefix}.{first}: (x {p} y) {p} z = x {p} (y {p} z) + x {p} (y {s} z)",
                  f"{prefix}.{first + 1}: (x {s} y) {p} z = x {s} (y {p} z)",
                  f"{prefix}.{first + 2}: x {s} (y {s} z) = (x {p} y) {s} z + (x {s} y) {s} z")


# Loday's di-associative axioms, numbered from 1 under a prefix
_DIASSOCIATIVE = (
    "{}.1: (x dashv y) dashv z = x dashv (y vdash z)",
    "{}.2: (x dashv y) dashv z = x dashv (y dashv z)",
    "{}.3: (x vdash y) dashv z = x vdash (y dashv z)",
    "{}.4: (x dashv y) vdash z = x vdash (y vdash z)",
    "{}.5: (x vdash y) vdash z = x vdash (y vdash z)",
)


def _dendriform_on(prefix: str, patterns) -> list[IdentitySchema]:
    """The dendriform axioms on each sort pattern, numbered on from
    prefix.1: an operation on a mixed pair of sorts is an action of its
    half, so these are the dendriform axioms of the semidirect product
    that read those sorts (Bai-Bellier-Guo-Ni)."""
    return [s for p, sorts in enumerate(patterns) for s in _dendriform(sorts, prefix, 3 * p + 1)]


_CATALOGS = {
    "associative": lambda: axioms(_A3, "assoc: (x mul y) mul z = x mul (y mul z)"),
    "dendriform": _dendriform,
    "diassociative": lambda: axioms(_A3, *(f.format("di") for f in _DIASSOCIATIVE)),
    # Loday-Ronco: the di-associative axioms, then those of perp
    "triassociative": lambda: axioms(
        _A3, *(f.format("tri") for f in _DIASSOCIATIVE),
        "tri.6: (x perp y) perp z = x perp (y perp z)",
        "tri.7: (x dashv y) dashv z = x dashv (y perp z)",
        "tri.8: (x perp y) dashv z = x perp (y dashv z)",
        "tri.9: (x dashv y) perp z = x perp (y vdash z)",
        "tri.10: (x vdash y) perp z = x vdash (y perp z)",
        "tri.11: (x perp y) vdash z = x vdash (y vdash z)"),
    "quadri": lambda: axioms(
        _A3,
        "quadri.1: (x prec_vdash y) prec_vdash z = (x prec_dashv y) prec_vdash z"
        " = x prec_vdash (y prec_vdash z) + x prec_vdash (y succ_vdash z)",
        "quadri.2: (x succ_vdash y) prec_vdash z = (x succ_dashv y) prec_vdash z = x succ_vdash (y prec_vdash z)",
        "quadri.3: x succ_vdash (y succ_vdash z) = (x prec_vdash y) succ_vdash z + (x succ_vdash y) succ_vdash z"
        " = (x prec_dashv y) succ_vdash z + (x succ_dashv y) succ_vdash z"
        " = (x prec_vdash y) succ_vdash z + (x succ_dashv y) succ_vdash z"
        " = (x prec_dashv y) succ_vdash z + (x succ_vdash y) succ_vdash z",
        "quadri.4: (x prec_vdash y) prec_dashv z = x prec_vdash (y prec_dashv z) + x prec_vdash (y succ_dashv z)",
        "quadri.5: (x succ_vdash y) prec_dashv z = x succ_vdash (y prec_dashv z)",
        "quadri.6: x succ_vdash (y succ_dashv z) = (x prec_vdash y) succ_dashv z + (x succ_vdash y) succ_dashv z",
        "quadri.7: (x prec_dashv y) prec_dashv z = x prec_dashv (y prec_vdash z) + x prec_dashv (y succ_vdash z)"
        " = x prec_dashv (y prec_dashv z) + x prec_dashv (y succ_dashv z)"
        " = x prec_dashv (y prec_vdash z) + x prec_dashv (y succ_dashv z)"
        " = x prec_dashv (y prec_dashv z) + x prec_dashv (y succ_vdash z)",
        "quadri.8: (x succ_dashv y) prec_dashv z = x succ_dashv (y prec_vdash z) = x succ_dashv (y prec_dashv z)",
        "quadri.9: x succ_dashv (y succ_vdash z) = x succ_dashv (y succ_dashv z)"
        " = (x prec_dashv y) succ_dashv z + (x succ_dashv y) succ_dashv z"),
    # the 9 + 8 + 8 compatibility axioms of the perp pair and the quadri quadruple;
    # `hypothesis("six")` appends the dendriform and quadri axioms they embed
    "six": lambda: axioms(
        _A3,
        "six.1.1: (x prec_vdash y) prec_perp z = x prec_vdash (y prec_perp z) + x prec_vdash (y succ_perp z)",
        "six.1.2: (x succ_vdash y) prec_perp z = x succ_vdash (y prec_perp z)",
        "six.1.3: x succ_vdash (y succ_perp z) = (x prec_vdash y) succ_perp z + (x succ_vdash y) succ_perp z",
        "six.1.4: (x prec_dashv y) prec_perp z = x prec_perp (y prec_vdash z) + x prec_perp (y succ_vdash z)",
        "six.1.5: (x succ_dashv y) prec_perp z = x succ_perp (y prec_vdash z)",
        "six.1.6: x succ_perp (y succ_vdash z) = (x prec_dashv y) succ_perp z + (x succ_dashv y) succ_perp z",
        "six.1.7: (x prec_perp y) prec_dashv z = x prec_perp (y prec_dashv z) + x prec_perp (y succ_dashv z)",
        "six.1.8: (x succ_perp y) prec_dashv z = x succ_perp (y prec_dashv z)",
        "six.1.9: x succ_perp (y succ_dashv z) = (x prec_perp y) succ_dashv z + (x succ_perp y) succ_dashv z",
        "six.2.1: (x prec_perp y) prec_vdash z = (x prec_vdash y) prec_vdash z = (x prec_dashv y) prec_vdash z",
        "six.2.2: (x succ_perp y) prec_vdash z = (x succ_vdash y) prec_vdash z = (x succ_dashv y) prec_vdash z",
        "six.2.3: (x prec_perp y) succ_vdash z = (x prec_vdash y) succ_vdash z = (x prec_dashv y) succ_vdash z",
        "six.2.4: (x succ_perp y) succ_vdash z = (x succ_vdash y) succ_vdash z = (x succ_dashv y) succ_vdash z",
        "six.3.1: x prec_dashv (y prec_perp z) = x prec_dashv (y prec_vdash z) = x prec_dashv (y prec_dashv z)",
        "six.3.2: x succ_dashv (y prec_perp z) = x succ_dashv (y prec_vdash z) = x succ_dashv (y prec_dashv z)",
        "six.3.3: x prec_dashv (y succ_perp z) = x prec_dashv (y succ_vdash z) = x prec_dashv (y succ_dashv z)",
        "six.3.4: x succ_dashv (y succ_perp z) = x succ_dashv (y succ_vdash z) = x succ_dashv (y succ_dashv z)"),
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


@cache  # each catalog, built once
def _built(name: str) -> tuple[IdentitySchema, ...]:
    try:
        builder = _CATALOGS[name]
    except KeyError:
        raise UnknownCatalog(f"unknown catalog {name!r}; known: {', '.join(CATALOG_NAMES)}") from None
    return tuple(builder())


def catalog(name: str) -> list[IdentitySchema]:
    """The catalog's schemas, built on the first call: each call returns a
    list of its own, so a caller that changes it leaves the next call's alone."""
    return list(_built(name))


# The axioms of the parts a catalog leaves out, ids after its own: a six
# algebra's perp pair is dendriform and its quadri quadruple quadri; a
# module's base (AAA), and an action's target (VVV), dendriform.
_PARTS = {
    "six": lambda: [*_dendriform(p="prec_perp", s="succ_perp"), *catalog("quadri")],
    "dend-representation": lambda: _dendriform(_A3, "rep", 10),
    "dend-action": lambda: [*_dendriform("VVV", "act", 10), *hypothesis("dend-representation")],
}


@cache
def hypothesis(name: str) -> tuple[IdentitySchema, ...]:
    """Every axiom of the catalog's type, built once: the catalog, then its parts'."""
    return (*catalog(name), *_PARTS.get(name, tuple)())


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


@cache
def _ranks(slots, onto, dims) -> tuple[int, ...]:
    """Per rank over the slots: its rank over the slots `onto`, which hold
    them, with the entries of the other slots 0; computed once per process."""
    strides, step = {}, 1
    for s in reversed(onto):
        strides[s], step = step, step * dims[s]
    ranks = [0]
    for s in slots:
        ranks = [r + i * strides[s] for r in ranks for i in range(dims[s])]
    return tuple(ranks)


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
        lplace, rplace = _ranks(lslots, slots, dims), _ranks(rslots, slots, dims)
        out_dim = ctx.dims[out_sort]

        def bind(tables, scales):
            d, rows, cols = ctx.ops[name, lsort, rsort][0].integer_form
            table = _join(rows, cols, tables[left], lplace, tables[right], rplace, out_dim)
            return table, d * scales[left] * scales[right]

        return bind, (left, right), out_sort, slots

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


def tabulate(ctx: OpContext, sorts: Sequence[str], table: Mapping[str, Term | Expr]) -> dict:
    """Each entry of the table, a term or a non-empty expression whose terms
    read each of one or two slots of these sorts once, as the linear map or
    the bilinear operation of its values on the basis tuples: the residuals
    of entry = 0, one group per entry in one program, evaluated as a check
    evaluates them.  A tuple with no residual holds the zero of the entry's
    output sort.  Each is built from the residuals' ints (from_integers)."""
    schemas = {name: equation(name, sorts, entry, ()) for name, entry in table.items()}
    program = _Program(ctx, [(schema,) for schema in schemas.values()])
    dims = tuple(ctx.dims[s] for s in sorts)
    # compile returns the node the program already holds for an entry's first term
    out_dims = {name: ctx.dims[program.compile(s.lhs[0][1], s.slot_sorts)[1]] for name, s in schemas.items()}
    cells: dict = {name: {} for name in schemas}
    for name, idx, residual, scale in program.violations():
        cells[name][idx] = residual, scale
    build = LinearMap.from_integers if len(sorts) == 1 else BilinearOp.from_integers
    return {name: build(*dims, d, cells[name]) for name, d in out_dims.items()}


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
