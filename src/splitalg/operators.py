"""Checks for Rota-Baxter, averaging, relative averaging and differential
operators, the graph-subalgebra characterization, and brute-force operator
search.

Each operator kind is a list of schema groups in the map T, run by the
identity engine of `splitalg.identities`."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .identities import (
    OpContext,
    VariableMap,
    ViolationReport,
    _Record,
    _scan,
    apply_map,
    axioms,
    context_for,
    expr,
    fits,
    needs,
    on_sort,
    residual_polynomials,
    tabulate,
    var,
)
from .documents import short_repr
from .linalg import frac, span
from .model import (
    Action,
    Algebra,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
    reduction,
)


class SearchCapExceeded(SpecError):
    """Candidate count above the cap; shrink the grid or the dimensions."""


_AA, _VV, _DEND_OPS = ("A", "A"), ("V", "V"), ("prec", "succ")


def _group(sorts, *formulas: str) -> tuple:
    """The formulas' schemas as the one group of a tuple of groups."""
    return (tuple(axioms(sorts, *formulas)),)


def _for_each(ops, sorts, *templates: str) -> tuple:
    """One group per operation: the formulas, each with {op} its name."""
    return sum((_group(sorts, *(t.format(op=op) for t in templates)) for op in ops), ())


def _averaging(sorts, ids: tuple[str, str]):
    """T(x) op T(y) = T(T(x) op y) = T(x op T(y)) for op in {prec, succ},
    one group per operation; ids are formatted with its name.  On a module
    (sorts V, V) the products with one argument in V are the actions."""
    return _for_each(_DEND_OPS, sorts, ids[0] + ": T(x) {op} T(y) = T(T(x) {op} y)",
                     ids[1] + ": T(x) {op} T(y) = T(x {op} T(y))")


_RELATIVE_AVERAGING = _averaging(_VV, ("{op}:TuTv=T(Tu.v)", "{op}:TuTv=T(u.Tv)"))


class _Kind(_Record):
    __slots__ = ("catalog", "map_sorts", "groups")  # the subject fits the catalog; T: map_sorts[0] -> [1]

    def __init__(self, catalog: str, map_sorts: tuple[str, str], groups):
        self.catalog, self.map_sorts, self.groups = catalog, map_sorts, groups


_KINDS = {
    "rota_baxter": _Kind("associative", _AA, _group(_AA, "rota-baxter: T(x) mul T(y) = T(x mul T(y) + T(x) mul y)")),
    "assoc_averaging": _Kind("associative", _AA, _group(
        _AA, "HaHb=H(aHb): T(x) mul T(y) = T(x mul T(y))", "HaHb=H(Hab): T(x) mul T(y) = T(T(x) mul y)")),
    "dend_averaging": _Kind("dendriform", _AA, _averaging(_AA, ("T{op}:TxTy=T(Txy)", "T{op}:TxTy=T(xTy)"))),
    "relative_averaging": _Kind("dend-representation", ("V", "A"), _RELATIVE_AVERAGING),
    "homomorphic_relative": _Kind("dend-action", ("V", "A"), _RELATIVE_AVERAGING + _for_each(
        _DEND_OPS, _VV, "hom:{op}: T(x {op} y) = T(x) {op} T(y)")),
    "differential": _Kind("dendriform", _AA, _group("A", "d2=0: T(T(x)) = 0") + _for_each(
        _DEND_OPS, _AA, "leibniz:{op}: T(x {op} y) = T(x) {op} y + x {op} T(y)")),
}

OPERATOR_KINDS = tuple(_KINDS)


def _context(subject, kind: str, t: LinearMap | None = None) -> OpContext:
    """The subject's context for a check of this kind, with t as its map T."""
    try:
        spec = _KINDS[kind]
    except KeyError:
        raise SpecError(
            f"unknown operator kind {kind!r}; known: {', '.join(OPERATOR_KINDS)}"
        ) from None
    if not fits(subject, spec.catalog):
        raise SpecError(f"kind {kind!r} needs {needs(spec.catalog)}")
    return context_for(subject, None if t is None else {"T": (t, *spec.map_sorts)})


def check_operator(subject, kind: str, t: LinearMap) -> ViolationReport:
    """Check that t is an operator of the given kind on the subject."""
    return _scan(_context(subject, kind, t), _KINDS[kind].groups, kind=kind)


def check_rota_baxter(a: Algebra, r: LinearMap) -> ViolationReport:
    """mu(Ra, Rb) = R(mu(a, Rb) + mu(Ra, b)) on all basis pairs."""
    return check_operator(a, "rota_baxter", r)


def check_assoc_averaging(a: Algebra, h: LinearMap) -> ViolationReport:
    """mu(Ha, Hb) = H mu(a, Hb) = H mu(Ha, b); two equations per pair."""
    return check_operator(a, "assoc_averaging", h)


def check_dend_averaging(d: Algebra, t: LinearMap) -> ViolationReport:
    """Tx*Ty = T(Tx*y) = T(x*Ty) for * in {prec, succ}; four equations per pair."""
    return check_operator(d, "dend_averaging", t)


def check_relative_averaging(rep: Representation, t: LinearMap) -> ViolationReport:
    """Tu*Tv = T(Tu *_l v) = T(u *_r Tv) for * in {prec, succ}."""
    return check_operator(rep, "relative_averaging", t)


def check_homomorphic_relative(act: Action, t: LinearMap) -> ViolationReport:
    """Relative averaging with respect to the underlying representation,
    plus the homomorphism equations T(u *' v) = Tu * Tv."""
    return check_operator(act, "homomorphic_relative", t)


# One group per hemisemidirect operation: G sends e_a to the graph
# generator inA(T e_a) + inV(e_a) and P reduces modulo the graph span.
_GRAPH_CLOSURE = _for_each(sorted(SIGNATURE_OPS["quadri"]), _VV, "graph-closure:{op}: P(G(x) {op} G(y)) = 0")


def graph_subalgebra_check(rep: Representation, t: LinearMap) -> ViolationReport:
    """Is the graph {(Tu, u)} closed under the hemisemidirect quadri ops?

    Closure is tested on the graph generators (T e_a, e_a) only; by
    bilinearity of the operations this already implies closure of the span.
    Equivalent to check_relative_averaging by the graph theorem.
    """
    from .constructions import _hemisemidirect, _sum_context

    _context(rep, "relative_averaging", t)  # refuses a subject or a t the kind does not take
    ctx = _sum_context(rep, {"T": (t, "V", "A")})
    g = tabulate(ctx, ("V",), {"G": expr(apply_map("inA", apply_map("T", var(0))), apply_map("inV", var(0)))})["G"]
    p = reduction(span([g.column(a) for a in range(g.source_dim)], g.target_dim))
    ctx = OpContext(on_sort(_hemisemidirect(rep).operations, "S"), ctx.dims, {"G": (g, "V", "S"), "P": (p, "S", "S")})
    return _scan(ctx, _GRAPH_CLOSURE, kind="relative_averaging")


def operator_map_shape(subject, kind: str) -> tuple[int, int]:
    """(source_dim, target_dim) of a candidate operator for the given kind."""
    ctx = _context(subject, kind)
    source, target = _KINDS[kind].map_sorts
    return ctx.dims[source], ctx.dims[target]


DEFAULT_SEARCH_CAP = 3**9


def search_operators(
    subject,
    kind: str,
    grid: Sequence[Fraction],
    cap: int = DEFAULT_SEARCH_CAP,
) -> list[LinearMap]:
    """All matrices with entries from the grid passing the requested check,
    enumerated in lexicographic (row-major) matrix order.

    The kind is evaluated once, with T's entries as variables (with the
    one candidate of a one-value grid as T), into its residual
    polynomials.  Grid values are ints, Fractions or "p/q"
    strings.  The grid is walked depth first, one entry at a time in
    row-major order, and each polynomial is evaluated as soon as its last
    entry is set: a non-zero value prunes every candidate below."""
    source_dim, target_dim = operator_map_shape(subject, kind)
    grid = [frac(g) for g in grid]
    seen = set()
    for value in grid:
        if value in seen:
            raise SpecError(f"grid repeats the value {short_repr(str(value))}")
        seen.add(value)
    cells = source_dim * target_dim
    total = len(grid) ** cells
    if total > cap:
        raise SearchCapExceeded(
            f"{len(grid)}^{cells} = {total} candidates exceed the cap {cap}; "
            "shrink the grid or the dimensions"
        )
    # one grid value leaves one candidate: bound as T, it makes every
    # residual a constant, with no polynomial to build
    t = (LinearMap(source_dim, target_dim, [grid * source_dim] * target_dim) if len(grid) == 1
         else VariableMap(source_dim, target_dim))
    polys = residual_polynomials(_context(subject, kind, t), _KINDS[kind].groups)
    # Integers throughout: with L the lcm of the grid's denominators, entry
    # g is set to g*L, and a monomial of degree k < 2 takes 2 - k factors L
    # from the slot after the entries (T occurs at most twice in a term of
    # every kind), so each polynomial is L^2 times its true value.
    scale = math.lcm(*(g.denominator for g in grid))
    values = [g.numerator * (scale // g.denominator) for g in grid]
    # checks[e + 1]: the polynomials whose last entry is e; checks[0]: constants
    checks: list[list] = [[] for _ in range(cells + 1)]
    for poly in polys:
        terms = [(a, *(mono + (cells,) * (2 - len(mono)))) for mono, a in poly.items()]
        checks[max((v + 1 for mono in poly for v in mono), default=0)].append(terms)
    entries = [0] * cells + [scale]
    vanish = lambda level: not any(sum(a * entries[i] * entries[j] for a, i, j in terms) for terms in checks[level])
    passing, picks, level = [], [-1] * cells, 0 if vanish(0) else -1
    while level >= 0:  # level: the entries set; picks: their grid positions
        if level == cells:
            passing.append(picks[:])
            level -= 1
            continue
        picks[level] += 1
        if picks[level] == len(values):
            picks[level] = -1
            level -= 1
            continue
        entries[level] = values[picks[level]]
        if vanish(level + 1):
            level += 1
    return [
        LinearMap(source_dim, target_dim, [[grid[p] for p in picks[r * source_dim:(r + 1) * source_dim]] for r in range(target_dim)])
        for picks in passing
    ]
