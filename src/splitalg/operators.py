"""Checks for Rota-Baxter, averaging and relative averaging operators,
the graph-subalgebra characterization, and brute-force operator search.

Each operator kind is a list of schema groups in the map T, run by the
identity engine of `splitalg.identities`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .identities import (
    DEFAULT_VIOLATION_CAP,
    IdentitySchema,
    OpContext,
    ViolationReport,
    _scan,
    app,
    apply_map,
    context_for,
    equation,
    expr,
    var,
)
from .linalg import basis_vector, span
from .model import (
    Action,
    Algebra,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
)


class SearchCapExceeded(SpecError):
    """Candidate count above the cap; shrink the grid or the dimensions."""


_x, _y = var(0), var(1)
_Tx, _Ty = apply_map("T", _x), apply_map("T", _y)
_AA, _VV = ("A", "A"), ("V", "V")

_ROTA_BAXTER = (
    (equation("rota-baxter", _AA, app("mul", _Tx, _Ty),
              apply_map("T", expr(app("mul", _x, _Ty), app("mul", _Tx, _y)))),),
)

_ASSOC_AVERAGING = (
    (
        equation("HaHb=H(aHb)", _AA, app("mul", _Tx, _Ty), apply_map("T", app("mul", _x, _Ty))),
        equation("HaHb=H(Hab)", _AA, app("mul", _Tx, _Ty), apply_map("T", app("mul", _Tx, _y))),
    ),
)

_DEND_AVERAGING = tuple(
    (
        equation(f"T{op}:TxTy=T(Txy)", _AA, app(op, _Tx, _Ty), apply_map("T", app(op, _Tx, _y))),
        equation(f"T{op}:TxTy=T(xTy)", _AA, app(op, _Tx, _Ty), apply_map("T", app(op, _x, _Ty))),
    )
    for op in ("prec", "succ")
)

_RELATIVE_AVERAGING = tuple(
    (
        equation(f"{op}:TuTv=T(Tu.v)", _VV, app(op, _Tx, _Ty), apply_map("T", app(f"{op}_l", _Tx, _y))),
        equation(f"{op}:TuTv=T(u.Tv)", _VV, app(op, _Tx, _Ty), apply_map("T", app(f"{op}_r", _x, _Ty))),
    )
    for op in ("prec", "succ")
)

_HOMOMORPHIC_RELATIVE = _RELATIVE_AVERAGING + tuple(
    (equation(f"hom:{op}", _VV, apply_map("T", app(f"{op}_t", _x, _y)), app(op, _Tx, _Ty)),)
    for op in ("prec", "succ")
)


@dataclass(frozen=True)
class _Kind:
    subject: type | tuple[type, ...]
    needs: str  # the error when the subject has another type
    map_sorts: tuple[str, str]  # T maps the first sort to the second
    groups: tuple[tuple[IdentitySchema, ...], ...]


_KINDS = {
    "rota_baxter": _Kind(Algebra, "kind 'rota_baxter' needs an algebra", _AA, _ROTA_BAXTER),
    "assoc_averaging": _Kind(Algebra, "kind 'assoc_averaging' needs an algebra", _AA, _ASSOC_AVERAGING),
    "dend_averaging": _Kind(Algebra, "kind 'dend_averaging' needs an algebra", _AA, _DEND_AVERAGING),
    "relative_averaging": _Kind(
        (Representation, Action), "relative averaging needs a representation", ("V", "A"), _RELATIVE_AVERAGING
    ),
    "homomorphic_relative": _Kind(
        Action, "homomorphic relative averaging needs an action", ("V", "A"), _HOMOMORPHIC_RELATIVE
    ),
}

OPERATOR_KINDS = tuple(_KINDS)


def _context(subject, kind: str) -> OpContext:
    """The subject's operations and dimensions, for a check of this kind."""
    try:
        spec = _KINDS[kind]
    except KeyError:
        raise SpecError(
            f"unknown operator kind {kind!r}; known: {', '.join(OPERATOR_KINDS)}"
        ) from None
    if not isinstance(subject, spec.subject):
        raise SpecError(spec.needs)
    return context_for(subject)


def _with_map(ctx: OpContext, kind: str, t: LinearMap) -> OpContext:
    """The context with t as the map T of the kind, once its shape fits."""
    source, target = _KINDS[kind].map_sorts
    n, m = ctx.dims[target], ctx.dims[source]
    if (t.source_dim, t.target_dim) != (m, n):
        if source == target:
            raise SpecError(
                f"map {t.source_dim}->{t.target_dim} is not an endomorphism of "
                f"dimension {n}"
            )
        raise SpecError(
            f"map {t.source_dim}->{t.target_dim} does not send the module "
            f"(dim {m}) to the base (dim {n})"
        )
    ctx.maps["T"] = (t, source, target)
    return ctx


def check_operator(
    subject, kind: str, t: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Check that t is an operator of the given kind on the subject."""
    ctx = _with_map(_context(subject, kind), kind, t)
    return _scan(ctx, _KINDS[kind].groups, max_violations, kind)


def check_rota_baxter(
    a: Algebra, r: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """mu(Ra, Rb) = R(mu(a, Rb) + mu(Ra, b)) on all basis pairs."""
    return check_operator(a, "rota_baxter", r, max_violations)


def check_assoc_averaging(
    a: Algebra, h: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """mu(Ha, Hb) = H mu(a, Hb) = H mu(Ha, b); two equations per pair."""
    return check_operator(a, "assoc_averaging", h, max_violations)


def check_dend_averaging(
    d: Algebra, t: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Tx*Ty = T(Tx*y) = T(x*Ty) for * in {prec, succ}; four equations per pair."""
    return check_operator(d, "dend_averaging", t, max_violations)


def check_relative_averaging(
    rep: Representation, t: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Tu*Tv = T(Tu *_l v) = T(u *_r Tv) for * in {prec, succ}."""
    return check_operator(rep, "relative_averaging", t, max_violations)


def check_homomorphic_relative(
    act: Action, t: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Relative averaging with respect to the underlying representation,
    plus the homomorphism equations T(u *' v) = Tu * Tv."""
    return check_operator(act, "homomorphic_relative", t, max_violations)


# P(op(Gx, Gy)) = 0 for each hemisemidirect operation: G sends e_a to the
# graph generator (T e_a, e_a) and P reduces modulo the graph span.
_GRAPH_CLOSURE = tuple(
    (equation(f"graph-closure:{op}", _VV, apply_map("P", app(op, apply_map("G", _x), apply_map("G", _y))), ()),)
    for op in sorted(SIGNATURE_OPS["quadri"])
)


def graph_subalgebra_check(
    rep: Representation, t: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """Is the graph {(Tu, u)} closed under the hemisemidirect quadri ops?

    Closure is tested on the graph generators (T e_a, e_a) only; by
    bilinearity of the operations this already implies closure of the span.
    Equivalent to check_relative_averaging by the graph theorem.
    """
    from .constructions import hemisemidirect

    ctx = _with_map(_context(rep, "relative_averaging"), "relative_averaging", t)
    n, m = ctx.dims["A"], ctx.dims["V"]
    hemi = hemisemidirect(rep.representation if isinstance(rep, Action) else rep, verify=False)
    g = LinearMap(m, n + m, [*t.matrix, *LinearMap.identity(m).matrix])
    graph = span([g.column(a) for a in range(m)], n + m)
    reductions = [graph.reduce(basis_vector(n + m, k)) for k in range(n + m)]
    p = LinearMap(n + m, n + m, list(zip(*reductions)))
    ctx = OpContext(
        {name: (op, "H", "H", "H") for name, op in hemi.operations.items()},
        {"V": m, "H": n + m},
        {"G": (g, "V", "H"), "P": (p, "H", "H")},
    )
    return _scan(ctx, _GRAPH_CLOSURE, max_violations, "relative_averaging")


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
    enumerated in lexicographic (row-major) matrix order."""
    source_dim, target_dim = operator_map_shape(subject, kind)
    cells = source_dim * target_dim
    total = len(grid) ** cells
    if total > cap:
        raise SearchCapExceeded(
            f"{len(grid)}^{cells} = {total} candidates exceed the cap {cap}; "
            "shrink the grid or the dimensions"
        )
    passing = []
    for combo in itertools.product(grid, repeat=cells):
        matrix = [
            combo[i * source_dim : (i + 1) * source_dim] for i in range(target_dim)
        ]
        candidate = LinearMap(source_dim, target_dim, matrix)
        if check_operator(subject, kind, candidate, max_violations=1).ok:
            passing.append(candidate)
    return passing
