"""Constructive theorems: products, induced structures and collapses.

Each function builds explicit structure-constant tensors with one of two
builders: `_blocks` places the input tensors as blocks of a product, and
`identities.tabulate` evaluates a table of twisted terms such as
mu(x, Ty) on basis pairs.  Outputs are not re-verified here; the test
suite and the CLI re-run the identity catalogs on every constructed object
instead of trusting the theorems.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import (
    DEFAULT_VIOLATION_CAP,
    ViolationReport,
    _scan,
    app,
    apply_map,
    check,
    context_for,
    equation,
    expr,
    tabulate,
    var,
)
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    adjoint_representation,
)
from .operators import (
    check_assoc_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
    check_rota_baxter,
)

_x, _y = var(0), var(1)
_Tx, _Ty = apply_map("T", _x), apply_map("T", _y)


class PreconditionFailure(SpecError):
    """A construction refused its input; carries the failing verdict."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict


def _require_signature(a: Algebra, *signatures: str) -> None:
    if a.signature not in signatures:
        raise SpecError(
            f"expected signature in {signatures}, got {a.signature!r}"
        )


def _verify_rep(rep: Representation) -> None:
    report = check(rep, "dend-representation")
    if not report.ok:
        raise PreconditionFailure("input is not a representation", report)


def _verify_action(act: Action) -> None:
    for alg, which in ((act.base, "base"), (act.target, "target")):
        report = check(alg, "dendriform")
        if not report.ok:
            raise PreconditionFailure(f"{which} algebra is not dendriform", report)
    report = check(act, "dend-action")
    if not report.ok:
        raise PreconditionFailure("input is not an action", report)


def _blocks(shape: tuple[int, int, int], *placements) -> BilinearOp:
    """The operation of this shape made of blocks: each (op, i, j, k) puts
    the structure constants of op at left offset i, right offset j and
    output offset k.  Blocks do not overlap; the rest is zero."""
    left, right, out = shape
    cells = [[(Fraction(0),) * out] * right for _ in range(left)]
    for op, i, j, k in placements:
        for a, row in enumerate(op.coeffs):
            cell_row = cells[i + a]
            for b, v in enumerate(row):
                cell = cell_row[j + b]
                cell_row[j + b] = cell[:k] + v + cell[k + op.out_dim :]
    return BilinearOp(left, right, out, cells)


def _module_blocks(rep: Representation, op: str):
    """The base product and the left and right actions for op, placed on
    base + module."""
    n, actions = rep.base.dimension, rep.actions
    return (rep.base.op(op), 0, 0, 0), (actions[f"{op}_l"], 0, n, n), (actions[f"{op}_r"], n, 0, n)


def semidirect(rep: Representation, verify: bool = True) -> Algebra:
    """Dendriform structure on base + module:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y), same shape for succ.
    """
    if verify:
        _verify_rep(rep)
    shape = (rep.base.dimension + rep.module_dim,) * 3
    ops = {op: _blocks(shape, *_module_blocks(rep, op)) for op in ("prec", "succ")}
    return Algebra(shape[0], "dendriform", ops)


def hemisemidirect(rep: Representation, verify: bool = True) -> Algebra:
    """Quadri-dendriform structure on base + module; each split operation
    keeps the base product and only a one-sided action:
    (x,u) prec_vdash (y,v) = (x prec y, x prec_l v), and so on."""
    if verify:
        _verify_rep(rep)
    shape = (rep.base.dimension + rep.module_dim,) * 3
    blocks = {op: _module_blocks(rep, op) for op in ("prec", "succ")}
    ops = {f"{op}_vdash": _blocks(shape, base, left) for op, (base, left, _) in blocks.items()}
    ops.update({f"{op}_dashv": _blocks(shape, base, right) for op, (base, _, right) in blocks.items()})
    return Algebra(shape[0], "quadri", ops)


def action_semidirect(act: Action, verify: bool = True) -> Algebra:
    """Dendriform structure on base + target with the target's own products
    on the module block:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y + u prec' v)."""
    if verify:
        _verify_action(act)
    n = act.base.dimension
    shape = (n + act.target.dimension,) * 3
    ops = {
        op: _blocks(shape, *_module_blocks(act.representation, op), (act.target.op(op), n, n, n))
        for op in ("prec", "succ")
    }
    return Algebra(shape[0], "dendriform", ops)


def sum_collapse_quadri(q: Algebra) -> Algebra:
    """Di-associative collapse: vdash = prec_vdash + succ_vdash,
    dashv = prec_dashv + succ_dashv."""
    _require_signature(q, "quadri", "six")
    return Algebra(
        q.dimension,
        "diassociative",
        {
            "vdash": q.op("prec_vdash") + q.op("succ_vdash"),
            "dashv": q.op("prec_dashv") + q.op("succ_dashv"),
        },
        q.basis_labels,
    )


def sum_collapse_six(s: Algebra) -> Algebra:
    """Tri-associative collapse: the di-associative pair plus
    perp = prec_perp + succ_perp."""
    _require_signature(s, "six")
    di = sum_collapse_quadri(s)
    return Algebra(
        s.dimension,
        "triassociative",
        {
            "vdash": di.op("vdash"),
            "dashv": di.op("dashv"),
            "perp": s.op("prec_perp") + s.op("succ_perp"),
        },
        s.basis_labels,
    )


def _twisted(subject, t: LinearMap, source: str, table) -> dict[str, BilinearOp]:
    """The subject's term table on the basis pairs of the sort `source`,
    with t as the map T from that sort to the base algebra A."""
    ctx = context_for(subject)
    ctx.maps["T"] = (t, source, "A")
    return tabulate(ctx, (source, source), table)


def aguiar_dendriform(assoc: Algebra, r: LinearMap) -> Algebra:
    """Dendriform structure from a Rota-Baxter operator:
    a prec b = mu(a, Rb), a succ b = mu(Ra, b)."""
    _require_signature(assoc, "associative")
    verdict = check_rota_baxter(assoc, r)
    if not verdict.ok:
        raise PreconditionFailure("map is not a Rota-Baxter operator", verdict)
    ops = _twisted(assoc, r, "A", {"prec": app("mul", _x, _Ty), "succ": app("mul", _Tx, _y)})
    return Algebra(assoc.dimension, "dendriform", ops, assoc.basis_labels)


def aguiar_diassociative(assoc: Algebra, h: LinearMap) -> Algebra:
    """Di-associative structure from an averaging operator:
    a dashv b = mu(a, Hb), a vdash b = mu(Ha, b)."""
    _require_signature(assoc, "associative")
    verdict = check_assoc_averaging(assoc, h)
    if not verdict.ok:
        raise PreconditionFailure("map is not an averaging operator", verdict)
    ops = _twisted(assoc, h, "A", {"dashv": app("mul", _x, _Ty), "vdash": app("mul", _Tx, _y)})
    return Algebra(assoc.dimension, "diassociative", ops, assoc.basis_labels)


# u prec_vdash v = Tu prec_l v, u prec_dashv v = u prec_r Tv, and the succ
# analogues, for a map T from a module to its base.
_QUADRI_TWIST = {
    **{f"{op}_vdash": app(f"{op}_l", _Tx, _y) for op in ("prec", "succ")},
    **{f"{op}_dashv": app(f"{op}_r", _x, _Ty) for op in ("prec", "succ")},
}


def induced_quadri(rep: Representation, t: LinearMap) -> Algebra:
    """Quadri-dendriform structure on the module of a relative averaging
    operator: u prec_vdash v = Tu prec_l v, u prec_dashv v = u prec_r Tv,
    and the succ analogues."""
    verdict = check_relative_averaging(rep, t)
    if not verdict.ok:
        raise PreconditionFailure("map is not a relative averaging operator", verdict)
    return Algebra(rep.module_dim, "quadri", _twisted(rep, t, "V", _QUADRI_TWIST))


def averaging_quadri(d: Algebra, t: LinearMap) -> Algebra:
    """Quadri structure induced by an averaging operator on the algebra
    itself: x prec_vdash y = Tx prec y, x prec_dashv y = x prec Ty, etc."""
    return induced_quadri(adjoint_representation(d), t)


def induced_six(act: Action, t: LinearMap) -> Algebra:
    """Six-dendriform structure on the target of a homomorphic relative
    averaging operator: the perp pair copies the target's own products and
    the quadri quadruple is T-twisted as in induced_quadri."""
    verdict = check_homomorphic_relative(act, t)
    if not verdict.ok:
        raise PreconditionFailure(
            "map is not a homomorphic relative averaging operator", verdict
        )
    ops = _twisted(act.representation, t, "V", _QUADRI_TWIST)
    ops["prec_perp"] = act.target.op("prec")
    ops["succ_perp"] = act.target.op("succ")
    return Algebra(act.target.dimension, "six", ops, act.target.basis_labels)


# d(d(x)) = 0, and the Leibniz rule d(x * y) = dx * y + x * dy for both
# operations.
_DIFFERENTIAL = ((equation("d2=0", ("A",), apply_map("d", apply_map("d", _x)), ()),),) + tuple(
    (equation(f"leibniz:{op}", ("A", "A"), apply_map("d", app(op, _x, _y)),
              expr(app(op, apply_map("d", _x), _y), app(op, _x, apply_map("d", _y)))),)
    for op in ("prec", "succ")
)


def check_differential(
    d: Algebra, diff: LinearMap, max_violations: int = DEFAULT_VIOLATION_CAP
) -> ViolationReport:
    """d^2 = 0 on basis vectors and the Leibniz rule for both operations on
    basis pairs."""
    _require_signature(d, "dendriform")
    if (diff.source_dim, diff.target_dim) != (d.dimension, d.dimension):
        raise SpecError("differential must be an endomorphism of the algebra")
    ctx = context_for(d)
    ctx.maps["d"] = (diff, "A", "A")
    return _scan(ctx, _DIFFERENTIAL, max_violations, "differential")


def differential_quadri(d: Algebra, diff: LinearMap) -> Algebra:
    """Quadri structure of a differential dendriform algebra:
    x prec_vdash y = d(x) prec y, x prec_dashv y = x prec d(y), etc."""
    verdict = check_differential(d, diff)
    if not verdict.ok:
        raise PreconditionFailure("map is not a differential", verdict)
    return Algebra(d.dimension, "quadri", _twisted(adjoint_representation(d), diff, "V", _QUADRI_TWIST))


def dual_extension(d: Algebra) -> tuple[Action, LinearMap]:
    """Extend a dendriform algebra by dual numbers: F = D[t]/(t^2) with
    t-bilinear products, the displayed four actions of D on F, and the
    degree-0 projection T: F -> D, which is a homomorphic relative
    averaging operator."""
    _require_signature(d, "dendriform")
    n = d.dimension
    total = 2 * n
    # (x + x't)(y + y't) = xy + (xy' + x'y)t, as t^2 = 0
    target = Algebra(total, "dendriform", {
        op: _blocks((total,) * 3, (d.op(op), 0, 0, 0), (d.op(op), 0, n, n), (d.op(op), n, 0, n))
        for op in ("prec", "succ")
    })
    actions = {f"{op}_l": _blocks((n, total, total), (d.op(op), 0, 0, 0), (d.op(op), 0, n, n))
               for op in ("prec", "succ")}
    actions.update({f"{op}_r": _blocks((total, n, total), (d.op(op), 0, 0, 0), (d.op(op), n, 0, n))
                    for op in ("prec", "succ")})
    projection = LinearMap(
        total, n, [[1 if j == i else 0 for j in range(total)] for i in range(n)]
    )
    return Action(d, target, actions), projection
