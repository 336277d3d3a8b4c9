"""Constructive theorems: products, induced structures and collapses.

Each function builds explicit structure-constant tensors.  Outputs are
not re-verified here; the test suite and the CLI re-run the identity
catalogs on every constructed object instead of trusting the theorems.
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
    var,
)
from .linalg import Vector, basis_vector, zero_vector
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    adjoint_representation,
    evaluate,
)
from .operators import (
    check_assoc_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
    check_rota_baxter,
)


class PreconditionFailure(SpecError):
    """A construction refused its input; carries the failing verdict."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict


def _embed(v: Vector, offset: int, total: int) -> Vector:
    out = [Fraction(0)] * total
    out[offset : offset + len(v)] = v
    return tuple(out)


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


def semidirect(rep: Representation, verify: bool = False) -> Algebra:
    """Dendriform structure on base + module:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y), same shape for succ.
    """
    if verify:
        _verify_rep(rep)
    n, m = rep.base.dimension, rep.module_dim
    total = n + m

    def block_op(base_op: BilinearOp, left: BilinearOp, right: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if i < n and j < n:
                return _embed(base_op.coeffs[i][j], 0, total)
            if i < n:
                return _embed(left.coeffs[i][j - n], n, total)
            if j < n:
                return _embed(right.coeffs[i - n][j], n, total)
            return zero_vector(total)

        return BilinearOp.build(total, total, total, fn)

    return Algebra(
        total,
        "dendriform",
        {
            "prec": block_op(rep.base.op("prec"), rep.actions["prec_l"], rep.actions["prec_r"]),
            "succ": block_op(rep.base.op("succ"), rep.actions["succ_l"], rep.actions["succ_r"]),
        },
    )


def hemisemidirect(rep: Representation, verify: bool = True) -> Algebra:
    """Quadri-dendriform structure on base + module; each split operation
    keeps the base product and only a one-sided action:
    (x,u) prec_vdash (y,v) = (x prec y, x prec_l v), and so on."""
    if verify:
        _verify_rep(rep)
    n, m = rep.base.dimension, rep.module_dim
    total = n + m

    def vdash_op(base_op: BilinearOp, left: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if i < n and j < n:
                return _embed(base_op.coeffs[i][j], 0, total)
            if i < n and j >= n:
                return _embed(left.coeffs[i][j - n], n, total)
            return zero_vector(total)

        return BilinearOp.build(total, total, total, fn)

    def dashv_op(base_op: BilinearOp, right: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if i < n and j < n:
                return _embed(base_op.coeffs[i][j], 0, total)
            if i >= n and j < n:
                return _embed(right.coeffs[i - n][j], n, total)
            return zero_vector(total)

        return BilinearOp.build(total, total, total, fn)

    return Algebra(
        total,
        "quadri",
        {
            "prec_vdash": vdash_op(rep.base.op("prec"), rep.actions["prec_l"]),
            "succ_vdash": vdash_op(rep.base.op("succ"), rep.actions["succ_l"]),
            "prec_dashv": dashv_op(rep.base.op("prec"), rep.actions["prec_r"]),
            "succ_dashv": dashv_op(rep.base.op("succ"), rep.actions["succ_r"]),
        },
    )


def action_semidirect(act: Action, verify: bool = True) -> Algebra:
    """Dendriform structure on base + target with the target's own products
    on the module block:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y + u prec' v)."""
    if verify:
        _verify_action(act)
    n, m = act.base.dimension, act.target.dimension
    total = n + m

    def block_op(base_op, left, right, tgt) -> BilinearOp:
        def fn(i, j):
            if i < n and j < n:
                return _embed(base_op.coeffs[i][j], 0, total)
            if i < n:
                return _embed(left.coeffs[i][j - n], n, total)
            if j < n:
                return _embed(right.coeffs[i - n][j], n, total)
            return _embed(tgt.coeffs[i - n][j - n], n, total)

        return BilinearOp.build(total, total, total, fn)

    return Algebra(
        total,
        "dendriform",
        {
            "prec": block_op(
                act.base.op("prec"),
                act.actions["prec_l"],
                act.actions["prec_r"],
                act.target.op("prec"),
            ),
            "succ": block_op(
                act.base.op("succ"),
                act.actions["succ_l"],
                act.actions["succ_r"],
                act.target.op("succ"),
            ),
        },
    )


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


def aguiar_dendriform(assoc: Algebra, r: LinearMap) -> Algebra:
    """Dendriform structure from a Rota-Baxter operator:
    a prec b = mu(a, Rb), a succ b = mu(Ra, b)."""
    _require_signature(assoc, "associative")
    verdict = check_rota_baxter(assoc, r)
    if not verdict.ok:
        raise PreconditionFailure("map is not a Rota-Baxter operator", verdict)
    mul = assoc.op("mul")
    n = assoc.dimension
    img = [r.apply(basis_vector(n, i)) for i in range(n)]
    return Algebra(
        n,
        "dendriform",
        {
            "prec": BilinearOp.build(
                n, n, n, lambda i, j: evaluate(mul, basis_vector(n, i), img[j])
            ),
            "succ": BilinearOp.build(
                n, n, n, lambda i, j: evaluate(mul, img[i], basis_vector(n, j))
            ),
        },
        assoc.basis_labels,
    )


def aguiar_diassociative(assoc: Algebra, h: LinearMap) -> Algebra:
    """Di-associative structure from an averaging operator:
    a dashv b = mu(a, Hb), a vdash b = mu(Ha, b)."""
    _require_signature(assoc, "associative")
    verdict = check_assoc_averaging(assoc, h)
    if not verdict.ok:
        raise PreconditionFailure("map is not an averaging operator", verdict)
    mul = assoc.op("mul")
    n = assoc.dimension
    img = [h.apply(basis_vector(n, i)) for i in range(n)]
    return Algebra(
        n,
        "diassociative",
        {
            "dashv": BilinearOp.build(
                n, n, n, lambda i, j: evaluate(mul, basis_vector(n, i), img[j])
            ),
            "vdash": BilinearOp.build(
                n, n, n, lambda i, j: evaluate(mul, img[i], basis_vector(n, j))
            ),
        },
        assoc.basis_labels,
    )


def induced_quadri_tensors(rep: Representation, t: LinearMap) -> dict[str, BilinearOp]:
    m = rep.module_dim
    img = [t.apply(basis_vector(m, a)) for a in range(m)]
    return {
        "prec_vdash": BilinearOp.build(
            m, m, m, lambda a, b: evaluate(rep.actions["prec_l"], img[a], basis_vector(m, b))
        ),
        "succ_vdash": BilinearOp.build(
            m, m, m, lambda a, b: evaluate(rep.actions["succ_l"], img[a], basis_vector(m, b))
        ),
        "prec_dashv": BilinearOp.build(
            m, m, m, lambda a, b: evaluate(rep.actions["prec_r"], basis_vector(m, a), img[b])
        ),
        "succ_dashv": BilinearOp.build(
            m, m, m, lambda a, b: evaluate(rep.actions["succ_r"], basis_vector(m, a), img[b])
        ),
    }


def induced_quadri(rep: Representation, t: LinearMap) -> Algebra:
    """Quadri-dendriform structure on the module of a relative averaging
    operator: u prec_vdash v = Tu prec_l v, u prec_dashv v = u prec_r Tv,
    and the succ analogues."""
    verdict = check_relative_averaging(rep, t)
    if not verdict.ok:
        raise PreconditionFailure("map is not a relative averaging operator", verdict)
    return Algebra(rep.module_dim, "quadri", induced_quadri_tensors(rep, t))


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
    ops = induced_quadri_tensors(act.representation, t)
    ops["prec_perp"] = act.target.op("prec")
    ops["succ_perp"] = act.target.op("succ")
    return Algebra(act.target.dimension, "six", ops, act.target.basis_labels)


# d(d(x)) = 0, and the Leibniz rule d(x * y) = dx * y + x * dy for both
# operations.
_x, _y = var(0), var(1)
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
    return Algebra(d.dimension, "quadri", induced_quadri_tensors(adjoint_representation(d), diff))


def dual_extension(d: Algebra) -> tuple[Action, LinearMap]:
    """Extend a dendriform algebra by dual numbers: F = D[t]/(t^2) with
    t-bilinear products, the displayed four actions of D on F, and the
    degree-0 projection T: F -> D, which is a homomorphic relative
    averaging operator."""
    _require_signature(d, "dendriform")
    n = d.dimension
    total = 2 * n

    def extend_product(op: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if i < n and j < n:
                return _embed(op.coeffs[i][j], 0, total)
            if i < n and j >= n:
                return _embed(op.coeffs[i][j - n], n, total)
            if i >= n and j < n:
                return _embed(op.coeffs[i - n][j], n, total)
            return zero_vector(total)  # t^2 = 0

        return BilinearOp.build(total, total, total, fn)

    target = Algebra(
        total,
        "dendriform",
        {"prec": extend_product(d.op("prec")), "succ": extend_product(d.op("succ"))},
    )

    def left_action(op: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if j < n:
                return _embed(op.coeffs[i][j], 0, total)
            return _embed(op.coeffs[i][j - n], n, total)

        return BilinearOp.build(n, total, total, fn)

    def right_action(op: BilinearOp) -> BilinearOp:
        def fn(i, j):
            if i < n:
                return _embed(op.coeffs[i][j], 0, total)
            return _embed(op.coeffs[i - n][j], n, total)

        return BilinearOp.build(total, n, total, fn)

    act = Action(
        d,
        target,
        {
            "prec_l": left_action(d.op("prec")),
            "succ_l": left_action(d.op("succ")),
            "prec_r": right_action(d.op("prec")),
            "succ_r": right_action(d.op("succ")),
        },
    )
    projection = LinearMap(
        total, n, [[1 if j == i else 0 for j in range(total)] for i in range(n)]
    )
    return act, projection
