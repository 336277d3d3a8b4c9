"""Constructive theorems: products, induced structures and collapses.

Every tensor here is built by one builder, `identities.tabulate`, from a
table of terms on basis pairs: a product places the object's operations by
the projections and inclusions of its sorts, a sum collapse adds two halves
and an induced structure twists them, as in mu(x, Ty).  Every theorem
names its input type by catalogs and refuses an input that fits none
(`identities.fits`) with one line, then one that fails the axioms of its
type (`_require_axioms`) or its operator identity with the failing verdict;
a twisted theorem takes its type from its operator kind's row (`_twisted`).
The tests and the CLI re-check the outputs."""

from __future__ import annotations

from .identities import (
    CATALOG_NAMES,
    OpContext,
    ViolationReport,
    app,
    apply_map,
    check,
    context_for,
    expr,
    fits,
    needs,
    tabulate,
    var,
)
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
    adjoint_representation,
    half,
    perp_dendriform_part,
    quadri_part,
    signature_of,
    split,
)
from .operators import _KINDS, _context, check_operator

_x, _y = var(0), var(1)
_Tx, _Ty = apply_map("T", _x), apply_map("T", _y)


class PreconditionFailure(SpecError):
    """A construction refused its input; carries the failing verdict."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict


def _require(report: ViolationReport, message: str) -> None:
    """Refuse an input whose hypothesis check failed, with that verdict."""
    if not report.ok:
        raise PreconditionFailure(message, report)


def _require_axioms(obj, *catalogs: str) -> None:
    """Refuse an input no catalog reads (`identities.fits`) with one line, then
    one that fails the axioms of its type with the first failing verdict: a
    module's dendriform base and an action's target, then each catalog the
    input fits (an action's before a representation's), as not what that
    catalog `needs`; a six algebra's perp pair first and quadri part last."""
    if not any(fits(obj, name) for name in catalogs):
        raise SpecError(f"expected {needs(*catalogs)}")
    parts = [(getattr(obj, side), "dendriform", f"{side} algebra is not dendriform")
             for side in ("base", "target") if hasattr(obj, side)]
    parts += [(obj, name, f"input is not {needs(name)}") for name in CATALOG_NAMES if fits(obj, name)]
    if fits(obj, "six"):
        perp = (perp_dendriform_part(obj), "dendriform", "target not dendriform: the perp pair fails the dendriform axioms")
        parts = [perp, *parts, (quadri_part(obj), "quadri", "the quadri part is not a quadri-dendriform algebra")]
    for part, catalog_name, message in parts:
        _require(check(part, catalog_name), message)


def _product(obj, signature: str, patterns) -> Algebra:
    """The algebra of the signature on S = A + V, V after A: each operation
    sums in_out(h(pr_left x, pr_right y)) over the patterns (left, right) of
    patterns(name), h the object's operation of its half on those sorts, out
    its output sort: the splitting rule on a product (Bai-Bellier-Guo-Ni)."""
    ctx = context_for(obj)
    a, total = ctx.dims["A"], ctx.dims["A"] + ctx.dims["V"]
    rows = LinearMap.identity(total).matrix
    maps = {}
    for sort, cut in (("A", slice(0, a)), ("V", slice(a, total))):
        maps["pr" + sort] = (LinearMap(total, ctx.dims[sort], rows[cut]), "S", sort)
        maps["in" + sort] = (LinearMap(ctx.dims[sort], total, [row[cut] for row in rows]), sort, "S")
    ctx = OpContext(ctx.ops, {**ctx.dims, "S": total}, maps)

    def block(h: str, left: str, right: str):
        product = app(h, apply_map("pr" + left, _x), apply_map("pr" + right, _y))
        return apply_map("in" + ctx.resolve(h, left, right)[1], product)

    table = {name: expr(*(block(half(name), left, right) for left, right in patterns(name)))
             for name in SIGNATURE_OPS[signature]}
    return Algebra(total, signature, tabulate(ctx, ("S", "S"), table))


def _semidirect(rep: Representation) -> Algebra:
    return _product(rep, "dendriform", lambda name: ("AA", "AV", "VA"))


def semidirect(rep: Representation) -> Algebra:
    """Dendriform structure on base + module:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y), same shape for succ."""
    _require_axioms(rep, "dend-representation")
    return _semidirect(rep)


def _hemisemidirect(rep: Representation) -> Algebra:
    return _product(rep, "quadri", lambda name: ("AA", "AV" if name.endswith("vdash") else "VA"))


def hemisemidirect(rep: Representation) -> Algebra:
    """Quadri-dendriform structure on base + module; each split operation
    keeps the base product and only a one-sided action:
    (x,u) prec_vdash (y,v) = (x prec y, x prec_l v), and so on."""
    _require_axioms(rep, "dend-representation")
    return _hemisemidirect(rep)


def action_semidirect(act: Action) -> Algebra:
    """Dendriform structure on base + target with the target's own products
    on the module block:
    (x,u) prec (y,v) = (x prec y, x prec_l v + u prec_r y + u prec' v)."""
    _require_axioms(act, "dend-action")
    return _product(act, "dendriform", lambda name: ("AA", "AV", "VA", "VV"))


def _sum_collapse(q: Algebra, signature: str, *inputs: str) -> Algebra:
    """Each operation of the signature is the sum of its prec and succ
    halves, on an algebra of one of the input signatures."""
    _require_axioms(q, *inputs)
    table = {name: expr(app(prec, _x, _y), app(succ, _x, _y))
             for name in SIGNATURE_OPS[signature] for prec, succ in [split(name)]}
    return Algebra(q.dimension, signature, tabulate(context_for(q), ("A", "A"), table), q.basis_labels)


def sum_collapse_quadri(q: Algebra) -> Algebra:
    """Di-associative collapse: vdash = prec_vdash + succ_vdash,
    dashv = prec_dashv + succ_dashv."""
    return _sum_collapse(q, "diassociative", "quadri", "six")


def sum_collapse_six(s: Algebra) -> Algebra:
    """Tri-associative collapse: the di-associative pair plus
    perp = prec_perp + succ_perp."""
    return _sum_collapse(s, "triassociative", "six")


def _twisted(subject, kind: str, t: LinearMap, table, message: str) -> Algebra:
    """The algebra that t, an operator of the kind, twists, of the signature
    whose operations are the table's keys (`model.signature_of`): the table
    on the basis pairs of T's source sort, labelled as the algebra
    on that sort (the subject, an action's target, none on a representation).
    The kind's row refuses a subject it does not take and a t of the wrong
    shape with one line; the subject's axioms, then the kind's equations on t
    (with the message), refuse with the failing verdict."""
    ctx, row = _context(subject, kind, t), _KINDS[kind]
    _require_axioms(subject, row.catalog)
    _require(check_operator(subject, kind, t), message)
    source = row.map_sorts[0]
    labels = getattr(getattr(subject, "target", subject), "basis_labels", None)
    return Algebra(ctx.dims[source], signature_of(table), tabulate(ctx, (source, source), table), labels)


def aguiar_dendriform(assoc: Algebra, r: LinearMap) -> Algebra:
    """Dendriform structure from a Rota-Baxter operator:
    a prec b = mu(a, Rb), a succ b = mu(Ra, b)."""
    return _twisted(assoc, "rota_baxter", r, {"prec": app("mul", _x, _Ty), "succ": app("mul", _Tx, _y)},
                    "map is not a Rota-Baxter operator")


def aguiar_diassociative(assoc: Algebra, h: LinearMap) -> Algebra:
    """Di-associative structure from an averaging operator:
    a dashv b = mu(a, Hb), a vdash b = mu(Ha, b)."""
    return _twisted(assoc, "assoc_averaging", h, {"dashv": app("mul", _x, _Ty), "vdash": app("mul", _Tx, _y)},
                    "map is not an averaging operator")


# u prec_vdash v = Tu prec_l v, u prec_dashv v = u prec_r Tv, and the succ
# analogues, for a map T from a module to its base: on the sorts A x V and
# V x A, the operation of a half is that action.  On an algebra, T maps A to
# itself and the halves are its own operations.
_QUADRI_TWIST = {
    **{f"{op}_vdash": app(op, _Tx, _y) for op in ("prec", "succ")},
    **{f"{op}_dashv": app(op, _x, _Ty) for op in ("prec", "succ")},
}


def induced_quadri(rep: Representation, t: LinearMap) -> Algebra:
    """Quadri-dendriform structure on the module of a relative averaging
    operator: u prec_vdash v = Tu prec_l v, u prec_dashv v = u prec_r Tv,
    and the succ analogues."""
    return _twisted(rep, "relative_averaging", t, _QUADRI_TWIST, "map is not a relative averaging operator")


def averaging_quadri(d: Algebra, t: LinearMap) -> Algebra:
    """Quadri structure induced by an averaging operator on the algebra
    itself: x prec_vdash y = Tx prec y, x prec_dashv y = x prec Ty, etc."""
    return _twisted(d, "dend_averaging", t, _QUADRI_TWIST, "map is not an averaging operator")


def induced_six(act: Action, t: LinearMap) -> Algebra:
    """Six-dendriform structure on the target of a homomorphic relative
    averaging operator: the quadri quadruple is T-twisted as in
    induced_quadri, and the perp pair is the target's own prec and succ."""
    return _twisted(act, "homomorphic_relative", t,
                    {**_QUADRI_TWIST, **{name: app(half(name), _x, _y) for name in split("perp")}},
                    "map is not a homomorphic relative averaging operator")


def check_differential(d: Algebra, diff: LinearMap) -> ViolationReport:
    """d^2 = 0 on basis vectors and the Leibniz rule for both operations on
    basis pairs."""
    return check_operator(d, "differential", diff)


def differential_quadri(d: Algebra, diff: LinearMap) -> Algebra:
    """Quadri structure of a differential dendriform algebra:
    x prec_vdash y = d(x) prec y, x prec_dashv y = x prec d(y), etc."""
    return _twisted(d, "differential", diff, _QUADRI_TWIST, "map is not a differential")


def dual_extension(d: Algebra) -> tuple[Action, LinearMap]:
    """Extend a dendriform algebra by dual numbers: F = D[t]/(t^2) with
    t-bilinear products, the displayed four actions of D on F, and the
    degree-0 projection T: F -> D, which is a homomorphic relative
    averaging operator."""
    _require_axioms(d, "dendriform")
    n = d.dimension
    # (x + x't)(y + y't) = xy + (xy' + x'y)t, as t^2 = 0: the semidirect
    # product of the adjoint representation, whose first n rows are the
    # left actions of D on F and whose first n columns the right actions
    target = _semidirect(adjoint_representation(d))
    actions = {}
    for op in ("prec", "succ"):
        coeffs = target.op(op).coeffs
        actions[f"{op}_l"] = BilinearOp(n, 2 * n, 2 * n, coeffs[:n])
        actions[f"{op}_r"] = BilinearOp(2 * n, n, 2 * n, [row[:n] for row in coeffs])
    return Action(d, target, actions), LinearMap(2 * n, n, LinearMap.identity(2 * n).matrix[:n])
