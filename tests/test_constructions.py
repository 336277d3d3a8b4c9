from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.constructions import (
    PreconditionFailure,
    action_semidirect,
    aguiar_dendriform,
    aguiar_diassociative,
    check_differential,
    differential_quadri,
    dual_extension,
    hemisemidirect,
    induced_quadri,
    induced_six,
    semidirect,
    sum_collapse_quadri,
    sum_collapse_six,
)
from splitalg.identities import IdentitySchema, _eval_expr, app, apply_map, check, context_for, expr, tabulate, var
from splitalg.linalg import basis_vector, vec_add
from splitalg.model import LinearMap, SpecError, adjoint_representation, evaluate, self_action
from splitalg.operators import check_homomorphic_relative
from splitalg.samples import one_dim_dendriform, zero_algebra
from conftest import shift_map
from test_engine import actions, algebras, linear_maps, representations


def test_semidirect_blocks(adjoint, dend):
    sd = semidirect(adjoint)
    n = dend.dimension
    assert sd.dimension == 2 * n
    assert check(sd, "dendriform").ok
    # base x base lands in the base block
    p = evaluate(sd.op("prec"), basis_vector(2 * n, 0), basis_vector(2 * n, 1))
    assert all(e == 0 for e in p[n:])
    # module x module vanishes
    q = evaluate(sd.op("prec"), basis_vector(2 * n, n), basis_vector(2 * n, n + 1))
    assert all(e == 0 for e in q)


def test_hemisemidirect(adjoint):
    h = hemisemidirect(adjoint)
    assert h.dimension == 8
    report = check(h, "quadri")
    assert report.ok
    assert report.checked == 19 * 8**3


def test_action_semidirect(dend):
    asd = action_semidirect(self_action(dend))
    assert asd.dimension == 8
    assert check(asd, "dendriform").ok
    # module x module block is the target's own product, not zero
    n = dend.dimension
    v = evaluate(asd.op("prec"), basis_vector(8, n), basis_vector(8, n))
    assert any(e != 0 for e in v)


def test_aguiar_dendriform_formulas(poly, integ, dend):
    n = poly.dimension
    mul = poly.op("mul")
    for i in range(n):
        for j in range(n):
            ei, ej = basis_vector(n, i), basis_vector(n, j)
            assert dend.op("prec").coeffs[i][j] == evaluate(mul, ei, integ.apply(ej))
            assert dend.op("succ").coeffs[i][j] == evaluate(mul, integ.apply(ei), ej)


def test_aguiar_refuses_non_rota_baxter(poly):
    with pytest.raises(PreconditionFailure) as exc:
        aguiar_dendriform(poly, LinearMap.identity(poly.dimension))
    assert not exc.value.verdict.ok


def test_aguiar_diassociative(poly, integ):
    di = aguiar_diassociative(poly, shift_map(poly.dimension))
    assert check(di, "diassociative").ok
    # the integration map is Rota-Baxter but not averaging
    with pytest.raises(PreconditionFailure):
        aguiar_diassociative(poly, integ)


def test_induced_quadri_and_collapse(adjoint, quadri):
    report = check(quadri, "quadri")
    assert report.ok
    di = sum_collapse_quadri(quadri)
    assert check(di, "diassociative").ok
    # collapse really is the sum of the split pair
    pv, sv = quadri.op("prec_vdash"), quadri.op("succ_vdash")
    assert di.op("vdash") == pv + sv


def test_induced_quadri_refuses_bad_map(adjoint):
    n = adjoint.base.dimension
    bad = LinearMap(n, n, [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)])
    with pytest.raises(PreconditionFailure):
        induced_quadri(adjoint, bad)


def test_dual_extension_and_six(dend, six):
    act, proj = dual_extension(dend)
    n = dend.dimension
    assert act.target.dimension == 2 * n
    assert check(act, "dend-action").ok
    assert check_homomorphic_relative(act, proj).ok
    # projection is the identity on degree 0 and kills the dual part
    zero = tuple([Fraction(0)] * n)
    for i in range(n):
        assert proj.apply(basis_vector(2 * n, i)) == basis_vector(n, i)
        assert proj.apply(basis_vector(2 * n, n + i)) == zero
    report = check(six, "six")
    assert report.ok
    assert report.checked == 25 * (2 * n) ** 3
    tri = sum_collapse_six(six)
    report = check(tri, "triassociative")
    assert report.ok
    assert report.checked == 11 * (2 * n) ** 3


def test_induced_six_refuses_bad_map(dend):
    act, proj = dual_extension(dend)
    # doubling the projection breaks the homomorphism equations
    doubled = LinearMap(
        proj.source_dim,
        proj.target_dim,
        [[2 * e for e in row] for row in proj.matrix],
    )
    with pytest.raises(PreconditionFailure):
        induced_six(act, doubled)


def test_differential_quadri(dend):
    n = dend.dimension
    zero = LinearMap.zero(n, n)
    assert check_differential(dend, zero).ok
    dq = differential_quadri(dend, zero)
    assert check(dq, "quadri").ok
    assert dq.op("prec_vdash").is_zero()
    # the identity is not a differential (d^2 = d != 0)
    verdict = check_differential(dend, LinearMap.identity(n))
    assert not verdict.ok
    with pytest.raises(PreconditionFailure):
        differential_quadri(dend, LinearMap.identity(n))


def test_differential_on_zero_algebra():
    """On an algebra with zero products any square-zero map is a
    differential, and the induced quadri algebra is zero."""
    z = zero_algebra(2, "dendriform")
    d = LinearMap(2, 2, [[0, 1], [0, 0]])
    assert check_differential(z, d).ok
    dq = differential_quadri(z, d)
    assert check(dq, "quadri").ok


def test_sum_collapse_requires_signature(dend):
    with pytest.raises(SpecError):
        sum_collapse_quadri(dend)
    with pytest.raises(SpecError):
        sum_collapse_six(dend)


def test_semidirect_verifies_by_default():
    bad = adjoint_representation(one_dim_dendriform(1, 1))
    with pytest.raises(PreconditionFailure) as exc:
        semidirect(bad)
    assert not exc.value.verdict.ok
    assert semidirect(bad, verify=False).dimension == 2


def assert_formula(op, formula):
    """op equals formula(a, b) on every pair of basis vectors."""
    for p in range(op.left_dim):
        for q in range(op.right_dim):
            assert op.coeffs[p][q] == formula(basis_vector(op.left_dim, p), basis_vector(op.right_dim, q))


@settings(max_examples=30, deadline=None)
@given(rep=representations())
def test_module_products_match_block_formulas(rep):
    """(x,u) * (y,v) = (x * y, x *_l v + u *_r y) for semidirect; the
    hemisemidirect products keep one action each."""
    n = rep.base.dimension
    sd, hemi = semidirect(rep, verify=False), hemisemidirect(rep, verify=False)
    for op in ("prec", "succ"):
        base, left, right = rep.base.op(op), rep.actions[f"{op}_l"], rep.actions[f"{op}_r"]
        assert_formula(sd.op(op), lambda a, b: evaluate(base, a[:n], b[:n])
                       + vec_add(evaluate(left, a[:n], b[n:]), evaluate(right, a[n:], b[:n])))
        assert_formula(hemi.op(f"{op}_vdash"),
                       lambda a, b: evaluate(base, a[:n], b[:n]) + evaluate(left, a[:n], b[n:]))
        assert_formula(hemi.op(f"{op}_dashv"),
                       lambda a, b: evaluate(base, a[:n], b[:n]) + evaluate(right, a[n:], b[:n]))


@settings(max_examples=30, deadline=None)
@given(act=actions())
def test_action_semidirect_matches_block_formula(act):
    n = act.base.dimension
    asd = action_semidirect(act, verify=False)
    for op in ("prec", "succ"):
        base, left, right = act.base.op(op), act.actions[f"{op}_l"], act.actions[f"{op}_r"]
        own = act.target.op(op)
        assert_formula(asd.op(op), lambda a, b: evaluate(base, a[:n], b[:n]) + vec_add(
            vec_add(evaluate(left, a[:n], b[n:]), evaluate(right, a[n:], b[:n])), evaluate(own, a[n:], b[n:])))


@settings(max_examples=30, deadline=None)
@given(d=algebras("dendriform"))
def test_dual_extension_matches_block_formulas(d):
    """(x + x't)(y + y't) = xy + (xy' + x'y)t; D acts on either side of each
    degree; the projection keeps degree 0."""
    n = d.dimension
    act, proj = dual_extension(d)
    for op in ("prec", "succ"):
        mu = d.op(op)
        assert_formula(act.target.op(op), lambda a, b: evaluate(mu, a[:n], b[:n])
                       + vec_add(evaluate(mu, a[:n], b[n:]), evaluate(mu, a[n:], b[:n])))
        assert_formula(act.actions[f"{op}_l"], lambda a, b: evaluate(mu, a, b[:n]) + evaluate(mu, a, b[n:]))
        assert_formula(act.actions[f"{op}_r"], lambda a, b: evaluate(mu, a[:n], b) + evaluate(mu, a[n:], b))
    for p in range(2 * n):
        assert proj.column(p) == basis_vector(2 * n, p)[:n]


_x, _y = var(0), var(1)
_Tx, _Ty = apply_map("T", _x), apply_map("T", _y)
# Term tables by slot sorts, for a map T from the module V to the base A.
TWIST_TABLES = {
    ("V", "V"): {
        "vdash": app("prec_l", _Tx, _y),
        "dashv": app("succ_r", _x, _Ty),
        "both": app("prec", _Tx, _Ty),
        "nested": apply_map("T", app("succ_l", _Tx, _y)),
        "sum": app("prec_r", _x, apply_map("T", expr(_x, _y, _y))),
        "leaf": _y,
    },
    ("A", "V"): {
        "action": app("prec_l", _x, _y),
        "twice": app("succ_l", app("prec", _x, _Ty), _y),
    },
}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tabulate_matches_reference(data):
    """tabulate equals the reference evaluator on every basis pair."""
    subject = data.draw(st.one_of(representations(), actions()))
    ctx = context_for(subject)
    ctx.maps["T"] = (data.draw(linear_maps(ctx.dims["V"], ctx.dims["A"])), "V", "A")
    for sorts, table in TWIST_TABLES.items():
        ops = tabulate(ctx, sorts, table)
        schema = IdentitySchema("reference", sorts, (), ())
        for name, term in table.items():
            op = ops[name]
            for i in range(ctx.dims[sorts[0]]):
                for j in range(ctx.dims[sorts[1]]):
                    values = (basis_vector(ctx.dims[sorts[0]], i), basis_vector(ctx.dims[sorts[1]], j))
                    value, sort = _eval_expr(expr(term), schema, ctx, values)
                    assert op.coeffs[i][j] == value
                    assert op.out_dim == ctx.dims[sort]
