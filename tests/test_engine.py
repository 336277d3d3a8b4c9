"""The compiled identity scan against a reference scan that interprets each
schema with evaluate_schema at every basis tuple, on generated objects and
maps: same count, same witnesses in the same order, same residuals and the
same truncation."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.identities import (
    CATALOG_NAMES,
    _scan,
    app,
    apply_map,
    catalog,
    check,
    context_for,
    equation,
    evaluate_schema,
    expr,
    var,
)
from splitalg.linalg import basis_vector, is_zero
from splitalg.model import Action, Algebra, BilinearOp, LinearMap, Representation, SIGNATURE_OPS
from splitalg.operators import OPERATOR_KINDS, _KINDS, check_operator, operator_map_shape

SCALARS = st.sampled_from([Fraction(k) for k in (-2, -1, 0, 0, 0, 0, 1, 1, 2)] + [Fraction(1, 2)])
DIMS = st.integers(1, 3)


def reference_scan(ctx, groups):
    """(instances checked, [(schema id, witness, residual)]) in scan order."""
    checked, found = 0, []
    for group in groups:
        sorts = group[0].slot_sorts
        dims = [ctx.dims[s] for s in sorts]
        for idx in itertools.product(*map(range, dims)):
            values = [basis_vector(d, i) for d, i in zip(dims, idx)]
            for schema in group:
                checked += 1
                residual = evaluate_schema(schema, ctx, values)
                if not is_zero(residual):
                    found.append((schema.id, idx, residual))
    return checked, found


def assert_same(report, reference, cap):
    checked, found = reference
    assert report.checked == checked
    assert [(v.identity, v.witness, v.residual) for v in report.violations] == found[:cap]
    assert report.truncated == (len(found) > cap)


@st.composite
def tensors(draw, left, right, out):
    return BilinearOp(
        left, right, out,
        draw(st.lists(st.lists(st.lists(SCALARS, min_size=out, max_size=out),
                               min_size=right, max_size=right), min_size=left, max_size=left)),
    )


@st.composite
def algebras(draw, signature, dim=None):
    n = dim or draw(DIMS)
    return Algebra(n, signature, {name: draw(tensors(n, n, n)) for name in SIGNATURE_OPS[signature]})


@st.composite
def action_tensors(draw, n, m):
    return {
        "prec_l": draw(tensors(n, m, m)),
        "succ_l": draw(tensors(n, m, m)),
        "prec_r": draw(tensors(m, n, m)),
        "succ_r": draw(tensors(m, n, m)),
    }


@st.composite
def representations(draw):
    base, m = draw(algebras("dendriform")), draw(DIMS)
    return Representation(base, m, draw(action_tensors(base.dimension, m)))


@st.composite
def actions(draw):
    base, target = draw(algebras("dendriform")), draw(algebras("dendriform"))
    return Action(base, target, draw(action_tensors(base.dimension, target.dimension)))


@st.composite
def linear_maps(draw, source, target):
    return LinearMap(source, target, draw(st.lists(st.lists(SCALARS, min_size=source, max_size=source),
                                                   min_size=target, max_size=target)))


def catalog_subjects(name):
    if name == "dend-representation":
        return representations()
    if name == "dend-action":
        return actions()
    return algebras(name)


KIND_SUBJECTS = {
    "rota_baxter": algebras("associative"),
    "assoc_averaging": algebras("associative"),
    "dend_averaging": algebras("dendriform"),
    "relative_averaging": st.one_of(representations(), actions()),
    "homomorphic_relative": actions(),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(CATALOG_NAMES), paranoid=st.booleans(), cap=st.integers(0, 6))
def test_catalog_scan_matches_reference(data, name, paranoid, cap):
    obj = data.draw(catalog_subjects(name))
    report = check(obj, name, paranoid=paranoid, max_violations=cap)
    groups = [(schema,) for schema in catalog(name, paranoid=paranoid)]
    assert_same(report, reference_scan(context_for(obj), groups), cap)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(OPERATOR_KINDS), cap=st.integers(0, 6))
def test_operator_scan_matches_reference(data, kind, cap):
    subject = data.draw(KIND_SUBJECTS[kind])
    t = data.draw(linear_maps(*operator_map_shape(subject, kind)))
    report = check_operator(subject, kind, t, max_violations=cap)
    ctx = context_for(subject)
    ctx.maps["T"] = (t, *_KINDS[kind].map_sorts)
    assert_same(report, reference_scan(ctx, _KINDS[kind].groups), cap)


_x, _y, _z = var(0), var(1), var(2)
# Proper subterms that are not plain lookups, so the scan tabulates them:
# T(x * y) and T(x + 2y) read two of three slots, T(T(x)) and T(-y) one of two.
TABULATED = [
    (equation("t.1", ("A", "A", "A"), app("mul", app("mul", _x, _y), _z), apply_map("T", app("mul", _x, _y))),),
    (
        equation("t.2", ("A", "A", "A"), app("mul", apply_map("T", expr(_x, _y, _y)), _z), ()),
        equation("t.3", ("A", "A", "A"), (), app("mul", _z, apply_map("T", app("mul", _y, _x)))),
    ),
    (equation("t.4", ("A", "A"), app("mul", apply_map("T", apply_map("T", _x)), _y),
              app("mul", _x, apply_map("T", ((Fraction(-1), _y),)))),),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cap=st.integers(0, 6))
def test_tabulated_subterms_match_reference(data, cap):
    a = data.draw(algebras("associative"))
    t = data.draw(linear_maps(a.dimension, a.dimension))
    ctx = context_for(a)
    ctx.maps["T"] = (t, "A", "A")
    assert_same(_scan(ctx, TABULATED, cap), reference_scan(ctx, TABULATED), cap)
