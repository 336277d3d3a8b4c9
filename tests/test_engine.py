"""The sparse evaluator against a reference scan that interprets each
schema with evaluate_schema at every basis tuple, on generated objects and
maps: same count, same witnesses in the same order, same residuals and the
same truncation."""

import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg import identities
from splitalg.identities import (
    CATALOG_NAMES,
    DEFAULT_VIOLATION_CAP,
    OpContext,
    Violation,
    ViolationReport,
    _scan,
    app,
    apply_map,
    catalog,
    check,
    check_schemas,
    context_for,
    equation,
    expr,
    fits,
    tabulate,
    var,
)
from splitalg import constructions, model, operators, quotients
from splitalg.constructions import dual_extension, hemisemidirect, induced_six, sum_collapse_quadri, sum_collapse_six
from splitalg.linalg import basis_vector, rref
from splitalg.model import (
    ACTION_SORTS,
    SIGNATURE_OPS,
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    adjoint_representation,
    self_action,
)
from splitalg.operators import OPERATOR_KINDS, _KINDS, check_operator, operator_map_shape, search_operators
from splitalg.quotients import quadri_to_relative_setup
from splitalg.samples import (
    integration_map,
    one_dim_dendriform,
    truncated_polynomial_algebra,
    truncated_polynomial_dendriform,
    zero_algebra,
)

from conftest import random_quadri, shift_map, transport
from oracle import eval_expr, evaluate_schema

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
                if any(residual):
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
def representations(draw, n=None, m=None):
    base, m = draw(algebras("dendriform", n)), m or draw(DIMS)
    return Representation(base, m, draw(action_tensors(base.dimension, m)))


@st.composite
def actions(draw, n=None, m=None):
    base, target = draw(algebras("dendriform", n)), draw(algebras("dendriform", m))
    return Action(base, target, draw(action_tensors(base.dimension, target.dimension)))


@st.composite
def linear_maps(draw, source, target):
    return LinearMap(source, target, draw(st.lists(st.lists(SCALARS, min_size=source, max_size=source),
                                                   min_size=target, max_size=target)))


def fitting(catalog_name, algebras_of, representations, actions):
    """The subjects of the type the catalog reads: each strategy of an
    algebra of each signature, of representations and of actions whose
    example object `fits` the catalog."""
    d = zero_algebra(1, "dendriform")
    zoo = [*((zero_algebra(1, s), algebras_of(s)) for s in SIGNATURE_OPS),
           (adjoint_representation(d), representations), (self_action(d), actions)]
    return st.one_of(*(strategy for example, strategy in zoo if fits(example, catalog_name)))


def catalog_subjects(name):
    return fitting(name, algebras, representations(), actions())


def catalog_scan(obj, name, cap):
    """The catalog check through the engine at `cap`; at the default cap
    the engine's report is the public check's."""
    groups = [(schema,) for schema in catalog(name)]
    assert check(obj, name) == _scan(context_for(obj), groups, DEFAULT_VIOLATION_CAP)
    return _scan(context_for(obj), groups, cap)


def operator_scan(subject, kind, t, cap):
    """The operator check through the engine at `cap`; at the default cap
    the engine's report is the public check's."""
    ctx = lambda: operators._context(subject, kind, t)
    assert check_operator(subject, kind, t) == _scan(ctx(), _KINDS[kind].groups, DEFAULT_VIOLATION_CAP, kind)
    return _scan(ctx(), _KINDS[kind].groups, cap, kind)


def row_subjects(kind, algebras_of, representations, actions):
    """The subjects the kind's `_KINDS` row takes: those of its catalog."""
    return fitting(_KINDS[kind].catalog, algebras_of, representations, actions)


KIND_SUBJECTS = {kind: row_subjects(kind, algebras, representations(), actions()) for kind in OPERATOR_KINDS}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(CATALOG_NAMES), cap=st.integers(0, 6))
def test_catalog_scan_matches_reference(data, name, cap):
    obj = data.draw(catalog_subjects(name))
    report = catalog_scan(obj, name, cap)
    groups = [(schema,) for schema in catalog(name)]
    assert_same(report, reference_scan(context_for(obj), groups), cap)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(OPERATOR_KINDS), cap=st.integers(0, 6))
def test_operator_scan_matches_reference(data, kind, cap):
    subject = data.draw(KIND_SUBJECTS[kind])
    t = data.draw(linear_maps(*operator_map_shape(subject, kind)))
    report = operator_scan(subject, kind, t, cap)
    ctx = context_for(subject, {"T": (t, *_KINDS[kind].map_sorts)})
    assert_same(report, reference_scan(ctx, _KINDS[kind].groups), cap)


def test_empty_schema_matches_reference():
    """0 = 0 never fails: its reference residual is the empty tuple, and a
    group that also holds a failing equation reports only that one."""
    a = Algebra(2, "associative", {"mul": BilinearOp(2, 2, 2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])})
    ctx = context_for(a)
    assert evaluate_schema(equation("e", ("A",), (), ()), ctx, [basis_vector(2, 0)]) == ()
    groups = [
        (equation("e", ("A",), (), ()),),
        (equation("f", ("A", "A"), (), ()), equation("g", ("A", "A"), app("mul", var(0), var(1)), ())),
    ]
    assert_same(_scan(ctx, groups, 6), reference_scan(ctx, groups), 6)


_x, _y, _z = var(0), var(1), var(2)
# Maps inside products, so subterms read fewer slots than their group:
# T(x * y) and T(x y + y x + y x) read two of three slots, T(y * x) reads
# them out of order, and T(T(x)) and T(-y) read one of two.
TABULATED = [
    (equation("t.1", ("A", "A", "A"), app("mul", app("mul", _x, _y), _z),
              app("mul", apply_map("T", app("mul", _x, _y)), _z)),),
    (
        equation("t.2", ("A", "A", "A"), app("mul", apply_map("T", expr(
            app("mul", _x, _y), app("mul", _y, _x), app("mul", _y, _x))), _z), ()),
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
    ctx = context_for(a, {"T": (t, "A", "A")})
    assert_same(_scan(ctx, TABULATED, cap), reference_scan(ctx, TABULATED), cap)


# ----------------------------------------------------------------------
# Wide denominators.  The evaluator clears the denominators of each tensor and
# each map on its own and brings every equation to one scale, so tensors
# whose denominators differ between operations, non-unit coefficients and
# terms of different depths must still give the reference residuals
# exactly, as Fractions.

WIDE_SCALARS = st.sampled_from(
    [Fraction(0)] * 4
    + [Fraction(1, 3), Fraction(-5, 6), Fraction(7, 10), Fraction(1, 97), Fraction(2), Fraction(-1)]
)
# one factor per tensor or map, so that their denominators differ
FACTORS = st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)])
COEFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(1, 97), Fraction(4)]
)


@st.composite
def wide_tensors(draw, left, right, out):
    k = draw(FACTORS)
    return BilinearOp(left, right, out, [[[k * draw(WIDE_SCALARS) for _ in range(out)]
                                          for _ in range(right)] for _ in range(left)])


@st.composite
def wide_maps(draw, source, target):
    k = draw(FACTORS)
    return LinearMap(source, target, [[k * draw(WIDE_SCALARS) for _ in range(source)] for _ in range(target)])


@st.composite
def wide_algebras(draw, signature):
    n = draw(DIMS)
    return Algebra(n, signature, {name: draw(wide_tensors(n, n, n)) for name in SIGNATURE_OPS[signature]})


@st.composite
def wide_action_tensors(draw, n, m):
    return {"prec_l": draw(wide_tensors(n, m, m)), "succ_l": draw(wide_tensors(n, m, m)),
            "prec_r": draw(wide_tensors(m, n, m)), "succ_r": draw(wide_tensors(m, n, m))}


@st.composite
def wide_representations(draw):
    base, m = draw(wide_algebras("dendriform")), draw(DIMS)
    return Representation(base, m, draw(wide_action_tensors(base.dimension, m)))


@st.composite
def wide_actions(draw):
    base, target = draw(wide_algebras("dendriform")), draw(wide_algebras("dendriform"))
    return Action(base, target, draw(wide_action_tensors(base.dimension, target.dimension)))


def wide_subjects(name):
    """The subjects of a catalog, or of an operator kind as its row reads them."""
    catalog_name = _KINDS[name].catalog if name in _KINDS else name
    return fitting(catalog_name, wide_algebras, wide_representations(), wide_actions())


@st.composite
def wide_contexts(draw):
    """Operations p, q on A and maps S, T: A -> A, each with its own
    denominators."""
    n = draw(DIMS)
    ops = {(name, "A", "A"): (draw(wide_tensors(n, n, n)), "A") for name in ("p", "q")}
    maps = {name: (draw(wide_maps(n, n)), "A", "A") for name in ("S", "T")}
    return OpContext(ops, {"A": n}, maps)


@st.composite
def wide_terms(draw, slots, maps=2):
    """A multilinear term in p, q, S and T that reads each of the slots (a
    sorted tuple) once: an operation splits them into two non-empty parts,
    the left one holding any of them, and the terms of a map argument all
    read the same slots.  At most `maps` maps are nested."""
    if maps and draw(st.integers(0, 3)) == 0:
        argument = st.lists(st.tuples(COEFS, wide_terms(slots, maps - 1)), min_size=1, max_size=3)
        return apply_map(draw(st.sampled_from(["S", "T"])), tuple(draw(argument)))
    if len(slots) == 1:
        return var(slots[0])
    order = draw(st.permutations(slots))
    cut = draw(st.integers(1, len(slots) - 1))
    left, right = (wide_terms(tuple(sorted(part)), maps) for part in (order[:cut], order[cut:]))
    return app(draw(st.sampled_from(["p", "q"])), draw(left), draw(right))


def wide_sides(slots, min_size=0):
    """A side of an equation in these many slots: up to three terms with
    coefficients; () is zero."""
    return st.lists(st.tuples(COEFS, wide_terms(tuple(range(slots)))), min_size=min_size, max_size=3).map(tuple)


@st.composite
def wide_groups(draw):
    groups = []
    for g in range(draw(st.integers(1, 3))):
        sorts = ("A",) * draw(st.integers(1, 3))
        groups.append(tuple(
            equation(f"g{g}.{e}", sorts, draw(wide_sides(len(sorts), 1)), draw(wide_sides(len(sorts))))
            for e in range(draw(st.integers(1, 3)))
        ))
    return groups


_A3 = ("A", "A", "A")
_half, _third = Fraction(3, 2), Fraction(-2, 3)
# An empty side; terms of different depths and operations on the two sides
# (scales D_p^2, D_p D_q D_T, D_q^2 D_S); terms of three scales inside one
# map argument, over three slots (w.map) and over one (T(z - 2/3 S(z)));
# arguments that read later slots than their partners (q(T(...z...), x),
# p(z, T(q(x, y))), q(z, p(y, x))).
WIDE_FIXED = [
    (
        equation("w.later", _A3, app("q", app("q", apply_map("T", ((Fraction(1), _z), (_third, apply_map("S", _z)))),
                                                  _x), _y),
                 ((_half, app("p", app("q", _y, _z), apply_map("T", _x))),)),
        equation("w.apart", _A3, app("p", app("q", _x, _y), apply_map("T", _z)),
                 app("q", _y, app("p", apply_map("S", _x), _z))),
    ),
    (equation("w.empty", _A3, (), ((_half, app("p", _x, app("q", _y, _z))),)),),
    (
        equation("w.mixed", _A3, ((_third, app("p", app("p", _x, _y), _z)),
                                  (Fraction(1, 97), app("p", _z, apply_map("T", app("q", _x, _y))))),
                 ((Fraction(4), app("q", app("q", _x, apply_map("S", _y)), _z)),)),
        equation("w.map", _A3, apply_map("T", ((_half, app("p", app("p", _x, _y), _z)),
                                               (_third, app("q", _z, app("p", _y, _x))),
                                               (Fraction(5, 7), app("q", _x, apply_map("S", app("p", _y, _z)))))),
                 app("q", apply_map("T", app("p", _x, _y)), _z)),
    ),
]


def assert_exact(report, reference, cap):
    """assert_same, plus: every residual entry is a Fraction, and the report
    renders and serializes as one built from the reference residuals."""
    assert_same(report, reference, cap)
    assert all(type(e) is Fraction for v in report.violations for e in v.residual)
    checked, found = reference
    expected = ViolationReport(checked, [Violation(*f) for f in found[:cap]], len(found) > cap, report.kind)
    assert report.render() == expected.render()
    assert report.to_dict() == expected.to_dict()


@settings(max_examples=40, deadline=None)
@given(ctx=wide_contexts(), groups=wide_groups(), cap=st.integers(0, 6))
def test_wide_schemas_match_reference(ctx, groups, cap):
    groups = WIDE_FIXED + groups
    assert_exact(_scan(ctx, groups, cap), reference_scan(ctx, groups), cap)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(CATALOG_NAMES), cap=st.integers(0, 6))
def test_wide_catalog_scan_matches_reference(data, name, cap):
    obj = data.draw(wide_subjects(name))
    groups = [(schema,) for schema in catalog(name)]
    assert_exact(catalog_scan(obj, name, cap), reference_scan(context_for(obj), groups), cap)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(OPERATOR_KINDS), cap=st.integers(0, 6))
def test_wide_operator_scan_matches_reference(data, kind, cap):
    subject = data.draw(wide_subjects(kind))
    t = data.draw(wide_maps(*operator_map_shape(subject, kind)))
    ctx = context_for(subject, {"T": (t, *_KINDS[kind].map_sorts)})
    assert_exact(operator_scan(subject, kind, t, cap), reference_scan(ctx, _KINDS[kind].groups), cap)


@settings(max_examples=40, deadline=None)
@given(ctx=wide_contexts(), table=st.lists(wide_terms((0, 1)), min_size=1, max_size=4))
def test_wide_tabulate_matches_reference(ctx, table):
    """tabulate divides each entry by its term's scale: exact Fractions."""
    n = ctx.dims["A"]
    table = {f"t{i}": term for i, term in enumerate(table)}
    table["fixed"] = apply_map("T", ((_half, app("p", _x, _y)), (_third, app("q", _y, _x)),
                                     (Fraction(1, 97), apply_map("S", app("p", _x, apply_map("T", _y))))))
    ops = tabulate(ctx, ("A", "A"), table)
    schema = equation("reference", ("A", "A"), (), ())
    for name, term in table.items():
        for i, j in itertools.product(range(n), repeat=2):
            value = eval_expr(expr(term), schema, ctx, (basis_vector(n, i), basis_vector(n, j)))[0]
            assert ops[name].coeffs[i][j] == value
            assert all(type(e) is Fraction for e in ops[name].coeffs[i][j])


# ----------------------------------------------------------------------
# Multilinear terms only.  Every entry to the engine refuses, with one error
# line naming the rule, a term that repeats a slot or leaves one out; on the
# others, the residuals at the basis tuples give a schema's value at any
# vectors.

_P = OpContext({(name, "A", "A"): (truncated_polynomial_algebra(2).op("mul"), "A") for name in ("p", "q")}, {"A": 2},
               {name: (LinearMap.identity(2), "A", "A") for name in ("S", "T")})
# e0 * e1 = e0 and every other product 0: x * x vanishes at both basis
# vectors but not at e0 + e1
_UNSOUND = Algebra(2, "associative", {"mul": BilinearOp(2, 2, 2, [[[0, 0], [1, 0]], [[0, 0], [0, 0]]])})
_SHARED, _APART, _SHORT = "read a common slot", "read different slots", "does not read all its slots"


def _scan_one(sorts, term):
    return lambda: _scan(_P, [(equation("r", sorts, term, ()),)], DEFAULT_VIOLATION_CAP)


# case -> (the call, the rule it breaks)
REFUSED = {
    "p(x, x)": (_scan_one(("A",), app("p", _x, _x)), _SHARED),
    "q(T(x), x)": (_scan_one(("A",), app("q", apply_map("T", _x), _x)), _SHARED),
    "p(q(x, y), T(x + z))": (_scan_one(_A3, app("p", app("q", _x, _y), apply_map("T", expr(_x, _z)))), _APART),
    "p(q(x, y), T(p(x, z)))": (_scan_one(_A3, app("p", app("q", _x, _y), apply_map("T", app("p", _x, _z)))), _SHARED),
    "p(x, y) in three slots": (_scan_one(_A3, app("p", _x, _y)), _SHORT),
    "T(x + 2y)": (_scan_one(("A", "A"), apply_map("T", ((Fraction(1), _x), (Fraction(2), _y)))), _APART),
    "tabulate y": (lambda: tabulate(_P, ("A", "A"), {"leaf": _y}), _SHORT),
    "check_schemas x * x": (
        lambda: check_schemas(_UNSOUND, [equation("sq", ("A",), app("mul", _x, _x), ())]), _SHARED),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_non_multilinear_terms_are_refused(case):
    call, rule = REFUSED[case]
    with pytest.raises(SpecError) as refused:
        call()
    assert rule in str(refused.value) and "\n" not in str(refused.value)


def test_refused_square_is_not_zero():
    """A pass of x * x on the basis of _UNSOUND would be wrong: it vanishes
    at e0 and e1, and is e0 at e0 + e1."""
    ctx, square = context_for(_UNSOUND), equation("sq", ("A",), app("mul", _x, _x), ())
    assert [evaluate_schema(square, ctx, [basis_vector(2, i)]) for i in range(2)] == [(0, 0), (0, 0)]
    assert evaluate_schema(square, ctx, [(Fraction(1), Fraction(1))]) == (1, 0)


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), ctx=wide_contexts(), slots=st.integers(1, 3))
def test_basis_residuals_give_every_value(data, ctx, slots):
    """The claim the refusals protect: a multilinear schema's value at any
    vectors is the sum, over the basis tuples, of the product of the
    vectors' coordinates there times the engine's residual, exactly."""
    n = ctx.dims["A"]
    schema = equation("s", ("A",) * slots, data.draw(wide_sides(slots, 1)), data.draw(wide_sides(slots)))
    values = [tuple(data.draw(st.lists(RATIONALS, min_size=n, max_size=n))) for _ in range(slots)]
    total = (Fraction(0),) * n
    for v in _scan(ctx, [(schema,)], math.inf).violations:
        weight = math.prod(values[s][i] for s, i in enumerate(v.witness))
        total = tuple(t + weight * r for t, r in zip(total, v.residual))
    assert total == evaluate_schema(schema, ctx, values)


def test_tabulate_keeps_the_shape_of_zero_tables():
    """A table is the residuals of term = 0, and a pair with none holds the
    zero of the term's output sort: an all-zero term, a zero-dimensional
    output sort and zero-dimensional slots keep their shapes."""
    a = truncated_polynomial_algebra(2)
    ctx = OpContext(
        {("mul", "A", "A"): (a.op("mul"), "A"), ("zero", "A", "A"): (BilinearOp.zero(2, 2, 2), "A"),
         ("to_v", "A", "A"): (BilinearOp.zero(2, 2, 0), "V"), ("act", "A", "V"): (BilinearOp.zero(2, 0, 0), "V"),
         ("from_v", "V", "V"): (BilinearOp.zero(0, 0, 2), "A")},
        {"A": 2, "V": 0},
    )
    assert tabulate(ctx, ("A", "A"), {"mul": app("mul", _x, _y), "zero": app("zero", _x, _y),
                                      "to_v": app("to_v", _x, _y)}) == {
        "mul": a.op("mul"), "zero": BilinearOp.zero(2, 2, 2), "to_v": BilinearOp.zero(2, 2, 0)}
    assert tabulate(ctx, ("A", "V"), {"act": app("act", _x, _y)}) == {"act": BilinearOp.zero(2, 0, 0)}
    assert tabulate(ctx, ("V", "V"), {"from_v": app("from_v", _x, _y)}) == {"from_v": BilinearOp.zero(0, 0, 2)}
    assert tabulate(ctx, ("A", "A"), {}) == {}


def test_tables_and_quotients_reach_the_engine_through_violations(monkeypatch):
    """tabulate, ideal saturation, the closure scan and the quotient each
    evaluate through _Program.violations, the engine's one output."""
    from splitalg.quotients import Ideal, ideal_generated, quotient_algebra, splitting_ideal

    entered = []
    violations = identities._Program.violations
    monkeypatch.setattr(identities._Program, "violations", lambda self: entered.append(self) or violations(self))
    assert not hasattr(identities._Program, "bind")

    a = truncated_polynomial_algebra(3)
    tabulate(context_for(a), ("A", "A"), {"mul": app("mul", _x, _y)})
    assert len(entered) == 1
    del entered[:]
    ideal = ideal_generated(a, [basis_vector(3, 1)])  # x^2: one round adds x^3, the next adds nothing
    assert ideal.subspace.dim == 2 and len(entered) == 2
    del entered[:]
    assert Ideal(a, ideal.subspace).closure_witness() is None
    assert len(entered) == 1
    q = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(2)))
    ideal = splitting_ideal(q)
    del entered[:]
    quotient_algebra(q, ideal, identities.QUADRI_TO_DENDRIFORM_COLLAPSE)
    # the collapse agreement and the quotient table: the closure scan is the
    # one splitting_ideal's last saturation round ran (Ideal.escapes)
    assert len(entered) == 2


def test_full_cap_binds_no_further_group(monkeypatch):
    """A scan whose cap is full stops at the group that holds the first
    residual past the cap; it binds none of the later groups, and its
    report is the uncapped one cut at the cap.  Each group of this quadri
    check holds 20 to 27 residuals, so the 101st is in the fifth of 19."""
    a = random_quadri(0, 3)
    groups = [(schema,) for schema in catalog("quadri")]
    bound = []
    residuals = identities._residuals
    monkeypatch.setattr(identities, "_residuals", lambda *args: bound.append(1) or residuals(*args))

    def bound_at(n):
        """The groups bound when the n-th residual arrives."""
        del bound[:]
        for k, _ in enumerate(identities._Program(context_for(a), groups).violations(), 1):
            if k == n:
                return len(bound)

    full = _scan(context_for(a), groups, 10**6)
    assert not full.truncated and len(full.violations) > DEFAULT_VIOLATION_CAP + 1
    assert len(bound) == len(groups)
    for cap in (DEFAULT_VIOLATION_CAP, 0):
        holding = bound_at(cap + 1)
        assert (1 if cap else 0) < holding < len(groups)
        del bound[:]
        report = _scan(context_for(a), groups, cap)
        assert len(bound) == holding
        assert report.truncated and report.checked == full.checked
        assert report.violations == full.violations[:cap]
    assert check(a, "quadri") == _scan(context_for(a), groups, DEFAULT_VIOLATION_CAP)


# ----------------------------------------------------------------------
# Operator search compiles its kind into polynomials in the entries of T
# and walks the grid depth first, pruning at the first non-zero polynomial;
# it must pass exactly the candidates check_operator passes, in row-major
# grid order.  Grids mixing integers and non-integers give the entries
# different denominators.

SEARCH_GRID = st.lists(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(0)]),
                       min_size=1, max_size=3, unique=True)
SMALL = st.integers(1, 2)


@st.composite
def small_subjects(draw, kind):
    n, m = draw(SMALL), draw(SMALL)
    return draw(row_subjects(kind, lambda signature: algebras(signature, n), representations(n, m), actions(n, m)))


def reference_search(subject, kind, grid):
    """The candidates, in row-major grid order, that check_operator passes."""
    source, target = operator_map_shape(subject, kind)
    hits = []
    for combo in itertools.product(grid, repeat=source * target):
        t = LinearMap(source, target, [combo[i * source:(i + 1) * source] for i in range(target)])
        if check_operator(subject, kind, t).ok:
            hits.append(t)
    return hits


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(OPERATOR_KINDS), grid=SEARCH_GRID)
def test_search_matches_reference(data, kind, grid):
    subject = data.draw(small_subjects(kind))
    assert search_operators(subject, kind, grid) == reference_search(subject, kind, grid)


def test_search_rescales_each_candidate():
    """T(u prec_t v) = Tu prec Tv has one factor T on the left and two on
    the right, so a scale kept from the candidate -1 would fail 1/2, the
    one hit: here base prec = 2, target prec_t = 1, prec_l = prec_r = 2."""
    one = lambda k: BilinearOp(1, 1, 1, [[[k]]])
    base = Algebra(1, "dendriform", {"prec": one(2), "succ": one(0)})
    target = Algebra(1, "dendriform", {"prec": one(1), "succ": one(0)})
    act = Action(base, target, {"prec_l": one(2), "prec_r": one(2), "succ_l": one(0), "succ_r": one(0)})
    grid = [Fraction(-1), Fraction(1, 2), Fraction(3)]
    hits = search_operators(act, "homomorphic_relative", grid)
    assert hits == reference_search(act, "homomorphic_relative", grid) == [LinearMap(1, 1, [[Fraction(1, 2)]])]


def _representation(base: Algebra, m: int, k) -> Representation:
    """base acting on an m-dimensional module by the constants k(name, i, j, out)."""
    n = base.dimension
    build = lambda name, left, right: BilinearOp.build(
        left, right, m, lambda i, j: tuple(Fraction(k(name, i, j, o)) for o in range(m)))
    return Representation(base, m, {
        name: build(name, n, m) if name.endswith("_l") else build(name, m, n)
        for name in ("prec_l", "succ_l", "prec_r", "succ_r")
    })


# prec the dual-number product, succ zero: a dendriform algebra of dimension
# 2 (truncated_polynomial_dendriform(2) has both operations zero)
_DUAL_PREC = Algebra(2, "dendriform", {
    "prec": truncated_polynomial_algebra(2).op("mul"), "succ": BilinearOp.zero(2, 2, 2)})
_P3 = [[Fraction(e) for e in row] for row in ((1, 1, 0), (0, 1, -1), (1, 1, 1))]  # unimodular

# (subject, kind, grid): 3x3 maps on a 0/1 grid, unsorted grids with
# rationals, maps between spaces of different dimensions, and the one empty
# candidate of dimension 0
SEARCH_CASES = {
    "3x3 rota-baxter 0/1, transported": (
        transport(truncated_polynomial_algebra(3), _P3), "rota_baxter", [Fraction(0), Fraction(1)]),
    "3x3 dend-averaging 0/1": (truncated_polynomial_dendriform(3), "dend_averaging", [Fraction(1), Fraction(0)]),
    "unsorted rationals, assoc-averaging": (truncated_polynomial_algebra(2), "assoc_averaging",
                                            [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 2)]),
    "unsorted rationals, homomorphic": (
        model.self_action(_DUAL_PREC), "homomorphic_relative", [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(2)]),
    "module 1 -> base 2": (
        _representation(_DUAL_PREC, 1, lambda name, i, j, o: (i + j + len(name)) % 3 - 1),
        "relative_averaging", [Fraction(-1), Fraction(1, 2), Fraction(0), Fraction(2)]),
    "module 3 -> base 1": (
        _representation(one_dim_dendriform(1, 0), 3, lambda name, i, j, o: name.startswith("prec") and (i + j + 1) % 3 == o),
        "relative_averaging", [Fraction(0), Fraction(-1), Fraction(1)]),
    "dimension 0": (
        Algebra(0, "associative", {"mul": BilinearOp.zero(0, 0, 0)}), "rota_baxter", [Fraction(0), Fraction(1)]),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_matches_reference_on(case):
    subject, kind, grid = SEARCH_CASES[case]
    assert search_operators(subject, kind, grid) == reference_search(subject, kind, grid)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), kind=st.sampled_from(OPERATOR_KINDS))
def test_search_matches_reference_after_basis_change(data, kind):
    """Transported structure constants are dense, so few polynomials are
    decided by one entry of T alone."""
    base = truncated_polynomial_algebra(2) if kind in ("rota_baxter", "assoc_averaging") else _DUAL_PREC
    moved = transport(base, data.draw(unimodular_matrices(2)))
    subject = {
        "relative_averaging": model.adjoint_representation,
        "homomorphic_relative": model.self_action,
    }.get(kind, lambda a: a)(moved)
    grid = [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]
    assert search_operators(subject, kind, grid) == reference_search(subject, kind, grid)


def test_search_binds_the_engine_once(monkeypatch):
    """A search binds its kind's groups once, with T's entries as
    variables, whatever the grid size, and checks no candidate with
    check_operator; every kind still finds the reference's hits."""
    def refuse(*args, **kwargs):
        raise AssertionError("a search candidate went through check_operator")

    entered = []
    violations = identities._Program.violations

    def counting(self):
        entered.append(self)
        return violations(self)

    cases = [
        (truncated_polynomial_algebra(2), "rota_baxter"),
        (truncated_polynomial_algebra(2), "assoc_averaging"),
        (_DUAL_PREC, "dend_averaging"),
        (model.adjoint_representation(_DUAL_PREC), "relative_averaging"),
        (model.self_action(_DUAL_PREC), "homomorphic_relative"),
        (_DUAL_PREC, "differential"),
    ]
    grids = [[Fraction(0)], [Fraction(-1), Fraction(0), Fraction(1)]]
    monkeypatch.setattr(identities._Program, "violations", counting)
    monkeypatch.setattr(operators, "check_operator", refuse)
    hits = []
    for grid in grids:
        for subject, kind in cases:
            del entered[:]
            hits.append(search_operators(subject, kind, grid))
            assert len(entered) == 1
    monkeypatch.undo()
    assert hits == [reference_search(subject, kind, grid) for grid in grids for subject, kind in cases]


ONE_VALUE_SUBJECTS = [
    (truncated_polynomial_algebra(2), "rota_baxter"),
    (truncated_polynomial_algebra(3), "rota_baxter"),
    (Algebra(1, "associative", {"mul": BilinearOp(1, 1, 1, [[[Fraction(-2)]]])}), "rota_baxter"),
    (truncated_polynomial_algebra(3), "assoc_averaging"),
    (Algebra(2, "associative", {"mul": BilinearOp.build(2, 2, 2, lambda i, j: basis_vector(2, 0))}),
     "assoc_averaging"),
    (truncated_polynomial_dendriform(3), "dend_averaging"),
    (_DUAL_PREC, "dend_averaging"),
    (one_dim_dendriform(1, 0), "dend_averaging"),
    (model.adjoint_representation(_DUAL_PREC), "relative_averaging"),
    (model.adjoint_representation(one_dim_dendriform(0, 1)), "relative_averaging"),
    (model.self_action(_DUAL_PREC), "homomorphic_relative"),
    (model.self_action(one_dim_dendriform(1, 0)), "homomorphic_relative"),
    (Algebra(0, "associative", {"mul": BilinearOp.zero(0, 0, 0)}), "rota_baxter"),
]


@pytest.mark.parametrize("value", [0, 1, "1/2"])
def test_one_value_search_is_one_check(monkeypatch, value):
    """A one-value grid has one candidate, the constant map: it is a hit
    exactly when check_operator passes it, and the search builds no
    polynomial for it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-value search built a polynomial")

    hits = set()
    for subject, kind in ONE_VALUE_SUBJECTS:
        source, target = operator_map_shape(subject, kind)
        t = LinearMap(source, target, [[Fraction(value)] * source] * target)
        expected = [t] if check_operator(subject, kind, t).ok else []
        with monkeypatch.context() as patch:
            patch.setattr(identities._Poly, "__init__", refuse)
            assert search_operators(subject, kind, [value]) == expected
        hits.add(bool(expected))
    # T = 0 is an operator of every kind; the other values hit and miss
    assert hits == ({True} if value == 0 else {True, False})


# ----------------------------------------------------------------------
# Integer forms are cached on the tensors: each is cleared once.

def test_each_tensor_is_cleared_once(monkeypatch):
    cleared = []  # the owners, kept alive so that their ids stay distinct
    clear = model._clear

    def recording(vectors):
        cleared.append(sys._getframe(1).f_locals["self"])
        return clear(vectors)

    monkeypatch.setattr(model, "_clear", recording)
    quadri_to_relative_setup(hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(3))))
    assert cleared
    assert len({id(t) for t in cleared}) == len(cleared)

    a = random_quadri(1)
    del cleared[:]
    check(a, "quadri")
    assert len(cleared) == len(a.operations)
    check(a, "quadri")
    assert len(cleared) == len(a.operations)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tabulated_tensors_carry_their_integer_form(data):
    """Every tensor tabulate builds carries, made from its residuals, the
    integer form that _clear gives of its Fractions: products, sum
    collapses, twists and quotient tables, on generated inputs whose
    tensors and maps have different denominators."""
    rep, act = data.draw(wide_representations()), data.draw(wide_actions())
    q, s = data.draw(wide_algebras("quadri")), data.draw(wide_algebras("six"))
    t = data.draw(wide_maps(rep.module_dim, rep.base.dimension))
    built = [
        *constructions._semidirect(rep).operations.values(),
        *constructions._hemisemidirect(rep).operations.values(),
        *constructions._product(act, "dendriform", lambda name: ("AA", "AV", "VA", "VV")).operations.values(),
        *tabulate(context_for(rep, {"T": (t, "V", "A")}), ("V", "V"), constructions._QUADRI_TWIST).values(),
    ]
    with mock.patch.object(constructions, "_require_axioms"):
        built += [*sum_collapse_quadri(q).operations.values(), *sum_collapse_six(s).operations.values()]
    for algebra in (q, s):
        base, actions, _ = quotients._converse(algebra)
        built += [*base.operations.values(), *actions.values()]
    for op in built:
        carried = op.__dict__["integer_form"]  # set when built, not computed on reading
        assert carried == BilinearOp.integer_form.func(op)
        assert carried[0] == model._clear([v for row in op.coeffs for v in row])[0]


# ----------------------------------------------------------------------
# Depth-2 products.  Every catalog term is op2(op1(x_a, x_b), x_c) or
# op2(x_c, op1(x_a, x_b)) for its three slots, joined from the table of op1
# and a basis.  The evaluator must give the reference's reports on sparse
# and wide inputs, in mixed sorts, and on multi-schema groups in (tuple,
# equation position) order.

# about 85 % zero
SPARSE_SCALARS = st.sampled_from([Fraction(0)] * 23 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
SPARSE_DIMS = st.integers(1, 5)


@st.composite
def sparse_tensors(draw, left, right, out):
    """Mostly zero entries; one tensor in five is zero altogether."""
    if draw(st.integers(0, 4)) == 0:
        return BilinearOp.zero(left, right, out)
    return BilinearOp(left, right, out, [[[draw(SPARSE_SCALARS) for _ in range(out)]
                                          for _ in range(right)] for _ in range(left)])


def catalog_subject(name, n, m, tensor):
    """An object of the catalog's kind with base dimension n (and module
    dimension m), each tensor made by tensor(left, right, out)."""
    signature = "dendriform" if name.startswith("dend-") else name
    base = Algebra(n, signature, {op: tensor(n, n, n) for op in SIGNATURE_OPS[signature]})
    if signature == name:
        return base
    acts = {op: tensor(*(n if s == "A" else m for s in sorts)) for op, sorts in ACTION_SORTS.items()}
    if name == "dend-representation":
        return Representation(base, m, acts)
    return Action(base, Algebra(m, "dendriform", {op: tensor(m, m, m) for op in ("prec", "succ")}), acts)


@st.composite
def sparse_subjects(draw, name):
    return catalog_subject(name, draw(SPARSE_DIMS), draw(SPARSE_DIMS), lambda *shape: draw(sparse_tensors(*shape)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(CATALOG_NAMES), cap=st.integers(0, 6))
def test_sparse_catalog_scan_matches_reference(data, name, cap):
    obj = data.draw(sparse_subjects(name))
    groups = [(schema,) for schema in catalog(name)]
    assert_exact(catalog_scan(obj, name, cap), reference_scan(context_for(obj), groups), cap)


def contraction_terms():
    """op2(op1(x_a, x_b), x_c) or op2(x_c, op1(x_a, x_b)) for ops p, q and
    any order a, b, c of the three slots."""
    def term(outer, inner, slots, on_left):
        a, b, c = map(var, slots)
        return app(outer, app(inner, a, b), c) if on_left else app(outer, c, app(inner, a, b))

    ops = st.sampled_from(["p", "q"])
    return st.builds(term, ops, ops, st.permutations([0, 1, 2]), st.booleans())


@st.composite
def contracted_groups(draw):
    sides = lambda min_size: st.lists(st.tuples(COEFS, contraction_terms()), min_size=min_size, max_size=3).map(tuple)
    return [
        tuple(equation(f"c{g}.{e}", _A3, draw(sides(1)), draw(sides(0))) for e in range(draw(st.integers(1, 4))))
        for g in range(draw(st.integers(1, 3)))
    ]


# Two equations failing at the same tuples, so their witnesses interleave.
CONTRACTED_FIXED = [
    (
        equation("c.left", _A3, app("p", app("q", _x, _y), _z), ()),
        equation("c.right", _A3, (), ((_half, app("q", _z, app("p", _y, _x))),)),
        equation("c.assoc", _A3, app("p", app("p", _x, _y), _z), app("p", _x, app("p", _y, _z))),
    ),
]


@settings(max_examples=40, deadline=None)
@given(ctx=wide_contexts(), groups=contracted_groups(), cap=st.integers(0, 30))
def test_contracted_groups_match_reference(ctx, groups, cap):
    groups = CONTRACTED_FIXED + groups
    assert_exact(_scan(ctx, groups, cap), reference_scan(ctx, groups), cap)


def seeded_subject(name: str):
    """A small object of the catalog's kind with entries in {-1, 0, 1}."""
    rng = random.Random(name)
    return catalog_subject(name, 3, 2, lambda left, right, out: BilinearOp(
        left, right, out, [[[rng.choice((-1, 0, 0, 1)) for _ in range(out)] for _ in range(right)] for _ in range(left)]))


def test_catalogs_take_the_contraction():
    """Every catalog gives the reference's report on a seeded failing
    subject."""
    for name in CATALOG_NAMES:
        obj = seeded_subject(name)
        groups = [(schema,) for schema in catalog(name)]
        report = catalog_scan(obj, name, 10)
        assert report.violations
        assert_exact(report, reference_scan(context_for(obj), groups), 10)


def test_contraction_at_dimension_32():
    """A scan of every basis tuple took seconds here; the tables hold only
    the supports of the terms."""
    a = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(16)))
    assert a.dimension == 32
    assert check(a, "quadri").ok


def test_tables_are_released():
    """A check drops each table once no later group reads it: the quadri
    check at dimension 32 peaks near 2.3 MB, and keeping every table takes
    about 11 MB."""
    a = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(16)))
    tracemalloc.start()
    try:
        assert check(a, "quadri").ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_variable_tables_are_shared_and_left_unchanged():
    """Every program's variables read one basis table per dimension; after
    checks, tabulations, ideals, quotients and a search, each is still the
    basis."""
    q = hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(3)))
    assert check(q, "quadri").ok
    quadri_to_relative_setup(q)
    dual_extension(truncated_polynomial_dendriform(2))
    search_operators(truncated_polynomial_algebra(2), "rota_baxter", [Fraction(-1), Fraction(0), Fraction(1)])
    for n in range(7):
        assert identities._basis(n) == {i: tuple(int(i == j) for j in range(n)) for i in range(n)}


# ----------------------------------------------------------------------
# Basis change.  An identity holds in one basis exactly when it holds in
# any other, so a catalog verdict is invariant under transport; the
# transported structure constants are dense, and their reports equal the
# reference's.

@st.composite
def unimodular_matrices(draw, n):
    """L * U with its columns permuted, L and U unit triangular over {-1, 0, 1}."""
    entry = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
    lower = [[Fraction(1) if i == j else draw(entry) if i > j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else draw(entry) if i < j else Fraction(0) for j in range(n)] for i in range(n)]
    product = [[sum((lower[i][k] * upper[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[row[perm[j]] for j in range(n)] for row in product]


@st.composite
def signed_permutations(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from([Fraction(1), Fraction(-1)])) for _ in range(n)]
    return [[signs[j] if i == perm[j] else Fraction(0) for j in range(n)] for i in range(n)]


def _dual_six(degree):
    return induced_six(*dual_extension(truncated_polynomial_dendriform(degree)))


# catalog (after the last space) -> its object at size k: the theorem
# outputs pass, the random quadri fails
INVARIANCE_SUBJECTS = {
    "dendriform": lambda k: truncated_polynomial_dendriform(k + 1),
    "quadri": lambda k: hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(k))),
    "six": _dual_six,
    "diassociative": lambda k: sum_collapse_quadri(hemisemidirect(adjoint_representation(truncated_polynomial_dendriform(k)))),
    "triassociative": lambda k: sum_collapse_six(_dual_six(k)),
    "random quadri": lambda k: random_quadri(k, k + 1),
}


@settings(max_examples=20, deadline=None)
@given(data=st.data(), subject=st.sampled_from(sorted(INVARIANCE_SUBJECTS)), k=st.integers(1, 2),
       signed=st.booleans())
def test_catalog_verdict_invariant_under_basis_change(data, subject, k, signed):
    a = INVARIANCE_SUBJECTS[subject](k)
    name = subject.split()[-1]
    p = data.draw(signed_permutations(a.dimension) if signed else unimodular_matrices(a.dimension))
    moved = transport(a, p)
    report = check(moved, name)
    assert report.ok == check(a, name).ok == (subject != "random quadri")
    groups = [(schema,) for schema in catalog(name)]
    assert_exact(report, reference_scan(context_for(moved), groups), DEFAULT_VIOLATION_CAP)


def _conjugate(t: LinearMap, p) -> LinearMap:
    """p^-1 t p: the map t in the basis of transport(_, p)."""
    n = t.source_dim
    reduced, _ = rref([[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(p)])
    product = lambda x, y: [[sum((x[i][k] * y[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
                            for i in range(n)]
    return LinearMap(n, n, product([row[n:] for row in reduced], product(t.matrix, p)))


# algebra operator kind -> (its algebra at size k, maps that pass there)
OPERATOR_INVARIANCE = {
    "rota_baxter": (truncated_polynomial_algebra, lambda k: [integration_map(k), LinearMap.zero(k, k)]),
    "assoc_averaging": (truncated_polynomial_algebra, lambda k: [shift_map(k), LinearMap.identity(k)]),
    "dend_averaging": (truncated_polynomial_dendriform, lambda k: [LinearMap.scalar(k, -2), LinearMap.identity(k)]),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(OPERATOR_INVARIANCE)), k=st.integers(2, 3),
       signed=st.booleans())
def test_operator_verdict_invariant_under_basis_change(data, kind, k, signed):
    """T is an operator of a kind on an algebra exactly when p^-1 T p is one
    on the algebra transported by p."""
    build, passing = OPERATOR_INVARIANCE[kind]
    a = build(k)
    t = data.draw(st.sampled_from(passing(k)) | linear_maps(k, k))
    p = data.draw(signed_permutations(k) if signed else unimodular_matrices(k))
    verdict = check_operator(a, kind, t).ok
    assert check_operator(transport(a, p), kind, _conjugate(t, p)).ok == verdict
    if t in passing(k):
        assert verdict
