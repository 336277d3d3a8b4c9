import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitalg import constructions, identities
from splitalg.constructions import (
    PreconditionFailure,
    _hemisemidirect,
    _require_axioms,
    _semidirect,
    action_semidirect,
    aguiar_dendriform,
    aguiar_diassociative,
    averaging_quadri,
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
from splitalg.identities import (
    IdentitySchema, _scan, app, apply_map, catalog, catalog_of, check, check_schemas, context_for, expr, fits,
    hypothesis, needs, tabulate, var,
)
from splitalg.linalg import basis_vector
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
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
    self_action,
)
from splitalg.operators import (
    _KINDS,
    check_homomorphic_relative,
    check_operator,
    check_relative_averaging,
    check_rota_baxter,
    search_operators,
)
from splitalg.quotients import dendriform_quotient, embed_averaging, quadri_to_relative_setup, six_to_homomorphic_setup
from splitalg.samples import one_dim_dendriform, truncated_polynomial_algebra, truncated_polynomial_dendriform, zero_algebra
from conftest import shift_map
from oracle import eval_expr, reference_parts, reference_require_axioms
from test_cli_recipes import _replace, _tensors
from test_engine import _DUAL_PREC, actions, algebras, linear_maps, representations


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


def test_induced_quadri_and_collapse(adjoint, quadri, dend):
    report = check(quadri, "quadri")
    assert report.ok
    di = sum_collapse_quadri(quadri)
    assert check(di, "diassociative").ok
    # collapse really is the sum of the split pair
    assert di.op("vdash").coeffs == _entrywise_sum(quadri.op("prec_vdash"), quadri.op("succ_vdash"))
    # each of the three operations of a promoted six collapses to prec + succ
    tri = sum_collapse_six(dendriform_to_six(dend))
    assert {name: op.coeffs for name, op in tri.operations.items()} == dict.fromkeys(
        ("dashv", "perp", "vdash"), _entrywise_sum(dend.op("prec"), dend.op("succ")))


def _entrywise_sum(f: BilinearOp, g: BilinearOp) -> tuple:
    """The structure constants of f + g, entry by entry."""
    return tuple(tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(r, s)) for r, s in zip(f.coeffs, g.coeffs))


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
    # the perp pair is the target's own products, with its labels
    assert (six.op("prec_perp"), six.op("succ_perp")) == (act.target.op("prec"), act.target.op("succ"))
    assert six.basis_labels == act.target.basis_labels
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
    assert not any(any(v) for row in dq.op("prec_vdash").coeffs for v in row)
    # the identity is not a differential (d^2 = d != 0)
    verdict = check_differential(dend, LinearMap.identity(n))
    assert not verdict.ok
    with pytest.raises(PreconditionFailure):
        differential_quadri(dend, LinearMap.identity(n))


def upper_triangular() -> Algebra:
    """The upper-triangular 2x2 matrices on E11, E12, E22, with prec the
    matrix product and succ zero: dendriform, as prec is associative."""
    units = [(0, 0), (0, 1), (1, 1)]

    def product(i, j):
        (r, s), (t, u) = units[i], units[j]
        return basis_vector(3, units.index((r, u))) if s == t else (0, 0, 0)

    return Algebra(3, "dendriform", {"prec": BilinearOp.build(3, 3, 3, product), "succ": BilinearOp.zero(3, 3, 3)},
                   ["E11", "E12", "E22"])


# ad(E12): E11 -> -E12, E22 -> E12, E12 -> 0, and its negative
AD_E12 = LinearMap(3, 3, [[0, 0, 0], [-1, 0, 1], [0, 0, 0]])
MINUS_AD_E12 = LinearMap(3, 3, [[0, 0, 0], [1, 0, -1], [0, 0, 0]])


def test_differential_quadri_twists_the_algebra_itself():
    """On the upper-triangular matrices the grid -1, 0, 1 holds three
    differentials: ad(E12), its negative and zero.  The two non-zero ones
    give non-zero quadri algebras, the adjoint representation's twist."""
    d = upper_triangular()
    assert check(d, "dendriform").ok
    assert search_operators(d, "differential", [-1, 0, 1]) == [AD_E12, LinearMap.zero(3, 3), MINUS_AD_E12]
    for diff in (AD_E12, MINUS_AD_E12):
        dq = differential_quadri(d, diff)
        assert any(any(any(v) for v in row) for op in dq.operations.values() for row in op.coeffs)
        assert dq.operations == tabulate(
            context_for(adjoint_representation(d), {"T": (diff, "V", "A")}), ("V", "V"), constructions._QUADRI_TWIST)
        assert check(dq, "quadri").ok


def test_differential_needs_a_dendriform_algebra(poly):
    with pytest.raises(SpecError) as refused:
        check_differential(poly, LinearMap.zero(poly.dimension, poly.dimension))
    assert str(refused.value) == "kind 'differential' needs a dendriform algebra"


def test_differential_on_zero_algebra():
    """On an algebra with zero products any square-zero map is a
    differential, and the induced quadri algebra is zero."""
    z = zero_algebra(2, "dendriform")
    d = LinearMap(2, 2, [[0, 1], [0, 0]])
    assert check_differential(z, d).ok
    dq = differential_quadri(z, d)
    assert check(dq, "quadri").ok


def test_sum_collapse_requires_signature(dend, quadri):
    """One line, and no verdict: the input is of another type."""
    for build, arg, message in ((sum_collapse_quadri, dend, "expected a quadri or six algebra"),
                                (sum_collapse_six, dend, "expected a six algebra"),
                                (sum_collapse_six, quadri, "expected a six algebra")):
        with pytest.raises(SpecError) as exc:
            build(arg)
        assert not isinstance(exc.value, PreconditionFailure)
        assert str(exc.value) == message


def test_semidirect_verifies_by_default():
    """There is no switch to skip the check: the unchecked block builder is
    private."""
    bad = adjoint_representation(one_dim_dendriform(1, 1))
    with pytest.raises(PreconditionFailure) as exc:
        semidirect(bad)
    assert not exc.value.verdict.ok
    assert _semidirect(bad).dimension == 2


@pytest.mark.parametrize("build", [semidirect, hemisemidirect, action_semidirect])
def test_block_products_take_no_verify(dend, build):
    subject = self_action(dend) if build is action_semidirect else adjoint_representation(dend)
    with pytest.raises(TypeError):
        build(subject, verify=False)


def _op(left, right, out, table):
    """The operation whose product of basis elements i and j is table[i, j]
    (zero where absent)."""
    return BilinearOp.build(left, right, out, lambda i, j: table.get((i, j), (0,) * out))


# Inputs that fail their own axioms while passing the checks the
# constructions ran before they checked them.  Z: the 1-dim zero dendriform
# algebra.
_Z = zero_algebra(1, "dendriform")
_NON_ASSOCIATIVE = Algebra(2, "associative", {"mul": _op(2, 2, 2, {(0, 1): (0, 1), (1, 0): (0, -1), (1, 1): (1, -1)})})
_ZERO_REP = Representation(one_dim_dendriform(1, 1), 1, {
    name: BilinearOp.zero(1, 1, 1) for name in ("prec_l", "succ_l", "prec_r", "succ_r")})
# an action (dend-action holds) that is not a representation: rep.1 fails
_NOT_A_REP = Action(_Z, _Z, {"prec_l": BilinearOp(1, 1, 1, [[[1]]]),
                             **{name: BilinearOp.zero(1, 1, 1) for name in ("succ_l", "prec_r", "succ_r")}})
# a module of dimension 2 over Z, with T = [[0, 1]] relative averaging
_BAD_MODULE = Representation(_Z, 2, {
    "prec_l": _op(1, 2, 2, {(0, 0): (-1, 0)}),
    "succ_l": _op(1, 2, 2, {(0, 0): (1, 0), (0, 1): (-1, 0)}),
    "prec_r": _op(2, 1, 2, {(1, 0): (-1, 0)}),
    "succ_r": _op(2, 1, 2, {(0, 0): (1, 0), (1, 0): (-1, 0)}),
})
# id -> (construction, its arguments, refusal message, the refused input and
# the catalog of its type, whose whole hypothesis it fails)
COUNTEREXAMPLES = {
    "aguiar-dendriform": (aguiar_dendriform, (_NON_ASSOCIATIVE, LinearMap(2, 2, [[-1, 0], [0, 0]])),
                          "input is not an associative algebra", (_NON_ASSOCIATIVE, "associative")),
    "semidirect": (semidirect, (_ZERO_REP,), "input is not a representation", (_ZERO_REP, "dend-representation")),
    "hemisemidirect": (hemisemidirect, (_ZERO_REP,), "input is not a representation",
                       (_ZERO_REP, "dend-representation")),
    "dual-extension": (dual_extension, (_ZERO_REP.base,), "input is not a dendriform algebra",
                       (_ZERO_REP.base, "dendriform")),
    "action-semidirect": (action_semidirect, (_NOT_A_REP,), "input is not an action", (_NOT_A_REP, "dend-action")),
    "induced-six": (induced_six, (_NOT_A_REP, LinearMap.zero(1, 1)), "input is not an action",
                    (_NOT_A_REP, "dend-action")),
    "induced-quadri": (induced_quadri, (_BAD_MODULE, LinearMap(2, 1, [[0, 1]])), "input is not a representation",
                       (_BAD_MODULE, "dend-representation")),
}


def test_counterexamples_pass_the_operator_checks():
    """Each input passes the checks its construction ran before it checked
    the input's own axioms."""
    assert check_rota_baxter(*COUNTEREXAMPLES["aguiar-dendriform"][1]).ok
    assert check(_ZERO_REP, "dend-representation").ok
    assert check(_NOT_A_REP.base, "dendriform").ok and check(_NOT_A_REP, "dend-action").ok
    assert check_homomorphic_relative(*COUNTEREXAMPLES["induced-six"][1]).ok
    assert check_relative_averaging(*COUNTEREXAMPLES["induced-quadri"][1]).ok


@pytest.mark.parametrize("case", sorted(COUNTEREXAMPLES))
def test_input_failing_its_axioms_is_refused(case):
    build, args, message, (part, catalog_name) = COUNTEREXAMPLES[case]
    with pytest.raises(PreconditionFailure) as exc:
        build(*args)
    assert str(exc.value) == message
    assert exc.value.verdict == check_schemas(part, hypothesis(catalog_name))
    assert not exc.value.verdict.ok


def assert_formula(op, formula):
    """op equals formula(a, b) on every pair of basis vectors."""
    for p in range(op.left_dim):
        for q in range(op.right_dim):
            assert op.coeffs[p][q] == formula(basis_vector(op.left_dim, p), basis_vector(op.right_dim, q))


def _add(*vectors):
    """The sum of vectors of one length."""
    return tuple(map(sum, zip(*vectors, strict=True)))


def _empty_block(base: Algebra, target: Algebra, module: type = Representation):
    """base acting on the module of target's dimension with zero actions:
    each action is empty when the base or the module has dimension 0."""
    dims = {"A": base.dimension, "V": target.dimension}
    acts = {name: BilinearOp.zero(*(dims[s] for s in sorts)) for name, sorts in ACTION_SORTS.items()}
    return Action(base, target, acts) if module is Action else Representation(base, target.dimension, acts)


# DIMS draws 1 to 3: the empty projections and inclusions of a product
# with a block of dimension 0 are given as examples
_DEND2, _DEND0 = truncated_polynomial_dendriform(2), zero_algebra(0, "dendriform")


@settings(max_examples=30, deadline=None)
@given(rep=representations())
@example(rep=_empty_block(_DEND2, _DEND0))
@example(rep=_empty_block(_DEND0, _DEND2))
def test_module_products_match_block_formulas(rep):
    """(x,u) * (y,v) = (x * y, x *_l v + u *_r y) for semidirect; the
    hemisemidirect products keep one action each."""
    n = rep.base.dimension
    sd, hemi = _semidirect(rep), _hemisemidirect(rep)
    for op in ("prec", "succ"):
        base, left, right = rep.base.op(op), rep.actions[f"{op}_l"], rep.actions[f"{op}_r"]
        assert_formula(sd.op(op), lambda a, b: evaluate(base, a[:n], b[:n])
                       + _add(evaluate(left, a[:n], b[n:]), evaluate(right, a[n:], b[:n])))
        assert_formula(hemi.op(f"{op}_vdash"),
                       lambda a, b: evaluate(base, a[:n], b[:n]) + evaluate(left, a[:n], b[n:]))
        assert_formula(hemi.op(f"{op}_dashv"),
                       lambda a, b: evaluate(base, a[:n], b[:n]) + evaluate(right, a[n:], b[:n]))


@settings(max_examples=30, deadline=None)
@given(act=actions())
@example(act=_empty_block(_DEND2, _DEND0, Action))
@example(act=_empty_block(_DEND0, _DEND2, Action))
def test_action_semidirect_matches_block_formula(act):
    """The block formula holds on any action-shaped input, so the input's
    axioms are not checked here."""
    n = act.base.dimension
    with mock.patch.object(constructions, "_require_axioms"):
        asd = action_semidirect(act)
    for op in ("prec", "succ"):
        base, left, right = act.base.op(op), act.actions[f"{op}_l"], act.actions[f"{op}_r"]
        own = act.target.op(op)
        assert_formula(asd.op(op), lambda a, b: evaluate(base, a[:n], b[:n]) + _add(
            evaluate(left, a[:n], b[n:]), evaluate(right, a[n:], b[:n]), evaluate(own, a[n:], b[n:])))


def _action_product(act: Action) -> Algebra:
    """action_semidirect, built without its check of the input."""
    with mock.patch.object(constructions, "_require_axioms"):
        return action_semidirect(act)


def _raised(op: BilinearOp, i: int, j: int, k: int) -> BilinearOp:
    """op with the k-th component of e_i * e_j raised by 1."""
    return BilinearOp.build(op.left_dim, op.right_dim, op.out_dim, lambda a, b: tuple(
        c + ((a, b, m) == (i, j, k)) for m, c in enumerate(op.coeffs[a][b])))


def _one_entry_perturbations(obj):
    """obj, then each copy of it with one structure constant of its base,
    its actions or its target raised by 1."""
    yield obj
    for name, op in _tensors(obj).items():
        for i, j, k in itertools.product(range(op.left_dim), range(op.right_dim), range(op.out_dim)):
            yield _replace(obj, name, _raised(op, i, j, k))


def _in_product(obj, schemas, n: int, m: int, moved: bool = False) -> list:
    """The violations of the schemas on obj as violations of the dendriform
    axioms on base + module, each (dend id, witness, residual): a slot or
    output of sort V, or every one if moved, is placed after the n base
    coordinates, and rep.q or act.q is dend.t for t = q mod 3."""
    sorts = {schema.id: schema.slot_sorts for schema in schemas}
    placed = []
    for v in _scan(context_for(obj), [(schema,) for schema in schemas], math.inf).violations:
        at = [n if moved or sort == "V" else 0 for sort in sorts[v.identity]]
        out = n if moved or "V" in sorts[v.identity] else 0
        placed.append((f"dend.{(int(v.identity.split('.')[1]) - 1) % 3 + 1}",
                       tuple(i + k for i, k in zip(v.witness, at)),
                       (Fraction(0),) * out + v.residual + (Fraction(0),) * (n + m - out - len(v.residual))))
    return sorted(placed)


@pytest.mark.parametrize("fixture", ["adjoint", "self action", "dual extension"])
def test_module_axioms_are_the_dendriform_axioms_of_the_product(fixture):
    """The module axioms are the dendriform axioms on mixed sorts.  On base
    + module, the dendriform violations of the semidirect product are those
    of the base and of dend-representation, placed; for an action, those of
    its product (the target on the module block) also those of dend-action
    and of the target.  So a base passes dendriform and a representation
    dend-representation exactly when the semidirect product is dendriform,
    and an action passes all four catalogs exactly when its product is; the
    hypothesis of each module type is those catalogs in one scan."""
    d = _DUAL_PREC
    subject = {"adjoint": adjoint_representation(d), "self action": self_action(d),
               "dual extension": dual_extension(d)[0]}[fixture]
    verdicts = set()
    for obj in _one_entry_perturbations(subject):
        n, m = obj.base.dimension, obj.module_dim
        dend = catalog("dendriform")
        module = _in_product(obj.base, dend, n, m) + _in_product(obj, catalog("dend-representation"), n, m)
        assert sorted(module) == _in_product(_semidirect(obj), dend, n + m, 0)
        assert _in_product(obj, hypothesis("dend-representation"), n, m) == sorted(module)
        verdicts.add(not module)
        if isinstance(obj, Action):
            action = module + _in_product(obj, catalog("dend-action"), n, m) + _in_product(obj.target, dend, n, m, True)
            assert sorted(action) == _in_product(_action_product(obj), dend, n + m, 0)
            assert _in_product(obj, hypothesis("dend-action"), n, m) == sorted(action)
            verdicts.add(not action)
    assert verdicts == {True, False}


def _refusal(require, obj):
    """The verdict with which require refuses obj as an input of its own
    type, or None if it takes obj."""
    try:
        require(obj, catalog_of(obj))
    except PreconditionFailure as e:
        return e.verdict
    return None


# e succ_dashv e = e succ_vdash e = e, every other product 0: its perp pair
# (zero) is dendriform and its quadri part quadri, but six.2.4a and six.3.4a fail
_SIX_FAILING_ITS_OWN_AXIOMS = Algebra(1, "six", {
    name: BilinearOp(1, 1, 1, [[[int(name in ("succ_dashv", "succ_vdash"))]]]) for name in SIGNATURE_OPS["six"]})
# the zero action on a target that is not dendriform
_ZERO_ACTION_ON_A_BAD_TARGET = Action(_Z, one_dim_dendriform(1, 1), {name: BilinearOp.zero(1, 1, 1)
                                                                    for name in ACTION_SORTS})


def _hypothesis_inputs():
    """Each one-entry perturbation of a passing algebra of each signature
    and of three passing modules, then each counterexample's refused input
    and two inputs that fail one part alone: a six algebra its compatibility
    axioms, an action its target."""
    d = truncated_polynomial_dendriform(2)
    subjects = [truncated_polynomial_algebra(2), d, sum_collapse_quadri(dendriform_to_quadri(d)),
                sum_collapse_six(dendriform_to_six(d)), dendriform_to_quadri(d), dendriform_to_six(d),
                adjoint_representation(_DUAL_PREC), self_action(_DUAL_PREC), dual_extension(_DUAL_PREC)[0]]
    for subject in subjects:
        yield from _one_entry_perturbations(subject)
    yield from (args[0] for _, args, _, _ in COUNTEREXAMPLES.values())
    yield from (_SIX_FAILING_ITS_OWN_AXIOMS, _ZERO_ACTION_ON_A_BAD_TARGET)


# the dendriform axioms of a module's base and of an action's target in its
# hypothesis: dend.k is rep.(9 + k) and act.(9 + k)
_SIDE_IDS = {"base algebra is not dendriform": "rep", "target algebra is not dendriform": "act"}


def test_one_scan_refuses_what_the_parts_refuse():
    """The one scan of an input's hypothesis refuses exactly the inputs the
    part-by-part rule refuses (tests/oracle.py); where exactly one part
    fails, both verdicts list the same violations, the base's and target's
    ids renamed, and every part is seen failing alone."""
    alone = set()
    for obj in _hypothesis_inputs():
        verdict, reference = _refusal(_require_axioms, obj), _refusal(reference_require_axioms, obj)
        assert (verdict is None) == (reference is None)
        failing = [message for part, name, message in reference_parts(obj) if not check(part, name).ok]
        if len(failing) == 1:
            prefix = _SIDE_IDS.get(failing[0])
            rename = (lambda i: f"{prefix}.{9 + int(i.split('.')[1])}") if prefix else (lambda i: i)
            assert [(v.identity, v.witness, v.residual) for v in verdict.violations] == [
                (rename(v.identity), v.witness, v.residual) for v in reference.violations]
            assert verdict.truncated == reference.truncated
            alone.add(failing[0])
    assert alone == {message for obj in _hypothesis_inputs() for _, _, message in reference_parts(obj)}


@settings(max_examples=30, deadline=None)
@given(d=algebras("dendriform"))
def test_dual_extension_matches_block_formulas(d):
    """(x + x't)(y + y't) = xy + (xy' + x'y)t; D acts on either side of each
    degree; the projection keeps degree 0.  Any algebra of dendriform
    signature: its axioms are not checked here."""
    n = d.dimension
    with mock.patch.object(constructions, "_require_axioms"):
        act, proj = dual_extension(d)
    for op in ("prec", "succ"):
        mu = d.op(op)
        assert_formula(act.target.op(op), lambda a, b: evaluate(mu, a[:n], b[:n])
                       + _add(evaluate(mu, a[:n], b[n:]), evaluate(mu, a[n:], b[:n])))
        assert_formula(act.actions[f"{op}_l"], lambda a, b: evaluate(mu, a, b[:n]) + evaluate(mu, a, b[n:]))
        assert_formula(act.actions[f"{op}_r"], lambda a, b: evaluate(mu, a[:n], b) + evaluate(mu, a[n:], b))
    for p in range(2 * n):
        assert proj.column(p) == basis_vector(2 * n, p)[:n]


def _assert_semidirect_of_the_adjoint(act: Action, product: Algebra) -> None:
    """act's target is the product, and its actions are the product's first
    n rows (left) and first n columns (right), for n the base's dimension."""
    n = act.base.dimension
    assert act.target.operations == product.operations
    for op in ("prec", "succ"):
        coeffs = product.op(op).coeffs
        assert act.actions[f"{op}_l"].coeffs == coeffs[:n]
        assert act.actions[f"{op}_r"].coeffs == tuple(row[:n] for row in coeffs)


def test_dual_extension_is_the_semidirect_product_of_the_adjoint(dend):
    _assert_semidirect_of_the_adjoint(dual_extension(dend)[0], semidirect(adjoint_representation(dend)))


@settings(max_examples=30, deadline=None)
@given(d=algebras("dendriform"))
def test_dual_extension_is_the_adjoint_semidirect_on_any_tensors(d):
    """The same on any algebra of dendriform signature, its axioms unchecked."""
    with mock.patch.object(constructions, "_require_axioms"):
        act, _ = dual_extension(d)
    _assert_semidirect_of_the_adjoint(act, _semidirect(adjoint_representation(d)))


_x, _y = var(0), var(1)
_Tx, _Ty = apply_map("T", _x), apply_map("T", _y)
# Term tables by slot sorts, for a map T from the module V to the base A.
TWIST_TABLES = {
    ("V", "V"): {
        "vdash": app("prec", _Tx, _y),
        "dashv": app("succ", _x, _Ty),
        "both": app("prec", _Tx, _Ty),
        "nested": apply_map("T", app("succ", _Tx, _y)),
        "sum": apply_map("T", expr(app("prec", _Tx, _y), app("succ", _x, _Ty), app("succ", _x, _Ty))),
        "swap": app("prec", _y, _Tx),
    },
    ("A", "V"): {
        "action": app("prec", _x, _y),
        "base": app("succ", _x, _Ty),
    },
}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tabulate_matches_reference(data):
    """tabulate equals the reference evaluator on every basis pair."""
    subject = data.draw(st.one_of(representations(), actions()))
    t = data.draw(linear_maps(subject.module_dim, subject.base.dimension))
    ctx = context_for(subject, {"T": (t, "V", "A")})
    for sorts, table in TWIST_TABLES.items():
        ops = tabulate(ctx, sorts, table)
        schema = IdentitySchema("reference", sorts, (), ())
        for name, term in table.items():
            op = ops[name]
            for i in range(ctx.dims[sorts[0]]):
                for j in range(ctx.dims[sorts[1]]):
                    values = (basis_vector(ctx.dims[sorts[0]], i), basis_vector(ctx.dims[sorts[1]], j))
                    value, sort = eval_expr(expr(term), schema, ctx, values)
                    assert op.coeffs[i][j] == value
                    assert op.out_dim == ctx.dims[sort]


# ----------------------------------------------------------------------
# One input rule.  A twisted theorem refuses a subject its kind's row does
# not take with the row's one line, before the shape of T or any axiom is
# looked at; every other theorem refuses an input of the other type (a
# module for an algebra, an algebra for a module) with one line too.  None
# of these is a PreconditionFailure: there is no verdict to carry.

TWISTED = {
    aguiar_dendriform: "rota_baxter",
    aguiar_diassociative: "assoc_averaging",
    induced_quadri: "relative_averaging",
    induced_six: "homomorphic_relative",
    differential_quadri: "differential",
    averaging_quadri: "dend_averaging",
}


def _misfits(poly, dend):
    """An associative algebra, a dendriform algebra, a representation and an
    action, by name."""
    return {"associative": poly, "dendriform": dend, "representation": adjoint_representation(dend),
            "action": self_action(dend)}


@pytest.mark.parametrize("theorem", TWISTED, ids=lambda f: f.__name__)
def test_twisted_theorem_refuses_a_subject_its_row_does_not_take(theorem, poly, dend):
    row = _KINDS[TWISTED[theorem]]
    refused = [subject for subject in _misfits(poly, dend).values() if not fits(subject, row.catalog)]
    assert len(refused) >= 2
    for subject in refused:
        # a 1x1 map fits none of these subjects: the row refuses first
        with pytest.raises(SpecError) as exc:
            theorem(subject, LinearMap.zero(1, 1))
        assert not isinstance(exc.value, PreconditionFailure)
        assert str(exc.value) == f"kind {TWISTED[theorem]!r} needs {needs(row.catalog)}"


ALGEBRA_THEOREMS = {
    sum_collapse_quadri: "a quadri or six algebra", sum_collapse_six: "a six algebra",
    dual_extension: "a dendriform algebra", dendriform_quotient: "a quadri or six algebra",
    quadri_to_relative_setup: "a quadri algebra", six_to_homomorphic_setup: "a six algebra",
    embed_averaging: "a quadri algebra",
}


@pytest.mark.parametrize("theorem", ALGEBRA_THEOREMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("module", ["representation", "action"])
def test_algebra_theorem_refuses_a_module(theorem, module, poly, dend):
    with pytest.raises(SpecError) as exc:
        theorem(_misfits(poly, dend)[module])
    assert not isinstance(exc.value, PreconditionFailure)
    assert str(exc.value) == f"expected {ALGEBRA_THEOREMS[theorem]}"


MODULE_THEOREMS = {semidirect: "a representation", hemisemidirect: "a representation", action_semidirect: "an action"}


@pytest.mark.parametrize("theorem", MODULE_THEOREMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("signature", ["associative", "dendriform"])
def test_module_theorem_refuses_an_algebra(theorem, signature, poly, dend):
    with pytest.raises(SpecError) as exc:
        theorem(_misfits(poly, dend)[signature])
    assert not isinstance(exc.value, PreconditionFailure)
    assert str(exc.value) == f"expected {MODULE_THEOREMS[theorem]}"


def test_action_semidirect_refuses_a_representation_before_any_scan(dend):
    """A representation is not an action: one line, no verdict, and no
    catalog scan of its axioms first."""
    with mock.patch.object(identities, "_Program", side_effect=AssertionError("a catalog was scanned")):
        with pytest.raises(SpecError) as exc:
            action_semidirect(adjoint_representation(dend))
    assert not isinstance(exc.value, PreconditionFailure)
    assert str(exc.value) == "expected an action"


def test_averaging_quadri_is_the_adjoint_twist(dend):
    """On the fixture with the identity and the zero map, and on every hit of
    a grid search, the twist of d itself is the twist of its adjoint
    representation, and keeps d's labels."""
    d2 = truncated_polynomial_dendriform(2)
    hits = search_operators(d2, "dend_averaging", [-1, 0, 1])
    n = dend.dimension
    cases = [(dend, LinearMap.identity(n)), (dend, LinearMap.zero(n, n)), *((d2, t) for t in hits)]
    assert hits and dend.basis_labels is not None
    for d, t in cases:
        q = averaging_quadri(d, t)
        assert q.operations == induced_quadri(adjoint_representation(d), t).operations
        assert q.basis_labels == d.basis_labels


def test_averaging_quadri_refuses_with_the_dend_averaging_verdict(dend):
    n = dend.dimension
    bad = LinearMap(n, n, [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)])
    with pytest.raises(PreconditionFailure) as exc:
        averaging_quadri(dend, bad)
    assert str(exc.value) == "map is not an averaging operator"
    verdict = exc.value.verdict
    assert verdict == check_operator(dend, "dend_averaging", bad) and not verdict.ok
    assert all(v.identity.startswith(("Tprec:", "Tsucc:")) for v in verdict.violations)
