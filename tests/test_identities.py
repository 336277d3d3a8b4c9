import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from splitalg.identities import (
    CATALOG_NAMES,
    UnknownCatalog,
    _scan,
    catalog,
    catalog_of,
    check,
    check_morphism,
    check_schemas,
    context_for,
    fits,
)
from splitalg.constructions import PreconditionFailure, _require_axioms, sum_collapse_quadri, sum_collapse_six
from splitalg.linalg import basis_vector, vector
from splitalg.model import (
    SIGNATURE_OPS,
    Algebra,
    BilinearOp,
    LinearMap,
    SpecError,
    adjoint_representation,
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
    quadri_part,
    self_action,
)
from splitalg.samples import one_dim_dendriform, zero_algebra

from conftest import random_quadri
from oracle import evaluate_schema


EXPECTED_SIZES = {
    "associative": 1,
    "dendriform": 3,
    "diassociative": 5,
    "triassociative": 11,
    "quadri": 19,
    "six": 25,
    "dend-representation": 9,
    "dend-action": 9,
}


def test_catalog_sizes():
    for name, size in EXPECTED_SIZES.items():
        assert len(catalog(name)) == size, name
    assert set(CATALOG_NAMES) == set(EXPECTED_SIZES)


# SHA-256 of repr((name, catalog(name))) over the catalogs in CATALOG_NAMES
# order: every schema's id, slot sorts and both sides, in order.
CATALOG_DIGEST = "09afb29716e3304f2e2e82e117f24bff33df395725c28d8d47f6bae36c57bea3"


def test_catalog_content_pinned():
    h = hashlib.sha256()
    for name in CATALOG_NAMES:
        h.update(repr((name, catalog(name))).encode())
    assert h.hexdigest() == CATALOG_DIGEST


def test_unknown_catalog():
    with pytest.raises(UnknownCatalog):
        catalog("pentagram")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_each_catalog_is_built_once_and_each_call_gets_its_own_list(monkeypatch, name):
    """The first call builds the catalog; later calls return its schemas in
    a new list, so a caller that changes its list leaves the next call's alone."""
    from splitalg import identities

    built = []
    builder = identities._CATALOGS[name]
    monkeypatch.setattr(identities, "_BUILT", {})
    monkeypatch.setitem(identities._CATALOGS, name, lambda: built.append(name) or builder())
    first = catalog(name)
    expected = list(first)
    first.append(first[0])
    first.reverse()
    second = catalog(name)
    assert second == expected and second is not first
    assert all(a is b for a, b in zip(second, catalog(name)))
    assert built == [name]


def test_schema_ids_unique():
    for name in CATALOG_NAMES:
        ids = [s.id for s in catalog(name)]
        assert len(ids) == len(set(ids)), name


def test_zero_algebras_satisfy_everything():
    for signature, cat in (
        ("associative", "associative"),
        ("dendriform", "dendriform"),
        ("diassociative", "diassociative"),
        ("triassociative", "triassociative"),
        ("quadri", "quadri"),
        ("six", "six"),
    ):
        report = check(zero_algebra(3, signature), cat)
        assert report.ok, signature


def test_one_dim_classification_boundary():
    assert check(one_dim_dendriform(0, 5), "dendriform").ok
    assert check(one_dim_dendriform(5, 0), "dendriform").ok
    assert not check(one_dim_dendriform(1, 1), "dendriform").ok


def test_violation_report_contents():
    report = check(one_dim_dendriform(1, 1), "dendriform")
    assert report.checked == 3
    assert len(report.violations) == 2
    ids = {v.identity for v in report.violations}
    assert len(ids) == 2
    d = report.to_dict()
    assert d["checked"] == 3
    assert all("residual" in v for v in d["violations"])
    assert "violation" in report.render()


def test_checked_counts(dend):
    n = dend.dimension
    assert check(dend, "dendriform").checked == 3 * n**3
    rep = adjoint_representation(dend)
    assert check(rep, "dend-representation").checked == 9 * n**3


def test_schemas_hold_on_random_vectors(dend):
    """Basis-triple checking implies the identities hold on arbitrary
    vectors by multilinearity; spot-check that claim directly."""
    rng = random.Random(11)
    n = dend.dimension
    ctx = context_for(dend)

    def rand_vec():
        return vector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])

    for schema in catalog("dendriform"):
        for _ in range(10):
            args = [rand_vec() for _ in schema.slot_sorts]
            assert not any(evaluate_schema(schema, ctx, args))


def test_promotions_pass(dend):
    assert check(dendriform_to_quadri(dend), "quadri").ok
    assert check(dendriform_to_six(dend), "six").ok


def test_action_catalog(dend):
    assert check(self_action(dend), "dend-action").ok


def test_check_rejects_missing_operations(dend, poly):
    # an algebra supplies no action tensors
    with pytest.raises(Exception):
        check(dend, "dend-representation")
    # an associative algebra has no prec/succ
    with pytest.raises(Exception):
        check(poly, "dendriform")


def test_morphism_check(dend):
    n = dend.dimension
    pairing = {"prec": "prec", "succ": "succ"}
    assert check_morphism(LinearMap.identity(n), dend, dend, pairing).ok
    assert check_morphism(LinearMap.zero(n, n), dend, dend, pairing).ok
    assert not check_morphism(LinearMap.scalar(n, 2), dend, dend, pairing).ok


def _morphism_residuals(f, source, target, pairing):
    """(id, witness, residual) of each non-zero f(e_i * e_j) - f(e_i) *' f(e_j),
    in Fraction arithmetic, in the order check_morphism reports them."""
    n = source.dimension
    found = []
    for src, tgt in sorted(pairing.items()):
        for i, j in itertools.product(range(n), repeat=2):
            x, y = basis_vector(n, i), basis_vector(n, j)
            lhs = f.apply(evaluate(source.op(src), x, y))
            rhs = evaluate(target.op(tgt), f.apply(x), f.apply(y))
            residual = tuple(a - b for a, b in zip(lhs, rhs))
            if any(residual):
                found.append((f"morphism:{src}->{tgt}", (i, j), residual))
    return found


@pytest.mark.parametrize("pairing", [{"var": "var"}, {"map": "map"}, {"var": "map"},
                                     {"var": "map", "map": "var"}], ids=str)
def test_morphism_check_takes_any_operation_name(pairing):
    """Operations named "var" or "map", like the leaves of the term syntax,
    are checked as any other: the identity onto the same tensors under the
    paired names passes, and a map that is not a morphism fails with the
    residuals of the Fraction reference."""
    rng = random.Random(11)
    n = 3
    source = Algebra(n, "raw", {name: BilinearOp(n, n, n, [[[rng.randint(-2, 2) for _ in range(n)]
                                                             for _ in range(n)] for _ in range(n)])
                                for name in pairing})
    target = Algebra(n, "raw", {tgt: source.op(src) for src, tgt in pairing.items()})
    skew = LinearMap(n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    for f, passes in ((LinearMap.identity(n), True), (skew, False)):
        report = check_morphism(f, source, target, pairing)
        assert report.checked == len(pairing) * n * n
        assert report.ok is passes
        assert [(v.identity, v.witness, v.residual) for v in report.violations] == \
            _morphism_residuals(f, source, target, pairing)


def test_truncated_report_is_not_ok():
    """A cap of 0 keeps no witness, but the check still fails; a cap of 1
    keeps the check's first witness."""
    a = random_quadri(1)
    groups = [(schema,) for schema in catalog("quadri")]
    report = _scan(context_for(a), groups, 0)
    assert report.truncated and not report.violations
    assert not report.ok
    one = _scan(context_for(a), groups, 1)
    assert one.truncated and one.violations == check(a, "quadri").violations[:1]
    assert not one.ok


@pytest.mark.parametrize("obj, name, sorts", [("algebra", "dend-representation", "A x V"),
                                              ("representation", "dend-action", "V x V")])
def test_missing_operation_is_named_with_its_sorts(dend, obj, name, sorts):
    """Schemas that come from no catalog have no type to refuse by: an
    operation is resolved by its half and its arguments' sorts, and an
    algebra has none on A x V, a representation none on V x V."""
    subject = {"algebra": dend, "representation": adjoint_representation(dend)}[obj]
    with pytest.raises(SpecError) as refused:
        check_schemas(subject, catalog(name))
    assert str(refused.value) == f"object supplies no operation 'prec' on {sorts}"


ALGEBRA_NEEDS = {
    "associative": "an associative algebra", "dendriform": "a dendriform algebra",
    "diassociative": "a diassociative algebra", "triassociative": "a triassociative algebra",
    "quadri": "a quadri algebra", "six": "a six algebra",
}


@pytest.mark.parametrize("name", [name for name in CATALOG_NAMES if not name.startswith("dend-")])
@pytest.mark.parametrize("module, kind", [(adjoint_representation, "a representation"), (self_action, "an action")])
def test_algebra_catalog_refuses_a_module(dend, name, module, kind):
    """A catalog that reads only the sort A would check a module's base
    algebra and say nothing of its actions: it refuses the module by the
    type it reads."""
    assert set(ALGEBRA_NEEDS) == {name for name in CATALOG_NAMES if not name.startswith("dend-")}
    with pytest.raises(SpecError) as refused:
        check(module(dend), name)
    assert str(refused.value) == f"catalog {name!r} needs {ALGEBRA_NEEDS[name]}"


def test_catalog_of_is_the_catalog_of_each_objects_type(poly, dend, adjoint, quadri, six):
    """catalog_of inverts fits: an algebra of each signature but raw, a
    representation and an action each fit the catalog of their own type, and
    these cover every catalog.  An action is a representation too."""
    objects = [poly, dend, sum_collapse_quadri(quadri), sum_collapse_six(six), quadri, six, adjoint, self_action(dend)]
    names = [catalog_of(obj) for obj in objects]
    assert sorted(names) == sorted(CATALOG_NAMES)
    for obj, name in zip(objects, names):
        also = ["dend-representation"] if name == "dend-action" else []
        assert [other for other in CATALOG_NAMES if fits(obj, other) and other != name] == also


# e0 prec_vdash e0 = e0 prec_vdash e1 = e1, every other product 0: it
# satisfies the six compatibility axioms, but its quadri part does not
# satisfy quadri.1b
_SIX_WITH_BAD_QUADRI = Algebra(2, "six", {
    name: BilinearOp(2, 2, 2, [[[0, 1], [0, 1]], [[0, 0], [0, 0]]]) if name == "prec_vdash"
    else BilinearOp.zero(2, 2, 2) for name in SIGNATURE_OPS["six"]})


def test_six_inputs_are_refused_by_their_quadri_part():
    report = check(quadri_part(_SIX_WITH_BAD_QUADRI), "quadri")
    assert [(v.identity, v.witness) for v in report.violations] == [("quadri.1b", (0, 0, 0)), ("quadri.1b", (0, 0, 1))]
    with pytest.raises(PreconditionFailure, match="input is not a six algebra"):
        _require_axioms(_SIX_WITH_BAD_QUADRI, "six")


@pytest.mark.xfail(strict=True, reason="the six catalog holds only the 25 compatibility axioms; "
                                       "the embedded quadri and perp axioms are in hypothesis('six')")
def test_six_catalog_covers_the_quadri_part():
    assert not check(_SIX_WITH_BAD_QUADRI, "six").ok
