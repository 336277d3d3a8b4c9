import hashlib
import random
from fractions import Fraction

import pytest

from splitalg.identities import (
    CATALOG_NAMES,
    UnknownCatalog,
    catalog,
    check,
    check_morphism,
    context_for,
)
from splitalg.linalg import vector
from splitalg.model import (
    LinearMap,
    adjoint_representation,
    dendriform_to_quadri,
    dendriform_to_six,
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
CATALOG_DIGEST = "37ccf7283ef0c91382b295ba8e3f6507f1df5f2549940b0e359e1a31b29b572e"


def test_catalog_content_pinned():
    h = hashlib.sha256()
    for name in CATALOG_NAMES:
        h.update(repr((name, catalog(name))).encode())
    assert h.hexdigest() == CATALOG_DIGEST


def test_unknown_catalog():
    with pytest.raises(UnknownCatalog):
        catalog("pentagram")


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


def test_truncated_report_is_not_ok():
    """A cap of 0 keeps no witness, but the check still fails."""
    report = check(random_quadri(1), "quadri", max_violations=0)
    assert report.truncated and not report.violations
    assert not report.ok
