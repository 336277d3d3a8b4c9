"""The reports of failing operator, graph, morphism and differential checks,
pinned byte for byte at a small cap, so that witness order, residuals,
counts and the truncation line cannot drift.  The expected values were
recorded from the hand-written checkers that the schema engine replaced.
"""

import hashlib
import inspect
import json

import pytest

from splitalg.constructions import check_differential
from splitalg.identities import (
    DEFAULT_VIOLATION_CAP,
    ViolationReport,
    _scan,
    check,
    check_morphism,
    check_schemas,
    context_for,
)
from splitalg.model import LinearMap, adjoint_representation, self_action
from splitalg.operators import (
    _KINDS,
    check_assoc_averaging,
    check_dend_averaging,
    check_homomorphic_relative,
    check_operator,
    check_relative_averaging,
    check_rota_baxter,
    graph_subalgebra_check,
)
from splitalg.samples import integration_map, truncated_polynomial_algebra, truncated_polynomial_dendriform

from conftest import random_quadri

POLY3 = truncated_polynomial_algebra(3)
DEND = truncated_polynomial_dendriform()
OFF_DIAGONAL = LinearMap(4, 4, [[1 if (i, j) == (0, 1) else 0 for j in range(4)] for i in range(4)])
PAIRING = {"prec": "prec", "succ": "succ"}

# name -> (the check, the cap its report is pinned at)
CASES = {
    "rota_baxter": (lambda: check_rota_baxter(POLY3, LinearMap.identity(3)), 2),
    "assoc_averaging": (lambda: check_assoc_averaging(truncated_polynomial_algebra(), integration_map()), 1),
    "dend_averaging": (lambda: check_dend_averaging(DEND, OFF_DIAGONAL), 3),
    "relative_averaging": (lambda: check_relative_averaging(adjoint_representation(DEND), OFF_DIAGONAL), 3),
    "homomorphic_relative": (lambda: check_homomorphic_relative(self_action(DEND), LinearMap.scalar(4, 2)), 3),
    "graph": (lambda: graph_subalgebra_check(adjoint_representation(DEND), OFF_DIAGONAL), 3),
    "morphism": (lambda: check_morphism(LinearMap.scalar(4, 2), DEND, DEND, PAIRING), 3),
    "differential": (lambda: check_differential(DEND, OFF_DIAGONAL), 3),
}


def cut(report, cap):
    """The report a scan capped at `cap` gives: the first `cap` witnesses of
    the report at the default cap, truncated when any witness is left out."""
    return ViolationReport(report.checked, report.violations[:cap],
                           report.truncated or len(report.violations) > cap, report.kind)


# name -> (render(), to_dict() as sorted JSON)
EXPECTED = {
    "rota_baxter": (
        "rota_baxter: FAIL (9 instance(s) checked)\n"
        "  rota-baxter at (0, 0): residual [0, -1, 0]\n"
        "  rota-baxter at (0, 1): residual [0, 0, -1]\n"
        "  ... report truncated",
        '{"checked": 9, "kind": "rota_baxter", "truncated": true, "violations": [{"id": "rota-baxter", "residual": [0, -1, 0], "witness": [0, 0]}, {"id": "rota-baxter", "residual": [0, 0, -1], "witness": [0, 1]}]}',
    ),
    "assoc_averaging": (
        "assoc_averaging: FAIL (32 instance(s) checked)\n"
        "  HaHb=H(aHb) at (0, 0): residual [0, 0, 0, 1/8]\n"
        "  ... report truncated",
        '{"checked": 32, "kind": "assoc_averaging", "truncated": true, "violations": [{"id": "HaHb=H(aHb)", "residual": [0, 0, 0, "1/8"], "witness": [0, 0]}]}',
    ),
    "dend_averaging": (
        "dend_averaging: FAIL (64 instance(s) checked)\n"
        "  Tprec:TxTy=T(Txy) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  Tprec:TxTy=T(xTy) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  Tsucc:TxTy=T(Txy) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  ... report truncated",
        '{"checked": 64, "kind": "dend_averaging", "truncated": true, "violations": [{"id": "Tprec:TxTy=T(Txy)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}, {"id": "Tprec:TxTy=T(xTy)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}, {"id": "Tsucc:TxTy=T(Txy)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}]}',
    ),
    "relative_averaging": (
        "relative_averaging: FAIL (64 instance(s) checked)\n"
        "  prec:TuTv=T(Tu.v) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  prec:TuTv=T(u.Tv) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  succ:TuTv=T(Tu.v) at (1, 1): residual [0, 0, 1/2, 0]\n"
        "  ... report truncated",
        '{"checked": 64, "kind": "relative_averaging", "truncated": true, "violations": [{"id": "prec:TuTv=T(Tu.v)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}, {"id": "prec:TuTv=T(u.Tv)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}, {"id": "succ:TuTv=T(Tu.v)", "residual": [0, 0, "1/2", 0], "witness": [1, 1]}]}',
    ),
    "homomorphic_relative": (
        "homomorphic_relative: FAIL (96 instance(s) checked)\n"
        "  hom:prec at (0, 0): residual [0, 0, -1, 0]\n"
        "  hom:prec at (0, 1): residual [0, 0, 0, -2/3]\n"
        "  hom:prec at (1, 0): residual [0, 0, 0, -1]\n"
        "  ... report truncated",
        '{"checked": 96, "kind": "homomorphic_relative", "truncated": true, "violations": [{"id": "hom:prec", "residual": [0, 0, -1, 0], "witness": [0, 0]}, {"id": "hom:prec", "residual": [0, 0, 0, "-2/3"], "witness": [0, 1]}, {"id": "hom:prec", "residual": [0, 0, 0, -1], "witness": [1, 0]}]}',
    ),
    "graph": (
        "relative_averaging: FAIL (64 instance(s) checked)\n"
        "  graph-closure:prec_dashv at (1, 1): residual [0, 0, 1/2, 0, 0, 0, 0, 0]\n"
        "  graph-closure:prec_vdash at (1, 1): residual [0, 0, 1/2, 0, 0, 0, 0, 0]\n"
        "  graph-closure:succ_dashv at (1, 1): residual [0, 0, 1/2, 0, 0, 0, 0, 0]\n"
        "  ... report truncated",
        '{"checked": 64, "kind": "relative_averaging", "truncated": true, "violations": [{"id": "graph-closure:prec_dashv", "residual": [0, 0, "1/2", 0, 0, 0, 0, 0], "witness": [1, 1]}, {"id": "graph-closure:prec_vdash", "residual": [0, 0, "1/2", 0, 0, 0, 0, 0], "witness": [1, 1]}, {"id": "graph-closure:succ_dashv", "residual": [0, 0, "1/2", 0, 0, 0, 0, 0], "witness": [1, 1]}]}',
    ),
    "morphism": (
        "checked 32 instance(s): 3 violation(s)\n"
        "  morphism:prec->prec at (0, 0): residual [0, 0, -1, 0]\n"
        "  morphism:prec->prec at (0, 1): residual [0, 0, 0, -2/3]\n"
        "  morphism:prec->prec at (1, 0): residual [0, 0, 0, -1]\n"
        "  ... report truncated",
        '{"checked": 32, "truncated": true, "violations": [{"id": "morphism:prec->prec", "residual": [0, 0, -1, 0], "witness": [0, 0]}, {"id": "morphism:prec->prec", "residual": [0, 0, 0, "-2/3"], "witness": [0, 1]}, {"id": "morphism:prec->prec", "residual": [0, 0, 0, -1], "witness": [1, 0]}]}',
    ),
    "differential": (
        "differential: FAIL (36 instance(s) checked)\n"
        "  leibniz:prec at (0, 1): residual [0, 0, -1/2, 0]\n"
        "  leibniz:prec at (1, 0): residual [0, 0, -1/2, 0]\n"
        "  leibniz:prec at (1, 1): residual [0, 0, 0, -5/6]\n"
        "  ... report truncated",
        '{"checked": 36, "kind": "differential", "truncated": true, "violations": [{"id": "leibniz:prec", "residual": [0, 0, "-1/2", 0], "witness": [0, 1]}, {"id": "leibniz:prec", "residual": [0, 0, "-1/2", 0], "witness": [1, 0]}, {"id": "leibniz:prec", "residual": [0, 0, 0, "-5/6"], "witness": [1, 1]}]}',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_pinned(name):
    check_fn, cap = CASES[name]
    report = cut(check_fn(), cap)
    render, as_json = EXPECTED[name]
    assert report.render() == render
    assert json.dumps(report.to_dict(), sort_keys=True) == as_json


@pytest.mark.parametrize("fn", [
    check, check_schemas, check_morphism, check_operator, check_rota_baxter, check_assoc_averaging,
    check_dend_averaging, check_relative_averaging, check_homomorphic_relative, graph_subalgebra_check,
    check_differential,
], ids=lambda fn: fn.__name__)
def test_public_checks_take_no_cap(fn):
    """Every public check reports at most DEFAULT_VIOLATION_CAP witnesses;
    only the engine's _scan takes a cap."""
    assert "max_violations" not in inspect.signature(fn).parameters


def test_differential_respects_the_cap():
    """d^2 = 0 witnesses count against the cap like every other witness."""
    d = truncated_polynomial_dendriform(3)
    ctx, groups = context_for(d, {"T": (LinearMap.identity(3), "A", "A")}), _KINDS["differential"].groups
    report = _scan(ctx, groups, 1, "differential")
    assert len(report.violations) == 1
    assert report.truncated
    assert report.violations[0].identity == "d2=0"
    assert _scan(ctx, groups, 0, "differential").truncated
    assert check_differential(d, LinearMap.identity(3)) == _scan(ctx, groups, DEFAULT_VIOLATION_CAP, "differential")


# Failing quadri checks on seeded random algebras, each capped at the
# default 100 witnesses and truncated, pinned as one digest of their JSON
# and rendered text: the catalog path's witness order and residuals.
TRUNCATED_QUADRI_SHA256 = "7fcf8b94c72ea3c8727e6ebcc0a9ae26483a06e164455d4e1a98db57bf4d2b83"


def test_truncated_catalog_reports_pinned():
    h = hashlib.sha256()
    for seed, n in ((1, 3), (2, 5), (3, 7)):
        report = check(random_quadri(seed, n), "quadri")
        assert len(report.violations) == DEFAULT_VIOLATION_CAP and report.truncated
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        h.update(report.render().encode())
    assert h.hexdigest() == TRUNCATED_QUADRI_SHA256
