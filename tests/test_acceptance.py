"""Acceptance suite: eleven exact-arithmetic criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Every comparison is over exact rationals; there are no tolerances anywhere.
"""

import contextlib
import json
import random

from splitalg.cli import main as cli_main
from splitalg.constructions import (
    aguiar_dendriform,
    averaging_quadri,
    dual_extension,
    hemisemidirect,
    induced_quadri,
    induced_six,
    sum_collapse_quadri,
    sum_collapse_six,
)
from splitalg.identities import catalog, check
from splitalg.model import (
    LinearMap,
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
)
from splitalg.operators import (
    check_dend_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
    check_rota_baxter,
    graph_subalgebra_check,
)
from splitalg.quotients import (
    embed_averaging,
    quadri_to_relative_setup,
    six_to_homomorphic_setup,
    splitting_ideal,
)
from splitalg.samples import one_dim_dendriform


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_catalog_integrity():
    with criterion(1, "catalog integrity"):
        sizes = {
            "dendriform": 3,
            "diassociative": 5,
            "triassociative": 11,
            "quadri": 19,
            "six": 25,
            "dend-representation": 9,
            "dend-action": 9,
        }
        for name, size in sizes.items():
            assert len(catalog(name)) == size, name


def test_criterion_2_main_pipeline(poly, integ, dend):
    with criterion(2, "Rota-Baxter pipeline on the dim-4 fixture"):
        assert check_rota_baxter(poly, integ).ok
        built = aguiar_dendriform(poly, integ)
        for opname in ("prec", "succ"):
            assert built.op(opname) == dend.op(opname)
        report = check(built, "dendriform")
        assert report.ok
        assert report.checked == 3 * 64
        assert not report.violations


def test_criterion_3_averaging_chain(dend, quadri):
    with criterion(3, "averaging chain k*Id -> quadri -> diassociative"):
        n = dend.dimension
        for k in (-2, -1, 0, 1, 2):
            assert check_dend_averaging(dend, LinearMap.scalar(n, k)).ok
        q = averaging_quadri(dend, LinearMap.identity(n))
        report = check(q, "quadri")
        assert report.ok
        assert report.checked == 19 * 64
        assert check(sum_collapse_quadri(q), "diassociative").ok


def test_criterion_4_hemisemidirect(adjoint):
    with criterion(4, "dim-8 hemisemidirect product is quadri-dendriform"):
        h = hemisemidirect(adjoint)
        assert h.dimension == 8
        report = check(h, "quadri")
        assert report.ok
        assert report.checked == 19 * 512


def test_criterion_5_graph_theorem(adjoint):
    with criterion(5, "graph-subalgebra criterion matches the equations"):
        rng = random.Random(5)
        n = adjoint.base.dimension
        maps = [LinearMap.zero(n, n), LinearMap.identity(n)]
        while len(maps) < 102:
            maps.append(
                LinearMap(
                    n, n,
                    [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)],
                )
            )
        verdicts = []
        for t in maps:
            direct = check_relative_averaging(adjoint, t).ok
            graph = graph_subalgebra_check(adjoint, t).ok
            assert direct == graph
            verdicts.append(direct)
        assert any(verdicts)
        assert not all(verdicts)


def test_criterion_6_quotient_round_trip(quadri):
    with criterion(6, "splitting-ideal quotient round-trips exactly"):
        ideal = splitting_ideal(quadri)
        assert ideal.closure_witness() is None
        rep, proj = quadri_to_relative_setup(quadri)
        assert check(rep.base, "dendriform").ok
        assert check_relative_averaging(rep, proj).ok
        back = induced_quadri(rep, proj)
        for opname in quadri.operations:
            assert back.op(opname) == quadri.op(opname)


def test_criterion_7_embedding(quadri):
    with criterion(7, "embedding into an averaging dendriform algebra"):
        ambient, averaging, inclusion = embed_averaging(quadri)
        assert check_dend_averaging(ambient, averaging).ok
        n = quadri.dimension
        assert inclusion.rank() == n
        pairs = {
            "prec_vdash": ("prec", True),
            "succ_vdash": ("succ", True),
            "prec_dashv": ("prec", False),
            "succ_dashv": ("succ", False),
        }
        for opname, (amb_op, left_twist) in pairs.items():
            op = ambient.op(amb_op)
            for i in range(n):
                for j in range(n):
                    xi, yj = inclusion.column(i), inclusion.column(j)
                    if left_twist:
                        expected = evaluate(op, averaging.apply(xi), yj)
                    else:
                        expected = evaluate(op, xi, averaging.apply(yj))
                    assert inclusion.apply(quadri.op(opname).coeffs[i][j]) == expected


def test_criterion_8_six_pipeline(dend, six):
    with criterion(8, "six-dendriform pipeline and round trip"):
        act, proj = dual_extension(dend)
        assert check(act, "dend-action").ok
        assert check_homomorphic_relative(act, proj).ok
        report = check(six, "six")
        assert report.ok
        assert report.checked == 25 * 512
        from splitalg.model import perp_dendriform_part, quadri_part

        assert check(perp_dendriform_part(six), "dendriform").ok
        assert check(quadri_part(six), "quadri").ok
        report = check(sum_collapse_six(six), "triassociative")
        assert report.ok
        assert report.checked == 11 * 512
        act2, proj2 = six_to_homomorphic_setup(six)
        back = induced_six(act2, proj2)
        for opname in six.operations:
            assert back.op(opname) == six.op(opname)


def test_criterion_9_one_dim_classification():
    with criterion(9, "1-dim dendriform classification ab = 0"):
        passing = 0
        for a in range(-2, 3):
            for b in range(-2, 3):
                ok = check(one_dim_dendriform(a, b), "dendriform").ok
                assert ok == (a * b == 0), (a, b)
                passing += ok
        assert passing == 9


def test_criterion_10_degenerate_promotions(dend):
    with criterion(10, "promoted dendriform fixtures stay consistent"):
        fixtures = [dend, one_dim_dendriform(0, 3), one_dim_dendriform(2, 0)]
        for fixture in fixtures:
            q = dendriform_to_quadri(fixture)
            assert check(q, "quadri").ok
            assert splitting_ideal(q).subspace.dim == 0
            assert check(dendriform_to_six(fixture), "six").ok


def test_criterion_11_cli_contract(capsys, sample_doc_path, broken_doc_path, tmp_path):
    with criterion(11, "CLI exit codes, JSON round-trip, determinism"):
        out_a = str(tmp_path / "a.json")
        matrix = [
            (["check", sample_doc_path, "--object", "dend", "--catalog", "dendriform"], 0),
            (["check", sample_doc_path, "--object", "poly", "--catalog", "associative"], 0),
            (["check", broken_doc_path, "--object", "bad", "--catalog", "dendriform"], 1),
            (["check", sample_doc_path, "--object", "ghost", "--catalog", "dendriform"], 2),
            (["check", "/nonexistent.json", "--object", "x", "--catalog", "dendriform"], 2),
            (["check-operator", sample_doc_path, "--map", "integrate",
              "--kind", "rota-baxter", "--on", "poly"], 0),
            (["check-operator", sample_doc_path, "--map", "integrate",
              "--kind", "assoc-averaging", "--on", "poly"], 1),
            (["check-operator", sample_doc_path, "--map", "integrate",
              "--kind", "unitary", "--on", "poly"], 2),
            (["construct", sample_doc_path, "--recipe", "semidirect",
              "--rep", "adjoint", "--out", out_a], 0),
            (["construct", sample_doc_path, "--recipe", "semidirect",
              "--out", str(tmp_path / "b.json")], 2),
            (["search", sample_doc_path, "--object", "poly",
              "--kind", "rota-baxter", "--grid", "0"], 0),
            (["search", sample_doc_path, "--object", "poly",
              "--kind", "rota-baxter", "--grid", "0,1", "--cap", "10"], 2),
        ]
        for argv, expected in matrix:
            code = cli_main(argv)
            capsys.readouterr()
            assert code == expected, argv

        # --json output parses and is byte-identical across reruns
        outputs = []
        for _ in range(2):
            code = cli_main(
                ["check", sample_doc_path, "--object", "dend",
                 "--catalog", "dendriform", "--json"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        payload = json.loads(outputs[0])
        assert payload["violations"] == []
        assert outputs[0] == outputs[1]
