import json

import pytest

from splitalg.cli import main
from splitalg.documents import parse_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass(capsys, sample_doc_path):
    code, out, _ = run(capsys, "check", sample_doc_path, "--object", "dend", "--catalog", "dendriform")
    assert code == 0
    assert "all passed" in out


def test_check_ignores_workers_variable(capsys, sample_doc_path, monkeypatch):
    """SPLITALG_WORKERS configures nothing; no value of it is an error."""
    monkeypatch.setenv("SPLITALG_WORKERS", "0")
    code, out, _ = run(capsys, "check", sample_doc_path, "--object", "dend", "--catalog", "dendriform")
    assert code == 0
    assert "all passed" in out


def test_check_fail(capsys, broken_doc_path):
    code, out, _ = run(capsys, "check", broken_doc_path, "--object", "bad", "--catalog", "dendriform")
    assert code == 1
    assert "violation" in out


def test_check_json_round_trip(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "check", sample_doc_path, "--object", "poly", "--catalog", "associative", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 64
    assert payload["violations"] == []


def test_check_paranoid(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "check", sample_doc_path, "--object", "dend", "--catalog", "dendriform",
        "--paranoid", "--json",
    )
    assert code == 0
    assert json.loads(out)["checked"] >= 3 * 64


def test_check_unknown_object(capsys, sample_doc_path):
    code, _, err = run(capsys, "check", sample_doc_path, "--object", "ghost", "--catalog", "dendriform")
    assert code == 2
    assert "error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.json", "--object", "x", "--catalog", "dendriform")
    assert code == 2


def test_check_operator_pass(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate",
        "--kind", "rota-baxter", "--on", "poly",
    )
    assert code == 0
    assert "pass" in out


def test_check_operator_averaging_alias(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate",
        "--kind", "averaging", "--on", "dend", "--json",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "dend_averaging"


def test_check_operator_fail(capsys, sample_doc_path):
    # the integration map is not an associative averaging operator
    code, out, _ = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate",
        "--kind", "assoc-averaging", "--on", "poly",
    )
    assert code == 1
    assert "FAIL" in out


def test_check_operator_wrong_shape(capsys, sample_doc_path, tmp_path):
    doc = json.loads(open(sample_doc_path).read())
    doc["maps"]["skew"] = {"source": 2, "target": 2, "matrix": [[0, 1], [0, 0]]}
    p = tmp_path / "withskew.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "check-operator", str(p), "--map", "skew", "--kind", "rota-baxter", "--on", "poly"
    )
    assert code == 2


def test_check_operator_wrong_subject(capsys, sample_doc_path):
    # relative averaging lives on a representation, not on an algebra
    code, _, err = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate",
        "--kind", "relative-averaging", "--on", "dend",
    )
    assert code == 2
    assert "needs a representation" in err


def test_check_operator_unknown_kind(capsys, sample_doc_path):
    code, _, err = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate", "--kind", "unitary"
    )
    assert code == 2


def test_construct_writes_verified_document(capsys, sample_doc_path, tmp_path):
    out_path = str(tmp_path / "sd.json")
    code, out, _ = run(
        capsys, "construct", sample_doc_path, "--recipe", "semidirect",
        "--rep", "adjoint", "--out", out_path,
    )
    assert code == 0
    assert "all passed" in out
    doc = parse_document(open(out_path).read())
    assert doc.algebras["semidirect"].dimension == 8


def test_construct_dual_extension(capsys, sample_doc_path, tmp_path):
    out_path = str(tmp_path / "de.json")
    code, out, _ = run(
        capsys, "construct", sample_doc_path, "--recipe", "dual-extension",
        "--algebra", "dend", "--out", out_path, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    labels = {v["label"] for v in payload["verifications"]}
    assert len(labels) == 2
    doc = parse_document(open(out_path).read())
    assert doc.actions["dual_extension"].target.dimension == 8
    assert doc.maps["projection"].target_dim == 4


def test_construct_precondition_failure(capsys, sample_doc_path, tmp_path):
    # the identity map is not a Rota-Baxter operator on the polynomials
    doc = json.loads(open(sample_doc_path).read())
    doc["maps"]["ident"] = {
        "source": "poly",
        "target": "poly",
        "matrix": [[1 if i == j else 0 for j in range(4)] for i in range(4)],
    }
    p = tmp_path / "withident.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "construct", str(p), "--recipe", "aguiar-dendriform",
        "--algebra", "poly", "--map", "ident", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "FAIL" in err or "error" in err


def test_construct_missing_flag(capsys, sample_doc_path, tmp_path):
    code, _, err = run(
        capsys, "construct", sample_doc_path, "--recipe", "semidirect",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "requires --rep" in err


def test_construct_no_verify(capsys, sample_doc_path, tmp_path):
    code, out, _ = run(
        capsys, "construct", sample_doc_path, "--recipe", "quotient-dend",
        "--algebra", "dend", "--out", str(tmp_path / "q.json"), "--no-verify",
    )
    # quotient-dend needs a quadri algebra; dend is dendriform
    assert code == 2


def test_search(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1


def test_search_cap_exceeded(capsys, sample_doc_path):
    code, _, err = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0,1", "--cap", "10",
    )
    assert code == 2


def test_search_bad_grid(capsys, sample_doc_path):
    code, _, err = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0,zebra",
    )
    assert code == 2


def test_byte_identical_reruns(capsys, sample_doc_path, tmp_path):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "check", sample_doc_path, "--object", "dend",
            "--catalog", "dendriform", "--json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]

    files = []
    for k in range(2):
        out_path = str(tmp_path / f"h{k}.json")
        code, _, _ = run(
            capsys, "construct", sample_doc_path, "--recipe", "hemisemidirect",
            "--rep", "adjoint", "--out", out_path,
        )
        assert code == 0
        files.append(open(out_path, "rb").read())
    assert files[0] == files[1]


MALFORMED = {
    "algebras-not-an-object": b'{"algebras": []}',
    "maps-not-an-object": b'{"maps": []}',
    "not-utf-8": '{"algebras": {"\xe9": {}}}'.encode("latin-1"),
    "integer-too-long": b'{"maps": {"f": {"source": 1, "target": 1, "matrix": [[' + b"7" * 5000 + b"]]}}}",
    "string-too-long": b'{"maps": {"f": {"source": 1, "target": 1, "matrix": [["' + b"7" * 5000 + b'"]]}}}',
    "nested-too-deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
def test_check_malformed_document(capsys, tmp_path, content):
    """A malformed document is an input error (exit 2), never a traceback
    or the violations code."""
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "check", str(path), "--object", "x", "--catalog", "dendriform")
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
