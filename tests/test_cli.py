import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.cli import KIND_ALIASES, RECIPES, main
from splitalg.documents import Document, parse_document, serialize_document, unbounded_digits
from splitalg.identities import check
from splitalg.model import Algebra, BilinearOp, LinearMap, perp_dendriform_part
from splitalg.samples import one_dim_dendriform, truncated_polynomial_algebra

from conftest import random_quadri

SRC = Path(__file__).resolve().parent.parent / "src"


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
    """The redundant chain pairs are no switch: a brace's other pairs are
    sums of its consecutive ones, and the flag is an unknown argument."""
    code, out, err = run(
        capsys, "check", sample_doc_path, "--object", "dend", "--catalog", "dendriform",
        "--paranoid", "--json",
    )
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --paranoid\n")


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
    doc = json.loads(Path(sample_doc_path).read_text())
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
    doc = parse_document(Path(out_path).read_text())
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
    doc = parse_document(Path(out_path).read_text())
    assert doc.actions["dual_extension"].target.dimension == 8
    assert doc.maps["projection"].target_dim == 4


def test_construct_precondition_failure(capsys, sample_doc_path, tmp_path):
    # the identity map is not a Rota-Baxter operator on the polynomials
    doc = json.loads(Path(sample_doc_path).read_text())
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


def test_construct_quadri_to_relative_refuses_non_quadri(capsys, tmp_path):
    """The converse recipe checks the quadri axioms before building."""
    p = tmp_path / "random.json"
    p.write_text(serialize_document(Document(algebras={"q": random_quadri(0)})))
    code, out, err = run(
        capsys, "construct", str(p), "--recipe", "quadri-to-relative",
        "--algebra", "q", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: input is not a quadri-dendriform algebra\nchecked ")
    assert "violation(s)" in err and "quadri." in err
    assert not (tmp_path / "x.json").exists()


def test_construct_six_to_homomorphic_refuses_bad_perp(capsys, tmp_path):
    """The six converse refuses a perp pair that is not dendriform with the
    failing dendriform verdict, like every other refused hypothesis."""
    one, zero = BilinearOp(1, 1, 1, [[[1]]]), BilinearOp.zero(1, 1, 1)
    ops = {name: zero for name in ("prec_vdash", "prec_dashv", "succ_vdash", "succ_dashv")}
    six = Algebra(1, "six", {**ops, "prec_perp": one, "succ_perp": one})
    p = tmp_path / "six.json"
    p.write_text(serialize_document(Document(algebras={"s": six})))
    code, out, err = run(
        capsys, "construct", str(p), "--recipe", "six-to-homomorphic",
        "--algebra", "s", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert out == ""
    verdict = check(perp_dendriform_part(six), "dendriform")
    assert not verdict.ok
    assert err == (
        "error: target not dendriform: the perp pair fails the dendriform axioms\n"
        f"{verdict.render()}\n"
    )
    assert not (tmp_path / "x.json").exists()


def test_construct_missing_flag(capsys, sample_doc_path, tmp_path):
    code, _, err = run(
        capsys, "construct", sample_doc_path, "--recipe", "semidirect",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "requires --rep" in err


def test_construct_no_verify(capsys, sample_doc_path, tmp_path):
    """Every construction is verified: skipping it is an unknown argument."""
    out_path = tmp_path / "s.json"
    code, out, err = run(
        capsys, "construct", sample_doc_path, "--recipe", "semidirect",
        "--rep", "adjoint", "--out", str(out_path), "--no-verify",
    )
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --no-verify\n")
    assert not out_path.exists()


def test_search(capsys, sample_doc_path):
    code, out, _ = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1


def test_search_grid_negative_first_value(capsys, tmp_path):
    """`--grid -1,0,1` is the grid, not an option: the output is that of
    `--grid=-1,0,1`, byte for byte."""
    p = tmp_path / "one.json"
    p.write_text(serialize_document(Document(algebras={"a": one_dim_dendriform(1, 0)})))
    outputs = []
    for grid in (["--grid", "-1,0,1"], ["--grid=-1,0,1"]):
        code, out, err = run(capsys, "search", str(p), "--kind", "dend-averaging", *grid)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0] == "3 passing map(s) of shape 1x1\n[[-1]]\n[[0]]\n[[1]]\n"


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


def test_search_bad_grid_error_is_short(capsys, sample_doc_path):
    """A long invalid grid value is echoed as a prefix and its length, not whole."""
    code, out, err = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0," + "7" * 5000 + "/0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid rational '777")
    assert "(5002 characters) in grid" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("grid", ["1.5", "1_000", "0,1e5000", "0,1e1000000"])
def test_search_grid_takes_the_document_scalars(capsys, sample_doc_path, grid):
    """Grid values follow the documents' scalar grammar, integers and p/q:
    decimals, digit separators and exponents are refused before any search."""
    code, out, err = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", grid,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid rational ") and err.endswith(" in grid\n")
    assert err.count("\n") == 1


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
        files.append(Path(out_path).read_bytes())
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


def test_invalid_rational_error_is_short(capsys, tmp_path):
    """A long invalid value is echoed as a prefix and its length, not whole."""
    path = tmp_path / "doc.json"
    path.write_text('{"maps": {"f": {"source": 1, "target": 1, "matrix": [["' + "7" * 5000 + '/3"]]}}}')
    code, _, err = run(capsys, "check", str(path), "--object", "x", "--catalog", "dendriform")
    assert code == 2
    assert err.startswith("error: invalid rational '777")
    assert "(5002 characters) at $.maps.f.matrix[0][0]" in err
    assert len(err) < 200


def run_fuzzed(argv: list[str]) -> None:
    """`main` on argv exits 0, 1 or 2 and never ends in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Small JSON values to plant in a document: no value asks for a large tensor.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.text(max_size=5)
    | st.sampled_from(["1/2", "-3/4", "1/0", "x", "prec", "dendriform", "quadri", "dend", "poly"]),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(st.text(max_size=8), sub, max_size=3),
    max_leaves=8,
)
# (object, catalog) pairs of the sample document
CHECKS = [("poly", "associative"), ("dend", "dendriform"), ("adjoint", "dend-representation"),
          ("self", "dend-action")]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), value=SMALL_JSON, target=st.sampled_from(CHECKS))
def test_check_fuzzed_document(sample_doc_path, tmp_path_factory, data, value, target):
    """Any one value of the sample document replaced by a small JSON value:
    `check` exits 0, 1 or 2 and never ends in a traceback."""
    doc = json.loads(Path(sample_doc_path).read_text())
    node, key = doc, None
    while isinstance(node, (dict, list)) and node and (key is None or data.draw(st.booleans())):
        parent = node
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if key is None:
        doc = value
    else:
        parent[key] = value
    path = tmp_path_factory.mktemp("fuzz", numbered=True) / "doc.json"
    path.write_text(json.dumps(doc))
    run_fuzzed(["check", str(path), "--object", target[0], "--catalog", target[1]])


@settings(max_examples=80, deadline=None)
@given(
    grid=st.text(alphabet="0123456789/._e-, ", max_size=10),
    cap=st.none() | st.integers(-1, 300),
    kind=st.sampled_from(["rota-baxter", "assoc-averaging"]),
)
def test_search_fuzzed_argv(tmp_path_factory, grid, cap, kind):
    """Any grid string and cap: `search` exits 0, 1 or 2 and never ends in
    a traceback."""
    path = tmp_path_factory.getbasetemp() / "search-fuzz.json"
    if not path.exists():
        path.write_text(serialize_document(Document(algebras={"poly": truncated_polynomial_algebra(2)})))
    argv = ["search", str(path), "--kind", kind, "--grid", grid]
    if cap is not None:
        argv += ["--cap", str(cap)]
    run_fuzzed(argv)


# the recipe document's names for each object and map flag
SECTION_NAMES = {
    "algebra": ["poly", "dend", "quadri", "six", "bad"],
    "map": ["integrate", "shift", "ident", "zero", "off_diagonal"],
    "rep": ["adjoint"],
    "action": ["self", "bad_self"],
}
OTHER_NAME = st.sampled_from([None, "nope", *(n for names in SECTION_NAMES.values() for n in names)])


def flag_value(section: str):
    """A name of the flag's own section, None (the flag left out), another
    name of the document, or any short text."""
    return st.sampled_from(SECTION_NAMES[section]) | OTHER_NAME | st.text(max_size=4)


def flags(**values) -> list[str]:
    """`--name value` for each drawn value, `--name` for each true boolean;
    None and False leave the flag out."""
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_ALIASES))
    | st.sampled_from([None, "rota_baxter", "dend_averaging", ""]) | st.text(max_size=6),
    map_name=flag_value("map"),
    on=st.sampled_from([None, "poly", "dend", "adjoint", "self"]) | OTHER_NAME | st.text(max_size=4),
    as_json=st.booleans(),
)
def test_check_operator_fuzzed_argv(recipe_doc_path, kind, map_name, on, as_json):
    """Any kind, including aliases and unknown names, on any map and
    object: `check-operator` exits 0, 1 or 2 and never ends in a traceback."""
    run_fuzzed(["check-operator", recipe_doc_path,
                *flags(kind=kind, map=map_name, on=on, json=as_json)])


@settings(max_examples=120, deadline=None)
@given(
    recipe=st.sampled_from(sorted(RECIPES)),
    algebra=flag_value("algebra"),
    rep=flag_value("rep"),
    action=flag_value("action"),
    map_name=flag_value("map"),
    as_json=st.booleans(),
)
def test_construct_fuzzed_argv(recipe_doc_path, tmp_path_factory, recipe, algebra, rep, action,
                               map_name, as_json):
    """Every recipe with any object and map names: `construct` exits 0, 1
    or 2 and never ends in a traceback."""
    out = tmp_path_factory.getbasetemp() / "construct-fuzz.json"
    run_fuzzed(["construct", recipe_doc_path, "--recipe", recipe, "--out", str(out),
                *flags(algebra=algebra, rep=rep, action=action, map=map_name, json=as_json)])


def test_check_signature_not_a_string(capsys, tmp_path):
    """Found by the fuzz test: a list as signature was a TypeError traceback."""
    path = tmp_path / "doc.json"
    path.write_text('{"algebras": {"a": {"dimension": 1, "signature": []}}}')
    code, _, err = run(capsys, "check", str(path), "--object", "a", "--catalog", "dendriform")
    assert code == 2
    assert err == "error: unknown signature [] at $.algebras.a.signature\n"


def test_search_repeated_grid_value(capsys, sample_doc_path):
    """1/2 and 2/4 are one value: the grid is refused, not searched twice."""
    code, out, err = run(
        capsys, "search", sample_doc_path, "--object", "poly",
        "--kind", "rota-baxter", "--grid", "0,1/2,2/4",
    )
    assert code == 2
    assert out == ""
    assert err == "error: grid repeats the value '1/2'\n"


@pytest.mark.parametrize("command, flag", [("search", "--object"), ("check-operator", "--on")])
def test_subject_errors_name_the_command_flag(capsys, sample_doc_path, tmp_path, command, flag):
    """An ambiguous subject asks for the command's own flag; a document
    with no object of the kind's type says so."""
    extra = ["--grid", "0,1"] if command == "search" else ["--map", "m"]
    doc = json.loads(Path(sample_doc_path).read_text())
    doc["maps"]["m"] = {"source": 4, "target": 4, "matrix": [[0] * 4 for _ in range(4)]}
    two = tmp_path / "two.json"
    two.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(two), "--kind", "relative-averaging", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is required: 2 candidate object(s) for kind 'relative_averaging'\n"

    zero = BilinearOp.zero(2, 2, 2)
    none = tmp_path / "dual.json"
    none.write_text(serialize_document(Document(
        algebras={"dual": Algebra(2, "associative", {"mul": zero})}, maps={"m": LinearMap.zero(2, 2)})))
    code, out, err = run(capsys, command, str(none), "--kind", "averaging", *extra)
    assert (code, out) == (2, "")
    assert err == "error: the document has no object for kind 'dend_averaging'\n"


@pytest.mark.parametrize("command, extra", [("search", ["--object", "dend", "--grid", "0"]),
                                            ("check-operator", ["--on", "dend", "--map", "integrate"])])
def test_subject_of_another_signature(capsys, sample_doc_path, command, extra):
    code, out, err = run(capsys, command, sample_doc_path, "--kind", "rota-baxter", *extra)
    assert (code, out) == (2, "")
    assert err == "error: 'dend' is not an algebra of signature 'associative'\n"


def _digits_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_construct_writes_numbers_past_the_digit_limit(capsys, tmp_path):
    """Sums of two 3000-digit fractions have about 6000 digits, past the
    4300 digits documents accept: they are written in full, and the
    limit on input stays in force."""
    a, b = "1/" + "7" * 3000, "1/" + "3" * 2999 + "1"
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"algebras": {"q": {"dimension": 1, "signature": "quadri", "operations": {
        "prec_vdash": [[[a]]], "prec_dashv": [[[a]]], "succ_vdash": [[[b]]], "succ_dashv": [[[b]]]}}}}))
    limit = _digits_limit()
    out_path = tmp_path / "o.json"
    code, out, err = run(capsys, "construct", str(p), "--recipe", "sum-diass", "--algebra", "q",
                         "--out", str(out_path))
    assert (code, err) == (0, "")
    assert "[sum_diass:diassociative] checked 5 instance(s): all passed" in out
    assert _digits_limit() == limit
    total = Fraction(1, int("7" * 3000)) + Fraction(1, int("3" * 2999 + "1"))
    with unbounded_digits():
        expected = f'"{total.numerator}/{total.denominator}"'
    assert len(expected) > 2 * 4300
    assert out_path.read_text().count(expected) == 2  # dashv and vdash
    # the written document holds scalars over the input limit
    code, _, err = run(capsys, "check", str(out_path), "--object", "sum_diass", "--catalog", "diassociative")
    assert code == (0 if limit is None else 2)


# (argv after the document, exit code, whether the report goes to stderr,
# the residual line before its digits); mul, T, prec and succ are all N
LONG_REPORTS = {
    "check-operator": (["check-operator", "--map", "t", "--kind", "rota-baxter"], 1, False,
                       "rota-baxter at (0, 0): residual ["),
    "check-operator --json": (["check-operator", "--map", "t", "--kind", "rota-baxter", "--json"], 1, False,
                              '"residual": ['),
    "check": (["check", "--object", "d", "--catalog", "dendriform"], 1, False, "dend.1 at (0, 0, 0): residual ["),
    "construct refusal": (["construct", "--recipe", "aguiar-dendriform", "--algebra", "a", "--map", "t",
                           "--out", "o.json"], 2, True, "rota-baxter at (0, 0): residual ["),
}


@pytest.mark.parametrize("case", sorted(LONG_REPORTS))
def test_reports_print_numbers_past_the_digit_limit(capsys, tmp_path, monkeypatch, case):
    """N = 3000 nines: the Rota-Baxter residual N^3 - 2 N^3 and the
    dendriform residual N^2 - 2 N^2 have 9000 and 6000 digits, and are
    printed in full."""
    argv, expected_code, on_stderr, prefix = LONG_REPORTS[case]
    n = "9" * 3000
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text(json.dumps({
        "algebras": {"a": {"dimension": 1, "signature": "associative", "operations": {"mul": [[[n]]]}},
                     "d": {"dimension": 1, "signature": "dendriform",
                           "operations": {"prec": [[[n]]], "succ": [[[n]]]}}},
        "maps": {"t": {"source": 1, "target": 1, "matrix": [[n]]}}}))
    limit = _digits_limit()
    code, out, err = run(capsys, argv[0], "r.json", *argv[1:])
    assert code == expected_code
    assert _digits_limit() == limit
    with unbounded_digits():
        residual = str(-int(n) ** (2 if argv[0] == "check" else 3))
    assert len(residual) in (6001, 9001)
    assert f"{prefix}{residual}]" in (err if on_stderr else out)
    assert (out if on_stderr else err) == ""


def run_with_closed(argv: list[str], stream: str) -> tuple[int, bytes]:
    """Run the CLI in a fresh interpreter whose `stream` ("stdout" or
    "stderr") is a pipe with its read end closed before it starts: (exit
    code, what it wrote to the other stream)."""
    other = "stderr" if stream == "stdout" else "stdout"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "splitalg.cli", *argv],
                              **{stream: write, other: subprocess.PIPE},
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    finally:
        os.close(write)
    return done.returncode, getattr(done, other)


@pytest.mark.parametrize("argv, expected", [
    (["--help"], 0),
    (["check", "{sample}", "--object", "dend", "--catalog", "dendriform", "--json"], 0),
    (["check", "{broken}", "--object", "bad", "--catalog", "dendriform", "--json"], 1),
], ids=["help", "check-pass", "check-fail"])
def test_closed_stdout_keeps_the_exit_code(sample_doc_path, broken_doc_path, argv, expected):
    """A reader that has closed stdout before the command writes loses the
    output, not the exit code: nothing reaches stderr, so no error line,
    no traceback and no message from the interpreter's last flush."""
    argv = [a.format(sample=sample_doc_path, broken=broken_doc_path) for a in argv]
    assert run_with_closed(argv, "stdout") == (expected, b"")


@pytest.mark.parametrize("catalog", [["--catalog", "dendriform"], []], ids=["missing-file", "missing-flag"])
def test_closed_stderr_keeps_the_exit_code(catalog):
    """An error line that no reader takes is lost, and the command still
    exits 2: the error of writing it is not a failed check."""
    argv = ["check", "/nonexistent.json", "--object", "x", *catalog]
    assert run_with_closed(argv, "stderr") == (2, b"")


# per subcommand, an input it accepts and an input error, with the exit
# code each has when both streams are open
STREAM_CASES = [
    (["check", "{broken}", "--object", "bad", "--catalog", "dendriform"], 1),
    (["check", "{sample}", "--object", "ghost", "--catalog", "dendriform"], 2),
    (["check-operator", "{sample}", "--map", "integrate", "--kind", "rota-baxter", "--on", "poly"], 0),
    (["check-operator", "{sample}", "--map", "integrate", "--kind", "pentagram"], 2),
    (["construct", "{recipes}", "--recipe", "semidirect", "--rep", "adjoint", "--out", "{out}"], 0),
    (["construct", "{recipes}", "--recipe", "action-semidirect", "--action", "bad_self", "--out", "{out}"], 2),
    (["search", "{sample}", "--object", "poly", "--kind", "rota-baxter", "--grid", "0"], 0),
    (["search", "{sample}", "--object", "poly", "--kind", "rota-baxter", "--grid", "0,x"], 2),
]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
@pytest.mark.parametrize("argv, expected", STREAM_CASES,
                         ids=[f"{argv[0]}-{'input-error' if code == 2 else 'accepted'}" for argv, code in STREAM_CASES])
def test_closed_stream_keeps_the_exit_code(sample_doc_path, broken_doc_path, recipe_doc_path, tmp_path,
                                           argv, expected, stream):
    """Every subcommand exits with the code it has with both streams open
    when either stream's reader has gone, and never ends in a traceback."""
    argv = [a.format(sample=sample_doc_path, broken=broken_doc_path, recipes=recipe_doc_path,
                     out=tmp_path / "out.json") for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == expected
    code, other = run_with_closed(argv, stream)
    assert code == expected
    assert b"Traceback" not in other
    if stream == "stdout":
        # stderr holds the error line, and nothing else
        assert other.startswith(b"error: ") == (expected == 2)
