import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.cli import _SECTIONS, KIND_ALIASES, RECIPES, _resolve_subject, main
from splitalg.documents import Document, parse_document, serialize_document, unbounded_digits
from splitalg import identities
from splitalg.identities import CATALOG_NAMES, check, check_schemas, fits, hypothesis
from splitalg.model import (
    SIGNATURE_OPS, Action, Algebra, BilinearOp, LinearMap, Representation, SpecError, adjoint_representation,
    self_action,
)
from splitalg.operators import (
    OPERATOR_KINDS, _KINDS, check_operator, check_rota_baxter, operator_map_shape, search_operators,
)
from splitalg.samples import (
    integration_map, one_dim_dendriform, truncated_polynomial_algebra, truncated_polynomial_dendriform, zero_algebra,
)

from conftest import random_quadri
from test_constructions import COUNTEREXAMPLES

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
    code, out, err = run(
        capsys, "check-operator", str(p), "--map", "skew", "--kind", "rota-baxter", "--on", "poly"
    )
    assert (code, out) == (2, "")
    assert err == "error: map T is 2->2, but its sorts A->A need 4->4\n"


def test_check_operator_wrong_subject(capsys, sample_doc_path, dend, integ):
    # relative averaging lives on a representation, not on an algebra
    code, _, err = run(
        capsys, "check-operator", sample_doc_path, "--map", "integrate",
        "--kind", "relative-averaging", "--on", "dend",
    )
    assert code == 2
    assert "needs a representation" in err
    # the library refuses an algebra of another signature by the same rule
    with pytest.raises(SpecError) as refused:
        check_rota_baxter(dend, integ)
    assert str(refused.value) == "kind 'rota_baxter' needs an associative algebra"


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
    assert err.startswith("error: input is not a quadri algebra\nchecked ")
    assert "violation(s)" in err and "quadri." in err
    assert not (tmp_path / "x.json").exists()


def test_construct_six_to_homomorphic_refuses_bad_perp(capsys, tmp_path):
    """The six converse refuses a perp pair that is not dendriform with the
    verdict of the whole six hypothesis, like every other refused input."""
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
    verdict = check_schemas(six, hypothesis("six"))
    assert [v.identity for v in verdict.violations] == ["dend.1", "dend.3"]
    assert err == f"error: input is not a six algebra\n{verdict.render()}\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("recipe", sorted(COUNTEREXAMPLES))
def test_construct_refuses_inputs_failing_their_axioms(capsys, tmp_path, recipe):
    """Each input fails its own axioms: construct prints the failing verdict
    under the error line, exits 2 and writes no file."""
    _, args, message, (part, catalog_name) = COUNTEREXAMPLES[recipe]
    doc = {section: {} for section in _SECTIONS.values()}
    argv = []
    for i, (flag, obj) in enumerate(zip(RECIPES[recipe][0], args)):
        doc[_SECTIONS[flag]][f"x{i}"] = obj
        argv += [f"--{flag}", f"x{i}"]
        if isinstance(obj, Representation):
            doc["algebras"]["base"] = obj.base
            if isinstance(obj, Action):
                doc["algebras"]["target"] = obj.target
    p = tmp_path / "doc.json"
    p.write_text(serialize_document(Document(**doc)))
    code, out, err = run(capsys, "construct", str(p), "--recipe", recipe, *argv, "--out", str(tmp_path / "x.json"))
    verdict = check_schemas(part, hypothesis(catalog_name))
    assert not verdict.ok
    assert (code, out, err) == (2, "", f"error: {message}\n{verdict.render()}\n")
    assert not (tmp_path / "x.json").exists()


def test_construct_never_reports_violations_of_its_output(capsys, recipe_doc_path, tmp_path, monkeypatch):
    """Every recipe on every combination of the recipe document's names for
    its flags: an output is written only when it passes its verifications
    (exit 0), and an input that fails its hypotheses is refused (exit 2)."""
    monkeypatch.chdir(tmp_path)
    doc = parse_document(Path(recipe_doc_path).read_text(encoding="utf-8"))
    codes = {}
    for recipe, (flags, *_) in RECIPES.items():
        for names in itertools.product(*(sorted(getattr(doc, _SECTIONS[flag])) for flag in flags)):
            argv = [arg for flag, name in zip(flags, names) for arg in (f"--{flag}", name)]
            codes[recipe, names] = main(["construct", recipe_doc_path, "--recipe", recipe, *argv, "--out", "o.json"])
    capsys.readouterr()
    assert len(codes) == 129
    assert {key: code for key, code in codes.items() if code not in (0, 2)} == {}
    assert codes["dual-extension", ("bad",)] == 2


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


@contextlib.contextmanager
def closed_pipe():
    """A text stream over the write end of a pipe whose reader has closed:
    a flushed write raises BrokenPipeError.  Its own pipe, never fd 1 or 2,
    since `cli._write` then points the stream's fd at devnull."""
    read, write = os.pipe()
    os.close(read)
    stream = os.fdopen(write, "w", encoding="utf-8")
    try:
        yield stream
    finally:
        stream.close()


def run_fuzzed(argv: list[str], codes=(0, 1, 2)) -> None:
    """`main` on argv exits with one of the codes and never ends in a
    traceback; with stdout, then stderr, closed by its reader, it keeps that
    exit code and still prints no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    assert "Traceback" not in err.getvalue()
    stdout, stderr = contextlib.redirect_stdout, contextlib.redirect_stderr
    for redirect_closed, redirect_open in ((stdout, stderr), (stderr, stdout)):
        other = io.StringIO()
        with closed_pipe() as stream, redirect_closed(stream), redirect_open(other):
            assert main(argv) == code
        assert "Traceback" not in other.getvalue()


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
    """Every recipe with any object and map names: `construct` exits 0 or
    2, never 1 (it refuses an input that fails its hypotheses rather than
    write an output that fails its verifications), and never ends in a
    traceback."""
    out = tmp_path_factory.getbasetemp() / "construct-fuzz.json"
    run_fuzzed(["construct", recipe_doc_path, "--recipe", recipe, "--out", str(out),
                *flags(algebra=algebra, rep=rep, action=action, map=map_name, json=as_json)], codes=(0, 2))


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
    """An ambiguous subject asks for the command's own flag, counting
    candidates by object: a representation and an action of the same name
    are two, and the name picks the first that the kind takes.  A document
    with no object of the kind's type says so."""
    extra = ["--grid", "0,1"] if command == "search" else ["--map", "m"]
    doc = json.loads(Path(sample_doc_path).read_text())
    doc["maps"]["m"] = {"source": 4, "target": 4, "matrix": [[0] * 4 for _ in range(4)]}
    two = tmp_path / "two.json"
    two.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(two), "--kind", "relative-averaging", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is required: 2 candidate object(s) for kind 'relative_averaging'\n"

    d = truncated_polynomial_dendriform(2)
    same = tmp_path / "same.json"
    same_doc = Document(algebras={"d": d}, representations={"r": adjoint_representation(d)},
                        actions={"r": self_action(d)}, maps={"m": LinearMap.zero(2, 2)})
    same.write_text(serialize_document(same_doc))
    code, out, err = run(capsys, command, str(same), "--kind", "relative-averaging", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is required: 2 candidate object(s) for kind 'relative_averaging'\n"
    assert run(capsys, command, str(same), "--kind", "relative-averaging", *extra, flag, "r")[0] == 0
    assert run(capsys, command, str(same), "--kind", "homomorphic-relative", *extra, flag, "r")[0] == 0
    assert type(_resolve_subject(same_doc, "relative_averaging", "r", flag)) is Representation
    assert type(_resolve_subject(same_doc, "homomorphic_relative", "r", flag)) is Action

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
    assert err == "error: kind 'rota_baxter' needs an associative algebra\n"


def test_catalog_on_sorts_the_object_lacks(capsys, sample_doc_path):
    """A representation has no operation on V x V, which dend-action reads:
    it is refused by the type the catalog reads, before any operation is
    looked up."""
    code, out, err = run(capsys, "check", sample_doc_path, "--object", "adjoint", "--catalog", "dend-action")
    assert (code, out) == (2, "")
    assert err == "error: catalog 'dend-action' needs an action\n"


@pytest.mark.parametrize("catalog", ["dendriform", "dend-representation", "dend-action"])
def test_check_takes_the_object_its_catalog_reads(capsys, tmp_path, catalog):
    """An algebra, a representation and an action all named r: each catalog
    checks the first of that name that it reads."""
    d = truncated_polynomial_dendriform(2)
    same = tmp_path / "same.json"
    same.write_text(serialize_document(Document(
        algebras={"r": d}, representations={"r": adjoint_representation(d)}, actions={"r": self_action(d)})))
    code, out, err = run(capsys, "check", str(same), "--object", "r", "--catalog", catalog)
    assert (code, err) == (0, "")
    assert out.startswith(f"r against {catalog}:\n")


@pytest.mark.parametrize("section, kind", [("representations", "a representation"), ("actions", "an action")])
def test_check_refuses_a_module_under_an_algebra_catalog(capsys, tmp_path, section, kind):
    """dendriform reads only the sort A: on a representation or an action
    of that name it once checked the base algebra and exited 0.  Now it
    prints one error line, naming the type the catalog reads, and exits 2."""
    d = truncated_polynomial_dendriform(2)
    module = {"representations": adjoint_representation, "actions": self_action}[section](d)
    doc = tmp_path / "doc.json"
    doc.write_text(serialize_document(Document(algebras={"d": d}, **{section: {"m": module}})))
    assert run(capsys, "check", str(doc), "--object", "m", "--catalog", "dendriform") == (
        2, "", "error: catalog 'dendriform' needs a dendriform algebra\n")


# One type rule.  The type each catalog reads, and each operator kind
# through its row's catalog, is `identities.fits`; a misfit is refused with
# one line before any scan, by the library and by every command.
NEEDS = {
    "associative": "an associative algebra", "dendriform": "a dendriform algebra",
    "diassociative": "a diassociative algebra", "triassociative": "a triassociative algebra",
    "quadri": "a quadri algebra", "six": "a six algebra",
    "dend-representation": "a representation", "dend-action": "an action",
}
KIND_LINES = {
    "rota_baxter": "kind 'rota_baxter' needs an associative algebra",
    "assoc_averaging": "kind 'assoc_averaging' needs an associative algebra",
    "dend_averaging": "kind 'dend_averaging' needs a dendriform algebra",
    "relative_averaging": "kind 'relative_averaging' needs a representation",
    "homomorphic_relative": "kind 'homomorphic_relative' needs an action",
    "differential": "kind 'differential' needs a dendriform algebra",
}
CLI_KIND = {kind: alias for alias, kind in KIND_ALIASES.items()}  # differential has no alias


def type_zoo():
    """An algebra of each signature (the raw one, what a document without a
    signature gives, with the dendriform products), a representation and an
    action, by name; d is the base and target of the modules."""
    d = truncated_polynomial_dendriform(2)
    zoo = {signature: zero_algebra(2, signature) for signature in SIGNATURE_OPS}
    zoo["raw"] = Algebra(2, "raw", d.operations)
    return d, {**zoo, "representation": adjoint_representation(d), "action": self_action(d)}


@pytest.mark.parametrize("name", CATALOG_NAMES + OPERATOR_KINDS)
def test_one_type_rule(capsys, tmp_path, name):
    """Every subject of the zoo that `fits` the name's catalog is checked;
    every other is refused with the one line, by the library and by each
    command that takes the name, with no program compiled first."""
    assert set(NEEDS) == set(CATALOG_NAMES) and set(KIND_LINES) == set(OPERATOR_KINDS)
    kind = name in _KINDS
    line = KIND_LINES[name] if kind else f"catalog {name!r} needs {NEEDS[name]}"
    doc = str(tmp_path / "doc.json")
    if not kind:
        commands = [["check", doc, "--object", "o", "--catalog", name]]
    elif name in CLI_KIND:
        commands = [["check-operator", doc, "--kind", CLI_KIND[name], "--on", "o", "--map", "t"],
                    ["search", doc, "--kind", CLI_KIND[name], "--object", "o", "--grid", "0"]]
    else:
        commands = []
    d, zoo = type_zoo()
    refused = 0
    for obj in zoo.values():
        fit = fits(obj, _KINDS[name].catalog if kind else name)
        t = LinearMap.zero(*operator_map_shape(obj, name)) if kind and fit else LinearMap.zero(1, 1)
        sections = {"algebras": {"d": d}, "representations": {}, "actions": {}}
        sections[{Action: "actions", Representation: "representations"}.get(type(obj), "algebras")]["o"] = obj
        Path(doc).write_text(serialize_document(Document(maps={"t": t}, **sections)))
        calls = ([lambda: check_operator(obj, name, t), lambda: search_operators(obj, name, [0])] if kind
                 else [lambda: check(obj, name)])
        if fit:
            for call in calls:
                call()
            assert all(run(capsys, *argv)[0] != 2 for argv in commands)
            continue
        refused += 1
        with mock.patch.object(identities, "_Program", side_effect=AssertionError("a program was compiled")):
            for call in calls:
                with pytest.raises(SpecError) as exc:
                    call()
                assert str(exc.value) == line
            for argv in commands:
                assert run(capsys, *argv) == (2, "", f"error: {line}\n")
    assert refused >= len(zoo) - 2


def test_check_refuses_a_six_algebra_under_quadri(capsys, tmp_path):
    """A six algebra holds the quadri operations, and `check --catalog
    quadri` once checked them; the catalog reads a quadri algebra, so the
    six algebra is refused (its quadri part is `model.quadri_part`)."""
    six = tmp_path / "six.json"
    six.write_text(serialize_document(Document(algebras={"s": zero_algebra(2, "six")})))
    assert run(capsys, "check", str(six), "--object", "s", "--catalog", "quadri") == (
        2, "", "error: catalog 'quadri' needs a quadri algebra\n")


def test_check_refuses_an_algebra_without_a_signature(capsys, tmp_path):
    """A document algebra without "signature" is raw: no catalog reads it,
    though its products are dendriform."""
    d = truncated_polynomial_dendriform(2)
    doc = json.loads(serialize_document(Document(algebras={"d": d})))
    del doc["algebras"]["d"]["signature"]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "check", str(path), "--object", "d", "--catalog", "dendriform") == (
        2, "", "error: catalog 'dendriform' needs a dendriform algebra\n")


@pytest.mark.parametrize("recipe", ["sum-diass", "quotient-dend"])
def test_construct_writes_the_bytes_json_writes(capsys, tmp_path, recipe):
    """The file construct writes is json.dumps(json.load(f), sort_keys=True,
    indent=1) plus a newline, byte for byte, for an input whose name and
    basis labels hold a non-ASCII letter, a quote and a backslash."""
    d = truncated_polynomial_dendriform(3)
    name = 'q"\u00e9\\'
    q = Algebra(3, "quadri", {op: d.op(op.partition("_")[0]) for op in SIGNATURE_OPS["quadri"]},
                ["\u00e9", '"', "\\"])
    source, out = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(serialize_document(Document(algebras={name: q})), encoding="utf-8")
    assert run(capsys, "construct", str(source), "--recipe", recipe, "--algebra", name, "--out", str(out))[0] == 0
    for path in (source, out):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
    if recipe == "sum-diass":  # the collapse keeps the input's basis labels
        assert json.loads(out.read_text(encoding="utf-8"))["algebras"]["sum_diass"]["basis"] == ["\u00e9", '"', "\\"]


def _digits_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


# e0 e0 = a e1 under prec_vdash and prec_dashv, b e1 under succ_vdash and
# succ_dashv, every other product 0: each triple product vanishes, so this
# is a quadri algebra, and its sum collapse has e0 vdash e0 = (a + b) e1
_LONG_A, _LONG_B = "1/" + "7" * 3000, "1/" + "3" * 2999 + "1"
_LONG_QUADRI = {"dimension": 2, "signature": "quadri", "operations": {
    name: [[[0, a], [0, 0]], [[0, 0], [0, 0]]] for name, a in (
        ("prec_vdash", _LONG_A), ("prec_dashv", _LONG_A), ("succ_vdash", _LONG_B), ("succ_dashv", _LONG_B))}}


def test_construct_refuses_numbers_past_the_digit_limit(capsys, tmp_path):
    """Sums of two 3000-digit fractions have about 6000 digits, past the
    4300 digits a document is read with: construct writes no document that
    check would refuse.  It exits 2 with one error line, writes no file and
    prints nothing, and the limit stays in force."""
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"algebras": {"q": _LONG_QUADRI}}))
    assert run(capsys, "check", str(p), "--object", "q", "--catalog", "quadri")[:2] == (
        0, "q against quadri:\nchecked 152 instance(s): all passed\n")
    limit = _digits_limit()
    out_path = tmp_path / "o.json"
    code, out, err = run(capsys, "construct", str(p), "--recipe", "sum-diass", "--algebra", "q",
                         "--out", str(out_path))
    if limit is None:  # an interpreter with no bound writes it, and reads it back
        assert code == 0
        assert run(capsys, "check", str(out_path), "--object", "sum_diass", "--catalog", "diassociative")[0] == 0
        return
    assert (code, out) == (2, "")
    assert err == f"error: cannot write a scalar of over {limit} digits, more than a document is read with\n"
    assert not out_path.exists()
    assert _digits_limit() == limit


def test_construct_refuses_a_long_non_quadri_input(capsys, tmp_path):
    """The 1-dim algebra with every split product a or b fails quadri.1b:
    its sum collapse is refused before any long scalar is written, with the
    verdict in full under the error line."""
    p = tmp_path / "q.json"
    ops = {name: [[[a]]] for name, a in (
        ("prec_vdash", _LONG_A), ("prec_dashv", _LONG_A), ("succ_vdash", _LONG_B), ("succ_dashv", _LONG_B))}
    p.write_text(json.dumps({"algebras": {"q": {"dimension": 1, "signature": "quadri", "operations": ops}}}))
    limit = _digits_limit()
    out_path = tmp_path / "o.json"
    code, out, err = run(capsys, "construct", str(p), "--recipe", "sum-diass", "--algebra", "q",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    q = parse_document(p.read_text()).algebras["q"]
    with unbounded_digits():
        assert err == f"error: input is not a quadri algebra\n{check(q, 'quadri').render()}\n"
    assert "quadri.1b at (0, 0, 0)" in err
    assert not out_path.exists()
    assert _digits_limit() == limit


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors in /proc")
def test_closed_stream_leaves_no_descriptor_open():
    """In process, a write to a closed stream points its fd at devnull and
    closes the devnull it opened: a long-lived caller does not run out of
    descriptors."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with closed_pipe() as stream, contextlib.redirect_stdout(stream):
            assert main(["--help"]) == 0
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("argv, line", [
    (["check", "doc.json", "--object", "d\u00e9", "--catalog", "dendriform"], b"d\\xe9 against dendriform:"),
    (["check-operator", "doc.json", "--map", "\u222b", "--kind", "rota-baxter", "--on", "p\u00e9"], b"\\u222b:"),
    (["construct", "doc.json", "--recipe", "dual-extension", "--algebra", "d\u00e9", "--out", "d\u00e9-out.json"],
     b"dual-extension: wrote d\\xe9-out.json"),
], ids=["check", "check-operator", "construct"])
def test_unencodable_names_are_escaped(tmp_path, argv, line):
    """A name that stdout's encoding cannot hold is printed as backslash
    escapes, and the command exits with its verdict's code: an encoding
    error is not a failed check."""
    doc = Document(algebras={"d\u00e9": truncated_polynomial_dendriform(), "p\u00e9": truncated_polynomial_algebra()},
                   maps={"\u222b": integration_map()})
    (tmp_path / "doc.json").write_text(serialize_document(doc), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "splitalg.cli", *argv], capture_output=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "ascii"}, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.splitlines()[0] == line
