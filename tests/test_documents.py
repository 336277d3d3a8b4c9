import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitalg import documents
from splitalg.documents import (
    Document,
    DocumentError,
    dumps,
    parse_document,
    parse_scalar,
    scalar_to_json,
    serialize_document,
)
from splitalg.model import Algebra, BilinearOp, LinearMap, SpecError, adjoint_representation, self_action


def test_scalar_round_trip():
    assert parse_scalar(3, "$") == Fraction(3)
    assert parse_scalar("-7/2", "$") == Fraction(-7, 2)
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(Fraction(-5, 10)) == "-1/2"


@pytest.mark.parametrize("bad", [True, "1/0", "x", 1.5, None, "3.2"])
def test_scalar_rejects(bad):
    with pytest.raises(DocumentError):
        parse_scalar(bad, "$.here")


def test_zero_denominator_reports_path():
    text = json.dumps(
        {
            "algebras": {
                "x": {
                    "dimension": 1,
                    "signature": "associative",
                    "operations": {"mul": [[["1/0"]]]},
                }
            }
        }
    )
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert exc.value.path == "$.algebras.x.operations.mul[0][0][0]"


def test_full_round_trip(poly, dend, integ, adjoint):
    doc = Document(
        algebras={"poly": poly, "dend": dend},
        maps={"integrate": integ},
        representations={"adjoint": adjoint},
        actions={"self": self_action(dend)},
    )
    text = serialize_document(doc)
    doc2 = parse_document(text)
    for read, written in ((doc2.algebras["poly"], poly), (doc2.algebras["dend"], dend),
                          (doc2.actions["self"].target, dend)):
        assert (read.dimension, read.operations) == (written.dimension, written.operations)
    assert doc2.maps["integrate"] == integ
    assert doc2.representations["adjoint"].actions == adjoint.actions
    # canonical form is a fixed point
    assert serialize_document(doc2) == text


def test_serialization_is_deterministic(dend):
    doc = Document(algebras={"b": dend, "a": dend})
    assert serialize_document(doc) == serialize_document(
        Document(algebras={"a": dend, "b": dend})
    )


def test_invalid_json():
    with pytest.raises(DocumentError):
        parse_document("{not json")


def test_unknown_section():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"frobenius": {}}')
    assert exc.value.path == "$.frobenius"


def test_wrong_tensor_shape():
    text = json.dumps(
        {
            "algebras": {
                "x": {
                    "dimension": 2,
                    "signature": "associative",
                    "operations": {"mul": [[[1, 0], [0, 1]]]},
                }
            }
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


def test_signature_ops_enforced():
    text = json.dumps(
        {
            "algebras": {
                "x": {"dimension": 1, "signature": "dendriform", "operations": {}}
            }
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


def test_map_source_by_algebra_name():
    text = json.dumps(
        {
            "algebras": {
                "x": {
                    "dimension": 1,
                    "signature": "associative",
                    "operations": {"mul": [[[1]]]},
                }
            },
            "maps": {"m": {"source": "x", "target": 2, "matrix": [[1], [0]]}},
        }
    )
    doc = parse_document(text)
    assert doc.maps["m"].source_dim == 1
    assert doc.maps["m"].target_dim == 2


def test_representation_references_validated():
    text = json.dumps(
        {
            "representations": {
                "r": {"base": "missing", "module_dim": 1, "actions": {}}
            }
        }
    )
    with pytest.raises(DocumentError):
        parse_document(text)


@pytest.mark.parametrize("section, ref, message", [
    ("representations", "base", "representation base must be a dendriform algebra"),
    ("actions", "target", "action target must be a dendriform algebra"),
])
def test_module_algebras_must_be_dendriform(section, ref, message):
    """The module's own constructor refuses an algebra of another signature,
    with the module's path."""
    zero = [[[0]]]
    actions = {name: zero for name in ("prec_l", "succ_l", "prec_r", "succ_r")}
    module = {"base": "d", "target": "d", "actions": actions} if section == "actions" else {
        "base": "d", "module_dim": 1, "actions": actions}
    module[ref] = "p"
    algebras = {"d": {"dimension": 1, "signature": "dendriform", "operations": {"prec": zero, "succ": zero}},
                "p": {"dimension": 1, "signature": "associative", "operations": {"mul": zero}}}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps({"algebras": algebras, section: {"m": module}}))
    assert str(exc.value) == f"{message} at $.{section}.m"


_ZERO_DEND = {"dimension": 1, "signature": "dendriform", "operations": {"prec": [[[0]]], "succ": [[[0]]]}}
_ZERO_ACTIONS = {name: [[[0]]] for name in ("prec_l", "succ_l", "prec_r", "succ_r")}


@pytest.mark.parametrize("section, obj, key", [
    ("algebras", _ZERO_DEND, "basis_labels"),
    ("maps", {"source": 1, "target": 1, "matrix": [[1]]}, "kind"),
    ("representations", {"base": "d", "module_dim": 1, "actions": _ZERO_ACTIONS}, "target"),
    ("actions", {"base": "d", "target": "d", "actions": _ZERO_ACTIONS}, "module_dim"),
], ids=["algebra", "map", "representation", "action"])
def test_unknown_key_is_refused(section, obj, key):
    """A key an object does not read is refused with its path, as an unknown
    section is: a misspelt one would otherwise drop what it holds."""
    raw = {"algebras": {"d": _ZERO_DEND}, section: {"x": {**obj, key: 1}}}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(raw))
    assert str(exc.value) == f"unknown key at $.{section}.x.{key}"
    del raw[section]["x"][key]
    assert parse_document(json.dumps(raw))


class _Text(str):
    """A JSON text, written as it is inside an _object."""


def _object(*items) -> _Text:
    """The text of a JSON object of the (key, value) items in their order,
    a repeated key kept; a value is a _Text or a value json.dumps writes."""
    return _Text("{" + ", ".join(f"{json.dumps(k)}: {v if type(v) is _Text else json.dumps(v)}"
                                 for k, v in items) + "}")


_OPS = _ZERO_DEND["operations"]
_DEND = _object(*_ZERO_DEND.items())
_WITH_D = ("algebras", {"d": _ZERO_DEND})


def _one(section: str, name: str, obj: str) -> str:
    """A document of the algebra d and one object in a section."""
    return _object(*([_WITH_D] if section != "algebras" else []), (section, _object((name, obj))))


@pytest.mark.parametrize("text, path", [
    (_object(("algebras", {}), _WITH_D), "$.algebras"),
    (_object(("algebras", _object(("d", _DEND), ("d", _DEND)))), "$.algebras.d"),
    (_one("algebras", "a", _object(("dimension", 1), *_ZERO_DEND.items())), "$.algebras.a.dimension"),
    (_one("maps", "m", _object(("source", 1), ("target", 1), ("matrix", [[1]]), ("target", 1))), "$.maps.m.target"),
    (_one("algebras", "a", _object(("dimension", 1), ("signature", "dendriform"),
                                   ("operations", _object(("prec", [[[1]]]), *_OPS.items())))),
     "$.algebras.a.operations.prec"),
    (_one("representations", "r", _object(("base", "d"), ("module_dim", 1),
                                          ("actions", _object(*_ZERO_ACTIONS.items(), ("succ_r", [[[1]]]))))),
     "$.representations.r.actions.succ_r"),
], ids=["section", "object name", "object key", "map key", "operation", "action"])
def test_repeated_key_is_refused(text, path):
    """json keeps the last of two equal keys of an object; a document refuses
    the repeat at any level, with the path of the key, so that no object,
    key or tensor is dropped unseen."""
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == f"repeated key at {path}"


def test_cli_refuses_a_repeated_key_in_one_line(tmp_path, capsys):
    """Two algebras named d, of dimensions 1 and 2: exit 2, one error line."""
    two = {"dimension": 2, "signature": "dendriform", "operations": {name: [[[0, 0]] * 2] * 2 for name in _OPS}}
    p = tmp_path / "doc.json"
    p.write_text(_object(("algebras", _object(("d", _DEND), ("d", two)))))
    from splitalg.cli import main

    assert main(["check", str(p), "--object", "d", "--catalog", "dendriform"]) == 2
    assert capsys.readouterr() == ("", "error: repeated key at $.algebras.d\n")


def test_empty_basis_is_a_basis():
    """Only an absent "basis" means no labels: an empty one on a
    dimension-1 algebra is refused as a wrong count, and on a dimension-0
    algebra it is kept and written back."""
    one = {"dimension": 1, "signature": "associative", "operations": {"mul": [[[0]]]}, "basis": []}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps({"algebras": {"a": one}}))
    assert str(exc.value) == "basis label count does not match dimension at $.algebras.a"
    zero = {"dimension": 0, "signature": "associative", "operations": {"mul": []}, "basis": []}
    text = json.dumps({"algebras": {"a": zero}}, sort_keys=True, indent=1) + "\n"
    assert parse_document(text).algebras["a"].basis_labels == ()
    assert serialize_document(parse_document(text)) == text


def test_lookup_object(sample_doc_path):
    doc = parse_document(Path(sample_doc_path).read_text())
    assert doc.lookup_object("poly").signature == "associative"
    assert doc.lookup_object("adjoint").module_dim == 4
    with pytest.raises(DocumentError):
        doc.lookup_object("nope")


# ----------------------------------------------------------------------
# The writer: serialize_document's text is json.dumps(raw, sort_keys=True,
# indent=1) of the document's JSON value, byte for byte, with json.dumps as
# the reference.

# names and labels: non-ASCII, quotes, backslashes and control characters
NAMES = st.text(st.sampled_from('ab\u00e9\u2603"\\\n\t\x00\x1f/ ') | st.characters(), max_size=5)
# mostly zero; negative and multi-digit numerators and denominators
RATIONALS = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10 ** 25).map(lambda f: f * 10 ** 20),
                      st.integers(-10 ** 30, 10 ** 30).map(Fraction))


@st.composite
def tensors(draw, left, right, out):
    return BilinearOp(left, right, out, [[[draw(RATIONALS) for _ in range(out)] for _ in range(right)]
                                         for _ in range(left)])


@st.composite
def raw_algebras(draw, dim=None, signature="raw"):
    """Under the raw signature any operation names, none at all included;
    dimension 0 included."""
    n = draw(st.integers(0, 3)) if dim is None else dim
    names = draw(st.lists(NAMES, max_size=3, unique=True)) if signature == "raw" else ("prec", "succ")
    labels = draw(st.none() | st.lists(NAMES, min_size=n, max_size=n))
    return Algebra(n, signature, {name: draw(tensors(n, n, n)) for name in names}, labels)


@st.composite
def documents_of_every_section(draw):
    """Each section empty or not: algebras, maps, and a representation and
    an action on a dendriform algebra that the document holds."""
    algebras = draw(st.dictionaries(NAMES, raw_algebras(), max_size=3))
    maps = {}
    for name in draw(st.lists(NAMES, max_size=2, unique=True)):
        m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        maps[name] = LinearMap(m, n, [[draw(RATIONALS) for _ in range(m)] for _ in range(n)])
    representations, actions = {}, {}
    if draw(st.booleans()):
        d = draw(raw_algebras(draw(st.integers(0, 2)), "dendriform"))
        algebras[draw(NAMES)] = d
        representations = {draw(NAMES): adjoint_representation(d)}
        actions = {draw(NAMES): self_action(d)}
    return Document(algebras, maps, representations, actions)


def _reference(doc: Document) -> str:
    return json.dumps(documents._raw(doc), sort_keys=True, indent=1) + "\n"


@settings(max_examples=50, deadline=None)
@given(doc=documents_of_every_section())
@example(doc=Document())
@example(doc=Document(algebras={"": Algebra(0, "raw", {})}))
@example(doc=Document(algebras={'d\u00e9"\\\x01': Algebra(1, "raw", {"\u00e9": BilinearOp(1, 1, 1, [[[Fraction(-123456789, 1000000007)]]])},
                                                          ["\"\\\n"])}))
def test_writer_writes_the_bytes_of_json_dumps(doc):
    """serialize_document's text is json.dumps' of the document's value,
    and reading it back writes the same text."""
    text = serialize_document(doc)
    assert text == _reference(doc)
    assert serialize_document(parse_document(text)) == text


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(NAMES, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(value=JSON)
@example(value=[[0, 0], [0, True], [0, 0.0], [0, "0"]])
@example(value={"a": [], "b": {}, "c": [[]], "d": [{}]})
def test_dumps_is_json_dumps_on_any_value(value):
    """Lists and str-keyed dicts of ints and strings are written by the
    writer; bools, floats, None, tuples and int keys are handed to json, and
    a list is never taken for an equal one written otherwise (True == 1)."""
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=1)


def test_serialize_document_leaves_nothing_to_json(monkeypatch, dend, adjoint, integ):
    """A document's value is ints, strings, lists and str-keyed dicts: the
    writer takes all of it, and json's indenting encoder is not run."""
    doc = Document(algebras={"d": dend, "empty": Algebra(0, "raw", {})}, maps={"i": integ},
                   representations={"r": adjoint}, actions={"a": self_action(dend)})
    expected = _reference(doc)
    monkeypatch.setattr(documents.json, "dumps", None)
    assert serialize_document(doc) == expected


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text bound")
@pytest.mark.parametrize("value", [10 ** 5000, Fraction(1, 10 ** 5000), Fraction(10 ** 5000 + 1, 7)],
                         ids=["int", "denominator", "numerator"])
def test_writer_refuses_a_scalar_past_the_digit_bound(value):
    """json.dumps refuses the document's value with a ValueError, and
    serialize_document with a SpecError naming the bound."""
    limit = sys.get_int_max_str_digits()
    for doc in (Document(algebras={"a": Algebra(1, "raw", {"mul": BilinearOp(1, 1, 1, [[[value]]])})}),
                Document(maps={"m": LinearMap(1, 1, [[value]])})):
        with pytest.raises(ValueError):
            _reference(doc)
        with pytest.raises(SpecError, match=f"cannot write a scalar of over {limit} digits"):
            serialize_document(doc)
    with pytest.raises(ValueError):
        dumps([[0, 10 ** 5000]])


# (message, document): each refusal of the reader that no other test
# reaches, with its path
_REFUSED = {
    "expected 1 columns at $.algebras.a.operations.prec[0]":
        {"algebras": {"a": {"dimension": 1, "operations": {"prec": [[]]}}}},
    "basis labels must be strings at $.algebras.a.basis": {"algebras": {"a": {"dimension": 1, "basis": [1]}}},
    "operations must be an object at $.algebras.a.operations":
        {"algebras": {"a": {"dimension": 1, "operations": []}}},
    "dimension must be non-negative at $.maps.m.source": {"maps": {"m": {"source": -1, "target": 1, "matrix": [[]]}}},
    "unknown algebra 'nope' at $.maps.m.source": {"maps": {"m": {"source": "nope", "target": 1, "matrix": [[]]}}},
    "expected 2 rows at $.maps.m.matrix": {"maps": {"m": {"source": 1, "target": 2, "matrix": [[0]]}}},
    "module_dim must be a non-negative integer at $.representations.r.module_dim":
        {"algebras": {"d": _ZERO_DEND}, "representations": {"r": {"base": "d", "module_dim": -1, "actions": {}}}},
    "top level must be an object at $": [],
}


@pytest.mark.parametrize("message, raw", _REFUSED.items(), ids=list(_REFUSED))
def test_reader_refusals_name_their_path(message, raw, tmp_path, capsys):
    """parse_document refuses each with its path; the CLI prints that as
    one error line and exits 2, with no traceback."""
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(raw))
    assert str(exc.value) == message
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    from splitalg.cli import main

    assert main(["check", str(p), "--object", "a", "--catalog", "dendriform"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_writer_refuses_a_module_whose_algebra_it_does_not_hold(dend, adjoint):
    """A document holds the algebras its modules name: without its base, a
    representation cannot be written."""
    with pytest.raises(SpecError) as exc:
        serialize_document(Document(representations={"r": adjoint}))
    assert str(exc.value) == "representation 'r' references an algebra not in the document"
    assert serialize_document(Document(algebras={"d": dend}, representations={"r": adjoint}))
