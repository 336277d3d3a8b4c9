import json
from fractions import Fraction
from pathlib import Path

import pytest

from splitalg.documents import (
    Document,
    DocumentError,
    parse_document,
    parse_scalar,
    scalar_to_json,
    serialize_document,
)
from splitalg.model import self_action


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


def test_lookup_object(sample_doc_path):
    doc = parse_document(Path(sample_doc_path).read_text())
    assert doc.lookup_object("poly").signature == "associative"
    assert doc.lookup_object("adjoint").module_dim == 4
    with pytest.raises(DocumentError):
        doc.lookup_object("nope")
