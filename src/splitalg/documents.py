"""JSON document format for algebras, maps, representations and actions.

Top level:
    {"algebras": {...}, "maps": {...}, "representations": {...}, "actions": {...}}

Scalars are JSON integers or strings "p/q".  Canonical serialization sorts
all keys, reduces rationals to positive denominators and emits integers
unquoted, so serialization is deterministic byte-for-byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .model import (
    ACTION_OPS,
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SIGNATURE_OPS,
    SpecError,
)


class DocumentError(ValueError):
    """Malformed document; carries a path into the JSON structure."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{message} at {path}")


class Document:
    def __init__(
        self,
        algebras: Mapping[str, Algebra] | None = None,
        maps: Mapping[str, LinearMap] | None = None,
        representations: Mapping[str, Representation] | None = None,
        actions: Mapping[str, Action] | None = None,
    ):
        self.algebras = dict(algebras or {})
        self.maps = dict(maps or {})
        self.representations = dict(representations or {})
        self.actions = dict(actions or {})

    def lookup_object(self, name: str):
        for section in (self.algebras, self.representations, self.actions):
            if name in section:
                return section[name]
        raise DocumentError(f"$.{name}", "no algebra, representation or action with this name")


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def parse_scalar(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(path, f"invalid rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise DocumentError(path, f"invalid rational {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # zero denominator, too many digits
            raise DocumentError(path, f"invalid rational {value!r}") from None
    raise DocumentError(path, f"invalid rational {value!r}")


def scalar_to_json(f: Fraction):
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _parse_tensor(raw, left, right, out, path: str) -> BilinearOp:
    if not isinstance(raw, list) or len(raw) != left:
        raise DocumentError(path, f"expected {left} rows of structure constants")
    coeffs = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != right:
            raise DocumentError(f"{path}[{i}]", f"expected {right} columns")
        out_row = []
        for j, vec in enumerate(row):
            if not isinstance(vec, list) or len(vec) != out:
                raise DocumentError(
                    f"{path}[{i}][{j}]", f"expected a vector of length {out}"
                )
            out_row.append(
                [parse_scalar(e, f"{path}[{i}][{j}][{k}]") for k, e in enumerate(vec)]
            )
        coeffs.append(out_row)
    return BilinearOp(left, right, out, coeffs)


def _tensor_to_json(op: BilinearOp):
    return [
        [[scalar_to_json(e) for e in vec] for vec in row] for row in op.coeffs
    ]


def _parse_algebra(name: str, raw, path: str) -> Algebra:
    if not isinstance(raw, dict):
        raise DocumentError(path, "algebra must be an object")
    dim = raw.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{path}.dimension", "dimension must be a non-negative integer")
    signature = raw.get("signature", "raw")
    if signature not in SIGNATURE_OPS:
        raise DocumentError(f"{path}.signature", f"unknown signature {signature!r}")
    basis = raw.get("basis")
    if basis is not None and (
        not isinstance(basis, list) or not all(isinstance(b, str) for b in basis)
    ):
        raise DocumentError(f"{path}.basis", "basis labels must be strings")
    raw_ops = raw.get("operations", {})
    if not isinstance(raw_ops, dict):
        raise DocumentError(f"{path}.operations", "operations must be an object")
    ops = {
        opname: _parse_tensor(t, dim, dim, dim, f"{path}.operations.{opname}")
        for opname, t in raw_ops.items()
    }
    try:
        return Algebra(dim, signature, ops, basis)
    except SpecError as e:
        raise DocumentError(path, str(e)) from None


def _resolve_dim(ref, algebras: Mapping[str, Algebra], path: str) -> int:
    if isinstance(ref, int) and not isinstance(ref, bool):
        if ref < 0:
            raise DocumentError(path, "dimension must be non-negative")
        return ref
    if isinstance(ref, str):
        if ref not in algebras:
            raise DocumentError(path, f"unknown algebra {ref!r}")
        return algebras[ref].dimension
    raise DocumentError(path, "expected an algebra name or a dimension")


def _parse_map(raw, algebras, path: str) -> LinearMap:
    if not isinstance(raw, dict):
        raise DocumentError(path, "map must be an object")
    source = _resolve_dim(raw.get("source"), algebras, f"{path}.source")
    target = _resolve_dim(raw.get("target"), algebras, f"{path}.target")
    matrix = raw.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != target:
        raise DocumentError(f"{path}.matrix", f"expected {target} rows")
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != source:
            raise DocumentError(f"{path}.matrix[{i}]", f"expected {source} entries")
        rows.append([parse_scalar(e, f"{path}.matrix[{i}][{j}]") for j, e in enumerate(row)])
    return LinearMap(source, target, rows)


def _parse_action_tensors(raw, n: int, m: int, path: str) -> dict[str, BilinearOp]:
    if not isinstance(raw, dict) or set(raw) != set(ACTION_OPS):
        raise DocumentError(
            path, f"expected exactly the action tensors {', '.join(ACTION_OPS)}"
        )
    shapes = {
        "prec_l": (n, m, m),
        "succ_l": (n, m, m),
        "prec_r": (m, n, m),
        "succ_r": (m, n, m),
    }
    return {
        name: _parse_tensor(raw[name], *shapes[name], f"{path}.{name}")
        for name in ACTION_OPS
    }


def _require_algebra(ref, algebras, path: str, signature: str | None = None) -> Algebra:
    if not isinstance(ref, str) or ref not in algebras:
        raise DocumentError(path, f"unknown algebra {ref!r}")
    alg = algebras[ref]
    if signature and alg.signature != signature:
        raise DocumentError(path, f"algebra {ref!r} must have signature {signature!r}")
    return alg


def parse_document(text: str) -> Document:
    """Parse and fully validate a document; raises DocumentError with a
    path into the JSON on any malformed content."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too many digits, too deep
        raise DocumentError("$", f"invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise DocumentError("$", "top level must be an object")
    known = {"algebras", "maps", "representations", "actions"}
    for key, section in raw.items():
        if key not in known:
            raise DocumentError(f"$.{key}", "unknown top-level section")
        if not isinstance(section, dict):
            raise DocumentError(f"$.{key}", "section must be an object")
    algebras = {
        name: _parse_algebra(name, a, f"$.algebras.{name}")
        for name, a in raw.get("algebras", {}).items()
    }
    maps = {
        name: _parse_map(m, algebras, f"$.maps.{name}")
        for name, m in raw.get("maps", {}).items()
    }
    representations = {}
    for name, r in raw.get("representations", {}).items():
        path = f"$.representations.{name}"
        if not isinstance(r, dict):
            raise DocumentError(path, "representation must be an object")
        base = _require_algebra(r.get("base"), algebras, f"{path}.base", "dendriform")
        mdim = r.get("module_dim")
        if not isinstance(mdim, int) or isinstance(mdim, bool) or mdim < 0:
            raise DocumentError(f"{path}.module_dim", "module_dim must be a non-negative integer")
        actions = _parse_action_tensors(
            r.get("actions"), base.dimension, mdim, f"{path}.actions"
        )
        try:
            representations[name] = Representation(base, mdim, actions)
        except SpecError as e:
            raise DocumentError(path, str(e)) from None
    actions = {}
    for name, a in raw.get("actions", {}).items():
        path = f"$.actions.{name}"
        if not isinstance(a, dict):
            raise DocumentError(path, "action must be an object")
        base = _require_algebra(a.get("base"), algebras, f"{path}.base", "dendriform")
        target = _require_algebra(a.get("target"), algebras, f"{path}.target", "dendriform")
        tensors = _parse_action_tensors(
            a.get("actions"), base.dimension, target.dimension, f"{path}.actions"
        )
        try:
            actions[name] = Action(base, target, tensors)
        except SpecError as e:
            raise DocumentError(path, str(e)) from None
    return Document(algebras, maps, representations, actions)


def _algebra_to_json(a: Algebra):
    out: dict[str, Any] = {
        "dimension": a.dimension,
        "signature": a.signature,
        "operations": {name: _tensor_to_json(op) for name, op in a.operations.items()},
    }
    if a.basis_labels is not None:
        out["basis"] = list(a.basis_labels)
    return out


def _find_algebra_name(alg: Algebra, algebras: Mapping[str, Algebra]) -> str | None:
    for name, a in algebras.items():
        if a is alg:
            return name
    return None


def serialize_document(doc: Document) -> str:
    """Deterministic canonical text for a document (sorted keys, reduced
    rationals, trailing newline)."""
    raw: dict[str, Any] = {}
    if doc.algebras:
        raw["algebras"] = {n: _algebra_to_json(a) for n, a in doc.algebras.items()}
    if doc.maps:
        raw["maps"] = {
            n: {
                "source": m.source_dim,
                "target": m.target_dim,
                "matrix": [[scalar_to_json(e) for e in row] for row in m.matrix],
            }
            for n, m in doc.maps.items()
        }
    if doc.representations:
        raw["representations"] = {}
        for n, r in doc.representations.items():
            base_name = _find_algebra_name(r.base, doc.algebras)
            if base_name is None:
                raise SpecError(
                    f"representation {n!r} references an algebra not in the document"
                )
            raw["representations"][n] = {
                "base": base_name,
                "module_dim": r.module_dim,
                "actions": {k: _tensor_to_json(op) for k, op in r.actions.items()},
            }
    if doc.actions:
        raw["actions"] = {}
        for n, a in doc.actions.items():
            base_name = _find_algebra_name(a.base, doc.algebras)
            target_name = _find_algebra_name(a.target, doc.algebras)
            if base_name is None or target_name is None:
                raise SpecError(
                    f"action {n!r} references an algebra not in the document"
                )
            raw["actions"][n] = {
                "base": base_name,
                "target": target_name,
                "actions": {k: _tensor_to_json(op) for k, op in a.actions.items()},
            }
    return json.dumps(raw, sort_keys=True, indent=1) + "\n"
