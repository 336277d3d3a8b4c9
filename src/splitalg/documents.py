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
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from .model import (
    ACTION_SORTS,
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

    def lookup_object(self, name: str, fits=lambda obj: True):
        """The first object of this name that fits, in the order algebras,
        representations, actions; if none fits, the first of this name."""
        found = [section[name] for section in (self.algebras, self.representations, self.actions) if name in section]
        if not found:
            raise DocumentError(f"$.{name}", "no algebra, representation or action with this name")
        return next((obj for obj in found if fits(obj)), found[0])


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def parse_scalar(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # zero denominator, too many digits
            pass
    raise DocumentError(path, f"invalid rational {short_repr(value)}")


def short_repr(value) -> str:
    """repr(value), cut to a prefix and the length when it is over 40
    characters, so that an error message stays one short line."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:32]}... ({len(str(value))} characters)"


@contextmanager
def unbounded_digits():
    """Ints convert to text in full inside the block.  Python refuses to
    convert one of more than 4300 digits (sys.get_int_max_str_digits), and
    documents keep that bound, read and written, but the reports of computed
    values print them in full; the limit is restored on leaving."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def scalar_to_json(f: Fraction):
    n, d = f.numerator, f.denominator
    return n if d == 1 else f"{n}/{d}"


def _scalars(raw: list, tokens: dict, path: str, *index: int) -> tuple[Fraction, ...]:
    """The entries of the list raw, found at path[index]..., as Fractions.
    Each distinct int or string token is parsed once per document (tokens
    maps it to its Fraction), and an entry's path is built only for a new
    token, the only kind that can be refused."""
    out = []
    for k, e in enumerate(raw):
        # a bool or a float may equal a cached int, so neither is looked up
        f = tokens.get(e) if type(e) is int or type(e) is str else None
        if f is None:
            f = tokens[e] = parse_scalar(e, path + "".join(f"[{i}]" for i in (*index, k)))
        out.append(f)
    return tuple(out)


def _parse_tensor(raw, left, right, out, path: str, tokens: dict) -> BilinearOp:
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
            out_row.append(_scalars(vec, tokens, path, i, j))
        coeffs.append(out_row)
    return BilinearOp(left, right, out, coeffs)


def _tensor_to_json(op: BilinearOp):
    # most entries are zero: the test spares them the conversion
    return [[[scalar_to_json(e) if e else 0 for e in vec] for vec in row] for row in op.coeffs]


class _Repeats(dict):
    """A JSON object that repeats its key `repeated`, of which json keeps the last value."""


def _object(pairs: list) -> dict:
    """json's object hook: the object, a _Repeats if it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeats(obj)
        obj.repeated = next(key for n, key in enumerate(keys) if key in keys[:n])
    return obj


def _known_keys(raw: dict, path: str, *keys: str) -> None:
    """Refuse a key of the object raw, found at path, that it repeats, or,
    when keys are given, that is not one of them."""
    if type(raw) is _Repeats:
        raise DocumentError(f"{path}.{raw.repeated}", "repeated key")
    for key in raw if keys else ():
        if key not in keys:
            raise DocumentError(f"{path}.{key}", "unknown key")


def _parse_algebra(name: str, raw, path: str, tokens: dict) -> Algebra:
    if not isinstance(raw, dict):
        raise DocumentError(path, "algebra must be an object")
    _known_keys(raw, path, "dimension", "signature", "basis", "operations")
    dim = raw.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{path}.dimension", "dimension must be a non-negative integer")
    signature = raw.get("signature", "raw")
    if not isinstance(signature, str) or signature not in SIGNATURE_OPS:
        raise DocumentError(f"{path}.signature", f"unknown signature {signature!r}")
    basis = raw.get("basis")
    if basis is not None and (
        not isinstance(basis, list) or not all(isinstance(b, str) for b in basis)
    ):
        raise DocumentError(f"{path}.basis", "basis labels must be strings")
    raw_ops = raw.get("operations", {})
    if not isinstance(raw_ops, dict):
        raise DocumentError(f"{path}.operations", "operations must be an object")
    _known_keys(raw_ops, f"{path}.operations")
    ops = {
        opname: _parse_tensor(t, dim, dim, dim, f"{path}.operations.{opname}", tokens)
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


def _parse_map(raw, algebras, path: str, tokens: dict) -> LinearMap:
    if not isinstance(raw, dict):
        raise DocumentError(path, "map must be an object")
    _known_keys(raw, path, "source", "target", "matrix")
    source = _resolve_dim(raw.get("source"), algebras, f"{path}.source")
    target = _resolve_dim(raw.get("target"), algebras, f"{path}.target")
    matrix = raw.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != target:
        raise DocumentError(f"{path}.matrix", f"expected {target} rows")
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != source:
            raise DocumentError(f"{path}.matrix[{i}]", f"expected {source} entries")
        rows.append(_scalars(row, tokens, f"{path}.matrix", i))
    return LinearMap(source, target, rows)


def _require_algebra(ref, algebras, path: str) -> Algebra:
    if not isinstance(ref, str) or ref not in algebras:
        raise DocumentError(path, f"unknown algebra {ref!r}")
    return algebras[ref]


# section -> (class, the key beside "base" that gives the module): a
# representation names its module's dimension, an action its target algebra
_MODULES = {"representations": (Representation, "module_dim"), "actions": (Action, "target")}


def _parse_module(section: str, raw, path: str, algebras, tokens: dict):
    cls, key = _MODULES[section]
    if not isinstance(raw, dict):
        raise DocumentError(path, f"{section[:-1]} must be an object")
    _known_keys(raw, path, "base", key, "actions")
    base = _require_algebra(raw.get("base"), algebras, f"{path}.base")
    if key == "target":
        module = _require_algebra(raw.get(key), algebras, f"{path}.{key}")
        m = module.dimension
    else:
        module = m = raw.get(key)
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise DocumentError(f"{path}.{key}", f"{key} must be a non-negative integer")
    tensors = raw.get("actions")
    if not isinstance(tensors, dict) or set(tensors) != set(ACTION_SORTS):
        raise DocumentError(f"{path}.actions", f"expected exactly the action tensors {', '.join(ACTION_SORTS)}")
    _known_keys(tensors, f"{path}.actions")
    dims = {"A": base.dimension, "V": m}
    tensors = {name: _parse_tensor(tensors[name], *(dims[s] for s in sorts), f"{path}.actions.{name}", tokens)
               for name, sorts in ACTION_SORTS.items()}
    try:
        return cls(base, module, tensors)
    except SpecError as e:
        raise DocumentError(path, str(e)) from None


def parse_document(text: str) -> Document:
    """Parse and fully validate a document; raises DocumentError with a
    path into the JSON on any malformed content."""
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as e:  # also too many digits, too deep
        raise DocumentError("$", f"invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise DocumentError("$", "top level must be an object")
    _known_keys(raw, "$")
    known = {"algebras", "maps", "representations", "actions"}
    for key, section in raw.items():
        if key not in known:
            raise DocumentError(f"$.{key}", "unknown top-level section")
        if not isinstance(section, dict):
            raise DocumentError(f"$.{key}", "section must be an object")
        _known_keys(section, f"$.{key}")
    tokens: dict = {}  # scalar token -> Fraction, shared by the whole document
    algebras = {
        name: _parse_algebra(name, a, f"$.algebras.{name}", tokens)
        for name, a in raw.get("algebras", {}).items()
    }
    maps = {
        name: _parse_map(m, algebras, f"$.maps.{name}", tokens)
        for name, m in raw.get("maps", {}).items()
    }
    modules = {
        section: {
            name: _parse_module(section, r, f"$.{section}.{name}", algebras, tokens)
            for name, r in raw.get(section, {}).items()
        }
        for section in _MODULES
    }
    return Document(algebras, maps, **modules)


def _algebra_to_json(a: Algebra):
    out: dict[str, Any] = {
        "dimension": a.dimension,
        "signature": a.signature,
        "operations": {name: _tensor_to_json(op) for name, op in a.operations.items()},
    }
    if a.basis_labels is not None:
        out["basis"] = list(a.basis_labels)
    return out


def _module_to_json(section: str, name: str, obj, names: Mapping[int, str]):
    """A representation or action, its algebras given by name: names maps
    the id of each algebra of the document to its first name."""
    key = _MODULES[section][1]
    refs = (obj.base, obj.target) if key == "target" else (obj.base,)
    if any(id(a) not in names for a in refs):
        raise SpecError(f"{section[:-1]} {name!r} references an algebra not in the document")
    return {
        "base": names[id(obj.base)],
        key: names[id(obj.target)] if key == "target" else obj.module_dim,
        "actions": {k: _tensor_to_json(op) for k, op in obj.actions.items()},
    }


def serialize_document(doc: Document) -> str:
    """Deterministic canonical text for a document (sorted keys, reduced
    rationals, trailing newline): json.dumps(raw, sort_keys=True, indent=1)
    of its JSON value, written by dumps.  A scalar past the interpreter's
    int-to-text bound, which parse_document keeps too, is refused with a
    SpecError, so a document is written only if it can be read back."""
    try:
        return dumps(_raw(doc)) + "\n"
    except SpecError:
        raise
    except ValueError:  # an int past the bound
        raise SpecError(f"cannot write a scalar of over {sys.get_int_max_str_digits()} digits, "
                        "more than a document is read with") from None


def dumps(value) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=1), byte for
    byte.  With an indent, json runs its pure-Python encoder; this joins the
    same text from json's own ASCII string escaper, int.__repr__ (so an int
    past the int-to-text bound raises the same ValueError) and keys sorted
    as json sorts them, and writes each distinct list of ints and strings
    once per depth.  Any other value, or a dict with a key that is not a
    str, is left to json.dumps, indented to its depth."""
    return _dumps(value, "\n", {})


def _dumps(value, indent: str, lists: dict) -> str:
    """value at the depth of indent, a newline and one space per level;
    lists maps (indent, *items) to the text of a list of ints and strings."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if (kind is list or kind is dict) and not value:
        return "[]" if kind is list else "{}"
    inner = indent + " "
    if kind is list:
        # keyed by its items: only ints and strs, since True == 1 == 1.0 are written apart
        if set(map(type, value)) <= {int, str}:
            key = (indent, *value)
            text = lists.get(key)
            if text is None:
                items = [int.__repr__(v) if type(v) is int else encode_basestring_ascii(v) for v in value]
                text = lists[key] = "[" + inner + ("," + inner).join(items) + indent + "]"
            return text
        return "[" + inner + ("," + inner).join([_dumps(v, inner, lists) for v in value]) + indent + "]"
    if kind is dict and all(type(k) is str for k in value):
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner, lists) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    # ensure_ascii escapes every newline inside a string, so each "\n" is a line break
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", indent)


def _raw(doc: Document) -> dict:
    """The document as the JSON value serialize_document writes."""
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
    names: dict[int, str] = {}
    for n, a in doc.algebras.items():
        names.setdefault(id(a), n)
    for section in _MODULES:
        objs = getattr(doc, section)
        if objs:
            raw[section] = {n: _module_to_json(section, n, obj, names) for n, obj in objs.items()}
    return raw
