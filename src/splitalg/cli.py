"""Command-line front end: check identities and operators, run the
constructions, search for operators on small grids.

Exit codes: 0 all checks passed, 1 violations found, 2 input/usage error.
All output is deterministic; repeated runs on the same input are
byte-identical.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import re
import sys

# `check` needs only these; each other command imports what it uses
from .documents import (
    Document,
    DocumentError,
    parse_document,
    parse_scalar,
    scalar_to_json,
    serialize_document,
    short_repr,
    unbounded_digits,
)
from .identities import CATALOG_NAMES, QUADRI_TO_DENDRIFORM_COLLAPSE, ViolationReport, check
from .model import Action, Algebra, LinearMap, Representation, SpecError

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

KIND_ALIASES = {
    "rota-baxter": "rota_baxter",
    "assoc-averaging": "assoc_averaging",
    "averaging": "dend_averaging",
    "dend-averaging": "dend_averaging",
    "relative-averaging": "relative_averaging",
    "homomorphic-relative": "homomorphic_relative",
}


class UsageError(Exception):
    pass


def _load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    return parse_document(text)


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_check(args) -> int:
    doc = _load_document(args.file)
    obj = doc.lookup_object(args.object)
    report = check(obj, args.catalog, paranoid=args.paranoid)
    with unbounded_digits():
        _emit(
            args,
            {"object": args.object, "catalog": args.catalog, **report.to_dict()},
            f"{args.object} against {args.catalog}:\n{report.render()}",
        )
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _resolve_subject(doc: Document, kind: str, name: str | None, flag: str):
    """The object named by the command's flag, or else the document's one
    object of the kind's type."""
    wanted = {
        "rota_baxter": ("associative", doc.algebras),
        "assoc_averaging": ("associative", doc.algebras),
        "dend_averaging": ("dendriform", doc.algebras),
        "relative_averaging": (None, {**doc.representations, **doc.actions}),
        "homomorphic_relative": (None, doc.actions),
    }[kind]
    signature, section = wanted
    if name is not None:
        obj = doc.lookup_object(name)
        if signature and (not isinstance(obj, Algebra) or obj.signature != signature):
            raise UsageError(f"{name!r} is not an algebra of signature {signature!r}")
        return obj
    candidates = {
        n: o
        for n, o in section.items()
        if signature is None or (isinstance(o, Algebra) and o.signature == signature)
    }
    if not candidates:
        raise UsageError(f"the document has no object for kind {kind!r}")
    if len(candidates) > 1:
        raise UsageError(
            f"{flag} is required: {len(candidates)} candidate object(s) for kind {kind!r}"
        )
    return next(iter(candidates.values()))


def _kind(raw: str) -> str:
    try:
        return KIND_ALIASES[raw]
    except KeyError:
        raise UsageError(
            f"unknown kind {raw!r}; known: {', '.join(sorted(KIND_ALIASES))}"
        ) from None


def cmd_check_operator(args) -> int:
    from .operators import check_operator

    doc = _load_document(args.file)
    kind = _kind(args.kind)
    if args.map not in doc.maps:
        raise UsageError(f"no map named {args.map!r}")
    subject = _resolve_subject(doc, kind, args.on, "--on")
    verdict = check_operator(subject, kind, doc.maps[args.map])
    with unbounded_digits():
        _emit(
            args,
            {"map": args.map, **verdict.to_dict()},
            f"{args.map}:\n{verdict.render()}",
        )
    return EXIT_OK if verdict.ok else EXIT_VIOLATIONS


def _construction(name: str):
    """The construction `name`, imported only when a recipe runs."""
    from . import constructions

    return getattr(constructions, name)


def _verified(name: str):
    """A product builder: it checks its input unless --no-verify is given."""
    return lambda obj, verify: (_construction(name)(obj, verify=verify),)


def _single(name: str):
    """A builder with one output."""
    return lambda *objects, verify: (_construction(name)(*objects),)


def _dual_extension(d, verify):
    action, projection = _construction("dual_extension")(d)
    return action.base, action.target, projection, action


def _quotient_dend(a, verify):
    from .quotients import quotient_algebra, splitting_ideal

    return quotient_algebra(
        a, splitting_ideal(a), QUADRI_TO_DENDRIFORM_COLLAPSE, signature="dendriform"
    )


def _embed_averaging(q, verify):
    from .quotients import embed_averaging

    return embed_averaging(q)


def _quadri_to_relative(q, verify):
    from .quotients import quadri_to_relative_setup

    representation, projection = quadri_to_relative_setup(q)
    return representation.base, representation, projection


def _six_to_homomorphic(s, verify):
    from .quotients import six_to_homomorphic_setup

    action, projection = six_to_homomorphic_setup(s)
    return action.base, action.target, action, projection


# recipe -> (object flags, builder, output names, verifications).  The
# builder takes the flagged objects and the verify flag and returns the
# outputs in order, importing its construction when it runs; a
# verification (label, catalog or operator kind, output checked, output map
# or None) re-checks the outputs.
RECIPES = {
    "semidirect": (("rep",), _verified("semidirect"), ("semidirect",), [
        ("semidirect:dendriform", "dendriform", "semidirect", None)]),
    "hemisemidirect": (("rep",), _verified("hemisemidirect"), ("hemisemidirect",), [
        ("hemisemidirect:quadri", "quadri", "hemisemidirect", None)]),
    "action-semidirect": (("action",), _verified("action_semidirect"), ("action_semidirect",), [
        ("action_semidirect:dendriform", "dendriform", "action_semidirect", None)]),
    "aguiar-dendriform": (("algebra", "map"), _single("aguiar_dendriform"), ("dendriform",), [
        ("dendriform", "dendriform", "dendriform", None)]),
    "aguiar-diass": (("algebra", "map"), _single("aguiar_diassociative"), ("diassociative",), [
        ("diassociative", "diassociative", "diassociative", None)]),
    "induced-quadri": (("rep", "map"), _single("induced_quadri"), ("induced_quadri",), [
        ("induced_quadri:quadri", "quadri", "induced_quadri", None)]),
    "induced-six": (("action", "map"), _single("induced_six"), ("induced_six",), [
        ("induced_six:six", "six", "induced_six", None)]),
    "differential-quadri": (("algebra", "map"), _single("differential_quadri"), ("differential_quadri",), [
        ("differential_quadri:quadri", "quadri", "differential_quadri", None)]),
    "dual-extension": (("algebra",), _dual_extension, ("base", "extension", "projection", "dual_extension"), [
        ("dual_extension:dend-action", "dend-action", "dual_extension", None),
        ("projection:homomorphic_relative", "homomorphic_relative", "dual_extension", "projection")]),
    "sum-diass": (("algebra",), _single("sum_collapse_quadri"), ("sum_diass",), [
        ("sum_diass:diassociative", "diassociative", "sum_diass", None)]),
    "sum-triass": (("algebra",), _single("sum_collapse_six"), ("sum_triass",), [
        ("sum_triass:triassociative", "triassociative", "sum_triass", None)]),
    "quotient-dend": (("algebra",), _quotient_dend, ("quotient", "quotient_map"), [
        ("quotient:dendriform", "dendriform", "quotient", None)]),
    "embed-averaging": (("algebra",), _embed_averaging,
                        ("ambient", "averaging", "inclusion"), [
        ("ambient:dendriform", "dendriform", "ambient", None),
        ("averaging:dend_averaging", "dend_averaging", "ambient", "averaging")]),
    "quadri-to-relative": (("algebra",), _quadri_to_relative,
                           ("quotient", "representation", "quotient_map"), [
        ("representation:dend-representation", "dend-representation", "representation", None),
        ("quotient_map:relative_averaging", "relative_averaging", "representation", "quotient_map")]),
    "six-to-homomorphic": (("algebra",), _six_to_homomorphic,
                           ("quotient", "perp", "action", "quotient_map"), [
        ("action:dend-action", "dend-action", "action", None),
        ("quotient_map:homomorphic_relative", "homomorphic_relative", "action", "quotient_map")]),
}
# where each object flag's name is looked up, and where each output goes
_SECTIONS = {"algebra": "algebras", "rep": "representations", "action": "actions", "map": "maps"}
_OUTPUT_SECTIONS = {
    Algebra: "algebras", LinearMap: "maps", Representation: "representations", Action: "actions"
}


def _run_recipe(args, doc: Document) -> tuple[Document, list[tuple[str, ViolationReport]]]:
    """Returns (output document, [(label, report), ...]); no reports when
    verification is skipped."""
    from .operators import check_operator

    flags, build, names, verifications = RECIPES[args.recipe]
    objects = []
    for flag in flags:
        name, section = getattr(args, flag), getattr(doc, _SECTIONS[flag])
        if name is None:
            raise UsageError(f"recipe requires --{flag}")
        if name not in section:
            raise UsageError(f"no {flag} named {name!r}")
        objects.append(section[name])
    verify = not args.no_verify
    outputs = dict(zip(names, build(*objects, verify=verify)))
    sections: dict[str, dict] = {}
    for name, obj in outputs.items():
        sections.setdefault(_OUTPUT_SECTIONS[type(obj)], {})[name] = obj
    checks = []
    for label, what, subject, map_name in verifications if verify else ():
        if map_name is None:
            checks.append((label, check(outputs[subject], what)))
        else:
            checks.append((label, check_operator(outputs[subject], what, outputs[map_name])))
    return Document(**sections), checks


def cmd_construct(args) -> int:
    doc = _load_document(args.file)
    out_doc, checks = _run_recipe(args, doc)
    with unbounded_digits():
        text = serialize_document(out_doc)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        payload = {
            "recipe": args.recipe,
            "out": args.out,
            "verifications": [
                {"label": label, **item.to_dict()} for label, item in checks
            ],
        }
        lines = [f"{args.recipe}: wrote {args.out}"]
        for label, item in checks:
            lines.append(f"[{label}] {item.render()}")
        if not checks:
            lines.append("(verification skipped)")
        _emit(args, payload, "\n".join(lines))
    return EXIT_OK if all(item.ok for _, item in checks) else EXIT_VIOLATIONS


def _parse_grid(raw: str) -> list:
    grid = []
    for part in raw.split(","):
        part = part.strip()
        try:
            grid.append(parse_scalar(part, "--grid"))
        except DocumentError:
            raise UsageError(f"invalid rational {short_repr(part)} in grid") from None
    if not grid:
        raise UsageError("empty grid")
    return grid


def cmd_search(args) -> int:
    from .operators import DEFAULT_SEARCH_CAP, operator_map_shape, search_operators

    doc = _load_document(args.file)
    kind = _kind(args.kind)
    subject = _resolve_subject(doc, kind, args.object, "--object")
    grid = _parse_grid(args.grid)
    cap = DEFAULT_SEARCH_CAP if args.cap is None else args.cap
    maps = search_operators(subject, kind, grid, cap=cap)
    source_dim, target_dim = operator_map_shape(subject, kind)
    rendered = [
        [[scalar_to_json(e) for e in row] for row in m.matrix] for m in maps
    ]
    payload = {
        "kind": kind,
        "count": len(maps),
        "shape": [target_dim, source_dim],
        "matrices": rendered,
    }
    lines = [f"{len(maps)} passing map(s) of shape {target_dim}x{source_dim}"]
    for m in rendered:
        lines.append(json.dumps(m))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitalg",
        description="Exact verification and construction for split-operation algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an object against an identity catalog")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--catalog", required=True, choices=CATALOG_NAMES)
    p.add_argument("--paranoid", action="store_true",
                   help="also check the mathematically redundant chain pairs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("check-operator", help="check an operator property of a map")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--on", help="object the operator lives on (if ambiguous)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_operator)

    p = sub.add_parser("construct", help="run a construction and write the result")
    p.add_argument("file")
    p.add_argument("--recipe", required=True, choices=tuple(RECIPES))
    p.add_argument("--out", required=True)
    p.add_argument("--algebra")
    p.add_argument("--rep")
    p.add_argument("--action")
    p.add_argument("--map")
    p.add_argument("--no-verify", action="store_true",
                   help="skip re-verification of the constructed objects")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="enumerate operators over a finite grid")
    p.add_argument("file")
    p.add_argument("--object", help="object to search on (if ambiguous)")
    p.add_argument("--kind", required=True)
    p.add_argument("--grid", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    return parser


def _attach_grid(argv: list[str]) -> list[str]:
    """`--grid -1,0,1` as `--grid=-1,0,1`: argparse takes a separate value
    that starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and re.match(r"-[\d.]", arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    # Finalisation runs full collections over every object still alive,
    # mostly modules: 15-17 ms of exit after `import splitalg.cli`, more
    # than a `check` takes.  Atexit handlers run before finalisation, and
    # once every object is frozen those collections have nothing to
    # traverse: exit then takes 4-5 ms.  Objects are still freed by
    # reference counting.  Only registered here: freezing during `main`
    # would pin garbage in long-lived callers such as a test process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_grid(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        # argparse exits with 2 on usage errors already
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (UsageError, DocumentError, SpecError, OSError) as e:
        # a refused construction or quotient carries the failing verdict
        print(f"error: {e}", file=sys.stderr)
        verdict = getattr(e, "verdict", None)
        if verdict is not None:
            with unbounded_digits():
                print(verdict.render(), file=sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
