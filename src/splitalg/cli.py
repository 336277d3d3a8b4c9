"""Command-line front end: check identities and operators, run the
constructions, search for operators on small grids.

Exit codes: 0 all checks passed, 1 violations found, 2 input/usage error.
All output is deterministic; repeated runs on the same input are
byte-identical.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

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
from .identities import CATALOG_NAMES, ViolationReport, catalog_of, check, fits
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


def _write(text: str, stream=None) -> None:
    """Print text to stdout, or to stream; a reader that has closed it loses
    the text, and the command keeps its exit code.  Characters the stream's
    encoding cannot hold are written as backslash escapes."""
    stream = sys.stdout if stream is None else stream
    try:
        try:
            print(text, file=stream, flush=True)
        except UnicodeEncodeError:  # nothing was written: the text is encoded whole first
            print(text.encode(stream.encoding, "backslashreplace").decode(stream.encoding), file=stream, flush=True)
    except BrokenPipeError:
        # so the interpreter's last flush of the unwritten rest goes nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _emit(args, payload: dict, human: str) -> None:
    _write(json.dumps(payload, sort_keys=True) if getattr(args, "json", False) else human)


def cmd_check(args) -> int:
    doc = _load_document(args.file)
    obj = doc.lookup_object(args.object, lambda obj: fits(obj, args.catalog))
    report = check(obj, args.catalog)
    with unbounded_digits():
        _emit(
            args,
            {"object": args.object, "catalog": args.catalog, **report.to_dict()},
            f"{args.object} against {args.catalog}:\n{report.render()}",
        )
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _resolve_subject(doc: Document, kind: str, name: str | None, flag: str):
    """The first object of the flag's name that the kind takes (algebras,
    representations, actions), else the first of that name, which the kind
    then refuses; with no name, the document's one object that the kind takes."""
    from .operators import _KINDS

    takes = lambda obj: fits(obj, _KINDS[kind].catalog)
    if name is not None:
        return doc.lookup_object(name, takes)
    sections = (doc.algebras, doc.representations, doc.actions)
    candidates = [obj for section in sections for obj in section.values() if takes(obj)]
    if not candidates:
        raise UsageError(f"the document has no object for kind {kind!r}")
    if len(candidates) > 1:
        raise UsageError(
            f"{flag} is required: {len(candidates)} candidate object(s) for kind {kind!r}"
        )
    return candidates[0]


def _kind(raw: str) -> str:
    try:
        return KIND_ALIASES[raw]
    except KeyError:
        raise UsageError(f"unknown kind {raw!r}; known: {', '.join(sorted(KIND_ALIASES))}") from None


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


# recipe -> (object flags, construction, output names, verifications).  The
# construction, "module.function" here, is looked up when the recipe runs and
# called with the flagged objects; the names pair with `_outputs` of its
# result.  A verification re-checks them (`_verifications`): an output's name,
# or (output map, operator kind, output it acts on).
RECIPES = {
    "semidirect": (("rep",), "constructions.semidirect", ("semidirect",), ["semidirect"]),
    "hemisemidirect": (("rep",), "constructions.hemisemidirect", ("hemisemidirect",), ["hemisemidirect"]),
    "action-semidirect": (("action",), "constructions.action_semidirect", ("action_semidirect",), ["action_semidirect"]),
    "aguiar-dendriform": (("algebra", "map"), "constructions.aguiar_dendriform", ("dendriform",), ["dendriform"]),
    "aguiar-diass": (("algebra", "map"), "constructions.aguiar_diassociative", ("diassociative",), ["diassociative"]),
    "induced-quadri": (("rep", "map"), "constructions.induced_quadri", ("induced_quadri",), ["induced_quadri"]),
    "induced-six": (("action", "map"), "constructions.induced_six", ("induced_six",), ["induced_six"]),
    "differential-quadri": (("algebra", "map"), "constructions.differential_quadri", ("differential_quadri",),
                            ["differential_quadri"]),
    "dual-extension": (("algebra",), "constructions.dual_extension",
                       ("base", "extension", "dual_extension", "projection"),
                       ["dual_extension", ("projection", "homomorphic_relative", "dual_extension")]),
    "sum-diass": (("algebra",), "constructions.sum_collapse_quadri", ("sum_diass",), ["sum_diass"]),
    "sum-triass": (("algebra",), "constructions.sum_collapse_six", ("sum_triass",), ["sum_triass"]),
    "quotient-dend": (("algebra",), "quotients.dendriform_quotient", ("quotient", "quotient_map"), ["quotient"]),
    "embed-averaging": (("algebra",), "quotients.embed_averaging", ("ambient", "averaging", "inclusion"), [
        "ambient", ("averaging", "dend_averaging", "ambient")]),
    "quadri-to-relative": (("algebra",), "quotients.quadri_to_relative_setup",
                           ("quotient", "representation", "quotient_map"),
                           ["representation", ("quotient_map", "relative_averaging", "representation")]),
    "six-to-homomorphic": (("algebra",), "quotients.six_to_homomorphic_setup",
                           ("quotient", "perp", "action", "quotient_map"),
                           ["action", ("quotient_map", "homomorphic_relative", "action")]),
}
# where each object flag's name is looked up, and where each output goes
_SECTIONS = {"algebra": "algebras", "rep": "representations", "action": "actions", "map": "maps"}
_OUTPUT_SECTIONS = {Algebra: "algebras", LinearMap: "maps", Representation: "representations", Action: "actions"}


def _outputs(result):
    """The objects of a construction's result (a tuple, or one object), each
    representation after its base and each action after its base and its
    target: a document holds the algebras its modules reference."""
    for obj in result if isinstance(result, tuple) else (result,):
        if isinstance(obj, Representation):
            yield obj.base
            if isinstance(obj, Action):
                yield obj.target
        yield obj


def _verifications(entries, outputs: dict):
    """(label, catalog or operator kind, output checked, output map or None)
    of each verification of a recipe run: an output's name checks it against
    the catalog of its type (`identities.catalog_of`), and (map, kind,
    subject) checks the map as an operator of the kind on that output.  The
    label is the name, and ":" and what checks it when the two differ."""
    for entry in entries:
        obj = isinstance(entry, str)
        name, what, subject = (entry, catalog_of(outputs[entry]), entry) if obj else entry
        yield (name if name == what else f"{name}:{what}", what, subject, None if obj else name)


def _run_recipe(args, doc: Document) -> tuple[Document, list[tuple[str, ViolationReport]]]:
    """Returns (output document, [(label, report), ...])."""
    from .operators import check_operator

    flags, construction, names, verifications = RECIPES[args.recipe]
    objects = []
    for flag in flags:
        name, section = getattr(args, flag), getattr(doc, _SECTIONS[flag])
        if name is None:
            raise UsageError(f"recipe requires --{flag}")
        if name not in section:
            raise UsageError(f"no {flag} named {name!r}")
        objects.append(section[name])
    module, function = construction.split(".")
    build = getattr(import_module(f".{module}", __package__), function)
    outputs = dict(zip(names, _outputs(build(*objects)), strict=True))
    sections: dict[str, dict] = {}
    for name, obj in outputs.items():
        sections.setdefault(_OUTPUT_SECTIONS[type(obj)], {})[name] = obj
    checks = [(label, check(outputs[subject], what) if map_name is None
               else check_operator(outputs[subject], what, outputs[map_name]))
              for label, what, subject, map_name in _verifications(verifications, outputs)]
    return Document(**sections), checks


def cmd_construct(args) -> int:
    doc = _load_document(args.file)
    out_doc, checks = _run_recipe(args, doc)
    # under the bound a document is read with, so that check reads it back
    text = serialize_document(out_doc)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with unbounded_digits():
        verifications = [{"label": label, **item.to_dict()} for label, item in checks]
        payload = {"recipe": args.recipe, "out": args.out, "verifications": verifications}
        lines = [f"{args.recipe}: wrote {args.out}", *(f"[{label}] {item.render()}" for label, item in checks)]
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
    rendered = [[[scalar_to_json(e) for e in row] for row in m.matrix] for m in maps]
    payload = {"kind": kind, "count": len(maps), "shape": [target_dim, source_dim], "matrices": rendered}
    lines = [f"{len(maps)} passing map(s) of shape {target_dim}x{source_dim}", *map(json.dumps, rendered)]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


_HELP = ("-h", "--help")
_JSON = {"--json": ("print one JSON object", False, None, None)}
_KIND = (f"operator kind: {', '.join(KIND_ALIASES)}", True, str, None)

# command -> (handler, help line, positional, flags); flag -> (help, required,
# value type, choices), where the type reads the value and is None for a
# switch.  Every command also takes -h/--help.
COMMANDS = {
    "check": (cmd_check, "check an object against an identity catalog", "file", {
        "--object": ("object to check", True, str, None),
        "--catalog": ("identity catalog", True, str, CATALOG_NAMES),
        **_JSON}),
    "check-operator": (cmd_check_operator, "check an operator property of a map", "file", {
        "--map": ("map to check", True, str, None),
        "--kind": _KIND,
        "--on": ("object the operator lives on (if ambiguous)", False, str, None),
        **_JSON}),
    "construct": (cmd_construct, "run a construction and write the result", "file", {
        "--recipe": ("construction to run", True, str, tuple(RECIPES)),
        "--out": ("document to write", True, str, None),
        **{f"--{flag}": (f"recipe input, a name in {section}", False, str, None)
           for flag, section in _SECTIONS.items()},
        **_JSON}),
    "search": (cmd_search, "enumerate operators over a finite grid", "file", {
        "--object": ("object to search on (if ambiguous)", False, str, None),
        "--kind": _KIND,
        "--grid": ("comma-separated rationals", True, str, None),
        "--cap": ("most candidates to scan", False, int, None),
        **_JSON}),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    """The help of one command, or of them all."""
    if command is None:
        return "\n\n".join([
            f"usage: splitalg {{{','.join(COMMANDS)}}} ...\n"
            "Exact verification and construction for split-operation algebras.",
            *map(_usage, COMMANDS),
        ])
    _, summary, positional, flags = COMMANDS[command]
    lines = [f"usage: splitalg {command} {positional} [flags]: {summary}", "  -h, --help  show this help"]
    for flag, (text, required, kind, choices) in flags.items():
        value = "" if kind is None else f" {{{','.join(choices)}}}" if choices else f" {_dest(flag).upper()}"
        lines.append(f"  {flag}{value}  {text}{' (required)' if required else ''}")
    return "\n".join(lines)


def _print_help(args) -> int:
    _write(_usage(args.command))
    return EXIT_OK


def _read_flag(token: str, names) -> tuple[str, str | None] | None:
    """(flag, its value after '=' or None) for a token that names a flag,
    None for a positional; an unknown flag comes back as itself.  A long
    flag may be cut to a unique prefix; '-' alone, '--', a negative number
    and a token with a space are positionals."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if token in names:
        return token, None
    if eq and name in names:
        return name, value
    if token.startswith("--"):
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    whole, dot, fraction = token[1:].partition(".")
    if " " in token or ((fraction if dot else whole).isdecimal() and (whole + "0").isdecimal()):
        return None
    return token, None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line read by the COMMANDS table: `command`, its handler
    `fn` (which prints the help for -h/--help), the positional, and each
    flag's value under its name without dashes (None, or False for a
    switch, when absent).  Flags come before or after the positional, as
    `--flag value` or `--flag=value`; the last of a repeated flag wins, and
    `--` ends the flags.  Raises UsageError."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        if _read_flag(command, _HELP) not in (("-h", None), ("--help", None)):
            raise UsageError(f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
        return SimpleNamespace(command=None, fn=_print_help)
    fn, _, positional, flags = COMMANDS[command]
    fields = {"command": command, "fn": fn, positional: None}
    fields.update((_dest(flag), None if spec[2] else False) for flag, spec in flags.items())
    cut = rest.index("--") if "--" in rest else len(rest)
    # every token is named before any flag is read, so an ambiguous one is refused first
    read = [_read_flag(token, (*flags, *_HELP)) for token in rest[:cut]]
    words, unknown, i = [], [], 0
    while i < cut:
        token, flag = rest[i], read[i]
        i += 1
        if flag is None or flag[0] not in flags and flag[0] not in _HELP:
            (words if flag is None else unknown).append(token)
            continue
        name, value = flag
        kind, choices = flags[name][2:] if name in flags else (None, None)
        if kind is None and value is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if name in _HELP:
            return SimpleNamespace(command=command, fn=_print_help)
        if kind is not None and value is None:
            if i == len(rest):
                raise UsageError(f"argument {name}: expected one argument")
            value, i = rest[i], i + 1
        try:
            value = True if kind is None else kind(value)
        except ValueError:
            raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None
        if choices and value not in choices:
            raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
        fields[_dest(name)] = value
    words += rest[cut + 1:]
    missing = [positional][:not words] + [f for f, spec in flags.items() if spec[1] and fields[_dest(f)] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(words) > 1 or unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(words[1:] + unknown)}")
    fields[positional] = words[0]
    return SimpleNamespace(**fields)


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
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.fn(args)
    except (UsageError, DocumentError, SpecError, OSError) as e:
        # a refused construction or quotient carries the failing verdict
        lines = [f"error: {e}"]
        verdict = getattr(e, "verdict", None)
        if verdict is not None:
            with unbounded_digits():
                lines.append(verdict.render())
        _write("\n".join(lines), sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
