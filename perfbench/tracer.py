"""Traced child runner: run one `splitalg` CLI command with the entry points
of each layer wrapped from outside, then write what was recorded.

    python3 perfbench/tracer.py TRACE_OUT COMMAND_ID CLI_ARG...

behaves like `splitalg CLI_ARG...` (same stdout, stderr, written files and
exit code) and writes a JSON trace to TRACE_OUT.  The program itself is
not changed: each wrapped function is replaced at every place it is bound
by name, in every loaded `splitalg` module, and methods are patched on
their class.

Two kinds of record are kept in memory and written at exit:

- per group of functions, the count and inclusive time of its outermost
  calls, plus counters taken from arguments and results (instances
  checked, bytes parsed, candidates scanned, ...);
- a span for each call of a non-leaf function: id, parent span, name,
  start, end and self time (duration minus the time covered by child
  spans).  Hot leaves (`evaluate`, `LinearMap.apply`, `span`,
  `Subspace.reduce`), which run up to millions of times, are aggregated
  only, and so are the operator checks inside a search, one per candidate.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# group -> (module, names); the module holds the original definitions.
SPANNED = {
    "cli.main": ("splitalg.cli", ("main",)),
    "documents.parse": ("splitalg.documents", ("parse_document",)),
    "documents.serialize": ("splitalg.documents", ("serialize_document",)),
    "identities.check": ("splitalg.identities", ("check", "check_schemas", "check_morphism")),
    "operators.check": (
        "splitalg.operators",
        (
            "check_operator",
            "check_rota_baxter",
            "check_assoc_averaging",
            "check_dend_averaging",
            "check_relative_averaging",
            "check_homomorphic_relative",
            "graph_subalgebra_check",
        ),
    ),
    "operators.search": ("splitalg.operators", ("search_operators",)),
    "constructions.build": (
        "splitalg.constructions",
        (
            "semidirect",
            "hemisemidirect",
            "action_semidirect",
            "aguiar_dendriform",
            "aguiar_diassociative",
            "induced_quadri",
            "induced_six",
            "averaging_quadri",
            "check_differential",
            "differential_quadri",
            "dual_extension",
            "sum_collapse_quadri",
            "sum_collapse_six",
        ),
    ),
    "quotients.ideal": ("splitalg.quotients", ("ideal_generated", "splitting_ideal")),
    "quotients.quotient": ("splitalg.quotients", ("quotient_algebra",)),
    "quotients.converse": (
        "splitalg.quotients",
        ("quadri_to_relative_setup", "six_to_homomorphic_setup", "embed_averaging"),
    ),
}

# group -> (module, owner class or None, name)
LEAVES = {
    "model.evaluate": ("splitalg.model", None, "evaluate"),
    "model.apply": ("splitalg.model", "LinearMap", "apply"),
    "linalg.span": ("splitalg.linalg", None, "span"),
    "linalg.reduce": ("splitalg.linalg", "Subspace", "reduce"),
}


class Group:
    __slots__ = ("calls", "seconds", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.groups = {name: Group() for name in (*SPANNED, *LEAVES)}
        self.spans: list[list] = []
        self.stack: list[list] = []  # open spans: [span id, child seconds]
        self.quiet = 0  # > 0 inside a call whose children get no spans
        self.counters = {
            "documents.parse": self._count_parse,
            "documents.serialize": lambda g, args, result: g.add("bytes", len(result)),
            "identities.check": self._count_check,
            "operators.check": self._count_operator,
            "operators.search": self._count_search,
            "linalg.span": lambda g, args, result: g.add("rows", len(args[0])),
        }

    # -- counters taken from arguments and results

    def _count_parse(self, g, args, result):
        g.add("bytes", len(args[0].encode("utf-8")))
        ops = [op for a in result.algebras.values() for op in a.operations.values()]
        for section in (result.representations, result.actions):
            ops += [op for obj in section.values() for op in obj.actions.values()]
        g.add("tensor_nnz", sum(1 for op in ops for row in op.coeffs for v in row for e in v if e))

    def _count_check(self, g, args, report):
        g.add("instances", report.checked)
        g.add("violations", len(report.violations))

    def _count_operator(self, g, args, verdict):
        g.add("equations", verdict.checked)
        if self.groups["operators.search"].depth:
            g.add("search_equations", verdict.checked)

    def _count_search(self, g, args, hits):
        from splitalg.operators import operator_map_shape

        subject, kind, grid = args[:3]
        source_dim, target_dim = operator_map_shape(subject, kind)
        g.add("candidates", len(grid) ** (source_dim * target_dim))
        g.add("hits", len(hits))

    # -- wrappers

    def leaf(self, group_name: str, fn):
        g = self.groups[group_name]
        count = self.counters.get(group_name)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            g.seconds += perf_counter() - t0
            g.calls += 1
            if count is not None:
                count(g, args, result)
            return result

        return wrapper

    def spanned(self, group_name: str, fn):
        g = self.groups[group_name]
        count = self.counters.get(group_name)
        name = f"{fn.__module__.removeprefix('splitalg.')}.{fn.__name__}"
        quiets_children = group_name == "operators.search"

        def wrapper(*args, **kwargs):
            outermost = g.depth == 0
            record = not self.quiet
            if record:
                span_id = len(self.spans) + len(self.stack)
                parent = self.stack[-1][0] if self.stack else None
                frame = [span_id, 0.0]
                self.stack.append(frame)
            g.depth += 1
            self.quiet += quiets_children
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.quiet -= quiets_children
                g.depth -= 1
                if record:
                    self.stack.pop()
                    if self.stack:
                        self.stack[-1][1] += t1 - t0
                    self.spans.append([span_id, parent, name, t0, t1, t1 - t0 - frame[1]])
                if outermost:
                    g.calls += 1
                    g.seconds += t1 - t0
            if outermost and count is not None:
                count(g, args, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for group_name, (module_name, names) in SPANNED.items():
            module = importlib.import_module(module_name)
            for name in names:
                _rebind(getattr(module, name), self.spanned(group_name, getattr(module, name)))
        for group_name, (module_name, owner, name) in LEAVES.items():
            module = importlib.import_module(module_name)
            if owner is None:
                fn = getattr(module, name)
                _rebind(fn, self.leaf(group_name, fn))
            else:
                cls = getattr(module, owner)
                setattr(cls, name, self.leaf(group_name, getattr(cls, name)))

    def dump(self, exit_code: int) -> dict:
        return {
            "command": self.command_id,
            "exit": exit_code,
            "groups": {
                name: {"calls": g.calls, "seconds": g.seconds, **g.counters}
                for name, g in self.groups.items()
            },
            "spans": self.spans,
        }


def _rebind(original, wrapper) -> None:
    """Replace original by wrapper wherever a splitalg module binds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("splitalg"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def main() -> int:
    trace_out, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import splitalg  # noqa: F401  (loads every layer, so all bindings exist)
    import splitalg.cli

    tracer = Tracer(command_id)
    tracer.install()
    code = 1
    try:
        code = splitalg.cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
