"""What starting and ending a process costs: the lazy package attributes,
the modules each entry point loads, the record classes written without
dataclasses, and the CLI's exit hook."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import splitalg
from splitalg.cli import main
from splitalg.identities import IdentitySchema, Violation, ViolationReport
from splitalg.model import Algebra
from splitalg.operators import _Kind

SRC = Path(__file__).resolve().parent.parent / "src"

# home module -> the names the package exported from it with eager imports
EXPORTS = {
    "linalg": ["DimensionMismatch", "Subspace", "rref", "span"],
    "model": ["Action", "Algebra", "BilinearOp", "LinearMap", "Representation", "SpecError",
              "adjoint_representation", "dendriform_to_quadri", "dendriform_to_six", "evaluate",
              "perp_dendriform_part", "quadri_part", "self_action"],
    "documents": ["Document", "DocumentError", "parse_document", "serialize_document"],
    "identities": ["CATALOG_NAMES", "IdentitySchema", "QUADRI_TO_DENDRIFORM_COLLAPSE", "Violation",
                   "ViolationReport", "catalog", "check", "check_morphism"],
    "operators": ["SearchCapExceeded", "check_assoc_averaging", "check_dend_averaging",
                  "check_homomorphic_relative", "check_relative_averaging", "check_rota_baxter",
                  "graph_subalgebra_check", "search_operators"],
    "constructions": ["PreconditionFailure", "action_semidirect", "aguiar_dendriform",
                      "aguiar_diassociative", "averaging_quadri", "check_differential",
                      "differential_quadri", "dual_extension", "hemisemidirect", "induced_quadri",
                      "induced_six", "semidirect", "sum_collapse_quadri", "sum_collapse_six"],
    "quotients": ["Ideal", "QuotientError", "embed_averaging", "ideal_generated",
                  "quadri_to_relative_setup", "quotient_algebra", "six_to_homomorphic_setup",
                  "splitting_ideal"],
}
HEAVY = {"splitalg.operators", "splitalg.constructions", "splitalg.quotients"}
# the command line is read from the CLI's own table: no argument parser,
# and none of the translation machinery argparse brings in
PARSER = {"argparse", "gettext", "locale"}


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter with stdout and stderr piped."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          timeout=60)


def loaded_by(code: str, *argv: str) -> list[str]:
    """The modules that running `code` in a fresh interpreter adds to
    sys.modules (what the interpreter loads at start-up is left out)."""
    script = (
        "import json, sys; before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = run_fresh(script, *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_skips_dataclasses_and_unused_layers():
    loaded = set(loaded_by("import splitalg.cli"))
    assert "splitalg.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", *HEAVY, *PARSER}


def test_package_import_loads_no_submodule():
    loaded = loaded_by("import splitalg")
    assert "splitalg" in loaded
    assert [m for m in loaded if m.startswith("splitalg.")] == []


def test_check_command_loads_no_unused_layer(sample_doc_path):
    code = (
        "import contextlib, io; from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', sys.argv[1], '--object', 'dend', '--catalog', 'dendriform']) == 0"
    )
    loaded = set(loaded_by(code, sample_doc_path))
    assert {"splitalg.documents", "splitalg.identities"} <= loaded
    assert not loaded & {"dataclasses", "inspect", *HEAVY, *PARSER}


def test_search_command_loads_no_argument_parser(sample_doc_path):
    code = (
        "import contextlib, io; from splitalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['search', sys.argv[1], '--object', 'poly', '--kind', 'rota-baxter',\n"
        "                 '--grid', '-1']) == 0"
    )
    loaded = set(loaded_by(code, sample_doc_path))
    assert "splitalg.operators" in loaded
    assert not loaded & PARSER


def test_package_exports_each_name_from_its_home_module():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 59
    assert sorted(splitalg.__all__) == sorted(names)
    listed = dir(splitalg)
    for module, names in EXPORTS.items():
        home = import_module(f"splitalg.{module}")
        for name in names:
            assert getattr(splitalg, name) is getattr(home, name)
            assert name in listed
    namespace: dict = {}
    exec("from splitalg import *", namespace)
    assert all(namespace[name] is getattr(splitalg, name) for name in names)


def test_unknown_package_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        splitalg.no_such_name
    assert not hasattr(splitalg, "dataclass")


def test_records_keep_repr_equality_and_hash():
    """The strings were recorded from the dataclass versions of these classes."""
    lhs = ((Fraction(1), ("var", 0)),)
    schema = IdentitySchema("x", ("A", "A"), lhs, ())
    assert repr(schema) == (
        "IdentitySchema(id='x', slot_sorts=('A', 'A'), lhs=((Fraction(1, 1), ('var', 0)),), rhs=())"
    )
    assert schema == IdentitySchema("x", ("A", "A"), lhs, ())
    assert schema != IdentitySchema("y", ("A", "A"), lhs, ())
    assert hash(schema) == hash(IdentitySchema("x", ("A", "A"), lhs, ()))

    v = Violation("id", (0, 1), (Fraction(1, 2), Fraction(0)))
    assert repr(v) == "Violation(identity='id', witness=(0, 1), residual=(Fraction(1, 2), Fraction(0, 1)))"
    assert v == Violation(identity="id", witness=(0, 1), residual=(Fraction(1, 2), Fraction(0)))
    assert v != ("id", (0, 1), (Fraction(1, 2), Fraction(0)))
    assert hash(v) == hash(("id", (0, 1), (Fraction(1, 2), Fraction(0))))

    report = ViolationReport(3, [v])
    assert repr(report) == (
        "ViolationReport(checked=3, violations=[Violation(identity='id', witness=(0, 1),"
        " residual=(Fraction(1, 2), Fraction(0, 1)))], truncated=False, kind=None)"
    )
    assert repr(ViolationReport(3, [], True, "rota_baxter")) == (
        "ViolationReport(checked=3, violations=[], truncated=True, kind='rota_baxter')"
    )
    assert report == ViolationReport(checked=3, violations=[v])
    assert report != ViolationReport(3, [v], truncated=True)
    with pytest.raises(TypeError, match="unhashable type: 'ViolationReport'"):
        hash(report)

    kind = _Kind(Algebra, "needs", ("A", "A"), ())
    assert repr(kind) == (
        "_Kind(subject=<class 'splitalg.model.Algebra'>, needs='needs', map_sorts=('A', 'A'), groups=())"
    )
    assert kind == _Kind(Algebra, "needs", ("A", "A"), ())
    assert kind != _Kind(Algebra, "other", ("A", "A"), ())
    assert hash(kind) == hash((Algebra, "needs", ("A", "A"), ()))


def test_cli_freezes_the_heap_before_finalisation(sample_doc_path):
    """Atexit handlers run last in, first out: a probe registered before
    `main` runs after the CLI's hook, and sees every object frozen."""
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from splitalg.cli import main\n"
        "sys.exit(main())"
    )
    done = run_fresh(code, "check", sample_doc_path, "--object", "dend", "--catalog", "dendriform",
                     "--json")
    assert done.returncode == 0, done.stderr
    *report, probe = done.stdout.decode().splitlines()
    assert json.loads("".join(report))["violations"] == []
    assert probe == "frozen True"


@pytest.mark.parametrize("argv", [
    ["check", "{doc}", "--object", "dend", "--catalog", "dendriform", "--json"],
    ["construct", "{doc}", "--recipe", "semidirect", "--rep", "adjoint", "--out", "{out}", "--json"],
    ["search", "{doc}", "--object", "poly", "--kind", "rota-baxter", "--grid", "-1,0,1",
     "--cap", "43046721", "--json"],
], ids=["check", "construct", "search"])
def test_cli_process_output_matches_in_process_run(sample_doc_path, tmp_path, argv):
    """A CLI process ending through the exit hook writes the same stdout
    and output file, byte for byte, as `main` run in this process."""
    out = tmp_path / "out.json"
    argv = [a.format(doc=sample_doc_path, out=out) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        expected_code = main(argv)
    expected_file = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    done = run_fresh("import sys; from splitalg.cli import main; sys.exit(main())", *argv)
    assert done.returncode == expected_code == 0, done.stderr
    assert done.stdout == stdout.getvalue().encode()
    assert (out.read_bytes() if out.exists() else None) == expected_file
