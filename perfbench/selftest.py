"""Quick tests of the benchmark itself (tiny inputs, a few seconds each):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

workloads = run.import_workloads()
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    build = workloads.GENERATORS[name]
    first, again, other = build(3), build(3), build(4)
    assert first.inputs == again.inputs
    assert [c.argv for c in first.commands] == [c.argv for c in again.commands]
    assert first.inputs != other.inputs


def magnitudes(text: str) -> list[Fraction]:
    """The sorted absolute values of the numbers in a document."""
    found = []

    def walk(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            for item in x:
                walk(item)
        elif isinstance(x, (int, str)) and not isinstance(x, bool):
            try:
                found.append(abs(Fraction(x)))
            except ValueError:
                pass

    walk(json.loads(text))
    return sorted(found)


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_seeds_ask_the_same_work(name):
    # Seeds only relabel the basis by a signed permutation: the documents
    # differ, but hold the same numbers up to position and sign.
    build = workloads.GENERATORS[name]
    first, other = build(3, smoke=True), build(4, smoke=True)
    assert first.info == other.info
    assert {n: magnitudes(t) for n, t in first.inputs.items()} == {
        n: magnitudes(t) for n, t in other.inputs.items()
    }


def test_dense_inputs_fall_in_the_band():
    workload = workloads.check_dense(5)
    for name, info in workload.info.items():
        if name != "random.json":
            lo, hi = workloads.MODULE_BAND if name == "module.json" else workloads.DENSE_BAND
            assert lo <= info["tensor_nnz"] / info["tensor_entries"] <= hi, name


def test_basis_change_round_trip():
    import random

    p, p_inv = workloads.unimodular(5, random.Random(1))
    product = workloads._matmul(p, p_inv)
    assert product == [[int(i == j) for j in range(5)] for i in range(5)]
    assert all(e.denominator == 1 for row in p_inv for e in row)


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = result_of(bench("--workload", name, "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_traced_run_matches_untraced_bytes(name):
    # The checker fails any traced command whose digests differ from the
    # untraced sequence run first.
    result = result_of(bench("--workload", name, "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["per_layer"]]


def test_checker_counts_changed_bytes_as_failures():
    workload = workloads.search_grid(2, smoke=True)
    command = workload.commands[0]
    good = run.Outcome(0.1, 0, 1, b"{}", {})
    bad = run.Outcome(0.1, 0, 1, b"{ }", {})
    checker = run.Checker(workload, golden=None)
    checker.reference = [good.digests()] * len(workload.commands)
    assert checker.failures(run.Sequence(False, [good] * len(workload.commands))) == 0
    assert checker.failures(run.Sequence(True, [bad, good, good][: len(workload.commands)])) == 1
    assert command.label in checker.problems[0]


def test_latency_is_counted_in_reference_seconds():
    # A command that takes twice the reference time next to it counts two
    # reference times, however fast the machine ran at that moment.
    def sequence(scale):
        return run.Sequence(False, [run.Outcome(0.2 * scale, 0, 1, b"", {}, reference=0.1 * scale)])

    latency = run.command_latency([sequence(1.0), sequence(1.7), sequence(0.9)])
    assert latency == pytest.approx([2 * run.REFERENCE_S])


def test_reference_is_fixed_and_independent_of_the_program():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import reference; "
        "print(reference.work(), any(m.startswith(('splitalg', 'fractions')) for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == [str(reference.work()), "False"]


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    value, percentile, beyond = run.tail(samples)
    assert sum(s > value for s in samples) == beyond == 10
    assert percentile == 75.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "check-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
