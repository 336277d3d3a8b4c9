"""End-to-end benchmark of the `splitalg` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from the
checkout's `src` directory, never from an installed copy.

The benchmark generates seeded input documents (perfbench/workloads.py),
then drives the real CLI as a closed loop with one client: one command at
a time, each in a fresh Python process, as users run it.  It repeats the
workload's command sequence until S seconds have passed, checks every
output and prints every metric by name and unit.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  Their times are in
reference seconds.  The machines this runs on are shared, and their speed
changes by tens of percent from one second to the next as other tenants
come and go.  So a probe process after each command times a fixed
computation of the benchmark's own (perfbench/reference.py), and each
measured time is divided by the reference times measured next to it and
multiplied by REFERENCE_S.  The measured seconds are printed as well.

- setup_s: median time from spawning a process until `splitalg.cli` is
  imported and ready, over the probes;
- wall_s: time to run the whole command sequence, as the sum of each
  command's median latency over the repetitions (see command_latency);
- cmd_p50_s, cmd_tail_s: the median and the highest of the commands'
  latencies from spawn to exit, each command's latency again its median
  over the repetitions.  The median and the tail of all measured latency
  samples (the highest percentile with at least ten samples beyond it)
  are printed too; they follow the speed of the machine's other tenants;
- instances_per_s: identity or operator instances per second of wall_s,
  a fixed amount of work for the seed.  For a search it counts the
  equations a full scan of the grid evaluates, which early stopping does
  not lower; grid candidates per second are printed as well;
- peak_rss_mb: the highest resident set of any command process.

A command fails if its exit code or any output byte differs from what is
expected; `failed` over `attempted` is the failed ratio.  Expected exit
codes follow from how the inputs were built.  For the default seed the
SHA-256 digests of stdout and of every written file must match
perfbench/golden.json; for every seed the instance counts must match the
catalog sizes and dimensions, search hits must pass `check_operator`
in-process, and every repetition must reproduce the first one's bytes.

With --trace 1 the run alternates untraced sequences with sequences whose
commands run under perfbench/tracer.py, and the metrics are the per-layer
numbers of the traced sequences, plus the tracing overhead (traced minus
untraced wall_s).  Traced outputs must be byte-identical to untraced ones.
The spans are written to .perfbench/trace-WORKLOAD-sSEED.json.

--smoke runs tiny inputs without the golden digests; --record-golden
stores the digests of a correct default-seed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
COMMAND_TIMEOUT_S = 120
CLI = "import sys; from splitalg.cli import main; sys.exit(main())"
# About the time of the reference computation (perfbench/reference.py) on
# the machine the benchmark was written on, 2 vCPUs of a shared host with
# Python 3.11.  End-to-end times are reported in reference seconds: measured
# seconds times REFERENCE_S over the reference time measured alongside.
REFERENCE_S = 0.05
# The probe times the reference computation first, before `splitalg` is
# imported, so that the program cannot affect it; then it imports
# `splitalg.cli` and notes when that is ready.
PROBE = (
    "import sys, time; start = time.perf_counter(); "
    f"sys.path.insert(0, {str(BENCH)!r}); import reference; reference_s = reference.seconds(); "
    "resume = time.perf_counter(); from splitalg.cli import main; ready = time.perf_counter(); "
    "print(repr(start), repr(ready - resume), repr(reference_s))"
)


def import_workloads():
    """Import the workload generator against the checkout's own sources."""
    if not (SRC / "splitalg" / "__init__.py").is_file():
        sys.exit(f"error: no splitalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitalg

    if Path(splitalg.__file__).resolve().parent != SRC / "splitalg":
        sys.exit(f"error: splitalg imported from {splitalg.__file__}, not {SRC}")
    sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


@dataclass
class Outcome:
    """One command run: its latency, resources and output bytes."""

    latency: float
    exit_code: int
    rss_kb: int
    stdout: bytes
    files: dict[str, bytes]
    trace: dict | None = None
    reference: float = 0.0  # mean reference time of the probes before and after

    def digests(self) -> dict:
        return {
            "stdout": hashlib.sha256(self.stdout).hexdigest(),
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.files.items())},
        }


@dataclass
class Sequence:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)  # set-up times of the probes after each command
    reference: list[float] = field(default_factory=list)  # reference times of those probes


def spawn(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, int, bytes]:
    """Run argv to completion; (latency, exit code, max RSS in KiB, stdout)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss, (cwd / "stdout.txt").read_bytes()


def probe(work: Path, env: dict) -> tuple[float, float]:
    """(seconds from spawn until `splitalg.cli` is imported and ready, not
    counting the reference computation; seconds the reference computation
    took).  The child reads the same monotonic clock as the parent."""
    t0 = time.perf_counter()
    _, code, _, out = spawn([sys.executable, "-c", PROBE], work, env)
    if code != 0:
        raise RuntimeError("splitalg.cli does not import")
    start, importing, reference = map(float, out.split())
    return start - t0 + importing, reference


def run_sequence(workload, work: Path, env: dict, traced: bool, index: int, reference: float) -> Sequence:
    """Run the command sequence once.  Untraced sequences also probe after
    each command; `reference` is the reference time of the latest probe
    before the sequence."""
    for command in workload.commands:
        for name in command.outputs:
            (work / name).unlink(missing_ok=True)
    seq = Sequence(traced)
    for k, command in enumerate(workload.commands):
        trace_file = work / f"trace-{k}.json"
        trace_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), f"{index}.{k}", *command.argv]
        else:
            argv = [sys.executable, "-c", CLI, *command.argv]
        latency, code, rss, stdout = spawn(argv, work, env)
        files = {name: (work / name).read_bytes() for name in command.outputs if (work / name).exists()}
        trace = json.loads(trace_file.read_text()) if traced and trace_file.exists() else None
        outcome = Outcome(latency, code, rss, stdout, files, trace)
        seq.outcomes.append(outcome)
        if not traced:
            setup, after = probe(work, env)
            seq.setup.append(setup)
            seq.reference.append(after)
            outcome.reference = (reference + after) / 2
            reference = after
    return seq


def command_latency(sequences: list[Sequence]) -> list[float]:
    """Each command's latency in reference seconds: the median over the
    repetitions of its measured latency over the mean reference time of the
    probes just before and just after it, times REFERENCE_S.  The speed of
    a shared machine changes from one second to the next, and the
    reference, measured just before and just after the command, moves with
    it."""
    count = len(sequences[0].outcomes)
    return [
        REFERENCE_S * statistics.median(s.outcomes[k].latency / s.outcomes[k].reference for s in sequences)
        for k in range(count)
    ]


def fastest(sequences: list[Sequence]) -> list[float]:
    """Each command's fastest measured latency across the repetitions."""
    count = len(sequences[0].outcomes)
    return [min(s.outcomes[k].latency for s in sequences) for k in range(count)]


class Checker:
    """Decides which command outcomes fail, against the expected exit code,
    the output checks, the golden digests and the first repetition."""

    def __init__(self, workload, golden: list | None):
        self.workload = workload
        self.golden = golden
        self.reference: list[dict] = []  # digests of the first checked sequence
        self.instances = 0
        self.problems: list[str] = []

    def failures(self, seq: Sequence) -> int:
        failed = 0
        first = not self.reference
        for k, (command, outcome) in enumerate(zip(self.workload.commands, seq.outcomes)):
            problem = None
            digests = outcome.digests()
            if outcome.exit_code != command.expect_exit:
                problem = f"exit code {outcome.exit_code}, expected {command.expect_exit}"
            elif sorted(outcome.files) != sorted(command.outputs):
                problem = f"wrote {sorted(outcome.files)}, expected {sorted(command.outputs)}"
            elif first:
                try:
                    problem, instances = command.validate(outcome.stdout, outcome.files)
                except (ValueError, KeyError, TypeError) as e:
                    problem, instances = f"unreadable output: {e!r}", 0
                self.instances += instances
                if problem is None and self.golden is not None and self.golden[k:k + 1] != [digests]:
                    problem = "output bytes differ from the golden digests"
            elif digests != self.reference[k]:
                problem = "output bytes differ from the first repetition" + (" (traced)" if seq.traced else "")
            if first:
                self.reference.append(digests)
            if problem is not None:
                failed += 1
                self.problems.append(f"{command.label}: {problem}")
        return failed


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def layer_metrics(seq: Sequence) -> dict[str, float]:
    """Per-layer numbers of one traced sequence, summed over its commands."""
    groups: dict[str, dict] = {}
    cli_self = 0.0
    nonzero_exits = 0
    for outcome in seq.outcomes:
        trace = outcome.trace or {"groups": {}, "spans": []}
        for name, g in trace["groups"].items():
            acc = groups.setdefault(name, {})
            for key, value in g.items():
                acc[key] = acc.get(key, 0) + value
        cli_self += sum(span[5] for span in trace["spans"] if span[2] == "cli.main")
        nonzero_exits += outcome.exit_code != 0

    def g(name, key):
        return groups.get(name, {}).get(key, 0)

    candidates = g("operators.search", "candidates")
    return {
        "identities.check_s": g("identities.check", "seconds"),
        "identities.check_calls": g("identities.check", "calls"),
        "identities.instances": g("identities.check", "instances"),
        "identities.violations": g("identities.check", "violations"),
        "model.evaluate_calls": g("model.evaluate", "calls"),
        "model.evaluate_s": g("model.evaluate", "seconds"),
        "model.apply_calls": g("model.apply", "calls"),
        "model.apply_s": g("model.apply", "seconds"),
        "model.tensor_nnz": g("documents.parse", "tensor_nnz"),
        "operators.check_calls": g("operators.check", "calls"),
        "operators.check_s": g("operators.check", "seconds"),
        "operators.equations": g("operators.check", "equations"),
        "operators.equations_per_candidate": (
            g("operators.check", "search_equations") / candidates if candidates else 0.0
        ),
        "operators.search_s": g("operators.search", "seconds"),
        "operators.search_candidates": candidates,
        "operators.search_hits": g("operators.search", "hits"),
        "operators.search_hit_ratio": g("operators.search", "hits") / candidates if candidates else 0.0,
        "documents.parse_s": g("documents.parse", "seconds"),
        "documents.parse_bytes": g("documents.parse", "bytes"),
        "documents.serialize_s": g("documents.serialize", "seconds"),
        "documents.serialize_bytes": g("documents.serialize", "bytes"),
        "constructions.build_s": g("constructions.build", "seconds"),
        "constructions.calls": g("constructions.build", "calls"),
        "quotients.ideal_s": g("quotients.ideal", "seconds"),
        "quotients.quotient_s": g("quotients.quotient", "seconds"),
        "quotients.converse_s": g("quotients.converse", "seconds"),
        "linalg.span_calls": g("linalg.span", "calls"),
        "linalg.span_rows": g("linalg.span", "rows"),
        "linalg.span_s": g("linalg.span", "seconds"),
        "linalg.reduce_calls": g("linalg.reduce", "calls"),
        "linalg.reduce_s": g("linalg.reduce", "seconds"),
        "cli.self_s": cli_self,
        "cli.exit_codes": nonzero_exits,
    }


def load_golden(workload_name: str, seed: int, smoke: bool):
    if smoke or seed != DEFAULT_SEED:
        return None
    if not GOLDEN.is_file():
        return []
    return json.loads(GOLDEN.read_text()).get(workload_name, [])


def record_golden(workload_name: str, reference: list[dict]) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload_name] = reference
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no golden digests")
    parser.add_argument("--record-golden", action="store_true",
                        help="store the output digests of a correct default-seed run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.GENERATORS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.GENERATORS)}")
    if args.record_golden and (args.smoke or args.seed != DEFAULT_SEED):
        sys.exit(f"error: golden digests are recorded for seed {DEFAULT_SEED} without --smoke")
    workload = workloads.GENERATORS[args.workload](args.seed, smoke=args.smoke)
    golden = None if args.record_golden else load_golden(args.workload, args.seed, args.smoke)
    checker = Checker(workload, golden)

    # Children cache bytecode, as an installed package does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sequences: list[Sequence] = []
    failed = 0
    try:
        for name, text in workload.inputs.items():
            (work / name).write_text(text, encoding="utf-8")
        _, reference = probe(work, env)  # the first spawn compiles bytecode
        start = time.perf_counter()
        # Trace runs alternate untraced and traced sequences, untraced first,
        # so the overhead is measured under the same conditions.
        while not sequences or time.perf_counter() - start < args.seconds or (
            args.trace and len(sequences) < 2
        ):
            traced = bool(args.trace) and len(sequences) % 2 == 1
            seq = run_sequence(workload, work, env, traced, len(sequences), reference)
            failed += checker.failures(seq)
            sequences.append(seq)
            reference = seq.reference[-1] if seq.reference else reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(s.outcomes) for s in sequences)
    plain = [s for s in sequences if not s.traced]
    traced = [s for s in sequences if s.traced]
    latency = command_latency(plain)
    wall = sum(latency)
    setup = [t for s in plain for t in s.setup]
    references = [t for s in plain for t in s.reference]
    setup_s = REFERENCE_S * statistics.median(t / r for t, r in zip(setup, references))
    latencies = [o.latency for s in plain for o in s.outcomes]
    tail_value, tail_pct, _ = tail(latencies)
    candidates = sum(c.candidates for c in workload.commands)
    correct = failed == 0

    print(f"workload {workload.name}, seed {args.seed}{' (smoke)' if args.smoke else ''}: "
          f"{len(workload.commands)} commands per sequence, {len(plain)} untraced and "
          f"{len(traced)} traced sequences in {time.perf_counter() - start:.1f} s")
    for name, info in workload.info.items():
        print(f"  input {name}: {json.dumps(info, sort_keys=True)}")
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        per_seq = [layer_metrics(s) for s in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_seq) for name in per_seq[0]
        }
        # Measured seconds: the traced sequences run no probes.
        traced_wall, plain_wall = sum(fastest(traced)), sum(fastest(plain))
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        print(f"  tracing overhead: traced wall {traced_wall:.4f} s - untraced {plain_wall:.4f} s"
              f" = {traced_wall - plain_wall:.4f} s ({100 * (traced_wall - plain_wall) / plain_wall:.1f} %),"
              f" the sums of each command's fastest measured latency")
        units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
        for ratio in ("operators.equations_per_candidate", "operators.search_hit_ratio"):
            units[ratio] = "ratio"
        write_spans(args, traced)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "cmd_p50_s": statistics.median(latency),
            "cmd_tail_s": max(latency),
            "instances_per_s": checker.instances / wall,
            "peak_rss_mb": max(o.rss_kb for s in plain for o in s.outcomes) / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
                 "instances_per_s": "1/s", "peak_rss_mb": "MB"}
        print(f"  {len(setup)} probes: reference computation median {statistics.median(references):.4f} s,"
              f" fastest {min(references):.4f} s; measured set-up median {statistics.median(setup):.4f} s;"
              f" instances per sequence {checker.instances}")
        print(f"  all {len(latencies)} measured latency samples: p50 {statistics.median(latencies):.4f} s,"
              f" tail p{tail_pct:.1f} {tail_value:.4f} s")
        for k, command in enumerate(workload.commands):
            measured = [s.outcomes[k].latency for s in plain]
            print(f"    {command.label}: {latency[k]:.4f} reference s; measured median"
                  f" {statistics.median(measured):.4f} s, fastest {min(measured):.4f} s")
        if candidates:
            print(f"  candidates_per_s {candidates / wall:.4f} 1/s ({candidates} grid candidates per sequence)")
    for name, value in metrics.items():
        print(f"  {name} {value} {units[name]}")

    if args.record_golden:
        if not correct:
            sys.exit("error: not recording golden digests of a failing run")
        record_golden(args.workload, checker.reference)
        print(f"  recorded golden digests in {GOLDEN.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def write_spans(args, traced: list[Sequence]) -> None:
    spans = [
        {"command": o.trace["command"], "spans": o.trace["spans"]}
        for s in traced for o in s.outcomes if o.trace
    ]
    (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    sys.exit(main())
