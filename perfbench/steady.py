"""Steadiness check and baseline for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--baseline COMMIT]

Runs the command of BENCHMARK.json once per seed (seeds first-seed,
first-seed+1, ...) on each workload with --trace 0 and the configured
run_seconds.  For each end-to-end metric it prints the median and the
spread, the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.  A spread of at most a third of the bound counts as steady
(setup_s is exempt, as only its median is compared between runs).

With --baseline COMMIT it also makes one traced run per workload at the
default seed and writes perfbench/baseline.json: the medians and spreads
of every end-to-end metric, the per-layer numbers and the tracing
overhead, labelled with the commit that was measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [
        *CONFIG["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} commands failed")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--baseline", metavar="COMMIT", help="write perfbench/baseline.json for COMMIT")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in CONFIG["workloads"]]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    summary: dict = {}
    steady = True
    for name in names:
        runs = [run_once(name, args.first_seed + i, 0) for i in range(args.runs)]
        rows = {}
        print(f"{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median, share = spread(values)
            ok = metric == "setup_s" or share <= bound / 3
            steady &= ok
            rows[metric] = {
                "median": median,
                "unit": runs[0]["metrics"][metric]["unit"],
                "spread": share,
                "bound": bound,
                "values": values,
            }
            print(f"  {metric:16} median {median:12.6g}  spread {share:7.4f}  bound {bound}"
                  f"  {'ok' if ok else 'WIDE'}  [{' '.join(f'{v:.4g}' for v in values)}]")
        summary[name] = {"end_to_end": rows}

    if args.baseline:
        for name in names:
            traced = run_once(name, 0, 1)
            summary[name]["per_layer_seed_0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        why = {w["name"]: w["why"] for w in CONFIG["workloads"]}
        baseline = {
            "commit": args.baseline,
            "run_seconds": CONFIG["run_seconds"],
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "steady": steady,
            "workloads": {name: {"why": why[name], **summary[name]} for name in names},
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        print("wrote perfbench/baseline.json")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
