"""Repeat the benchmark over seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 bench/spread.py --workload audit --workload splice --seeds 10 \
        [--trace 0] [--checkout DIR ...] [--json OUT]

Runs interleave: for each seed, every workload of every checkout runs once
before the next seed starts, so drift in a shared machine's load falls on all
of them alike instead of on whichever ran last. Pass --checkout twice to
compare two commits (each a directory holding BENCHMARK.json and bench/).
The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    checkouts = args.checkout or [Path(".")]

    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results: dict[tuple[str, str], dict[str, list[float]]] = {}
    inputs: dict[str, str] = {}
    for seed in range(1, args.seeds + 1):
        for workload in args.workload:
            for checkout in checkouts:
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                                      timeout=900)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or not result["correct"]:
                    print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                    return 1
                inputs.setdefault(workload, [line for line in proc.stdout.splitlines()
                                             if line.startswith("inputs:")][0])
                series = results.setdefault((str(checkout), workload), {})
                for name, metric in result["metrics"].items():
                    series.setdefault(name, []).append(metric["value"])
                print(f"seed {seed} {workload} {checkout}: done", file=sys.stderr)

    report = {"environment": run.environment(), "run_seconds": spec["run_seconds"],
              "seeds": list(range(1, args.seeds + 1)),
              "inputs": inputs, "results": {}}
    for (checkout, workload), series in results.items():
        print(f"== {workload} ({checkout})")
        for name, values in series.items():
            stats = summarize(values)
            bound = bounds.get(name)
            steady = bound is None or stats["spread"] <= bound / 3
            flag = "" if steady else "  <-- over a third of bound"
            print(f"  {name:42s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  bound {bound}{flag}")
            report["results"].setdefault(checkout, {}).setdefault(workload, {})[name] = stats
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
