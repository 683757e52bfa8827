"""Benchmark of the svdsurgery CLI on seeded synthetic inputs.

Usage (from the repository root):

    python3 bench/run.py --workload {audit,splice,advantage} --seed N \
        --seconds S --trace {0,1}

The benchmark generates the workload's inputs from the seed, then runs the
workload's commands as fresh processes, one at a time, in a closed loop with
a single client, the way a researcher waits on each batch job. Every output
is checked against an independent NumPy computation and every run's reports
must be byte-identical. The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 1 the commands also run in this process through
svdsurgery.cli.main, untraced and then with spans around the package's
public functions (see spans.py); the spans go to
.bench_work/traces/<workload>-seed<N>.jsonl.

Metric names, units and bounds are defined in BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import fixtures
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(".bench_work")

#: inputs are generated at least SETUP_REPEATS times and for at least
#: SETUP_MIN_S seconds, and setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 8.0
STARTUP_PROBES = 3
MIN_ITERATIONS = 2
COMMAND_TIMEOUT_S = 150.0

SPLICE_TOPS = (16, 128)
SPLICE_KINDS = ("q", "k", "v", "mlp_up", "mlp_gate", "mlp_down")
PENALTY_RANK = 32
COMMAND_NAMES = ("svd_diff", "angles", "restore", "penalty", "adv_stats")


@dataclass
class Command:
    name: str  # as used in metric names
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    setup: Callable[[Path, int], tuple[object, list[Path]]]
    commands: Callable[[object, Path], list[Command]]
    #: traced functions that must record calls, else the trace is broken
    layers: tuple[str, ...]


def _setup_audit(inputs: Path, seed: int):
    pair = fixtures.write_checkpoint_pair(inputs, seed, "F32")
    return pair, [pair.host, pair.donor]


def _audit_commands(pair, out: Path) -> list[Command]:
    common = ["--a", str(pair.host), "--b", str(pair.donor)]
    return [
        Command("svd_diff", ["svd-diff", *common, "--out", str(out / "svd-diff")],
                out / "svd-diff", lambda o: checks.svd_diff(o, pair)),
        Command("angles", ["angles", *common, "--out", str(out / "angles"), "--emit-plot-data"],
                out / "angles", lambda o: checks.angles(o, pair)),
    ]


def _setup_splice(inputs: Path, seed: int):
    pair = fixtures.write_checkpoint_pair(inputs, seed, "BF16")
    manifest = inputs / "sweep.json"
    ranks = [f"top:{k}" for k in SPLICE_TOPS]
    manifest.write_text(json.dumps({
        "command": "restore",
        "inputs": {"host": str(pair.host), "donor": str(pair.donor)},
        "mode": "vectors",
        "profile": "llama-style",
        "kinds": list(SPLICE_KINDS),
        "layers": "all",
        "ranks": ranks[0],
        "sweep": {"layers": ["all"], "ranks": ranks},
        "output_dir": str(inputs.parent / "out" / "restore"),
    }, indent=2))
    return (pair, manifest), [pair.host, pair.donor, manifest]


def _splice_commands(inputs, out: Path) -> list[Command]:
    pair, manifest = inputs
    current = checks.restore_output(out / "restore", SPLICE_TOPS[0])
    return [
        Command("restore", ["run", "--manifest", str(manifest)], out / "restore",
                lambda o: checks.restore(o, pair, SPLICE_TOPS, SPLICE_KINDS)),
        Command("penalty", ["penalty", "--ref", str(pair.host), "--current", str(current),
                            "--rank", str(PENALTY_RANK), "--kinds", ",".join(SPLICE_KINDS),
                            "--out", str(out / "penalty")],
                out / "penalty",
                lambda o: checks.penalty(o, pair, current, PENALTY_RANK, SPLICE_KINDS)),
    ]


def _setup_advantage(inputs: Path, seed: int):
    log = inputs / "rollouts.jsonl"
    return (log, fixtures.write_rollout_log(log, seed)), [log]


def _advantage_commands(inputs, out: Path) -> list[Command]:
    log, rollouts = inputs
    return [
        Command("adv_stats", ["adv-stats", "--input", str(log), "--out", str(out / "adv-stats")],
                out / "adv-stats", lambda o: checks.adv_stats(o, rollouts)),
    ]


_IO = ("tensorstore.open_checkpoint", "tensorstore.load_matrix", "tensorstore.decode_values")
_REPORTS = ("reports.write_csv", "reports.write_json")
WORKLOADS = {
    "audit": Workload(_setup_audit, _audit_commands, _IO + _REPORTS + (
        "spectral.svd", "spectral.delta_sigma", "spectral.matrix_angles",
        "spectral.principal_angles")),
    "splice": Workload(_setup_splice, _splice_commands, _IO + _REPORTS + (
        "tensorstore.encode_values", "tensorstore.write_checkpoint", "spectral.svd",
        "surgery.plan_selection", "surgery.mixed_matrix", "surgery.run_surgery",
        "penalty.fit_reference", "penalty.penalty_value")),
    "advantage": Workload(_setup_advantage, _advantage_commands, _REPORTS + (
        "advantage.read_rollout_log", "advantage.gae", "advantage.summarize",
        "advantage.histogram_table")),
}


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> str:
    """Thread count OpenBLAS uses by default in this process, or 'unknown'."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float = 0.0
    peak_kb: int = 0
    import_s: float = 0.0
    code: int = 0


def run_child(argv: list[str], stats: Path, log: Path) -> Outcome:
    """One command in a fresh interpreter; CPU time from wait4, peak from the child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    stats.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(stats), *argv],
                                stdout=fh, stderr=subprocess.STDOUT, env=env)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    outcome = Outcome(wall, usage.ru_utime + usage.ru_stime, code=code)
    if code == 0:
        measured = json.loads(stats.read_text())
        outcome.peak_kb, outcome.import_s = measured["vmhwm_kb"], measured["import_s"]
    return outcome


class Verifier:
    """Counts command runs and failed ones; checks each distinct output once.

    A run fails on a non-zero exit, on outputs that differ from the first
    run of the same command, or on a failed check. Problems outside a
    command run (setup, trace) are recorded without counting as runs.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[str, str] = {}
        self._checked: dict[str, list[str]] = {}

    def verify(self, cmd: Command, code: int, log: str) -> None:
        self.attempted += 1
        problems = self._problems(cmd, code, log)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _problems(self, cmd: Command, code: int, log: str) -> list[str]:
        if code != 0:
            return [f"{cmd.name}: exit code {code}: {log[-500:]}"]
        digest = fixtures.digest_files(p for p in cmd.out.rglob("*") if p.is_file())
        first = self.first_digest.setdefault(cmd.name, digest)
        if digest != first:
            return [f"{cmd.name}: outputs differ from the first run's "
                    f"({digest[:12]} vs {first[:12]})"]
        if digest not in self._checked:
            try:
                self._checked[digest] = cmd.check(cmd.out)
            except Exception:  # a malformed output fails its check, not the benchmark
                trace = traceback.format_exc(limit=3)
                self._checked[digest] = [f"{cmd.name}: check raised {trace}"]
        return self._checked[digest]


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def subprocess_pass(commands: list[Command], work: Path, verifier: Verifier) -> dict[str, Outcome]:
    outcomes = {}
    for cmd in commands:
        _clear(cmd.out)
        log = work / f"{cmd.name}.log"
        outcome = run_child(cmd.argv, work / f"{cmd.name}.stats.json", log)
        verifier.verify(cmd, outcome.code, log.read_text(errors="replace"))
        outcomes[cmd.name] = outcome
    return outcomes


def in_process_pass(cli, commands: list[Command], verifier: Verifier,
                    tracer: spans.Tracer | None = None) -> dict[str, float]:
    walls = {}
    for cmd in commands:
        _clear(cmd.out)
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(cmd.argv)
            else:
                with tracer.command(f"cli.{cmd.name}"):
                    code = cli.main(cmd.argv)
        except Exception:  # reported as a failed operation
            code, log = -1, traceback.format_exc()
        else:
            log = ""
        walls[cmd.name] = time.perf_counter() - start
        verifier.verify(cmd, code, log)
    return walls


# ---------------------------------------------------------------------------
# the run


def _setup(workload: Workload, work: Path, seed: int, verifier: Verifier):
    """Generate the inputs repeatedly; the seed must fix every byte."""
    inputs_dir = work / "inputs"
    times, digests = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        _clear(inputs_dir)
        inputs_dir.mkdir(parents=True)
        start = time.perf_counter()
        inputs, files = workload.setup(inputs_dir, seed)
        times.append(time.perf_counter() - start)
        digests.append(fixtures.digest_files(files))
    if len(set(digests)) != 1:
        verifier.problems.append(f"setup: seed {seed} gave different input bytes: {digests}")
    sizes = ", ".join(f"{f.name} {f.stat().st_size / 1e6:.2f} MB" for f in files)
    print(f"inputs: {sizes}; digest {digests[0][:16]}")
    print(f"setup_s runs: {', '.join(f'{t:.3f}' for t in times)}")
    return inputs, statistics.median(times)


def _measure(commands, work, verifier, seconds):
    """Closed loop over the workload's commands until `seconds` would pass."""
    iterations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        iterations.append(subprocess_pass(commands, work, verifier))
        took = time.perf_counter() - began
        line = ", ".join(f"{n} {o.wall_s:.3f} s" for n, o in iterations[-1].items())
        print(f"iteration {len(iterations)}: {line}")
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + took > seconds:
            return iterations


def end_to_end(commands, work, verifier, seconds, setup_s) -> dict[str, float]:
    iterations = _measure(commands, work, verifier, seconds)
    totals = [sum(o.wall_s for o in it.values()) for it in iterations]
    for name in iterations[0]:
        walls = [it[name].wall_s for it in iterations]
        print(f"{name}: median wall {statistics.median(walls):.3f} s over {len(walls)} runs")
    return {
        "wall_s": statistics.median(totals),
        "cpu_s": statistics.median(sum(o.cpu_s for o in it.values()) for it in iterations),
        "peak_rss_mb": statistics.median(
            max(o.peak_kb for o in it.values()) * 1024 / 1e6 for it in iterations),
        "success_rate": (verifier.attempted - verifier.failed) / verifier.attempted,
        "setup_s": setup_s,
    }


def per_layer(workload, commands, work, verifier, trace_path) -> dict[str, float]:
    outcomes = subprocess_pass(commands, work, verifier)
    probes = [run_child([], work / "probe.stats.json", work / "probe.log").import_s
              for _ in range(STARTUP_PROBES)]

    sys.path.insert(0, "src")
    import svdsurgery.cli as cli

    untraced = in_process_pass(cli, commands, verifier)
    tracer = spans.Tracer()
    with tracer.patch():
        traced = in_process_pass(cli, commands, verifier, tracer)
    tracer.write_jsonl(trace_path)

    metrics = spans.layer_metrics(tracer.spans, list(COMMAND_NAMES))
    for name in COMMAND_NAMES:
        metrics[f"cli.{name}.wall_s"] = outcomes[name].wall_s if name in outcomes else 0.0
    metrics["cli.startup_s"] = statistics.median(probes)
    metrics["trace.overhead_frac"] = (sum(traced.values()) - sum(untraced.values())) / sum(
        untraced.values())

    library = spans.library_self_s(tracer.spans)
    coverage = []
    for run, cmd in enumerate(commands):
        coverage.append(library[run] / traced[cmd.name])
        print(f"trace {cmd.name}: wall {traced[cmd.name]:.3f} s traced, "
              f"{untraced[cmd.name]:.3f} s untraced; library layers cover {coverage[-1]:.4f}")
    metrics["trace.coverage_frac"] = min(coverage)
    if min(coverage) < 0.95:
        verifier.problems.append(
            f"trace: library layers cover only {min(coverage):.3f} of a command's wall time")
    for layer in workload.layers:
        if metrics[f"{layer}.calls"] == 0:
            verifier.problems.append(f"trace: layer {layer} recorded no calls")
    print(f"spans: {len(tracer.spans)} written to {trace_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/svdsurgery/cli.py").is_file():
        print("error: src/svdsurgery is missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("env: " + json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    _clear(work)
    work.mkdir(parents=True)
    verifier = Verifier()
    try:
        run_child([], work / "probe.stats.json", work / "probe.log")  # compile and cache imports
        inputs, setup_s = _setup(workload, work, args.seed, verifier)
        commands = workload.commands(inputs, work / "out")
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            measured = per_layer(workload, commands, work, verifier, trace_path)
        else:
            measured = end_to_end(commands, work, verifier, args.seconds, setup_s)
    finally:
        _clear(work)

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} = {measured[entry['name']]:.6g} {entry['unit']}")
    for problem in dict.fromkeys(verifier.problems):
        print(f"FAILED: {problem}")
    correct = not verifier.problems
    print(json.dumps({"correct": correct, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
