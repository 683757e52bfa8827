"""Command-line entry point.

Subcommands: inspect, svd-diff, angles, restore, adv-stats, penalty, plus
`run` which executes a JSON manifest (and expands restore sweeps into one
output per grid point). Exit codes: 0 success, 2 validation failure,
3 numerical failure, 4 I/O failure.

Every command writes into a hidden staging directory inside --out and moves
the files into place only after it succeeds, so a failed command leaves no
output files. Reports are byte-deterministic for a fixed manifest, inputs,
and seed; pass --stamp to embed a timestamp.

Every command runs its BLAS and LAPACK calls on one thread (see
`spectral.one_blas_thread`). A second OpenBLAS thread changes the summation
order inside the decompositions and products, and with it the last bits of
the angles and restore reports; on one thread the report bytes do not depend
on the number of cores or on OPENBLAS_NUM_THREADS. It also saves CPU time:
the decompositions here run no faster on two threads. The decompositions
call NumPy's own LAPACKE `dgesdd` directly (see `spectral._lapack_svd`),
which holds one copy of each factor fewer than `np.linalg.svd`. Where NumPy
bundles no OpenBLAS with 64-bit integers, they go through `np.linalg.svd`:
the same report bytes, with a larger peak.

svd-diff, angles, penalty and restore pair their matrices by
`tensorstore.pair_matrices`, which gives each pair in key order with one
loader per checkpoint, and run through one driver, `tensorstore.run_pairs`.
It runs the command's job on each pair in key order: `_drift_parts`,
`_angle_parts`, `_penalty_row`, or for restore `surgery._splice_target` on
each of the plan's targets. A job returns plain data (detail rows and
summary values, a penalty row, or restore records with their rounding
errors), and the command writes its files from the results in that order.
Each job decides when to load: svd-diff holds a pair's two matrices; the
others drop each matrix before the next loads. Angles, penalty and restore
also hand each decoded matrix over to `spectral.svd` as its only reference,
so it is freed as soon as LAPACK's copy of it is made, one matrix below
holding it through the decomposition.

A manifest is a JSON object naming a `command` (svd-diff, angles, restore,
adv-stats or penalty) plus that command's parameters:

- each flag is a key spelled without the leading dashes and with `-` as
  `_` (`--emit-plot-data` is `emit_plot_data`); a flag left out takes its
  command-line default, and a required flag left out is an error;
- on/off flags (`stamp`, `force_f32`, `emit_plot_data`) take JSON `true`
  or `false`; integer flags (`rank`, `bootstrap`, `seed`, `mode_budget`)
  take a JSON integer, `bins` takes one or "fd", and `gamma` and `lam` take
  a JSON number, never `true` or `false`; every other flag takes a string;
- `inputs` is an object holding any of those keys, usually the input
  files; a key at the top level overrides it;
- `output_dir` is another name for `out`;
- `sweep` (restore only) is an object holding `layers` and/or `ranks`,
  each a non-empty list of selector strings; each list replaces the single
  selector. Every count in a selector is written in ASCII digits, with
  spaces allowed around it; any other count, such as `1_6`, `+4` or `-1`,
  is an error (exit 2). Each distinct pair of parsed selectors is one grid
  point with its own outputs, named from the selectors' canonical text, the
  text the reports echo: `TOP:4`, ` top:4`, `top: 4` and `top:04` are all
  `top:4`, and `list:1, 0` is `list:0,1`. The `--layers` and `--ranks`
  flags are read and named the same way. A restore is one plan over all
  its grid points: each matrix is decomposed once per restore, not once
  per grid point, and memory does not grow with the number of layers or
  grid points (see `surgery.run_surgery`).

Any other key is an error. `kinds` may be a list of strings or a
comma-separated string.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .advantage import (
    EstimatorConfig,
    GaeParams,
    ThresholdConfig,
    histogram_table,
    read_rollout_log,
    summarize,
    verdict,
)
from .errors import ToolkitError, ValidationError, WriteError
from .penalty import fit_reference, penalty_value
from .reports import write_csv, write_json
from .spectral import delta_sigma, matrix_angles, one_blas_thread
from .surgery import (
    ALIGNMENTS,
    DEFAULT_SURGERY_KINDS,
    MODES,
    LayerSelector,
    MatrixRecord,
    RankSelector,
    SurgeryPlan,
    run_surgery,
)
from .tensorstore import load_profile, open_checkpoint, pair_matrices, run_pairs


def _key_slug(key) -> str:
    return f"L{key.layer:03d}_{key.kind}"


def _selector_slug(selector) -> str:
    return str(selector).replace(":", "-").replace(",", "-")


@contextlib.contextmanager
def _staged_out(path: str | Path):
    """Create the output directory `path` and yield a fresh hidden directory inside it.

    Files written there are moved into `path` when the block succeeds,
    unless one of their names is taken there by something other than a
    file: then none is moved. The hidden directory is removed in every case.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    try:
        yield stage
        staged = sorted(stage.iterdir())
        taken = [f.name for f in staged if (out / f.name).exists() and not (out / f.name).is_file()]
        if taken:
            raise WriteError(f"cannot write into {out}: not a file: {', '.join(taken)}")
        for f in staged:
            os.replace(f, out / f.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _base_report(command: str, stamp: bool) -> dict:
    report = {"command": command, "toolkit_version": __version__}
    if stamp:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


def _write_table(path: Path, header: list[str], rows: list[tuple], key_text) -> list[dict]:
    """Write (key, *values) rows as CSV with layer and kind columns.

    Returns the same rows as JSON records, which name the matrix by
    `key_text(key)` in place of the layer and kind.
    """
    write_csv(path, ["layer", "kind", *header], [(k.layer, k.kind, *vals) for k, *vals in rows])
    return [{"key": key_text(k), **dict(zip(header, vals))} for k, *vals in rows]


def _present_pairs(ckpt_a, ckpt_b, profile, kinds=None) -> list[tuple]:
    """The `pair_matrices` walk, of `kinds` if given, without the keys the second file lacks."""
    pairs = pair_matrices(ckpt_a, ckpt_b, profile, kinds)
    pairs = [pair for pair in pairs if pair[2] is not None]
    if not pairs:
        of_kinds = f" of kinds {', '.join(kinds)}" if kinds else ""
        raise ValidationError(f"profile {profile.name!r} resolves no comparable 2-D tensors"
                              f"{of_kinds} in both checkpoints")
    return pairs


# ---------------------------------------------------------------------------
# svd-diff and angles


def _run_compare(params: dict, command: str, stem: str, columns: tuple, job, totals) -> int:
    """Shared body of svd-diff and angles.

    `columns` holds the part, detail and summary column names. The job,
    run on each matrix pair of the `pair_matrices` walk by `run_pairs`,
    lists (part, detail rows, summary values), one per detail file: a
    single empty part for svd-diff, one per side, holding the side, for
    angles. `totals(matrices)` adds report fields.
    """
    part_cols, detail_cols, summary_cols = columns
    ckpt_a, ckpt_b = open_checkpoint(params["a"]), open_checkpoint(params["b"])
    profile = load_profile(params["profile"])
    pairs = _present_pairs(ckpt_a, ckpt_b, profile)

    summary_rows = []
    plot_rows = []
    with _staged_out(params["out"]) as stage:
        for (key, name_a, *_), parts in run_pairs(job, pairs):
            slug = _key_slug(key)
            for part, rows, values in parts:
                write_csv(stage / ("__".join((stem, slug, *part)) + ".csv"), detail_cols, rows)
                summary_rows.append((key, name_a, *part, *values))
                plot_rows.extend((slug, *part, *row) for row in rows)
        matrices = _write_table(
            stage / "summary.csv", ["tensor", *part_cols, *summary_cols], summary_rows, _key_slug
        )
        report = _base_report(command, params["stamp"])
        report.update(
            {
                "inputs": {"a": str(ckpt_a.path), "b": str(ckpt_b.path), "profile": profile.name},
                "matrices": matrices,
                **totals(matrices),
            }
        )
        write_json(stage / "summary.json", report)
        if params["emit_plot_data"]:
            write_csv(stage / "plot_data.csv", ["matrix", *part_cols, *detail_cols], plot_rows)
    return 0


def _drift_parts(pair) -> list[tuple]:
    *_, load_a, load_b = pair
    spec = delta_sigma(load_a(), load_b())
    rows = [(i, float(a), float(b), float(delta))
            for i, (a, b, delta) in enumerate(zip(spec.sigma_a, spec.sigma_b, spec.delta))]
    return [((), rows, (spec.delta.shape[0], spec.max_abs, spec.mean, spec.rel_drift))]


def _angle_parts(pair) -> list[tuple]:
    *_, load_a, load_b = pair
    parts = []
    for spec in matrix_angles(load_a, load_b):
        rows = [(i, float(cos), float(rad), float(deg)) for i, (cos, rad, deg)
                in enumerate(zip(spec.cosines, spec.angles_rad, spec.angles_deg))]
        degrees = [np.degrees(x) for x in (spec.min_rad, spec.max_rad, spec.angles_rad.mean())]
        parts.append(((spec.side,), rows, (spec.rank, *map(float, degrees))))
    return parts


def run_svd_diff(params: dict) -> int:
    return _run_compare(
        params, "svd-diff", "delta_sigma",
        ((), ("index", "sigma_a", "sigma_b", "delta"),
         ("rank", "max_abs_delta", "mean_delta", "rel_drift")),
        _drift_parts,
        lambda matrices: {"max_abs_delta_overall": max(m["max_abs_delta"] for m in matrices)},
    )


def run_angles(params: dict) -> int:
    return _run_compare(
        params, "angles", "angles",
        (("side",), ("index", "cosine", "angle_rad", "angle_deg"),
         ("rank", "min_deg", "max_deg", "mean_deg")),
        _angle_parts,
        lambda matrices: {},
    )


# ---------------------------------------------------------------------------
# restore

#: MatrixRecord fields after `key`, in report column order
_RECORD_FIELDS = [f.name for f in fields(MatrixRecord) if f.name != "key"]


def run_restore(params: dict) -> int:
    donor, host = open_checkpoint(params["donor"]), open_checkpoint(params["host"])
    profile = load_profile(params["profile"])
    sweep = params.get("sweep") or {}
    grid = list(dict.fromkeys(  # spellings of one selection are one grid point
        (LayerSelector.parse(layers), RankSelector.parse(ranks))
        for layers in sweep.get("layers") or [params["layers"]]
        for ranks in sweep.get("ranks") or [params["ranks"]]
    ))
    plan = SurgeryPlan(
        mode=params["mode"], donor=donor, host=host, profile=profile, grid=grid,
        kinds=params["kinds"], align=params["align"],
    )
    stems = [
        f"{plan.mode}__layers-{_selector_slug(layers)}__ranks-{_selector_slug(ranks)}"
        for layers, ranks in grid
    ]

    with _staged_out(params["out"]) as stage:
        outs = [stage / f"{stem}.safetensors" for stem in stems]
        reports = run_surgery(plan, outs, force_f32=params["force_f32"])
        for stem, report in zip(stems, reports):
            records = _write_table(
                stage / f"{stem}.report.csv",
                _RECORD_FIELDS,
                [(rec.key, *(getattr(rec, f) for f in _RECORD_FIELDS)) for rec in report.records],
                lambda key: key.label,
            )
            payload = _base_report("restore", params["stamp"])
            payload.update(
                {
                    "plan": report.plan,
                    "output_checkpoint": str(Path(params["out"]) / f"{stem}.safetensors"),
                    "edited_matrices": len(report.rounding_errors),
                    "records": records,
                    "copied_tensors": report.copied_tensors,
                    "write": {
                        "tensors_written": len(host.index),
                        "tensors_edited": len(report.rounding_errors),
                        "max_rounding_error": max(report.rounding_errors.values(), default=0.0),
                    },
                }
            )
            write_json(stage / f"{stem}.report.json", payload)
    return 0


# ---------------------------------------------------------------------------
# adv-stats


def _load_thresholds(spec: str) -> ThresholdConfig:
    if spec == "default":
        return ThresholdConfig()
    path = Path(spec)
    if not path.is_file():
        raise ValidationError(f"thresholds must be 'default' or a JSON file, got {spec!r}")
    try:
        raw = json.loads(path.read_text())
        return ThresholdConfig(**raw)
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise ValidationError(f"malformed thresholds file {path}: {exc}") from exc


def run_adv_stats(params: dict) -> int:
    cfg = EstimatorConfig(
        bins=params["bins"],
        bootstrap=params["bootstrap"],
        seed=params["seed"],
        mode_budget=params["mode_budget"],
    )
    thresholds = _load_thresholds(params["thresholds"])
    gae_params = GaeParams(gamma=params["gamma"], lam=params["lam"])
    samples, source = read_rollout_log(params["input"], gae_params)
    summary = summarize(samples, cfg)
    decision = verdict(summary, thresholds)
    table = histogram_table(samples, cfg)

    payload = _base_report("adv-stats", params["stamp"])
    payload.update(
        {
            "input": str(params["input"]),
            "source": source,
            **asdict(summary),
            "kl_vs_matched_normal": max(0.0, summary.kl_vs_matched_normal),
            "verdict": decision.verdict,
            "checks": decision.reasons,
            "thresholds": asdict(thresholds),
            "threshold_note": (
                "entropy and KL depend on the estimator echoed in estimator_config; "
                "recalibrate thresholds before comparing against other estimators"
            ),
        }
    )
    with _staged_out(params["out"]) as stage:
        write_json(stage / "summary.json", payload)
        write_csv(
            stage / "histogram.csv",
            ["bin_left", "bin_right", "count", "p", "matched_normal_mass"],
            table,
        )
    return 0


# ---------------------------------------------------------------------------
# penalty


def _penalty_row(pair, ckpt_ref, rank: int) -> tuple:
    """The penalty job: (rank used, penalty, degenerate boundary); one matrix held at a time."""
    _, name_ref, _, load_ref, load_cur = pair
    rank_used = min(rank, *ckpt_ref.index[name_ref].shape)
    ref = fit_reference(load_ref(), rank_used)
    return rank_used, penalty_value(load_cur(), ref), ref.degenerate


def run_penalty(params: dict) -> int:
    ckpt_ref, ckpt_cur = open_checkpoint(params["ref"]), open_checkpoint(params["current"])
    profile = load_profile(params["profile"])
    pairs = _present_pairs(ckpt_ref, ckpt_cur, profile, params["kinds"])
    rank = params["rank"]
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    rows = []
    per_kind: dict[str, float] = {}
    for (key, name_ref, *_), row in run_pairs(_penalty_row, pairs, ckpt_ref, rank):
        rows.append((key, name_ref, *row))
        per_kind[key.kind] = per_kind.get(key.kind, 0.0) + row[1]

    payload = _base_report("penalty", params["stamp"])
    payload.update(
        {
            "inputs": {
                "ref": str(ckpt_ref.path),
                "current": str(ckpt_cur.path),
                "profile": profile.name,
                "rank": rank,
            },
            "per_kind_totals": {k: per_kind[k] for k in sorted(per_kind)},
            "total": sum(per_kind.values()),
            "matrices": len(rows),
        }
    )
    with _staged_out(params["out"]) as stage:
        _write_table(
            stage / "penalty.csv",
            ["tensor", "rank_used", "penalty", "degenerate_boundary"],
            rows,
            _key_slug,
        )
        write_json(stage / "summary.json", payload)
    return 0


# ---------------------------------------------------------------------------
# inspect


def run_inspect(params: dict) -> int:
    ckpt = open_checkpoint(params["path"])
    print(f"checkpoint: {ckpt.path}")
    print(f"tensors: {ckpt.tensor_count}")
    print(f"payload bytes: {ckpt.payload_bytes}")
    dtypes = Counter(info.dtype for info in ckpt.index.values())
    for dtype in sorted(dtypes):
        print(f"  {dtype}: {dtypes[dtype]}")
    if ckpt.metadata:
        print(f"metadata keys: {', '.join(sorted(ckpt.metadata))}")
    return 0


# ---------------------------------------------------------------------------
# manifest runner

_MANIFEST_COMMANDS = ("svd-diff", "angles", "restore", "adv-stats", "penalty")


def _manifest_params(command: str, given: dict) -> dict:
    """Check manifest keys against the command's flags and fill in the flag defaults."""
    flags = {flag.lstrip("-").replace("-", "_"): spec for flag, spec in _COMMANDS[command][2]}
    unknown = sorted(set(given) - set(flags) - ({"sweep"} if command == "restore" else set()))
    if unknown:
        raise ValidationError(f"unknown {command} manifest key(s): {', '.join(unknown)}")
    missing = [k for k, spec in flags.items() if spec.get("required") and k not in given]
    if missing:
        names = ", ".join("output_dir" if k == "out" else k for k in missing)
        raise ValidationError(f"{command} manifest needs: {names}")
    params = {k: spec.get("default") for k, spec in flags.items()}
    for key, value in given.items():
        spec = flags.get(key, {})
        if key == "sweep":
            convert = _sweep
        elif spec.get("action") == "store_true":
            convert = _boolean
        else:
            convert = spec.get("type", _string)
            convert = _MANIFEST_TYPES.get(convert, convert)
        try:
            params[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"manifest key {key!r}: {exc}") from exc
    return params


def run_manifest(params: dict) -> int:
    path = Path(params["manifest"])
    if not path.is_file():
        raise ValidationError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"manifest {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(manifest, dict) or "command" not in manifest:
        raise ValidationError("manifest must be a JSON object with a 'command' field")
    command = manifest["command"]
    if command not in _MANIFEST_COMMANDS:
        raise ValidationError(
            f"unknown manifest command {command!r}; expected one of {sorted(_MANIFEST_COMMANDS)}"
        )

    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValidationError(f"manifest key 'inputs' must be a JSON object, got {inputs!r}")
    given = dict(inputs)
    given.update((k, v) for k, v in manifest.items() if k not in ("inputs", "command"))
    if "output_dir" in given:
        given["out"] = given.pop("output_dir")
    if params["stamp"]:
        given["stamp"] = True
    return _COMMANDS[command][0](_manifest_params(command, given))


# ---------------------------------------------------------------------------
# parameter table and argument parsing


def _kinds(value) -> tuple[str, ...]:
    """Matrix kinds from a comma-separated string or a list of strings; none means the defaults."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or not all(isinstance(k, str) for k in parts):
        raise ValueError(f"must be a string or a list of strings, got {value!r}")
    return tuple(k for k in parts if k) or DEFAULT_SURGERY_KINDS


def _bins(text: str):
    """A bin count or "fd", from flag text."""
    return text if text == "fd" else int(text)


def _integer(value) -> int:
    """A manifest value for an int flag: a JSON integer, not true or false."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A manifest value for a float flag: a JSON number, not true or false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("is too large for a float") from None


#: manifest converters in place of the argparse `type` that parses flag text
_MANIFEST_TYPES = {
    int: _integer,
    float: _number,
    _bins: lambda value: value if value == "fd" else _integer(value),
}


def _boolean(value) -> bool:
    """A manifest value for a store_true flag: JSON true or false only."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _string(value) -> str:
    """A manifest value for a flag that takes its text as given."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _sweep(value) -> dict:
    """A restore sweep: `layers` and/or `ranks`, each a non-empty list of selector strings."""
    if not isinstance(value, dict) or not value:
        raise ValueError(f"must be an object with 'layers' and/or 'ranks', got {value!r}")
    unknown = sorted(set(value) - {"layers", "ranks"})
    if unknown:
        raise ValueError(f"unknown sweep key(s): {', '.join(unknown)}")
    for axis, selectors in value.items():
        if not (isinstance(selectors, list) and selectors
                and all(isinstance(text, str) for text in selectors)):
            raise ValueError(f"{axis} must be a non-empty list of strings, got {selectors!r}")
    return value


_OUT = ("--out", {"required": True, "help": "output directory"})
_PROFILE = ("--profile", {"default": "llama-style"})
_KINDS = ("--kinds", {"default": DEFAULT_SURGERY_KINDS, "type": _kinds})
_STAMP = ("--stamp", {"action": "store_true", "default": False})
_COMPARE = [
    ("--a", {"required": True, "help": "first checkpoint"}),
    ("--b", {"required": True, "help": "second checkpoint"}),
    _PROFILE,
    _OUT,
    ("--emit-plot-data", {"action": "store_true", "default": False}),
    _STAMP,
]

#: command -> (runner, help, [(flag, argparse keywords)]). The same table
#: builds the parser and checks manifests and fills in their defaults.
_COMMANDS = {
    "inspect": (run_inspect, "print the index of a checkpoint", [("path", {})]),
    "svd-diff": (
        run_svd_diff, "per-matrix singular-value drift between two checkpoints", _COMPARE
    ),
    "angles": (run_angles, "per-matrix principal angles between two checkpoints", _COMPARE),
    "restore": (run_restore, "splice singular values/vectors across checkpoints", [
        ("--mode", {"required": True, "choices": MODES}),
        ("--donor", {"required": True, "help": "checkpoint supplying the restored part"}),
        ("--host", {"required": True, "help": "checkpoint keeping everything else"}),
        ("--layers", {"default": "all",
                      "help": "all | first:K | last:K | list:I,J (counts in ASCII digits)"}),
        ("--ranks", {"default": "all",
                     "help": "all | top:K | bottom:K | range:A:B (counts in ASCII digits)"}),
        _KINDS,
        _PROFILE,
        _OUT,
        ("--force-f32", {"action": "store_true", "default": False}),
        ("--align", {"default": "none", "choices": ALIGNMENTS}),
        _STAMP,
    ]),
    "adv-stats": (run_adv_stats, "advantage-distribution statistics and verdict", [
        ("--input", {"required": True, "help": "JSON-lines rollout log"}),
        _OUT,
        ("--bins", {"default": "fd", "type": _bins}),
        ("--bootstrap", {"default": 500, "type": int}),
        ("--seed", {"default": 0, "type": int}),
        ("--mode-budget", {"default": 1, "type": int}),
        ("--thresholds", {"default": "default", "help": "'default' or a JSON file"}),
        ("--gamma", {"default": 0.99, "type": float}),
        ("--lam", {"default": 0.95, "type": float}),
        _STAMP,
    ]),
    "penalty": (run_penalty, "rotation-preservation penalty table", [
        ("--ref", {"required": True, "help": "reference checkpoint"}),
        ("--current", {"required": True, "help": "checkpoint to score"}),
        ("--rank", {"required": True, "type": int}),
        _KINDS,
        _PROFILE,
        _OUT,
        _STAMP,
    ]),
    "run": (run_manifest, "execute a JSON manifest", [("--manifest", {"required": True}), _STAMP]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svdsurgery",
        description="Spectral surgery and fine-tuning diagnostics for transformer checkpoints.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.set_defaults(runner=runner)
    return parser


def main(argv=None) -> int:
    params = vars(_build_parser().parse_args(argv))
    runner = params.pop("runner")
    try:
        with one_blas_thread():
            return runner(params)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
