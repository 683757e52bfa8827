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
`_one_blas_thread`). A second OpenBLAS thread changes the summation order
inside the decompositions and products, and with it the last bits of the
angles and restore reports; on one thread the report bytes do not depend on
the number of cores or on OPENBLAS_NUM_THREADS. It also saves CPU time: the
decompositions here run no faster on two threads.

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
  selector, and every (layers, ranks) pair is one grid point with its own
  outputs. A restore is one plan over all its grid points, planned before
  the first output is written. It starts every grid point's checkpoint
  first, then runs matrix by matrix: each target is decomposed once per
  restore, not once per grid point, and each grid point's edit of it is
  written into that checkpoint at once, so memory does not grow with the
  number of layers or grid points.

Any other key is an error. `kinds` may be a list of strings or a
comma-separated string.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import datetime
import functools
import json
import os
import shutil
import sys
import tempfile
import warnings
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
from .spectral import delta_sigma, matrix_angles
from .surgery import (
    DEFAULT_SURGERY_KINDS,
    LayerSelector,
    MatrixRecord,
    RankSelector,
    SurgeryPlan,
    run_surgery,
)
from .tensorstore import load_matrix, load_profile, open_checkpoint, pair_matrices


def _key_slug(key) -> str:
    return f"L{key.layer:03d}_{key.kind}"


def _selector_slug(text: str) -> str:
    return text.replace(":", "-").replace(",", "-")


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


def _present_pairs(ckpt_a, ckpt_b, profile) -> list[tuple]:
    """Matrix pairs held by both checkpoints; keys missing from the second are skipped."""
    pairs = pair_matrices(ckpt_a, ckpt_b, profile, lambda key: True)
    pairs = [(key, name_a, name_b) for key, name_a, name_b in pairs if name_b is not None]
    if not pairs:
        raise ValidationError(
            f"profile {profile.name!r} resolves no comparable 2-D tensors in both checkpoints"
        )
    return pairs


# ---------------------------------------------------------------------------
# svd-diff and angles


def _run_compare(params: dict, command: str, stem: str, columns: tuple, parts, totals) -> int:
    """Shared body of svd-diff and angles.

    `columns` holds the part, detail and summary column names. For each
    matrix pair, `parts(load_a, load_b)` lists (part, detail rows, summary
    values), one per detail file: a single empty part for svd-diff, one per
    side, holding the side, for angles. `load_a` and `load_b` take no
    arguments and decode the pair's matrix from each checkpoint, so `parts`
    decides when each matrix is loaded and how long it is held.
    `totals(matrices)` adds report fields.
    """
    part_cols, detail_cols, summary_cols = columns
    ckpt_a, ckpt_b = open_checkpoint(params["a"]), open_checkpoint(params["b"])
    profile = load_profile(params["profile"])
    pairs = _present_pairs(ckpt_a, ckpt_b, profile)

    summary_rows = []
    plot_rows = []
    with _staged_out(params["out"]) as stage:
        for key, name_a, name_b in pairs:
            slug = _key_slug(key)
            loaders = (functools.partial(load_matrix, ckpt_a, name_a),
                       functools.partial(load_matrix, ckpt_b, name_b))
            for part, rows, values in parts(*loaders):
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


def _drift_parts(load_a, load_b) -> list[tuple]:
    spec = delta_sigma(load_a(), load_b())
    rows = [
        (i, float(spec.sigma_a[i]), float(spec.sigma_b[i]), float(spec.delta[i]))
        for i in range(spec.delta.shape[0])
    ]
    return [((), rows, (spec.delta.shape[0], spec.max_abs, spec.mean, spec.rel_drift))]


def _angle_parts(load_a, load_b) -> list[tuple]:
    parts = []
    for spec in matrix_angles(load_a, load_b):
        rows = [
            (i, float(spec.cosines[i]), float(spec.angles_rad[i]), float(spec.angles_deg[i]))
            for i in range(spec.rank)
        ]
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
    points = list(dict.fromkeys(  # a repeated selector names the same output
        (layers, ranks)
        for layers in sweep.get("layers") or [params["layers"]]
        for ranks in sweep.get("ranks") or [params["ranks"]]
    ))
    grid = [(LayerSelector.parse(layers), RankSelector.parse(ranks)) for layers, ranks in points]
    plan = SurgeryPlan(
        mode=params["mode"], donor=donor, host=host, profile=profile, grid=grid,
        kinds=params["kinds"], align=params["align"],
    )
    stems = [
        f"{plan.mode}__layers-{_selector_slug(layers)}__ranks-{_selector_slug(ranks)}"
        for layers, ranks in points
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
                    "edited_matrices": report.edited_count,
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
    except (json.JSONDecodeError, TypeError) as exc:
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


def run_penalty(params: dict) -> int:
    ckpt_ref, ckpt_cur = open_checkpoint(params["ref"]), open_checkpoint(params["current"])
    profile = load_profile(params["profile"])
    profile.check_kinds(params["kinds"])
    pairs = _present_pairs(ckpt_ref, ckpt_cur, profile)
    rank = params["rank"]
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    rows = []
    per_kind: dict[str, float] = {}
    for key, name_ref, name_cur in pairs:
        if key.kind not in params["kinds"]:
            continue
        # one matrix at a time: the reference is fitted and dropped before the current loads
        w_ref = load_matrix(ckpt_ref, name_ref)
        rank_used = min(rank, min(w_ref.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degeneracy lands in the table
            ref = fit_reference(w_ref, rank_used)
        del w_ref
        w_cur = load_matrix(ckpt_cur, name_cur)
        value = penalty_value(w_cur, ref)
        rows.append((key, name_ref, rank_used, value, ref.degenerate))
        per_kind[key.kind] = per_kind.get(key.kind, 0.0) + value
        del w_cur, ref
    if not rows:
        raise ValidationError("no matrices selected; check --kinds against the profile")

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
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
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
        ("--mode", {"required": True, "choices": ["values", "vectors"]}),
        ("--donor", {"required": True, "help": "checkpoint supplying the restored part"}),
        ("--host", {"required": True, "help": "checkpoint keeping everything else"}),
        ("--layers", {"default": "all", "help": "all | first:K | last:K | list:I,J"}),
        ("--ranks", {"default": "all", "help": "all | top:K | bottom:K | range:A:B"}),
        _KINDS,
        _PROFILE,
        _OUT,
        ("--force-f32", {"action": "store_true", "default": False}),
        ("--align", {"default": "none", "choices": ["none", "procrustes"]}),
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


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that NumPy loaded, or None.

    The library is the one NumPy's wheels bundle in `numpy.libs`; its
    getter and setter carry the build's symbol prefix and suffix. None is
    the only result for a NumPy built against another BLAS or an OpenBLAS
    outside `numpy.libs`, and then the thread count is left alone.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, getter, None)
            put = getattr(lib, getter.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the caller's count."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    params = vars(_build_parser().parse_args(argv))
    runner = params.pop("runner")
    try:
        with _one_blas_thread():
            return runner(params)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
