"""Command-line entry point.

Subcommands: inspect, svd-diff, angles, restore, adv-stats, penalty, plus
`run` which executes a JSON manifest (and expands restore sweeps into one
output per grid point). Exit codes: 0 success, 2 validation failure,
3 numerical failure, 4 I/O failure.

Every command validates its inputs and finishes its computation before the
first byte of output is written. Reports are byte-deterministic for a fixed
manifest, inputs, and seed; pass --stamp to embed a timestamp.

A manifest is a JSON object naming a `command` (svd-diff, angles, restore,
adv-stats or penalty) plus that command's parameters:

- each flag is a key spelled without the leading dashes and with `-` as
  `_` (`--emit-plot-data` is `emit_plot_data`); a flag left out takes its
  command-line default, and a required flag left out is an error;
- `inputs` is an object holding any of those keys, usually the input
  files; a key at the top level overrides it;
- `output_dir` is another name for `out`;
- `sweep` (restore only) is `{"layers": [...], "ranks": [...]}`; each
  list replaces the single selector, and every (layers, ranks) pair is
  one run with its own outputs, all planned before the first is written.

Any other key is an error. `kinds` may be a list or a comma-separated string.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
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
from .errors import ToolkitError, ValidationError
from .penalty import fit_reference, penalty_value
from .reports import write_csv, write_json
from .spectral import delta_sigma, matrix_angles
from .surgery import (
    DEFAULT_SURGERY_KINDS,
    LayerSelector,
    MatrixRecord,
    RankSelector,
    SelectionSpec,
    SurgeryPlan,
    plan_selection,
    run_surgery,
)
from .tensorstore import load_matrix, load_profile, open_checkpoint, pair_matrices


def _key_slug(key) -> str:
    return f"L{key.layer:03d}_{key.kind}"


def _selector_slug(text: str) -> str:
    return text.replace(":", "-").replace(",", "-")


def _prepare_out_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out

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
    matrix pair, `parts(w_a, w_b)` lists (part, detail rows, summary values),
    one per detail file: a single empty part for svd-diff, one per side,
    holding the side, for angles. `totals(matrices)` adds report fields.
    """
    part_cols, detail_cols, summary_cols = columns
    ckpt_a, ckpt_b = open_checkpoint(params["a"]), open_checkpoint(params["b"])
    profile = load_profile(params["profile"])
    results = [
        (key, name_a, parts(load_matrix(ckpt_a, name_a), load_matrix(ckpt_b, name_b)))
        for key, name_a, name_b in _present_pairs(ckpt_a, ckpt_b, profile)
    ]

    out_dir = _prepare_out_dir(params["out"])
    summary_rows = []
    plot_rows = []
    for key, name, pair_parts in results:
        slug = _key_slug(key)
        for part, rows, values in pair_parts:
            write_csv(out_dir / ("__".join((stem, slug, *part)) + ".csv"), detail_cols, rows)
            summary_rows.append((key, name, *part, *values))
            plot_rows.extend((slug, *part, *row) for row in rows)
    matrices = _write_table(
        out_dir / "summary.csv", ["tensor", *part_cols, *summary_cols], summary_rows, _key_slug
    )
    report = _base_report(command, params["stamp"])
    report.update(
        {
            "inputs": {"a": str(ckpt_a.path), "b": str(ckpt_b.path), "profile": profile.name},
            "matrices": matrices,
            **totals(matrices),
        }
    )
    write_json(out_dir / "summary.json", report)
    if params["emit_plot_data"]:
        write_csv(out_dir / "plot_data.csv", ["matrix", *part_cols, *detail_cols], plot_rows)
    return 0


def _drift_parts(w_a, w_b) -> list[tuple]:
    spec = delta_sigma(w_a, w_b)
    rows = [
        (i, float(spec.sigma_a[i]), float(spec.sigma_b[i]), float(spec.delta[i]))
        for i in range(spec.delta.shape[0])
    ]
    return [((), rows, (spec.delta.shape[0], spec.max_abs, spec.mean, spec.rel_drift))]


def _angle_parts(w_a, w_b) -> list[tuple]:
    parts = []
    for spec in matrix_angles(w_a, w_b):
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
    plans = []
    for layers in sweep.get("layers") or [params["layers"]]:
        for ranks in sweep.get("ranks") or [params["ranks"]]:
            selection = SelectionSpec(
                layers=LayerSelector.parse(layers),
                ranks=RankSelector.parse(ranks),
                kinds=params["kinds"],
            )
            plan = SurgeryPlan(
                mode=params["mode"], donor=donor, host=host, selection=selection,
                profile=profile, align=params["align"],
            )
            plan_selection(plan)  # so that a bad grid point fails before the first write
            stem = f"{plan.mode}__layers-{_selector_slug(layers)}__ranks-{_selector_slug(ranks)}"
            plans.append((stem, plan))

    out_dir = _prepare_out_dir(params["out"])
    for stem, plan in plans:
        report = run_surgery(
            plan,
            out_dir / f"{stem}.safetensors",
            toolkit_version=__version__,
            force_f32=params["force_f32"],
        )
        records = _write_table(
            out_dir / f"{stem}.report.csv",
            _RECORD_FIELDS,
            [(rec.key, *(getattr(rec, f) for f in _RECORD_FIELDS)) for rec in report.records],
            lambda key: key.label,
        )
        payload = _base_report("restore", params["stamp"])
        payload.update(
            {
                "plan": report.plan,
                "output_checkpoint": str(report.out_path),
                "edited_matrices": report.edited_count,
                "records": records,
                "copied_tensors": report.copied_tensors,
                "write": {
                    "tensors_written": report.write_report.tensors_written,
                    "tensors_edited": report.write_report.tensors_edited,
                    "max_rounding_error": max(
                        report.write_report.rounding_errors.values(), default=0.0
                    ),
                },
            }
        )
        write_json(out_dir / f"{stem}.report.json", payload)
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
        kl_direction=params["kl_direction"],
    )
    thresholds = _load_thresholds(params["thresholds"])
    gae_params = GaeParams(gamma=params["gamma"], lam=params["lam"])
    samples, source = read_rollout_log(params["input"], gae_params)
    summary = summarize(samples, cfg)
    decision = verdict(summary, thresholds)
    table = histogram_table(samples, cfg)

    out_dir = _prepare_out_dir(params["out"])
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
    write_json(out_dir / "summary.json", payload)
    write_csv(
        out_dir / "histogram.csv",
        ["bin_left", "bin_right", "count", "p", "matched_normal_mass"],
        table,
    )
    return 0


# ---------------------------------------------------------------------------
# penalty


def run_penalty(params: dict) -> int:
    ckpt_ref, ckpt_cur = open_checkpoint(params["ref"]), open_checkpoint(params["current"])
    profile = load_profile(params["profile"])
    pairs = _present_pairs(ckpt_ref, ckpt_cur, profile)
    rank = params["rank"]
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    rows = []
    per_kind: dict[str, float] = {}
    for key, name_ref, name_cur in pairs:
        if key.kind not in params["kinds"]:
            continue
        w_ref = load_matrix(ckpt_ref, name_ref)
        w_cur = load_matrix(ckpt_cur, name_cur)
        rank_used = min(rank, min(w_ref.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degeneracy lands in the table
            ref = fit_reference(w_ref, rank_used)
        value = penalty_value(w_cur, ref)
        rows.append((key, name_ref, rank_used, value, ref.degenerate))
        per_kind[key.kind] = per_kind.get(key.kind, 0.0) + value
    if not rows:
        raise ValidationError("no matrices selected; check --kinds against the profile")

    out_dir = _prepare_out_dir(params["out"])
    _write_table(
        out_dir / "penalty.csv",
        ["tensor", "rank_used", "penalty", "degenerate_boundary"],
        rows,
        _key_slug,
    )
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
    write_json(out_dir / "summary.json", payload)
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
        convert = flags.get(key, {}).get("type")
        try:
            params[key] = convert(value) if convert else value
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

    given = dict(manifest.get("inputs", {}))
    given.update((k, v) for k, v in manifest.items() if k not in ("inputs", "command"))
    if "output_dir" in given:
        given["out"] = given.pop("output_dir")
    if params["stamp"]:
        given["stamp"] = True
    return _COMMANDS[command][0](_manifest_params(command, given))


# ---------------------------------------------------------------------------
# parameter table and argument parsing


def _kinds(value) -> tuple[str, ...]:
    """Matrix kinds from a comma-separated string or a list; none means the default set."""
    parts = value.split(",") if isinstance(value, str) else value or ()
    return tuple(k for k in parts if k) or DEFAULT_SURGERY_KINDS


def _bins(value):
    return value if value == "fd" else int(value)


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
        ("--kl-direction", {"default": "empirical_vs_normal",
                            "choices": ["empirical_vs_normal", "normal_vs_empirical"]}),
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
        return runner(params)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
