"""Command-line behaviour: exit codes, report layouts, determinism, manifests."""

import datetime
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from svdsurgery import cli, spectral, surgery, tensorstore
from svdsurgery.errors import NumericalError, WriteError
from svdsurgery.reports import write_json

from conftest import decoder_layer_shapes, pack_container, synth_decoder_arrays

MISSING = "model.layers.1.mlp.up_proj.weight"


def files(root):
    """{relative path: bytes} of every file below `root`; {} when it is absent."""
    if not root.exists():
        return {}
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def csv_header(path):
    return path.read_text().splitlines()[0].split(",")


def write_ckpt(path, arrays):
    path.write_bytes(pack_container({name: ("F64", arr) for name, arr in arrays.items()}))
    return path


@pytest.fixture
def pair(synth_pair):
    return synth_pair()


@pytest.fixture
def rollouts(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "rollouts.jsonl"
    samples = rng.standard_normal(300)
    path.write_text("".join(json.dumps({"advantage": float(x)}) + "\n" for x in samples))
    return path


def commands(pair, rollouts):
    host, donor = (str(p) for p in pair)
    return {
        "svd-diff": ["svd-diff", "--a", host, "--b", donor, "--emit-plot-data"],
        "angles": ["angles", "--a", host, "--b", donor, "--emit-plot-data"],
        "restore-values": ["restore", "--mode", "values", "--host", host, "--donor", donor,
                           "--ranks", "top:3"],
        "restore-vectors": ["restore", "--mode", "vectors", "--host", host, "--donor", donor,
                            "--layers", "last:1", "--ranks", "range:1:4", "--kinds", "q,mlp_down"],
        # selects no ranks, so every tensor is copied; the host matrices are still checked
        "restore-copy": ["restore", "--mode", "values", "--host", host, "--donor", donor,
                         "--ranks", "top:0"],
        "penalty": ["penalty", "--ref", host, "--current", donor, "--rank", "3"],
        "adv-stats": ["adv-stats", "--input", str(rollouts), "--bootstrap", "20"],
    }


COMMANDS = ["svd-diff", "angles", "restore-values", "restore-vectors", "penalty", "adv-stats"]


def run_manifest(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return cli.main(["run", "--manifest", str(path)])


# ---------------------------------------------------------------------------
# exit codes and determinism


@pytest.mark.parametrize("name", COMMANDS)
def test_command_succeeds_and_is_byte_deterministic(name, pair, rollouts, tmp_path):
    out = tmp_path / "out"
    argv = commands(pair, rollouts)[name] + ["--out", str(out)]
    assert cli.main(argv) == 0
    first = files(out)
    assert first
    shutil.rmtree(out)
    assert cli.main(argv) == 0
    assert files(out) == first


@pytest.mark.parametrize("name", COMMANDS)
def test_out_is_an_existing_file_exits_4(name, pair, rollouts, tmp_path):
    out = tmp_path / "taken"
    out.write_text("keep")
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 4
    assert out.read_text() == "keep"


@pytest.mark.parametrize(
    "argv",
    [
        ["--layers", "first:x"],
        ["--ranks", "top:-1"],
        ["--ranks", "range:4:2"],
        ["--layers", "middle"],
    ],
)
def test_bad_selector_exits_2_and_writes_nothing(argv, pair, tmp_path):
    host, donor = pair
    out = tmp_path / "out"
    code = cli.main(["restore", "--mode", "values", "--host", str(host), "--donor", str(donor),
                     "--out", str(out), *argv])
    assert code == 2
    assert files(out) == {}


def test_selector_counts_are_ascii_digits(pair, tmp_path, capsys):
    host, donor = (str(p) for p in pair)
    restore = ["restore", "--mode", "values", "--host", host, "--donor", donor]
    out = tmp_path / "out"
    # Python's int reads every one of these counts as a number
    for flag, text in [("--ranks", "top:1_6"), ("--ranks", "top:+4"), ("--ranks", "top:\u0664"),
                       ("--layers", "list:1_0,2"), ("--layers", "first:1_0"),
                       ("--ranks", "range:0:1_0")]:
        assert cli.main(restore + [flag, text, "--out", str(out)]) == 2, text
        assert repr(text) in capsys.readouterr().err
        assert files(out) == {}
    sweep = {"ranks": ["top:4", "top:1_6"]}
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", sweep=sweep)) == 2
    assert files(out) == {}
    for layers, ranks, stem in [
        ("all", " TOP:04", "values__layers-all__ranks-top-4"),
        ("all", "top: 4", "values__layers-all__ranks-top-4"),
        ("list:1, 2", "range: 1 :3", "values__layers-list-1-2__ranks-range-1-3"),
    ]:
        assert cli.main(restore + ["--layers", layers, "--ranks", ranks, "--out", str(out)]) == 0
        written = files(out)
        assert set(written) == {f"{stem}.safetensors", f"{stem}.report.csv", f"{stem}.report.json"}
        report = json.loads(written[f"{stem}.report.json"])
        canonical = (report["plan"]["layers"], report["plan"]["ranks"])
        shutil.rmtree(out)
        assert cli.main(restore + ["--layers", canonical[0], "--ranks", canonical[1],
                                   "--out", str(out)]) == 0
        assert files(out) == written
        shutil.rmtree(out)


@pytest.mark.parametrize("name", ["svd-diff", "angles", "restore-values", "restore-copy",
                                  "penalty"])
def test_nan_in_checkpoint_exits_3_and_writes_nothing(name, pair, rollouts, tmp_path):
    # (checkpoint, matrix) holding the NaN; the second checkpoint's matrices are loaded
    # lazily, so a square and a rectangular one are checked there too
    cases = [(0, "self_attn.q_proj")]
    if name != "restore-copy":  # selects no ranks, so it reads no donor matrix
        cases += [(1, "self_attn.q_proj"), (1, "mlp.up_proj")]
    for which, matrix in cases:
        for i, seed in enumerate((11, 23)):
            arrays = synth_decoder_arrays(seed)
            if i == which:
                arrays[f"model.layers.0.{matrix}.weight"][2, 3] = np.nan
            write_ckpt(pair[i], arrays)
        out = tmp_path / f"out-{which}-{matrix}"
        assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 3, matrix
        assert files(out) == {}


def test_svd_non_convergence_exits_3_and_writes_nothing(pair, rollouts, tmp_path, monkeypatch):
    def not_converging(*args):
        return 1  # info > 0: the bidiagonal iteration did not converge

    monkeypatch.setattr(spectral, "_gesdd", lambda: not_converging)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_tensor_whose_size_wraps_int64_exits_2_and_names_it(tmp_path, capsys):
    # 2**32 * 2**32 F32 elements wrap to 0 bytes in int64, matching data_offsets [0, 0]
    name = "model.layers.0.self_attn.q_proj.weight"
    header = {name: {"dtype": "F32", "shape": [2**32, 2**32], "data_offsets": [0, 0]}}
    blob = json.dumps(header).encode()
    probe = tmp_path / "probe.safetensors"
    probe.write_bytes(struct.pack("<Q", len(blob)) + blob)
    out = tmp_path / "out"
    assert cli.main(["svd-diff", "--a", str(probe), "--b", str(probe), "--out", str(out)]) == 2
    assert repr(name) in capsys.readouterr().err
    assert files(out) == {}


@pytest.mark.parametrize("header, named", [
    ({"__metadata__": {"format": 1}}, "__metadata__"),
    ({"w": 5}, "malformed header entry for 'w'"),
    ({"w": {"dtype": "F32", "shape": [1]}}, "malformed header entry for 'w'"),
    (["w"], "not a JSON object"),
])
def test_malformed_header_exits_2_and_writes_nothing(header, named, pair, tmp_path, capsys):
    blob = json.dumps(header).encode()
    probe = tmp_path / "probe.safetensors"
    probe.write_bytes(struct.pack("<Q", len(blob)) + blob)
    out = tmp_path / "out"
    assert cli.main(["svd-diff", "--a", str(probe), "--b", str(pair[1]), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert files(out) == {}


def test_stamp_writes_generated_at(pair, tmp_path):
    host, donor = (str(p) for p in pair)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "svd-diff", "a": host, "b": donor,
                                    "output_dir": str(tmp_path / "run"), "stamp": False}))
    assert cli.main(["svd-diff", "--a", host, "--b", donor, "--stamp",
                     "--out", str(tmp_path / "flag")]) == 0
    assert cli.main(["run", "--manifest", str(manifest), "--stamp"]) == 0
    for out in ("flag", "run"):
        stamp = json.loads((tmp_path / out / "summary.json").read_text())["generated_at"]
        assert datetime.datetime.fromisoformat(stamp).tzinfo is not None


def test_zero_matrix_reports_undefined_rel_drift_as_null(pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(11)
    arrays["model.layers.0.self_attn.q_proj.weight"][:] = 0.0
    write_ckpt(pair[0], arrays)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(out)]) == 0
    report = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
    drift = {m["key"]: m["rel_drift"] for m in report["matrices"]}
    assert drift.pop("L000_q") is None
    assert all(isinstance(value, float) for value in drift.values())
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    assert rows[1][:2] == ["0", "q"] and rows[1][-1] == ""


def test_non_finite_report_value_exits_3_and_writes_nothing(pair, rollouts, tmp_path, monkeypatch):
    with pytest.raises(NumericalError):
        write_json(tmp_path / "x.json", {"x": float("nan")})
    assert not (tmp_path / "x.json").exists()

    monkeypatch.setattr(spectral.DeltaSpectrum, "rel_drift", property(lambda s: float("inf")))
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_shape_mismatch_exits_2_and_writes_nothing(pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(23)
    arrays["model.layers.0.self_attn.q_proj.weight"] = np.eye(5)
    write_ckpt(pair[1], arrays)
    for name in ("svd-diff", "angles", "restore-values", "penalty"):
        out = tmp_path / name
        assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 2
        assert files(out) == {}


def test_restore_rejects_a_shape_mismatch_outside_the_selected_layers(pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(23)
    arrays["model.layers.1.self_attn.q_proj.weight"] = np.eye(5)
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["restore-values"] + ["--layers", "list:0"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert files(out) == {}


def test_missing_input_file_exits_2(pair, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["svd-diff", "--a", str(pair[0]), "--b", str(tmp_path / "nope"),
                     "--out", str(out)])
    assert code == 2
    assert cli.main(["adv-stats", "--input", str(tmp_path / "nope"), "--out", str(out)]) == 2
    assert files(out) == {}


def test_inspect_prints_the_index_and_metadata_keys(write_container, tmp_path, capsys):
    path = write_container(
        {
            "b.w": ("F32", np.zeros((2, 3))),
            "a.w": ("BF16", np.zeros((4, 2), dtype=np.uint16)),
            "c.bias": ("F32", np.zeros(5)),
        },
        metadata={"format": "pt", "author": "x"},
    )
    assert cli.main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"checkpoint: {path}",
        "tensors: 3",
        f"payload bytes: {2 * 3 * 4 + 4 * 2 * 2 + 5 * 4}",
        "  BF16: 1",
        "  F32: 2",
        "metadata keys: author, format",
    ]
    missing = tmp_path / "nope.safetensors"
    assert cli.main(["inspect", str(missing)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: checkpoint file not found: {missing}\n")


# ---------------------------------------------------------------------------
# report layouts


def test_svd_diff_layout(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(out)]) == 0
    names = set(files(out))
    assert {"summary.csv", "summary.json", "plot_data.csv", "delta_sigma__L000_q.csv",
            "delta_sigma__L001_mlp_down.csv"} <= names
    assert len(names) == 3 + 14
    assert csv_header(out / "summary.csv") == [
        "layer", "kind", "tensor", "rank", "max_abs_delta", "mean_delta", "rel_drift"]
    assert csv_header(out / "delta_sigma__L000_q.csv") == ["index", "sigma_a", "sigma_b", "delta"]
    assert csv_header(out / "plot_data.csv") == ["matrix", "index", "sigma_a", "sigma_b", "delta"]
    report = json.loads((out / "summary.json").read_text())
    assert set(report) == {"command", "toolkit_version", "inputs", "matrices",
                           "max_abs_delta_overall"}
    assert set(report["inputs"]) == {"a", "b", "profile"}
    assert len(report["matrices"]) == 14
    assert set(report["matrices"][0]) == {"key", "tensor", "rank", "max_abs_delta",
                                          "mean_delta", "rel_drift"}
    assert report["matrices"][0]["key"] == "L000_q"
    assert report["max_abs_delta_overall"] == max(m["max_abs_delta"] for m in report["matrices"])


def test_angles_layout(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["angles"] + ["--out", str(out)]) == 0
    names = set(files(out))
    assert {"summary.csv", "summary.json", "plot_data.csv", "angles__L000_q__left.csv",
            "angles__L000_q__right.csv"} <= names
    assert len(names) == 3 + 28
    assert csv_header(out / "summary.csv") == [
        "layer", "kind", "tensor", "side", "rank", "min_deg", "max_deg", "mean_deg"]
    assert csv_header(out / "angles__L001_v__left.csv") == [
        "index", "cosine", "angle_rad", "angle_deg"]
    assert csv_header(out / "plot_data.csv") == [
        "matrix", "side", "index", "cosine", "angle_rad", "angle_deg"]
    report = json.loads((out / "summary.json").read_text())
    assert set(report) == {"command", "toolkit_version", "inputs", "matrices"}
    assert len(report["matrices"]) == 28
    assert set(report["matrices"][0]) == {"key", "tensor", "side", "rank", "min_deg",
                                          "max_deg", "mean_deg"}
    assert [m["side"] for m in report["matrices"][:2]] == ["left", "right"]


def test_angles_decomposes_only_rectangular_pairs(pair, rollouts, tmp_path, monkeypatch):
    calls = []  # per matrix_angles call: [shape, svd calls, principal_angles calls]

    def counted(name):
        original = getattr(spectral, name)

        def wrapper(*args, **kwargs):
            if name == "matrix_angles":
                calls.append([np.shape(args[0]()), 0, 0])
            else:
                calls[-1][1 if name == "svd" else 2] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("matrix_angles", "svd", "principal_angles"):
        monkeypatch.setattr(spectral, name, counted(name))
    monkeypatch.setattr(cli, "matrix_angles", spectral.matrix_angles)
    assert cli.main(commands(pair, rollouts)["angles"] + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 14
    assert {m == n for (m, n), _, _ in calls} == {True, False}
    for (m, n), svds, angles in calls:
        assert (svds, angles) == ((0, 0) if m == n else (2, 1))


def test_restore_layout(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["restore-values"] + ["--out", str(out)]) == 0
    stem = "values__layers-all__ranks-top-3"
    assert set(files(out)) == {f"{stem}.safetensors", f"{stem}.report.csv", f"{stem}.report.json"}
    assert csv_header(out / f"{stem}.report.csv") == [
        "layer", "kind", "tensor", "status", "ranks_touched", "rank_lo", "rank_hi",
        "fro_vs_host", "fro_vs_donor", "max_entry_change", "degenerate_boundary"]
    report = json.loads((out / f"{stem}.report.json").read_text())
    assert set(report) == {"command", "toolkit_version", "plan", "output_checkpoint",
                           "edited_matrices", "records", "copied_tensors", "write"}
    assert set(report["plan"]) == {"mode", "donor", "host", "profile", "layers", "ranks",
                                   "kinds", "align"}
    assert report["edited_matrices"] == len(report["records"]) == 12
    assert set(report["records"][0]) == {
        "key", "tensor", "status", "ranks_touched", "rank_lo", "rank_hi", "fro_vs_host",
        "fro_vs_donor", "max_entry_change", "degenerate_boundary"}
    assert report["records"][0]["key"] == "L000.q"
    assert set(report["write"]) == {"tensors_written", "tensors_edited", "max_rounding_error"}


def test_penalty_layout(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["penalty"] + ["--out", str(out)]) == 0
    assert set(files(out)) == {"penalty.csv", "summary.json"}
    assert csv_header(out / "penalty.csv") == [
        "layer", "kind", "tensor", "rank_used", "penalty", "degenerate_boundary"]
    report = json.loads((out / "summary.json").read_text())
    assert set(report) == {"command", "toolkit_version", "inputs", "per_kind_totals", "total",
                           "matrices"}
    assert set(report["inputs"]) == {"ref", "current", "profile", "rank"}
    assert report["matrices"] == 12


def test_penalty_rank_0_exits_2_and_writes_nothing(pair, rollouts, tmp_path, capsys):
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["penalty"][:-1] + ["0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "rank must be >= 1, got 0" in capsys.readouterr().err
    assert files(out) == {}


def test_adv_stats_layout(rollouts, pair, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["adv-stats"] + ["--out", str(out)]) == 0
    assert set(files(out)) == {"summary.json", "histogram.csv"}
    assert csv_header(out / "histogram.csv") == [
        "bin_left", "bin_right", "count", "p", "matched_normal_mass"]
    report = json.loads((out / "summary.json").read_text())
    assert set(report) == {
        "command", "toolkit_version", "input", "source", "n", "mu", "sd", "skewness",
        "entropy_nats", "kl_vs_matched_normal", "silverman_p", "estimator_config", "verdict",
        "checks", "thresholds", "threshold_note"}


@pytest.mark.parametrize("scale, cause", [(1e-130, "underflows"), (1e200, "overflows")])
def test_adv_stats_out_of_range_scale_exits_3_and_names_it(scale, cause, rollouts, tmp_path,
                                                           capsys):
    samples = [json.loads(line)["advantage"] * scale for line in rollouts.read_text().splitlines()]
    rollouts.write_text("".join(json.dumps({"advantage": x}) + "\n" for x in samples))
    out = tmp_path / "out"
    assert cli.main(["adv-stats", "--input", str(rollouts), "--out", str(out)]) == 3
    assert cause in capsys.readouterr().err
    assert files(out) == {}


# ---------------------------------------------------------------------------
# a key that only one checkpoint has


@pytest.mark.parametrize("name,rows", [("svd-diff", 13), ("angles", 26), ("penalty", 11)])
def test_compare_commands_skip_a_key_missing_from_the_second(name, rows, pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(23)
    del arrays[MISSING]
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 0
    table = out / ("penalty.csv" if name == "penalty" else "summary.csv")
    lines = table.read_text().splitlines()[1:]
    assert len(lines) == rows
    assert not any(MISSING in line for line in lines)


def test_restore_exits_2_on_a_key_missing_from_the_donor(pair, rollouts, tmp_path, capsys):
    arrays = synth_decoder_arrays(23)
    del arrays[MISSING]
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)["restore-values"] + ["--out", str(out)]) == 2
    assert "L001.mlp_up" in capsys.readouterr().err
    assert files(out) == {}


@pytest.mark.parametrize("name,rows", [("svd-diff", 13), ("angles", 26), ("penalty", 11)])
def test_compare_commands_skip_a_key_only_the_second_has(name, rows, pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(11)  # the first checkpoint's seed
    del arrays[MISSING]
    write_ckpt(pair[0], arrays)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 0
    table = out / ("penalty.csv" if name == "penalty" else "summary.csv")
    lines = table.read_text().splitlines()[1:]
    assert len(lines) == rows
    assert not any(MISSING in line for line in lines)


def test_restore_ignores_a_key_only_the_donor_has(pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(11)
    del arrays[MISSING]
    write_ckpt(pair[0], arrays)
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["restore-values"] + ["--out", str(out)]
    assert cli.main(argv) == 0
    with_key = files(out)
    shutil.rmtree(out)
    arrays = synth_decoder_arrays(23)
    del arrays[MISSING]
    write_ckpt(pair[1], arrays)
    assert cli.main(argv) == 0
    assert files(out) == with_key


# ---------------------------------------------------------------------------
# the order each command loads matrices in

#: tensor names of the 2-layer `pair`, in key order
PAIR_NAMES = [name for layer in (0, 1) for name in decoder_layer_shapes(layer)]


def record_loads(monkeypatch) -> list[tuple]:
    """Log each `tensorstore.load_matrix` call as (file name, tensor, previous matrix alive)."""
    loads, returned = [], []
    original = tensorstore.load_matrix

    def recorded(ckpt, name):
        loads.append((ckpt.path.name, name, bool(returned) and returned[-1]() is not None))
        w = original(ckpt, name)
        returned.append(weakref.ref(w))
        return w

    monkeypatch.setattr(tensorstore, "load_matrix", recorded)
    return loads


@pytest.mark.parametrize("name", ["svd-diff", "angles"])
def test_compare_commands_load_a_then_b_per_key(name, pair, rollouts, tmp_path, monkeypatch):
    loads = record_loads(monkeypatch)
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(tmp_path / "out")]) == 0
    want = [(ckpt, n) for n in PAIR_NAMES for ckpt in ("host.safetensors", "donor.safetensors")]
    assert [(ckpt, n) for ckpt, n, _ in loads] == want


def test_penalty_drops_the_reference_before_the_current_loads(pair, rollouts, tmp_path,
                                                              monkeypatch):
    loads = record_loads(monkeypatch)
    assert cli.main(commands(pair, rollouts)["penalty"] + ["--out", str(tmp_path / "out")]) == 0
    names = [n for n in PAIR_NAMES if "o_proj" not in n]  # o is not a default kind
    want = [(ckpt, n) for n in names for ckpt in ("host.safetensors", "donor.safetensors")]
    assert [(ckpt, n) for ckpt, n, _ in loads] == want
    assert not any(alive for _, _, alive in loads[1::2])


def test_restore_sweep_loads_donor_then_host_then_both_per_grid_point(pair, tmp_path,
                                                                      monkeypatch):
    loads = record_loads(monkeypatch)
    sweep = {"ranks": ["top:2", "top:3"]}
    manifest = restore_manifest(pair, tmp_path / "out", mode="vectors", sweep=sweep)
    assert run_manifest(tmp_path, manifest) == 0
    names = [n for n in PAIR_NAMES if "o_proj" not in n]
    order = ["donor", "host"] + ["host", "donor"] * len(sweep["ranks"])
    want = [(f"{ckpt}.safetensors", n) for n in names for ckpt in order]
    assert [(ckpt, n) for ckpt, n, _ in loads] == want


@pytest.mark.parametrize("name", ["restore-values", "penalty"])
@pytest.mark.parametrize("kinds", ["nope", "q,nope"])
def test_kind_outside_the_profile_exits_2_and_names_kinds(name, kinds, pair, rollouts, tmp_path,
                                                          capsys):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)[name] + ["--kinds", kinds, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kinds" in err and "'nope'" in err
    assert files(out) == {}


def test_penalty_kinds_present_in_only_one_file_exit_2_with_the_walk_message(
        pair, rollouts, tmp_path, capsys):
    arrays = synth_decoder_arrays(23)
    write_ckpt(pair[1], {name: arr for name, arr in arrays.items() if "o_proj" not in name})
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["penalty"] + ["--kinds", "o", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: profile 'llama-style' resolves no comparable 2-D tensors of kinds o "
        "in both checkpoints\n"
    )
    assert files(out) == {}


def test_procrustes_alignment_in_values_mode_exits_2(pair, rollouts, tmp_path, capsys):
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["restore-values"] + ["--align", "procrustes"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "procrustes" in capsys.readouterr().err
    assert files(out) == {}


# ---------------------------------------------------------------------------
# manifests


def restore_manifest(pair, out, **extra):
    host, donor = (str(p) for p in pair)
    return {"command": "restore", "inputs": {"host": host, "donor": donor},
            "output_dir": str(out), "layers": "all", "ranks": "all", "profile": "llama-style",
            **extra}


def test_manifest_matches_the_equivalent_flags(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["restore-vectors"] + ["--out", str(out)]
    assert cli.main(argv) == 0
    by_flags = files(out)
    shutil.rmtree(out)
    manifest = restore_manifest(pair, out, mode="vectors", layers="last:1", ranks="range:1:4",
                                kinds=["q", "mlp_down"], profile="llama-style")
    assert run_manifest(tmp_path, manifest) == 0
    assert files(out) == by_flags


def test_manifest_sweep_writes_one_output_per_grid_point(pair, tmp_path):
    out = tmp_path / "out"
    sweep = {"layers": ["first:1", "all"], "ranks": ["top:2", "bottom:1"]}
    manifest = restore_manifest(pair, out, mode="values", sweep=sweep)
    assert run_manifest(tmp_path, manifest) == 0
    first = files(out)
    assert len(first) == 4 * 3
    assert "values__layers-first-1__ranks-bottom-1.report.json" in first
    shutil.rmtree(out)
    assert run_manifest(tmp_path, manifest) == 0
    assert files(out) == first


def test_every_output_is_the_same_bytes_with_the_fallback_svd(pair, rollouts, tmp_path,
                                                              monkeypatch):
    # `_lapack_svd` promises np.linalg.svd's bytes; every report and checkpoint shows it
    if spectral._gesdd() is None:
        pytest.skip("no dgesdd binding here")
    out = tmp_path / "out"
    argvs = [commands(pair, rollouts)[name] + ["--out", str(out / name)]
             for name in ("svd-diff", "angles", "restore-values", "penalty")]
    argvs.append(commands(pair, rollouts)["restore-vectors"]
                 + ["--align", "procrustes", "--out", str(out / "procrustes")])
    sweep = {"layers": ["first:1", "all"], "ranks": ["top:2", "top:6"]}
    manifest = restore_manifest(pair, out / "sweep", mode="vectors", sweep=sweep)

    def run_all():
        shutil.rmtree(out, ignore_errors=True)
        for argv in argvs:
            assert cli.main(argv) == 0
        assert run_manifest(tmp_path, manifest) == 0
        return files(out)

    binding = run_all()
    assert sum(name.endswith(".safetensors") for name in binding) == 6
    monkeypatch.setattr(spectral, "_gesdd", lambda: None)
    assert run_all() == binding


def test_manifest_rejects_unknown_command_and_bad_json(tmp_path):
    assert run_manifest(tmp_path, {"command": "inspect", "output_dir": str(tmp_path)}) == 2
    assert run_manifest(tmp_path, ["restore"]) == 2
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["run", "--manifest", str(path)]) == 2
    assert cli.main(["run", "--manifest", str(tmp_path / "absent.json")]) == 2


def test_manifest_that_is_not_json_exits_2_and_names_it(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["run", "--manifest", str(path)]) == 2
    assert f"manifest {path} is not valid JSON" in capsys.readouterr().err


def test_manifest_missing_output_dir_exits_2(pair, tmp_path):
    manifest = restore_manifest(pair, tmp_path / "out", mode="values")
    del manifest["output_dir"]
    assert run_manifest(tmp_path, manifest) == 2


@pytest.mark.parametrize("extra, named", [
    ({"mode": "value"}, "mode must be one of ('values', 'vectors'), got 'value'"),
    ({"mode": "vectors", "align": "Procrustes"},
     "align must be one of ('none', 'procrustes'), got 'Procrustes'"),
])
def test_manifest_mode_or_align_outside_its_words_exits_2(extra, named, pair, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out, **extra)) == 2
    assert named in capsys.readouterr().err
    assert files(out) == {}


def test_manifest_omitting_optional_keys_gets_flag_defaults(pair, rollouts, tmp_path):
    out = tmp_path / "out"
    host, donor = (str(p) for p in pair)
    assert cli.main(["restore", "--mode", "values", "--host", host, "--donor", donor,
                     "--out", str(out)]) == 0
    by_flags = files(out)
    shutil.rmtree(out)
    manifest = {"command": "restore", "inputs": {"host": host, "donor": donor},
                "mode": "values", "output_dir": str(out)}
    assert run_manifest(tmp_path, manifest) == 0
    assert files(out) == by_flags

    shutil.rmtree(out)
    assert cli.main(["svd-diff", "--a", host, "--b", donor, "--out", str(out)]) == 0
    by_flags = files(out)
    shutil.rmtree(out)
    manifest = {"command": "svd-diff", "inputs": {"a": host, "b": donor}, "output_dir": str(out)}
    assert run_manifest(tmp_path, manifest) == 0
    assert files(out) == by_flags


def test_restore_sweep_plans_each_grid_point_once(pair, tmp_path, monkeypatch):
    calls = {"plan_selection": 0, "resolve_keys": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name, owner, users in [("plan_selection", surgery, (cli, surgery)),
                               ("resolve_keys", tensorstore, (surgery, tensorstore))]:
        wrapper = counted(owner, name)
        for module in users:
            monkeypatch.setattr(module, name, wrapper, raising=False)
    sweep = {"layers": ["first:1", "all"], "ranks": ["top:2", "bottom:1"]}
    manifest = restore_manifest(pair, tmp_path / "out", mode="values", sweep=sweep)
    assert run_manifest(tmp_path, manifest) == 0
    # one plan for the whole sweep, so key resolution does not grow with the grid
    assert calls == {"plan_selection": 1, "resolve_keys": 2}


def test_kl_direction_flag_and_manifest_key_exit_2(rollouts, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["adv-stats", "--input", str(rollouts), "--out", str(out),
                  "--kl-direction", "empirical_vs_normal"])
    assert exc.value.code == 2
    manifest = {"command": "adv-stats", "input": str(rollouts), "output_dir": str(out),
                "kl_direction": "empirical_vs_normal"}
    assert run_manifest(tmp_path, manifest) == 2
    assert files(out) == {}


def test_manifest_missing_required_key_exits_2_and_names_it(pair, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out)) == 2
    assert "mode" in capsys.readouterr().err
    assert files(out) == {}


def test_manifest_unknown_key_exits_2(pair, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", rank="top:2")) == 2
    assert "rank" in capsys.readouterr().err
    assert files(out) == {}


def test_manifest_string_kinds_is_one_kind_list(pair, tmp_path):
    out = tmp_path / "out"
    manifest = restore_manifest(pair, out, mode="values", kinds="mlp_gate")
    assert run_manifest(tmp_path, manifest) == 0
    report = json.loads((out / "values__layers-all__ranks-all.report.json").read_text())
    assert report["plan"]["kinds"] == ["mlp_gate"]
    assert report["edited_matrices"] == 2


@pytest.mark.parametrize("kinds", [[1, 2], ["q", None], {"q": "k"}, False, None])
def test_manifest_kinds_that_are_not_strings_exit_2_and_name_the_key(kinds, pair, tmp_path,
                                                                      capsys):
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", kinds=kinds)) == 2
    assert "'kinds'" in capsys.readouterr().err
    assert files(out) == {}


def test_failed_sweep_writes_nothing(pair, tmp_path, capsys):
    arrays = synth_decoder_arrays(23)
    del arrays[MISSING]
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    manifest = restore_manifest(pair, out, mode="values", sweep={"layers": ["first:1", "all"]})
    assert run_manifest(tmp_path, manifest) == 2
    assert "L001.mlp_up" in capsys.readouterr().err
    assert files(out) == {}


def test_sweep_failing_numerically_at_a_later_grid_point_writes_nothing(pair, tmp_path):
    sweep = {"layers": ["first:1", "all"]}
    earlier = tmp_path / "earlier"
    assert run_manifest(tmp_path, restore_manifest(pair, earlier, mode="values", sweep=sweep)) == 0
    before = files(earlier)
    arrays = synth_decoder_arrays(23)
    arrays[MISSING][1, 2] = np.nan  # only the "all" grid point reaches layer 1
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", sweep=sweep)) == 3
    assert files(out) == {}
    # a failed rerun into a used directory leaves the earlier outputs as they were
    assert run_manifest(tmp_path, restore_manifest(pair, earlier, mode="values", sweep=sweep)) == 3
    assert files(earlier) == before


@pytest.mark.parametrize(
    "flag", ["--bootstrap=0", "--bootstrap=-3", "--mode-budget=0", "--seed=-1"]
)
def test_invalid_estimator_setting_exits_2_and_writes_nothing(flag, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["adv-stats", "--input", str(rollouts), "--out", str(out), flag]) == 2
    assert not out.exists()


def test_thresholds_neither_default_nor_a_file_exits_2(rollouts, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["adv-stats", "--input", str(rollouts), "--out", str(out),
                     "--thresholds", "strict"]) == 2
    assert "thresholds must be 'default' or a JSON file, got 'strict'" in capsys.readouterr().err
    assert not out.exists()


def trace_row(t, reward=None, value=0.5):
    """One trace-form rollout row of trace "a"; no reward makes it the terminal-value row."""
    row = {"trace_id": "a", "t": t, "value": value}
    return json.dumps(row if reward is None else {**row, "reward": reward})


@pytest.mark.parametrize("lines, code, named", [
    ([trace_row(0, 1.0), trace_row(1, float("nan"))], 3, "non-finite"),
    (['{"reward": 1.0}'], 2, "needs either 'advantage' or"),
    (["", "   "], 2, "no records found"),
    ([trace_row(0, 1.0), trace_row(1), trace_row(2)], 2, "multiple terminal-value rows"),
    ([trace_row(0), trace_row(1, 1.0)], 2, "terminal-value row must come last"),
])
def test_malformed_rollout_log_exits_and_writes_nothing(lines, code, named, tmp_path, capsys):
    log = tmp_path / "rollouts.jsonl"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["adv-stats", "--input", str(log), "--out", str(out)]) == code
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["x", True, None, float("nan"), float("inf"), float("-inf")])
def test_non_numeric_threshold_exits_2_and_writes_nothing(value, rollouts, tmp_path, capsys):
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps({"kl_max": value}))
    out = tmp_path / "out"
    assert cli.main(["adv-stats", "--input", str(rollouts), "--out", str(out),
                     "--bootstrap", "20", "--thresholds", str(thresholds)]) == 2
    assert "kl_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("role", ["thresholds", "manifest", "profile", "rollout log"])
def test_input_file_that_is_not_utf8_exits_2_and_names_it(role, pair, rollouts, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff{"advantage": 1.0}\n')
    out = tmp_path / "out"
    argv = {
        "thresholds": ["adv-stats", "--input", str(rollouts), "--bootstrap", "20",
                       "--thresholds", str(bad), "--out", str(out)],
        "manifest": ["run", "--manifest", str(bad)],
        "profile": commands(pair, rollouts)["svd-diff"] + ["--profile", str(bad), "--out", str(out)],
        "rollout log": ["adv-stats", "--input", str(bad), "--out", str(out)],
    }[role]
    assert cli.main(argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


Q_TEMPLATE = "model.layers.{layer}.self_attn.q_proj.weight"


@pytest.mark.parametrize("spec, named", [
    ({"patterns": [{"template": 5, "kind": "q"}]}, "template"),
    ({"patterns": [{"template": Q_TEMPLATE, "kind": ["q"]}]}, "kind"),
    # a string would be split into one-character globs, one of them "*"
    ({"patterns": [{"template": Q_TEMPLATE, "kind": "q"}], "exclusions": "*.bias"}, "exclusions"),
    ({"patterns": [{"template": "model.q_proj.weight", "kind": "q"}]}, "exactly one {layer}"),
    ({"patterns": [{"template": Q_TEMPLATE, "kind": "q"}, {"template": Q_TEMPLATE, "kind": "k"}]},
     "matches multiple patterns"),
])
def test_malformed_profile_field_exits_2_and_names_it(spec, named, pair, rollouts, tmp_path,
                                                      capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["svd-diff"] + ["--profile", str(profile), "--out", str(out)]
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_profile_exclusion_drops_a_matched_tensor(pair, rollouts, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"patterns": [{"template": Q_TEMPLATE, "kind": "q"}],
                                   "exclusions": ["model.layers.1.*"]}))
    out = tmp_path / "out"
    argv = commands(pair, rollouts)["svd-diff"] + ["--profile", str(profile), "--out", str(out)]
    assert cli.main(argv) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0", "q", Q_TEMPLATE.format(layer=0)]]


@pytest.mark.parametrize("extra, named", [
    ({"inputs": "x"}, ["inputs"]),
    ({"inputs": 5}, ["inputs"]),
    ({"sweep": ["top:4"]}, ["sweep"]),
    ({"sweep": {"ranks": "top:4"}}, ["sweep", "ranks"]),
    ({"sweep": {"rank": ["top:4"]}}, ["sweep", "rank"]),
    ({"layers": 5}, ["layers"]),
    ({"ranks": ["top:4"]}, ["ranks"]),
    ({"force_f32": "no"}, ["force_f32"]),
    ({"stamp": "no"}, ["stamp"]),
    ({"command": "svd-diff", "emit_plot_data": 1}, ["emit_plot_data"]),
    ({"command": "adv-stats", "bootstrap": 20.9}, ["bootstrap"]),
    ({"command": "adv-stats", "bootstrap": True}, ["bootstrap"]),
    ({"command": "adv-stats", "seed": 1.5}, ["seed"]),
    ({"command": "adv-stats", "mode_budget": "1"}, ["mode_budget"]),
    ({"command": "adv-stats", "bins": 20.9}, ["bins"]),
    ({"command": "adv-stats", "bins": "20"}, ["bins"]),
    ({"command": "adv-stats", "gamma": True}, ["gamma"]),
    ({"command": "adv-stats", "gamma": 10**400}, ["gamma"]),
    ({"command": "adv-stats", "lam": "0.9"}, ["lam"]),
    ({"command": "penalty", "rank": 2.5}, ["rank"]),
    ({"command": "penalty", "rank": False}, ["rank"]),
])
def test_malformed_manifest_inputs_or_sweep_exits_2_and_names_the_key(
    extra, named, pair, rollouts, tmp_path, capsys
):
    out = tmp_path / "out"
    host, donor = (str(p) for p in pair)
    base = {
        "restore": restore_manifest(pair, out, mode="values"),
        "svd-diff": {"command": "svd-diff", "inputs": {"a": host, "b": donor},
                     "output_dir": str(out)},
        "adv-stats": {"command": "adv-stats", "input": str(rollouts), "bootstrap": 20,
                      "output_dir": str(out)},
        "penalty": {"command": "penalty", "ref": host, "current": donor, "rank": 3,
                    "output_dir": str(out)},
    }[extra.get("command", "restore")]
    assert run_manifest(tmp_path, {**base, **extra}) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named)
    assert not out.exists()


# ---------------------------------------------------------------------------
# one output path: staging inside --out


WRITERS = ["svd-diff", "angles", "restore-values", "penalty", "adv-stats"]


@pytest.mark.parametrize("name", WRITERS)
def test_failed_report_write_leaves_no_output(name, pair, rollouts, tmp_path, monkeypatch):
    argv = commands(pair, rollouts)[name]
    earlier = tmp_path / "earlier"
    assert cli.main(argv + ["--out", str(earlier)]) == 0
    before = files(earlier)

    def failing_write_json(path, payload):
        path.write_text("{")  # a write cut short leaves a truncated file
        raise WriteError(f"cannot write {path}: no space left on device")

    monkeypatch.setattr(cli, "write_json", failing_write_json)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 4
    assert list(out.iterdir()) == []
    assert cli.main(argv + ["--out", str(earlier)]) == 4
    assert files(earlier) == before
    assert not any(p.name.startswith(".") for p in earlier.iterdir())


def test_output_name_taken_by_a_directory_publishes_nothing(pair, rollouts, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(out)]) == 4
    assert "summary.json" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert list((out / "summary.json").iterdir()) == []


@pytest.mark.parametrize("name", WRITERS)
def test_successful_run_leaves_no_staging_directory(name, pair, rollouts, tmp_path):
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 0
    assert files(out)
    assert not any(p.name.startswith(".") for p in out.iterdir())


# ---------------------------------------------------------------------------
# restore sweeps run matrix by matrix


@pytest.mark.parametrize("ranks, edited", [
    (["top:2", "bottom:1"], 12),
    (["top:0", "top:2"], 12),
    (["top:0", "range:40:50"], 0),  # no grid point selects a rank: no SVD at all
])
def test_sweep_decomposes_each_edited_matrix_once(ranks, edited, pair, tmp_path, monkeypatch):
    calls = []
    original = surgery.svd

    def counted(w, keep=None):
        calls.append(w.shape)
        return original(w, keep)

    monkeypatch.setattr(surgery, "svd", counted)
    out = tmp_path / "out"
    sweep = {"layers": ["first:1", "all"], "ranks": ranks}
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", sweep=sweep)) == 0
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.report.json"))]
    assert len(reports) == 4
    union = {r["tensor"] for rep in reports for r in rep["records"] if r["status"] == "edited"}
    assert len(union) == edited
    assert len(calls) == 2 * len(union)


@pytest.mark.parametrize("flags, sweep", [
    ({"mode": "values", "force_f32": True},
     {"layers": ["first:1", "all"], "ranks": ["top:2", "range:1:5"]}),
    ({"mode": "vectors", "align": "procrustes"},
     {"layers": ["last:1", "all"], "ranks": ["top:3", "bottom:2"]}),
    ({"mode": "values"}, {"layers": ["all"], "ranks": ["top:0", "top:4"]}),
])
def test_each_sweep_grid_point_matches_the_same_selection_run_alone(flags, sweep, pair, tmp_path):
    out = tmp_path / "out"
    assert run_manifest(tmp_path, restore_manifest(pair, out, sweep=sweep, **flags)) == 0
    swept = files(out)
    assert len(swept) == 3 * len(sweep["layers"]) * len(sweep["ranks"])
    alone = {}
    for layers in sweep["layers"]:
        for ranks in sweep["ranks"]:
            shutil.rmtree(out)
            manifest = restore_manifest(pair, out, layers=layers, ranks=ranks, **flags)
            assert run_manifest(tmp_path, manifest) == 0
            alone.update(files(out))
    assert alone == swept


def test_sweep_with_a_repeated_selector_writes_each_output_once(pair, tmp_path):
    out = tmp_path / "out"
    sweep = {"ranks": ["top:16", "top:16"]}
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="vectors", sweep=sweep)) == 0
    swept = files(out)
    shutil.rmtree(out)
    manifest = restore_manifest(pair, out, mode="vectors", ranks="top:16")
    assert run_manifest(tmp_path, manifest) == 0
    assert len(swept) == 3
    assert swept == files(out)


def test_spellings_of_one_selection_are_one_grid_point_named_canonically(pair, tmp_path):
    out = tmp_path / "out"
    sweep = {"layers": ["list:1,0", "LIST:0,1"], "ranks": ["top:4", "TOP:4", " top:4"]}
    assert run_manifest(tmp_path, restore_manifest(pair, out, mode="values", sweep=sweep)) == 0
    stem = "values__layers-list-0-1__ranks-top-4"
    swept = files(out)
    assert set(swept) == {f"{stem}.safetensors", f"{stem}.report.csv", f"{stem}.report.json"}
    report = json.loads(swept[f"{stem}.report.json"])
    assert (report["plan"]["layers"], report["plan"]["ranks"]) == ("list:0,1", "top:4")
    assert report["output_checkpoint"] == str(out / f"{stem}.safetensors")
    shutil.rmtree(out)
    host, donor = (str(p) for p in pair)
    assert cli.main(["restore", "--mode", "values", "--host", host, "--donor", donor,
                     "--layers", "LIST:1,0", "--ranks", " TOP:04", "--out", str(out)]) == 0
    assert files(out) == swept


def test_sweep_holds_edits_narrowed_not_in_float64(tmp_path):
    dim, kv_dim, layers = 256, 64, 3
    for tag, seed in (("host", 11), ("donor", 23)):
        arrays = synth_decoder_arrays(seed, layers=layers, dim=dim, kv_dim=kv_dim)
        bits = {name: ("BF16", (arr.astype(np.float32).view(np.uint32) >> 16).astype(np.uint16))
                for name, arr in arrays.items()}
        (tmp_path / f"{tag}.safetensors").write_bytes(pack_container(bits))
    pair = (tmp_path / "host.safetensors", tmp_path / "donor.safetensors")
    sweep = {"ranks": ["top:4", "top:16", "bottom:8"]}
    manifest = restore_manifest(pair, tmp_path / "out", mode="vectors", sweep=sweep)
    edited_f64_bytes = 3 * layers * 8 * (dim * dim + 2 * kv_dim * dim + 3 * (dim + 4) * dim)

    tracemalloc.start()
    try:
        assert run_manifest(tmp_path, manifest) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    reports = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("*.report.json")]
    assert sum(rep["edited_matrices"] for rep in reports) == 3 * layers * 6
    assert peak < edited_f64_bytes


def test_sweep_peak_memory_does_not_grow_with_layers(tmp_path):
    # the same vectors sweep on 1 and 4 layers: a run that kept each layer's
    # edits until the end would peak 3 layers x 2 grid points x 0.6 MB higher
    dim, kv_dim = 256, 64
    peaks = []
    for layers in (1, 4):
        root = tmp_path / f"layers-{layers}"
        root.mkdir()
        for tag, seed in (("host", 11), ("donor", 23)):
            arrays = synth_decoder_arrays(seed, layers=layers, dim=dim, kv_dim=kv_dim)
            bits = {name: ("BF16", (arr.astype(np.float32).view(np.uint32) >> 16)
                           .astype(np.uint16)) for name, arr in arrays.items()}
            (root / f"{tag}.safetensors").write_bytes(pack_container(bits))
        pair = (root / "host.safetensors", root / "donor.safetensors")
        sweep = {"ranks": ["top:4", "top:16"]}
        manifest = restore_manifest(pair, root / "out", mode="vectors", sweep=sweep)
        tracemalloc.start()
        try:
            assert run_manifest(root, manifest) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.1 * peaks[0], peaks


# ---------------------------------------------------------------------------
# BLAS threads


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS caps its threads at the CPU count, so one CPU runs both on one thread",
)
def test_report_bytes_do_not_depend_on_openblas_threads(synth_pair, tmp_path):
    host, donor = synth_pair(layers=1, dim=512, kv_dim=128)
    # a tall kind: `angles` computes its left side, where a square kind needs no numerics
    profile = tmp_path / "mlp-up-only.json"
    profile.write_text(json.dumps({
        "name": "mlp-up-only",
        "patterns": [{"template": "model.layers.{layer}.mlp.up_proj.weight", "kind": "mlp_up"}],
    }))
    argvs = [
        ["restore", "--mode", "vectors", "--host", str(host), "--donor", str(donor),
         "--kinds", "q", "--ranks", "top:16", "--out", "restore"],
        ["angles", "--a", str(host), "--b", str(donor), "--profile", str(profile),
         "--emit-plot-data", "--out", "angles"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        for argv in argvs:
            subprocess.run([sys.executable, "-m", "svdsurgery.cli", *argv],
                           cwd=cwd, env=env, check=True, capture_output=True)
        outputs.append(files(cwd))
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]


def test_main_leaves_the_callers_blas_thread_count(pair, rollouts, tmp_path, monkeypatch):
    calls = spectral._openblas_thread_calls()
    if calls is None:
        pytest.skip("NumPy does not bundle OpenBLAS here, so main leaves threads alone")
    get, put = calls
    found = get()
    seen = []
    real = cli._COMMANDS["svd-diff"][0]

    def recording(params):
        seen.append(get())
        return real(params)

    monkeypatch.setitem(cli._COMMANDS, "svd-diff", (recording, *cli._COMMANDS["svd-diff"][1:]))
    put(2)
    try:
        before = get()
        assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(tmp_path / "a")]) == 0
        assert get() == before
        bad = commands(pair, rollouts)["restore-values"] + ["--ranks", "top:-1"]
        assert cli.main(bad + ["--out", str(tmp_path / "b")]) == 2
        assert get() == before
    finally:
        put(found)
    assert seen == [1]


def test_main_leaves_threads_alone_where_numpy_bundles_no_openblas(pair, rollouts, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: None)
    assert cli.main(commands(pair, rollouts)["svd-diff"] + ["--out", str(tmp_path / "out")]) == 0
