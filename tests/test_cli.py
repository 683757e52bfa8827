"""Command-line behaviour: exit codes, report layouts, determinism, manifests."""

import json
import shutil

import numpy as np
import pytest

from svdsurgery import cli

from conftest import pack_container, synth_decoder_arrays

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


@pytest.mark.parametrize("name", ["svd-diff", "angles", "restore-values", "penalty"])
def test_nan_in_checkpoint_exits_3_and_writes_nothing(name, pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(11)
    arrays["model.layers.0.self_attn.q_proj.weight"][2, 3] = np.nan
    write_ckpt(pair[0], arrays)
    out = tmp_path / "out"
    assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 3
    assert files(out) == {}


def test_shape_mismatch_exits_2_and_writes_nothing(pair, rollouts, tmp_path):
    arrays = synth_decoder_arrays(23)
    arrays["model.layers.0.self_attn.q_proj.weight"] = np.eye(5)
    write_ckpt(pair[1], arrays)
    for name in ("svd-diff", "angles", "restore-values", "penalty"):
        out = tmp_path / name
        assert cli.main(commands(pair, rollouts)[name] + ["--out", str(out)]) == 2
        assert files(out) == {}


def test_missing_input_file_exits_2(pair, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["svd-diff", "--a", str(pair[0]), "--b", str(tmp_path / "nope"),
                     "--out", str(out)])
    assert code == 2
    assert cli.main(["adv-stats", "--input", str(tmp_path / "nope"), "--out", str(out)]) == 2
    assert files(out) == {}


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


# ---------------------------------------------------------------------------
# a key missing from the second checkpoint


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


def test_manifest_rejects_unknown_command_and_bad_json(tmp_path):
    assert run_manifest(tmp_path, {"command": "inspect", "output_dir": str(tmp_path)}) == 2
    assert run_manifest(tmp_path, ["restore"]) == 2
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["run", "--manifest", str(path)]) == 2
    assert cli.main(["run", "--manifest", str(tmp_path / "absent.json")]) == 2


def test_manifest_missing_output_dir_exits_2(pair, tmp_path):
    manifest = restore_manifest(pair, tmp_path / "out", mode="values")
    del manifest["output_dir"]
    assert run_manifest(tmp_path, manifest) == 2


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


def test_failed_sweep_writes_nothing(pair, tmp_path, capsys):
    arrays = synth_decoder_arrays(23)
    del arrays[MISSING]
    write_ckpt(pair[1], arrays)
    out = tmp_path / "out"
    manifest = restore_manifest(pair, out, mode="values", sweep={"layers": ["first:1", "all"]})
    assert run_manifest(tmp_path, manifest) == 2
    assert "L001.mlp_up" in capsys.readouterr().err
    assert files(out) == {}
