"""Commands against planted truths: drift and rotation known from the construction.

Every other check compares with NumPy running the same algorithm; these
compare with the `planted_trajectory` that built the checkpoints, so a
number that passes here means what its name says.
"""

import csv

import numpy as np
import pytest

from svdsurgery import cli

from conftest import PLANTED_NAME, UNIT_ROUNDOFF, pack_container, planted_trajectory, stored_as

STEPS = planted_trajectory()
BASE = STEPS[0]


def write_step(path, step, dtype):
    path.write_bytes(pack_container({PLANTED_NAME: (dtype, stored_as(step.matrix, dtype))}))
    return str(path)


def run_on_step(tmp_path, command, t, dtype="F64", flags=("--a", "--b"), extra=()):
    """Run `command` with the base and step t, stored as `dtype`; return the output dir.

    `flags` names the two checkpoints' options, base first.
    """
    a = write_step(tmp_path / "base.safetensors", BASE, dtype)
    b = write_step(tmp_path / f"step{t}.safetensors", STEPS[t], dtype)
    out = tmp_path / f"{command}-{t}"
    assert cli.main([command, flags[0], a, flags[1], b, *extra, "--out", str(out)]) == 0
    return out


def column(path, name) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


@pytest.mark.parametrize("t", range(1, len(STEPS)))
def test_svd_diff_reports_the_planted_drift(t, tmp_path):
    out = run_on_step(tmp_path, "svd-diff", t)
    delta = column(out / "delta_sigma__L000_mlp_up.csv", "delta")
    assert np.max(np.abs(delta - (STEPS[t].sigma - BASE.sigma))) <= 1e-12 * BASE.sigma[0]


@pytest.mark.parametrize("t", range(1, len(STEPS)))
def test_angles_report_the_planted_rotation_on_the_tall_side(t, tmp_path):
    out = run_on_step(tmp_path, "angles", t)
    n, k = BASE.sigma.shape[0], BASE.theta.shape[0]
    want = np.sort(np.concatenate([STEPS[t].theta, np.zeros(n - k)]))
    left = column(out / "angles__L000_mlp_up__left.csv", "angle_rad")
    assert np.max(np.abs(left - want)) <= 1e-10
    assert np.array_equal(column(out / "angles__L000_mlp_up__right.csv", "angle_rad"), np.zeros(n))


@pytest.mark.parametrize("dtype", ["F32", "BF16"])
@pytest.mark.parametrize("t", range(1, len(STEPS)))
def test_svd_diff_drift_is_within_the_storage_rounding(dtype, t, tmp_path):
    # each stored entry is within u|x| of x, so storage moves W by at most u ||W||_F
    # in the 2-norm and, by Weyl, each singular value by no more
    out = run_on_step(tmp_path, "svd-diff", t, dtype)
    table = out / "delta_sigma__L000_mlp_up.csv"
    u = UNIT_ROUNDOFF[dtype]
    norm_0, norm_t = (np.linalg.norm(step.matrix) for step in (BASE, STEPS[t]))
    assert np.max(np.abs(column(table, "sigma_a") - BASE.sigma)) <= u * norm_0
    assert np.max(np.abs(column(table, "sigma_b") - STEPS[t].sigma)) <= u * norm_t
    planted = STEPS[t].sigma - BASE.sigma
    assert np.max(np.abs(column(table, "delta") - planted)) <= u * (norm_0 + norm_t)


@pytest.mark.parametrize("t", range(len(STEPS)))
def test_penalty_is_the_planted_closed_form(t, tmp_path):
    k = BASE.theta.shape[0]
    out = run_on_step(tmp_path, "penalty", t, flags=("--ref", "--current"),
                      extra=("--rank", str(k)))
    (value,) = column(out / "penalty.csv", "penalty")
    theta, sigma = STEPS[t].theta, STEPS[t].sigma
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    want = float(np.sum(sin2 * (2.0 * sigma[:k] ** 2 * cos2 + sigma[k:2 * k] ** 2)))
    if t == 0:  # the base scores against itself: zero up to rounding
        assert want == 0.0
        assert abs(value) <= 1e-12 * np.linalg.norm(BASE.matrix) ** 2
    else:
        assert abs(value - want) <= 1e-12 * want


def text_column(path, name) -> list[str]:
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("t", range(1, len(STEPS)))
def test_restore_then_measure_finds_the_spliced_values_and_the_hosts_bases(t, tmp_path):
    # a values restore puts the base's top-k singular values on step t's
    # bases; each of the four matrix commands then measures what it spliced
    k = BASE.theta.shape[0]
    donor = write_step(tmp_path / "base.safetensors", BASE, "F64")
    host = write_step(tmp_path / f"step{t}.safetensors", STEPS[t], "F64")
    assert cli.main(["restore", "--mode", "values", "--ranks", f"top:{k}", "--kinds", "mlp_up",
                     "--donor", donor, "--host", host, "--out", str(tmp_path / "restore")]) == 0
    spliced = str(tmp_path / "restore" / f"values__layers-all__ranks-top-{k}.safetensors")

    def measure(command, *argv):
        out = tmp_path / f"{command}-{len(list(tmp_path.iterdir()))}"
        assert cli.main([command, *argv, "--out", str(out)]) == 0
        return out

    forward = measure("svd-diff", "--a", donor, "--b", spliced) / "delta_sigma__L000_mlp_up.csv"
    delta = column(forward, "delta")
    assert np.max(np.abs(delta[:k])) <= 1e-12 * BASE.sigma[0]

    # swapped, the same two decompositions trade columns, so the drift is negated exactly
    # (a zero difference reads 0.0 both ways)
    swapped = measure("svd-diff", "--a", spliced, "--b", donor) / "delta_sigma__L000_mlp_up.csv"
    assert text_column(swapped, "sigma_a") == text_column(forward, "sigma_b")
    assert text_column(swapped, "sigma_b") == text_column(forward, "sigma_a")
    assert column(swapped, "delta").tolist() == (-delta).tolist()

    angles = measure("angles", "--a", host, "--b", spliced)
    assert np.max(column(angles / "angles__L000_mlp_up__left.csv", "angle_rad")) <= 1e-10

    # the spliced matrix only rescales the host's own top-k directions, which costs nothing
    penalty = measure("penalty", "--ref", host, "--current", spliced, "--rank", str(k))
    (value,) = column(penalty / "penalty.csv", "penalty")
    assert abs(value) <= 1e-12 * np.linalg.norm(STEPS[t].matrix) ** 2
