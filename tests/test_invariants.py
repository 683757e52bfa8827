"""Invariants every measure must keep: input changes whose effect on a report is known.

Each test writes the `synth_pair` checkpoints once as they are and once
transformed, runs the same command through `cli.main` on both, and
compares the reports.
"""

import csv

import numpy as np

from svdsurgery import cli

from conftest import decoder_layer_shapes


def penalties(out) -> dict:
    """{(layer, kind): penalty} of a penalty output directory."""
    with open(out / "penalty.csv", newline="") as fh:
        return {(row["layer"], row["kind"]): float(row["penalty"]) for row in csv.DictReader(fh)}


def detail_angles(out) -> dict:
    """{detail file name: angle_rad column} of an angles output directory."""
    columns = {}
    for path in sorted(out.glob("angles__*.csv")):
        with open(path, newline="") as fh:
            columns[path.name] = np.array([float(row["angle_rad"]) for row in csv.DictReader(fh)])
    return columns


def run(command, first, second, out, *extra):
    flags = ("--ref", "--current") if command == "penalty" else ("--a", "--b")
    argv = [command, flags[0], str(first), flags[1], str(second), *extra, "--out", str(out)]
    assert cli.main(argv) == 0
    return out


def test_angles_do_not_move_under_one_orthogonal_change_of_both_checkpoints(synth_pair,
                                                                            tmp_path):
    # Q W R turns both checkpoints' bases by the same Q on the left and R^T on
    # the right, so every principal angle between them stays where it was
    rng = np.random.default_rng(7)
    turns = {}
    for layer in range(2):
        for name, (m, n) in decoder_layer_shapes(layer).items():
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            r, _ = np.linalg.qr(rng.standard_normal((n, n)))
            turns[name] = q, r

    def turned(tag, name, w):
        q, r = turns[name]
        return q @ w @ r

    before = detail_angles(run("angles", *synth_pair(), tmp_path / "before"))
    after = detail_angles(run("angles", *synth_pair(transform=turned), tmp_path / "after"))
    assert len(before) == 28 and before.keys() == after.keys()
    assert any(np.max(angles) > 0.1 for angles in before.values())  # the pair is turned apart
    for name, angles in before.items():
        assert np.max(np.abs(after[name] - angles)) <= 1e-12, name


def test_penalty_scales_by_the_square_of_the_current_checkpoints_scale(synth_pair, tmp_path):
    # the penalty is a sum of squares of the current matrix's entries
    # projected by the reference's frozen subspaces, so 3 W scores 9 times W
    def tripled(tag, name, w):
        return 3.0 * w if tag == "donor" else w

    before = run("penalty", *synth_pair(), tmp_path / "before", "--rank", "3")
    after = run("penalty", *synth_pair(transform=tripled), tmp_path / "after", "--rank", "3")
    want, got = penalties(before), penalties(after)
    assert len(want) == 12 and want.keys() == got.keys()
    for key, value in want.items():
        assert value > 0.0, key
        assert abs(got[key] - 9.0 * value) <= 1e-12 * 9.0 * value, key
