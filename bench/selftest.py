"""Tests of the benchmark's own parts: input generator, oracles and span arithmetic.

Run from the repository root with ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``). The file name keeps the default
test collection from picking these up with the package's tests.
"""

from __future__ import annotations

import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import spans  # noqa: E402

SCRATCH = HERE.parent / ".bench_work" / "selftest"


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_same_seed_gives_same_bytes():
    a, b, c = _fresh("a"), _fresh("b"), _fresh("c")
    pa = fixtures.write_checkpoint_pair(a, 7, "BF16")
    pb = fixtures.write_checkpoint_pair(b, 7, "BF16")
    pc = fixtures.write_checkpoint_pair(c, 8, "BF16")
    assert pa.host.read_bytes() == pb.host.read_bytes()
    assert pa.donor.read_bytes() == pb.donor.read_bytes()
    assert pa.host.read_bytes() != pc.host.read_bytes()
    fixtures.write_rollout_log(a / "log.jsonl", 7)
    fixtures.write_rollout_log(b / "log.jsonl", 7)
    fixtures.write_rollout_log(c / "log.jsonl", 8)
    assert (a / "log.jsonl").read_bytes() == (b / "log.jsonl").read_bytes()
    assert (a / "log.jsonl").read_bytes() != (c / "log.jsonl").read_bytes()


def test_fixture_tensors_are_1d_or_2d_floats():
    pair = fixtures.write_checkpoint_pair(_fresh("shapes"), 3, "F32")
    container = fixtures.Container.read(pair.host)
    assert all(1 <= len(e["shape"]) <= 2 and e["dtype"] == "F32" for e in container.header.values())
    assert set(fixtures.projection_names().values()) <= set(container.header)


def test_bf16_rounds_to_nearest_even():
    bits = np.array([0x3F800000, 0x3F808000, 0x3F818000, 0x3F808001, 0x3F807FFF], dtype=np.uint32)
    got = fixtures.f32_to_bf16_bits(bits.view(np.float32))
    assert got.tolist() == [0x3F80, 0x3F80, 0x3F82, 0x3F81, 0x3F80]


def test_container_round_trip():
    path = _fresh("container") / "c.safetensors"
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -2.0])}
    fixtures.pack_container(path, arrays, "F32")
    container = fixtures.Container.read(path)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(container.values(name), arr)


def test_oracle_gae_matches_double_sum():
    rng = np.random.default_rng(0)
    rollouts = fixtures.Rollouts(rewards=rng.normal(size=(3, 5)), values=rng.normal(size=(3, 6)))
    gamma, lam = 0.9, 0.8
    delta = rollouts.rewards + gamma * rollouts.values[:, 1:] - rollouts.values[:, :-1]
    want = [
        sum((gamma * lam) ** k * delta[i, t + k] for k in range(5 - t))
        for i in range(3)
        for t in range(5)
    ]
    np.testing.assert_allclose(checks.gae(rollouts, gamma, lam), want, rtol=1e-12)


def test_self_times_of_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 3.0, 0, 0),
        spans.Span("a.child", 1.5, 2.0, 1, 0),
        spans.Span("b", 2.5, 5.0, 0, 0),  # overlaps a: the union counts once
        spans.Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == [10.0 - (4.0 + 1.0), 1.5, 0.5, 2.5, 3.0]


def test_layer_metrics_count_distinct_inputs_per_run():
    tree = [
        spans.Span("cli.restore", 0.0, 4.0, -1, 0),
        spans.Span("spectral.svd", 0.0, 1.0, 0, 0, {"work_mnk": 8, "input": "x"}),
        spans.Span("spectral.svd", 1.0, 2.0, 0, 0, {"work_mnk": 8, "input": "x"}),
        spans.Span("cli.penalty", 4.0, 5.0, -1, 1),
        spans.Span("spectral.svd", 4.0, 4.5, 3, 1, {"work_mnk": 8, "input": "x"}),
    ]
    metrics = spans.layer_metrics(tree, ["restore", "penalty", "angles"])
    assert metrics["spectral.svd.calls"] == 3
    assert metrics["spectral.svd.work_mnk"] == 24
    assert metrics["spectral.svd.distinct_ratio"] == 2 / 3
    assert metrics["cli.restore.self_s"] == 2.0
    assert metrics["cli.angles.self_s"] == 0.0
    assert metrics["advantage.gae.calls"] == 0


def test_library_self_time_leaves_out_the_command_root():
    tree = [
        spans.Span("cli.restore", 0.0, 4.0, -1, 0),
        spans.Span("spectral.svd", 0.5, 1.5, 0, 0),
        spans.Span("surgery.run_surgery", 2.0, 3.0, 0, 0),
        spans.Span("spectral.svd", 2.5, 2.75, 2, 0),
        spans.Span("cli.penalty", 4.0, 5.0, -1, 1),
    ]
    assert spans.library_self_s(tree) == {0: 2.0}


def test_patch_reaches_names_bound_by_from_imports():
    import svdsurgery.cli as cli
    import svdsurgery.spectral as spectral
    import svdsurgery.surgery as surgery

    original = spectral.svd
    tracer = spans.Tracer()
    with tracer.patch():
        assert surgery.svd is spectral.svd is not original
        assert cli.load_matrix.__wrapped__ is not None
        with tracer.command("cli.test"):
            spectral.delta_sigma(np.eye(3), 2 * np.eye(3))
    assert spectral.svd is original and surgery.svd is original
    names = [s.name for s in tracer.spans]
    assert names == ["cli.test", "spectral.delta_sigma", "spectral.svd", "spectral.svd"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
