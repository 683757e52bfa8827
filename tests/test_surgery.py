"""Selection resolution and spectral splicing across checkpoints."""

import tracemalloc

import numpy as np
import pytest

from svdsurgery import surgery, tensorstore
from svdsurgery.errors import NumericalError, ValidationError
from svdsurgery.spectral import SvdTriple, principal_angles, svd
from svdsurgery.surgery import (
    LayerSelector,
    RankSelector,
    SurgeryPlan,
    mixed_matrix,
    run_surgery,
)
from svdsurgery.tensorstore import load_matrix, load_profile, open_checkpoint

from conftest import angles_of, pack_container, reconstruct, spectral_matrix, traced_peak


def rotation2(theta_deg: float) -> np.ndarray:
    t = np.radians(theta_deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# ---------------------------------------------------------------------------
# selectors


def test_layer_selector_parse_and_resolve():
    layers = [0, 1, 2, 3, 7]
    assert LayerSelector.parse("all").resolve(layers) == {0, 1, 2, 3, 7}
    assert LayerSelector.parse("first:2").resolve(layers) == {0, 1}
    assert LayerSelector.parse("last:2").resolve(layers) == {3, 7}
    assert LayerSelector.parse("last:0").resolve(layers) == set()
    assert LayerSelector.parse("list:1,7,9").resolve(layers) == {1, 7}
    assert LayerSelector.parse("first:99").resolve(layers) == set(layers)
    with pytest.raises(ValidationError):
        LayerSelector.parse("first:-1")
    with pytest.raises(ValidationError):
        LayerSelector.parse("every:2")


def test_rank_selector_parse_and_resolve():
    assert RankSelector.parse("all").resolve(6).tolist() == [0, 1, 2, 3, 4, 5]
    assert RankSelector.parse("top:2").resolve(6).tolist() == [0, 1]
    assert RankSelector.parse("bottom:2").resolve(6).tolist() == [4, 5]
    assert RankSelector.parse("range:2:4").resolve(6).tolist() == [2, 3]
    assert RankSelector.parse("top:99").resolve(6).tolist() == [0, 1, 2, 3, 4, 5]
    assert RankSelector.parse("top:0").resolve(6).size == 0
    assert RankSelector.parse("range:8:32").resolve(6).size == 0
    with pytest.raises(ValidationError):
        RankSelector.parse("range:4:2")
    with pytest.raises(ValidationError):
        RankSelector.parse("middle:3")


# ---------------------------------------------------------------------------
# mixed_matrix


def test_mixed_matrix_identity_splice():
    rng = np.random.default_rng(0)
    w = spectral_matrix(rng, 6, 4, [7.0, 5.0, 3.0, 1.0])
    t = svd(w)
    for mode in ("values", "vectors"):
        out = mixed_matrix(t, t, mode, np.arange(4))
        np.testing.assert_allclose(out, w, atol=1e-10)


def test_mixed_matrix_empty_ranks_is_host_reconstruction():
    rng = np.random.default_rng(1)
    host = svd(rng.standard_normal((5, 5)))
    donor = svd(rng.standard_normal((5, 5)))
    out = mixed_matrix(host, donor, "values", np.array([], dtype=np.int64))
    np.testing.assert_array_equal(out, reconstruct(host))


def test_mixed_matrix_2x2_value_splice_oracle():
    host = svd(np.diag([4.0, 2.0]))
    donor = svd(rotation2(30.0) @ np.diag([3.0, 1.0]))
    out = mixed_matrix(host, donor, "values", np.array([0, 1]))
    np.testing.assert_allclose(out, np.diag([3.0, 1.0]), atol=1e-12)


def test_mixed_matrix_value_splice_properties():
    rng = np.random.default_rng(2)
    w_host = spectral_matrix(rng, 8, 6, np.linspace(9.0, 1.0, 6))
    w_donor = spectral_matrix(rng, 8, 6, np.linspace(9.5, 1.5, 6))
    out = mixed_matrix(svd(w_host), svd(w_donor), "values", np.arange(6))
    np.testing.assert_allclose(svd(out).sigma, svd(w_donor).sigma, atol=1e-10)
    left, right = angles_of(out, w_host)
    assert left.max_rad <= 1e-8
    assert right.max_rad <= 1e-8


def test_mixed_matrix_vector_splice_properties():
    rng = np.random.default_rng(3)
    w_host = spectral_matrix(rng, 8, 6, np.linspace(9.0, 1.0, 6))
    w_donor = spectral_matrix(rng, 8, 6, np.linspace(9.5, 1.5, 6))
    out = mixed_matrix(svd(w_host), svd(w_donor), "vectors", np.arange(6))
    np.testing.assert_allclose(svd(out).sigma, svd(w_host).sigma, atol=1e-10)
    left, right = angles_of(out, w_donor)
    assert left.max_rad <= 1e-8
    assert right.max_rad <= 1e-8


def test_mixed_matrix_rank_disjoint_composition_exact():
    rng = np.random.default_rng(4)
    host = svd(spectral_matrix(rng, 7, 5, np.linspace(9.0, 1.0, 5)))
    donor = svd(spectral_matrix(rng, 7, 5, np.linspace(8.5, 0.5, 5)))
    top = RankSelector.parse("top:2").resolve(5)
    bottom = RankSelector.parse("bottom:3").resolve(5)
    whole = mixed_matrix(host, donor, "values", np.arange(5))
    # same splice built from two disjoint rank sets on the same host basis
    sigma = host.sigma.copy()
    sigma[top] = donor.sigma[top]
    sigma[bottom] = donor.sigma[bottom]
    stepwise = (host.u * sigma) @ host.v.T
    np.testing.assert_array_equal(whole, stepwise)


def test_mixed_matrix_norm_accounting():
    rng = np.random.default_rng(5)
    host = svd(spectral_matrix(rng, 9, 6, np.linspace(7.0, 1.0, 6)))
    donor = svd(spectral_matrix(rng, 9, 6, np.linspace(6.5, 0.5, 6)))
    ranks = RankSelector.parse("top:3").resolve(6)
    out = mixed_matrix(host, donor, "values", ranks)
    expected = np.sum(donor.sigma[:3] ** 2) + np.sum(host.sigma[3:] ** 2)
    assert abs(np.linalg.norm(out) ** 2 - expected) <= 1e-8


def test_mixed_matrix_errors():
    rng = np.random.default_rng(6)
    a = svd(rng.standard_normal((4, 4)))
    b = svd(rng.standard_normal((5, 5)))
    with pytest.raises(ValidationError, match="shape"):
        mixed_matrix(a, b, "values", np.array([0]))
    with pytest.raises(ValidationError, match="out of bounds"):
        mixed_matrix(a, a, "values", np.array([9]))
    with pytest.raises(ValidationError, match="mode"):
        mixed_matrix(a, a, "middle", np.array([0]))


def test_mixed_matrix_reads_only_the_donor_columns_a_truncated_triple_holds():
    rng = np.random.default_rng(9)
    host = svd(spectral_matrix(rng, 7, 5, np.linspace(8.0, 1.0, 5)))
    donor = svd(spectral_matrix(rng, 7, 5, np.linspace(6.0, 2.0, 5)))
    leading = SvdTriple(u=donor.u[:, :2].copy(), sigma=donor.sigma, v=donor.v[:, :2].copy())
    none = SvdTriple(u=donor.u[:, :0].copy(), sigma=donor.sigma, v=donor.v[:, :0].copy())
    assert (leading.rank, leading.shape) == (donor.rank, donor.shape)
    top2 = np.array([0, 1])
    np.testing.assert_array_equal(mixed_matrix(host, leading, "vectors", top2),
                                  mixed_matrix(host, donor, "vectors", top2))
    np.testing.assert_array_equal(mixed_matrix(host, none, "values", np.arange(5)),
                                  mixed_matrix(host, donor, "values", np.arange(5)))
    for triple, ranks in ((leading, np.array([1, 2])), (none, np.array([0]))):
        with pytest.raises(ValidationError, match="donor columns held"):
            mixed_matrix(host, triple, "vectors", ranks)


# ---------------------------------------------------------------------------
# full-checkpoint runs


def _make_plan(host_path, donor_path, mode="values", layers="all", ranks="all", grid=None):
    return SurgeryPlan(
        mode=mode,
        donor=open_checkpoint(donor_path),
        host=open_checkpoint(host_path),
        profile=load_profile("llama-style"),
        grid=[
            (LayerSelector.parse(point_layers), RankSelector.parse(point_ranks))
            for point_layers, point_ranks in grid or [(layers, ranks)]
        ],
    )


def test_run_surgery_self_splice_is_identity(synth_pair, tmp_path):
    host_path, _ = synth_pair(layers=1)
    plan = _make_plan(host_path, host_path, mode="values")
    out = tmp_path / "self.safetensors"
    [report] = run_surgery(plan, [out])
    assert len(report.rounding_errors) == 6  # q,k,v + three mlp kinds; o stays default-excluded
    host = open_checkpoint(host_path)
    edited = open_checkpoint(out)
    for rec in report.records:
        got = load_matrix(edited, rec.tensor)
        want = load_matrix(host, rec.tensor)
        np.testing.assert_allclose(got, want, atol=1e-12 * np.linalg.norm(want))


def test_run_surgery_value_splice_round_trip(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=2)
    forward = tmp_path / "fwd.safetensors"
    run_surgery(_make_plan(host_path, donor_path, mode="values"), [forward])
    back = tmp_path / "back.safetensors"
    run_surgery(_make_plan(forward, host_path, mode="values"), [back])

    host = open_checkpoint(host_path)
    recovered = open_checkpoint(back)
    profile = load_profile("llama-style")
    from svdsurgery.tensorstore import resolve_keys

    for key, name in resolve_keys(host, profile):
        if key.kind == "o":
            continue
        w0 = load_matrix(host, name)
        w1 = load_matrix(recovered, name)
        assert np.linalg.norm(w1 - w0) <= 1e-8


def test_run_surgery_value_splice_spectra(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=2)
    out = tmp_path / "values.safetensors"
    [report] = run_surgery(_make_plan(host_path, donor_path, mode="values"), [out])
    host, donor, edited = map(open_checkpoint, (host_path, donor_path, out))
    for rec in report.records:
        w_out = load_matrix(edited, rec.tensor)
        np.testing.assert_allclose(
            svd(w_out).sigma, svd(load_matrix(donor, rec.tensor)).sigma, atol=1e-8
        )
        left, right = angles_of(w_out, load_matrix(host, rec.tensor))
        assert left.max_rad <= 1e-8
        assert right.max_rad <= 1e-8


def test_run_surgery_vector_splice_spectra(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    out = tmp_path / "vectors.safetensors"
    [report] = run_surgery(_make_plan(host_path, donor_path, mode="vectors"), [out])
    host, donor, edited = map(open_checkpoint, (host_path, donor_path, out))
    for rec in report.records:
        w_out = load_matrix(edited, rec.tensor)
        np.testing.assert_allclose(
            svd(w_out).sigma, svd(load_matrix(host, rec.tensor)).sigma, atol=1e-8
        )
        left, right = angles_of(w_out, load_matrix(donor, rec.tensor))
        assert left.max_rad <= 1e-8
        assert right.max_rad <= 1e-8


def test_run_surgery_monotone_layer_selection(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=3)

    def edited_tensors(layers):
        out = tmp_path / f"mono_{layers.replace(':', '')}.safetensors"
        [report] = run_surgery(_make_plan(host_path, donor_path, layers=layers), [out])
        return {rec.tensor for rec in report.records if rec.status == "edited"}

    first1 = edited_tensors("first:1")
    first2 = edited_tensors("first:2")
    everything = edited_tensors("all")
    assert first1 <= first2 <= everything
    assert len(first1) == 6 and len(first2) == 12 and len(everything) == 18


def test_run_surgery_empty_ranks_copies_bytes(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    out = tmp_path / "none.safetensors"
    [report] = run_surgery(_make_plan(host_path, donor_path, ranks="top:0"), [out])
    assert len(report.rounding_errors) == 0
    assert all(rec.status == "copied" for rec in report.records)
    host = open_checkpoint(host_path)
    edited = open_checkpoint(out)
    from svdsurgery.tensorstore import load_raw

    for name in host.index:
        assert load_raw(edited, name) == load_raw(host, name)


def test_run_surgery_report_contents(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    out = tmp_path / "rep.safetensors"
    [report] = run_surgery(_make_plan(host_path, donor_path, ranks="top:3"), [out])
    assert report.plan["mode"] == "values"
    assert report.plan["ranks"] == "top:3"
    rec = report.records[0]
    assert rec.status == "edited"
    assert rec.ranks_touched == 3
    assert rec.rank_lo == 0 and rec.rank_hi == 2
    assert rec.fro_vs_host > 0.0
    assert rec.max_entry_change > 0.0
    assert not rec.degenerate_boundary
    # the o-projections stay untouched and appear among the copied tensors
    assert any("o_proj" in name for name in report.copied_tensors)


def test_run_surgery_flags_degenerate_boundary(tmp_path):
    rng = np.random.default_rng(8)
    sig_host = np.array([5.0, 5.0 - 1e-9, 1.0, 0.5])
    name = "model.layers.0.self_attn.q_proj.weight"
    host = pack_container({name: ("F64", spectral_matrix(rng, 4, 4, sig_host))})
    donor = pack_container(
        {name: ("F64", spectral_matrix(rng, 4, 4, np.array([6.0, 4.0, 2.0, 1.0])))}
    )
    host_path = tmp_path / "host.safetensors"
    donor_path = tmp_path / "donor.safetensors"
    host_path.write_bytes(host)
    donor_path.write_bytes(donor)
    [report] = run_surgery(
        _make_plan(host_path, donor_path, ranks="top:1"), [tmp_path / "out.safetensors"]
    )
    assert report.records[0].degenerate_boundary


def test_run_surgery_shape_mismatch_rejected(tmp_path):
    name = "model.layers.0.self_attn.q_proj.weight"
    host_path = tmp_path / "host.safetensors"
    donor_path = tmp_path / "donor.safetensors"
    host_path.write_bytes(pack_container({name: ("F64", np.eye(4))}))
    donor_path.write_bytes(pack_container({name: ("F64", np.eye(5))}))
    with pytest.raises(ValidationError, match="shape"):
        run_surgery(_make_plan(host_path, donor_path), [tmp_path / "out.safetensors"])


def test_run_surgery_missing_donor_key_rejected(tmp_path):
    q = "model.layers.0.self_attn.q_proj.weight"
    k = "model.layers.0.self_attn.k_proj.weight"
    host_path = tmp_path / "host.safetensors"
    donor_path = tmp_path / "donor.safetensors"
    host_path.write_bytes(pack_container({q: ("F64", np.eye(4)), k: ("F64", np.eye(4))}))
    donor_path.write_bytes(pack_container({q: ("F64", np.eye(4))}))
    with pytest.raises(ValidationError, match="donor checkpoint has no tensor"):
        run_surgery(_make_plan(host_path, donor_path), [tmp_path / "out.safetensors"])


def test_run_surgery_missing_donor_key_rejected_only_when_a_grid_point_selects_it(tmp_path):
    names = [f"model.layers.{layer}.self_attn.q_proj.weight" for layer in (0, 1)]
    host_path = tmp_path / "host.safetensors"
    donor_path = tmp_path / "donor.safetensors"
    host_path.write_bytes(pack_container({name: ("F64", np.eye(4)) for name in names}))
    donor_path.write_bytes(pack_container({names[0]: ("F64", np.eye(4))}))
    [report] = run_surgery(
        _make_plan(host_path, donor_path, layers="first:1"), [tmp_path / "first.safetensors"]
    )
    assert [rec.tensor for rec in report.records] == names[:1]
    with pytest.raises(ValidationError, match="donor checkpoint has no tensor for L001.q"):
        _make_plan(host_path, donor_path, grid=[("first:1", "all"), ("all", "all")])


def test_run_surgery_needs_one_output_per_grid_point(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    plan = _make_plan(host_path, donor_path, grid=[("all", "top:1"), ("all", "top:2")])
    outs = [tmp_path / "a.safetensors", tmp_path / "b.safetensors"]
    with pytest.raises(ValidationError, match="output paths"):
        run_surgery(plan, outs[:1])
    assert not any(out.exists() for out in outs)


def test_run_surgery_refuses_one_output_for_two_grid_points(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    plan = _make_plan(host_path, donor_path, grid=[("all", "top:1"), ("all", "top:0")])
    out = tmp_path / "out.safetensors"
    with pytest.raises(ValidationError, match="same output path"):
        run_surgery(plan, [out, tmp_path / "." / out.name], force_f32=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["donor.safetensors", "host.safetensors"]


def test_run_surgery_holds_no_whole_donor_triple_while_the_host_decomposes(tall_pair, tmp_path):
    # one tall 600x200 target. Holding the donor's whole triple through the
    # host's decomposition and the mixing peaked at about 7.2 matrices; the
    # donor's leading columns alone stay more than one host `u` below that
    *paths, matrix_bytes = tall_pair
    for mode in ("vectors", "values"):
        plan = _make_plan(*paths, mode=mode, ranks="top:2")
        tracemalloc.start()
        try:
            [report] = run_surgery(plan, [tmp_path / f"{mode}.safetensors"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.rounding_errors) == 1
        assert peak < 5.5 * matrix_bytes, (mode, peak / matrix_bytes)


@pytest.mark.parametrize("mode", ["vectors", "values"])
def test_restore_hands_each_decoded_matrix_over_to_its_svd(mode, tall_pair, handover_watch,
                                                           tmp_path, monkeypatch):
    # every load of host and donor is watched: the two decompositions and
    # the later distance loads alike
    monkeypatch.setattr(tensorstore, "load_matrix", handover_watch.loader(load_matrix))
    plan = _make_plan(*tall_pair[:2], mode=mode, ranks="top:2")
    [report] = run_surgery(plan, [tmp_path / "out.safetensors"])
    assert report.records[0].status == "edited"
    assert handover_watch.calls == 2  # host and donor
    assert len(handover_watch.refs) == 4  # host and donor decomposed, then reloaded


@pytest.mark.parametrize("mode", ["vectors", "values"])
def test_restore_peak_is_at_most_4_3_matrices(mode, tall_pair, tmp_path):
    # with each matrix held through its own decomposition, and two m x n
    # differences for the distances, it peaked at about 4.7 matrices
    *paths, matrix_bytes = tall_pair
    plan = _make_plan(*paths, mode=mode, ranks="top:2")
    peak = traced_peak(lambda: run_surgery(plan, [tmp_path / "out.safetensors"]))
    assert peak <= 4.3 * matrix_bytes, peak / matrix_bytes


def test_mixed_matrix_vectors_mode_is_the_scaled_product_bit_for_bit():
    rng = np.random.default_rng(9)
    host_t, donor_t = svd(rng.standard_normal((40, 17))), svd(rng.standard_normal((40, 17)))
    ranks = np.array([0, 3, 4, 11])
    u, v = host_t.u.copy(), host_t.v.copy()
    u[:, ranks] = donor_t.u[:, ranks]
    v[:, ranks] = donor_t.v[:, ranks]
    want = (u * host_t.sigma) @ v.T
    host_u = host_t.u.copy()
    got = mixed_matrix(host_t, donor_t, "vectors", ranks)
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert got.tobytes() == want.tobytes()
    assert host_t.u.tobytes() == host_u.tobytes()


class _KeptEdits:
    """A stand-in for a CheckpointWriter that keeps each edit it is given."""

    def __init__(self):
        self.edits = {}

    def write_edit(self, name, w):
        self.edits[name] = w.copy()


@pytest.mark.parametrize("mode", ["vectors", "values"])
def test_splice_distances_are_the_plain_differences_bit_for_bit(mode, synth_pair):
    plan = _make_plan(*synth_pair(layers=1), mode=mode, ranks="top:3")
    for target_ranks in plan.targets:
        key, host_name, _, load_host, load_donor = target_ranks[0]
        writer = _KeptEdits()
        [(point, record, _)] = surgery._splice_target(target_ranks, plan.mode, [writer])
        assert point == 0
        w_out = writer.edits[host_name]
        diff = w_out - load_host()
        want = (np.linalg.norm(diff), np.max(np.abs(diff)), np.linalg.norm(w_out - load_donor()))
        got = (record.fro_vs_host, record.max_entry_change, record.fro_vs_donor)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want], key.label


def test_run_surgery_refuses_to_write_over_its_host(synth_pair, tmp_path):
    host_path, donor_path = synth_pair(layers=1)
    before = {path: path.read_bytes() for path in (host_path, donor_path)}
    first = tmp_path / "first.safetensors"
    plan = _make_plan(host_path, donor_path, grid=[("all", "top:1"), ("all", "top:2")])
    for source, role in ((host_path, "its own base"), (donor_path, "its donor")):
        with pytest.raises(ValidationError, match=role):
            run_surgery(plan, [first, source])
        # refused before any output is opened
        assert not first.exists()
        assert {path: path.read_bytes() for path in before} == before


def test_run_surgery_that_fails_partway_removes_its_outputs(synth_pair, tmp_path, monkeypatch):
    host_path, donor_path = synth_pair(layers=1)
    plan = _make_plan(host_path, donor_path, grid=[("all", "top:1"), ("all", "top:2")])
    outs = [tmp_path / "a.safetensors", tmp_path / "b.safetensors"]
    calls = []

    def svd_failing_on_the_third_target(w, keep=None):
        calls.append(w.shape)
        if len(calls) > 4:  # host and donor of each target
            raise NumericalError("SVD did not converge")
        return svd(w, keep)

    monkeypatch.setattr(surgery, "svd", svd_failing_on_the_third_target)
    with pytest.raises(NumericalError, match="did not converge"):
        run_surgery(plan, outs)
    assert len(calls) == 5
    assert not any(out.exists() for out in outs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["donor.safetensors", "host.safetensors"]

