"""Container I/O and tensor-name resolution."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdsurgery import tensorstore
from svdsurgery.errors import NumericalError, ValidationError, WriteError
from svdsurgery.tensorstore import (
    BUILTIN_PROFILES,
    MatrixKey,
    NamingProfile,
    decode_values,
    encode_values,
    load_matrix,
    load_profile,
    load_raw,
    open_checkpoint,
    pair_matrices,
    resolve_keys,
    write_checkpoint,
)

from conftest import pack_container


# ---------------------------------------------------------------------------
# independent rounding oracles (bit-level, no numpy in the conversion path)


def bf16_oracle(x: float) -> float:
    """Round-to-nearest-even BF16 of a float, via float32 bits."""
    (bits32,) = struct.unpack("<I", struct.pack("<f", x))
    bias = 0x7FFF + ((bits32 >> 16) & 1)
    bits16 = ((bits32 + bias) >> 16) & 0xFFFF
    (out,) = struct.unpack("<f", struct.pack("<I", bits16 << 16))
    return out


def f16_oracle(x: float) -> float:
    (out,) = struct.unpack("<e", struct.pack("<e", x))
    return out


def f32_oracle(x: float) -> float:
    (out,) = struct.unpack("<f", struct.pack("<f", x))
    return out


# ---------------------------------------------------------------------------
# opening


def test_open_single_tensor(write_container):
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    path = write_container({"w": ("F32", w)})
    ckpt = open_checkpoint(path)
    assert ckpt.tensor_count == 1
    info = ckpt.index["w"]
    assert info.dtype == "F32"
    assert info.shape == (2, 2)
    assert info.nbytes == 16
    assert ckpt.payload_bytes == 16


def test_open_empty_header(tmp_path):
    path = tmp_path / "empty.safetensors"
    path.write_bytes(pack_container({}))
    ckpt = open_checkpoint(path)
    assert ckpt.tensor_count == 0
    assert ckpt.payload_bytes == 0


def test_open_header_length_beyond_file(tmp_path):
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(ValidationError, match="malformed header"):
        open_checkpoint(path)


def test_open_truncated_file(tmp_path):
    path = tmp_path / "tiny.safetensors"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(ValidationError, match="malformed header"):
        open_checkpoint(path)


def test_open_header_not_json(tmp_path):
    blob = b"not json at all"
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ValidationError, match="not valid JSON"):
        open_checkpoint(path)


def _raw_header_file(tmp_path, header: dict, payload: bytes):
    blob = json.dumps(header).encode()
    path = tmp_path / "manual.safetensors"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)
    return path


def test_open_overlapping_ranges(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    path = _raw_header_file(tmp_path, header, b"\x00" * 12)
    with pytest.raises(ValidationError, match="overlap"):
        open_checkpoint(path)


def test_open_out_of_bounds_range(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
    path = _raw_header_file(tmp_path, header, b"\x00" * 8)
    with pytest.raises(ValidationError, match="out of bounds"):
        open_checkpoint(path)


def test_open_unsupported_dtype(tmp_path):
    header = {"a": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}
    path = _raw_header_file(tmp_path, header, b"\x00" * 4)
    with pytest.raises(ValidationError, match="unsupported dtype"):
        open_checkpoint(path)


def test_open_rejects_3d_shapes(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [2, 2, 2], "data_offsets": [0, 32]}}
    path = _raw_header_file(tmp_path, header, b"\x00" * 32)
    with pytest.raises(ValidationError, match="shape"):
        open_checkpoint(path)


@pytest.mark.parametrize("shape, offsets", [
    ([2.7, 2], [0.9, 32]),
    ([2.0, 2], [0, 32]),
    ([True, 2], [0, 16]),
    ([2, 2], [0, 32.0]),
    ([2, 2], [False, 32]),
    ("22", [0, 32]),
    ([2, 2], ["0", "32"]),
])
def test_open_rejects_shapes_and_offsets_that_are_not_json_integers(shape, offsets, tmp_path):
    header = {"a": {"dtype": "F64", "shape": shape, "data_offsets": offsets}}
    path = _raw_header_file(tmp_path, header, b"\x00" * 32)
    with pytest.raises(ValidationError, match="'a'.*JSON integers"):
        open_checkpoint(path)


def test_open_range_size_mismatch(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 12]}}
    path = _raw_header_file(tmp_path, header, b"\x00" * 12)
    with pytest.raises(ValidationError, match="expected"):
        open_checkpoint(path)


def test_metadata_roundtrip(write_container, tmp_path):
    w = np.ones((2, 2), dtype=np.float32)
    path = write_container({"w": ("F32", w), "b": ("F32", w)},
                           metadata={"note": "x", "format": "pt"})
    ckpt = open_checkpoint(path)
    assert ckpt.metadata == {"format": "pt", "note": "x"}
    out = tmp_path / "copy.safetensors"
    write_checkpoint(ckpt, {}, out)
    assert open_checkpoint(out).metadata == ckpt.metadata
    raw = out.read_bytes()
    (length,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + length])
    assert list(header) == ["__metadata__", "b", "w"]
    assert list(header["__metadata__"]) == ["format", "note"]


# ---------------------------------------------------------------------------
# loading and decoding


def test_load_bf16_one_is_exact(write_container):
    bits = np.array([[0x3F80]], dtype=np.uint16)  # 1.0
    path = write_container({"w": ("BF16", bits)})
    ckpt = open_checkpoint(path)
    assert load_matrix(ckpt, "w")[0, 0] == 1.0


def test_load_f16_exact_values(write_container):
    w = np.array([[0.5, -2.0], [4.0, 0.0]])
    path = write_container({"w": ("F16", w)})
    got = load_matrix(open_checkpoint(path), "w")
    np.testing.assert_array_equal(got, w)


def test_load_unknown_name(write_container):
    path = write_container({"w": ("F32", np.ones((2, 2)))})
    with pytest.raises(ValidationError, match="unknown tensor"):
        load_matrix(open_checkpoint(path), "missing")


def test_load_1d_as_matrix_rejected(write_container):
    path = write_container({"v": ("F32", np.ones(3))})
    with pytest.raises(ValidationError, match="2-D"):
        load_matrix(open_checkpoint(path), "v")


def test_load_non_finite_rejected(write_container):
    path = write_container({"w": ("F32", np.array([[1.0, np.inf]]))})
    with pytest.raises(NumericalError, match="non-finite"):
        load_matrix(open_checkpoint(path), "w")


@pytest.mark.parametrize("dtype", ["F64", "F32", "F16", "BF16"])
def test_load_into_out_is_the_plain_load_in_any_memory_order(dtype, write_container):
    w = np.random.default_rng(4).standard_normal((5, 3))
    bits = np.frombuffer(encode_values(w, "BF16"), dtype="<u2").reshape(w.shape)
    path = write_container({"w": (dtype, bits if dtype == "BF16" else w)})
    ckpt = open_checkpoint(path)
    want = load_matrix(ckpt, "w")
    stack = np.zeros((5, 6), order="F")  # an F-ordered half, and a transposed one
    for out in (stack[:, :3], np.zeros((3, 5)).T, np.empty((5, 3))):
        got = load_matrix(ckpt, "w", out=out)
        assert np.shares_memory(got, out)
        assert np.array_equal(out, want)
    assert not stack[:, 3:].any()  # the other half is not touched
    with pytest.raises(ValidationError, match=r"shape mismatch.*\(5, 3\).*\(3, 5\)"):
        load_matrix(ckpt, "w", out=np.empty((3, 5)))


def test_load_into_out_checks_the_values_there(write_container):
    path = write_container({"w": ("F32", np.array([[1.0, np.inf]]))})
    with pytest.raises(NumericalError, match="non-finite"):
        load_matrix(open_checkpoint(path), "w", out=np.empty((2, 1)).T)


def test_bf16_roundtrip_error_bound():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((16, 16)) * 3.0
    decoded = decode_values(encode_values(w, "BF16"), "BF16").reshape(w.shape)
    assert np.max(np.abs(decoded - w)) <= 2.0**-8 * np.max(np.abs(w))
    # and the library agrees with the bit-level oracle entrywise
    oracle = np.vectorize(bf16_oracle)(w)
    np.testing.assert_array_equal(decoded, oracle)


_ORACLES = {"F32": f32_oracle, "F16": f16_oracle, "BF16": bf16_oracle}
_ROUNDOFF = {"F64": 0.0, "F32": 2.0**-24, "F16": 2.0**-11, "BF16": 2.0**-8}


_NORMAL_RANGE = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)


@pytest.mark.parametrize("dtype", ["F64", "F32", "F16", "BF16"])
@given(x=_NORMAL_RANGE)
@settings(max_examples=200, deadline=None)
def test_decode_encode_within_unit_roundoff(dtype, x):
    decoded = decode_values(encode_values(np.array([x]), dtype), dtype)[0]
    assert abs(decoded - x) <= _ROUNDOFF[dtype] * abs(x) + 1e-300
    if dtype != "F64":
        assert decoded == _ORACLES[dtype](x)


# ---------------------------------------------------------------------------
# writing


def write_edited(base, edits, out, dtype=None):
    """Write `base` to `out` with the float64 `edits` ({name: values}) in place.

    Each edit is stored in its tensor's dtype, or in `dtype` when given.
    Returns each edit's rounding error, as `write_edit` returns it.
    """
    writer = write_checkpoint(base, {name: dtype or base.index[name].dtype for name in edits}, out)
    return {name: writer.write_edit(name, values) for name, values in edits.items()}


def test_write_no_edits_payload_identical(write_container, tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "b.w": ("F16", rng.standard_normal((3, 4))),
        "a.w": ("F32", rng.standard_normal((4, 2))),
        "c.bits": ("BF16", rng.integers(0, 2**15, size=(2, 2)).astype(np.uint16)),
    }
    path = write_container(tensors)
    ckpt = open_checkpoint(path)
    out = tmp_path / "copy.safetensors"
    write_checkpoint(ckpt, {}, out)

    original = path.read_bytes()
    copied = out.read_bytes()
    assert original[ckpt.data_start:] == copied[open_checkpoint(out).data_start:]


def test_open_load_write_reopen_bit_exact(write_container, tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "x": ("BF16", rng.integers(0, 2**15, size=(4, 4)).astype(np.uint16)),
        "y": ("F16", rng.standard_normal((4, 4))),
        "z": ("F32", rng.standard_normal((4, 4))),
    }
    path = write_container(tensors)
    ckpt = open_checkpoint(path)
    before = {name: load_matrix(ckpt, name) for name in tensors}
    out = tmp_path / "copy.safetensors"
    write_checkpoint(ckpt, {}, out)
    reopened = open_checkpoint(out)
    for name in tensors:
        np.testing.assert_array_equal(load_matrix(reopened, name), before[name])
        assert load_raw(reopened, name) == load_raw(ckpt, name)


def test_write_f32_exact_edit_roundtrips(write_container, tmp_path):
    path = write_container({"w": ("F32", np.zeros((2, 2)))})
    ckpt = open_checkpoint(path)
    edit = np.array([[0.5, -2.0], [4.0, 128.0]])  # exactly representable in F32
    out = tmp_path / "edited.safetensors"
    assert write_edited(ckpt, {"w": edit}, out) == {"w": 0.0}
    np.testing.assert_array_equal(load_matrix(open_checkpoint(out), "w"), edit)


def test_write_bf16_edit_rounds_to_nearest_even(write_container, tmp_path):
    rng = np.random.default_rng(11)
    path = write_container({"w": ("BF16", np.zeros((3, 5), dtype=np.uint16))})
    ckpt = open_checkpoint(path)
    edit = rng.standard_normal((3, 5)) * 2.5
    out = tmp_path / "edited.safetensors"
    errors = write_edited(ckpt, {"w": edit}, out)
    got = load_matrix(open_checkpoint(out), "w")
    np.testing.assert_array_equal(got, np.vectorize(bf16_oracle)(edit))
    assert errors["w"] == pytest.approx(np.max(np.abs(got - edit)))


def test_write_force_f32(write_container, tmp_path):
    path = write_container({"w": ("BF16", np.zeros((2, 2), dtype=np.uint16))})
    ckpt = open_checkpoint(path)
    edit = np.full((2, 2), 1.0 + 2.0**-12)  # not representable in BF16
    out = tmp_path / "f32.safetensors"
    write_edited(ckpt, {"w": edit}, out, dtype="F32")
    reopened = open_checkpoint(out)
    assert reopened.index["w"].dtype == "F32"
    np.testing.assert_array_equal(load_matrix(reopened, "w"), edit)


def test_write_rejects_bad_edits(write_container, tmp_path):
    path = write_container({"w": ("F32", np.zeros((2, 2)))})
    ckpt = open_checkpoint(path)
    out = tmp_path / "out.safetensors"
    writer = write_checkpoint(ckpt, {"w": "F32"}, out)
    started = out.read_bytes()
    with pytest.raises(ValidationError, match="no edit slot"):
        writer.write_edit("nope", np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="shape"):
        writer.write_edit("w", np.zeros((3, 3)))
    with pytest.raises(NumericalError, match="non-finite"):
        writer.write_edit("w", np.full((2, 2), np.nan))
    with pytest.raises(NumericalError, match="overflows F32"):
        writer.write_edit("w", np.full((2, 2), 1e300))
    assert out.read_bytes() == started
    half = open_checkpoint(write_container({"w": ("F16", np.zeros((2, 2)))}, name="half"))
    with pytest.raises(NumericalError, match="overflows F16"):
        write_edited(half, {"w": np.full((2, 2), 1e5)}, tmp_path / "half-out.safetensors")


def test_write_rejects_an_edit_without_a_slot(write_container, tmp_path):
    path = write_container({"w": ("F32", np.zeros((2, 2))), "u": ("F32", np.zeros((3, 3)))})
    ckpt = open_checkpoint(path)
    out = tmp_path / "out.safetensors"
    for dtypes in ({"nope": "F32"}, {"w": "I64"}):
        with pytest.raises(ValidationError, match="does not fit"):
            write_checkpoint(ckpt, dtypes, out)
    assert not out.exists()
    writer = write_checkpoint(ckpt, {"w": "F32"}, out)
    started = out.read_bytes()
    for name in ("u", "nope"):  # a tensor of the base left unedited, and no tensor at all
        with pytest.raises(ValidationError, match="no edit slot"):
            writer.write_edit(name, np.ones((3, 3)))
    assert out.read_bytes() == started


def test_write_edit_into_a_removed_file_is_a_write_error(write_container, tmp_path):
    ckpt = open_checkpoint(write_container({"w": ("F32", np.zeros((2, 2)))}))
    out = tmp_path / "out.safetensors"
    writer = write_checkpoint(ckpt, {"w": "F32"}, out)
    out.unlink()
    with pytest.raises(WriteError, match="cannot write checkpoint"):
        writer.write_edit("w", np.ones((2, 2)))
    assert not out.exists()


def test_write_unwritable_path(write_container, tmp_path):
    path = write_container({"w": ("F32", np.zeros((2, 2)))})
    ckpt = open_checkpoint(path)
    with pytest.raises(WriteError):
        write_checkpoint(ckpt, {}, tmp_path / "no_such_dir" / "x.safetensors")


def test_write_refuses_to_overwrite_its_base(write_container, tmp_path):
    path = write_container({"w": ("F32", np.ones((2, 2)))})
    ckpt = open_checkpoint(path)
    before = path.read_bytes()
    link = tmp_path / "link.safetensors"
    link.symlink_to(path)
    for out in (path, str(path), link):
        with pytest.raises(ValidationError, match="its own base"):
            write_checkpoint(ckpt, {"w": "F32"}, out)
        assert path.read_bytes() == before


def test_write_starts_the_file_at_its_final_length_with_unedited_tensors_in_place(
    write_container, tmp_path
):
    rng = np.random.default_rng(13)
    tensors = {
        "a": ("F32", rng.standard_normal((3, 4))),
        "w": ("BF16", rng.integers(0, 2**15, size=(4, 5)).astype(np.uint16)),
        "z": ("F16", rng.standard_normal((2, 3))),
    }
    ckpt = open_checkpoint(write_container(tensors))
    edit = rng.standard_normal((4, 5))
    whole = tmp_path / "whole.safetensors"
    whole_errors = write_edited(ckpt, {"w": edit}, whole, dtype="F32")
    out = tmp_path / "started.safetensors"
    writer = write_checkpoint(ckpt, {"w": "F32"}, out)
    assert out.stat().st_size == whole.stat().st_size
    started = open_checkpoint(out)
    assert started.index == open_checkpoint(whole).index
    for name in ("a", "z"):
        assert load_raw(started, name) == load_raw(ckpt, name)
    assert load_raw(started, "w") == bytes(4 * 20)
    assert writer.write_edit("w", edit) == whole_errors["w"]
    assert out.read_bytes() == whole.read_bytes()


def test_write_copies_a_tensor_larger_than_one_chunk(write_container, tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    tensors = {
        "big": ("F32", rng.standard_normal((7, 9))),
        "w": ("F32", rng.standard_normal((2, 2))),
        "small": ("F16", rng.standard_normal(3)),
    }
    ckpt = open_checkpoint(write_container(tensors))
    whole = tmp_path / "whole.safetensors"
    write_checkpoint(ckpt, {}, whole)
    monkeypatch.setattr(tensorstore, "COPY_CHUNK_BYTES", 5)
    out = tmp_path / "chunked.safetensors"
    write_checkpoint(ckpt, {}, out)
    assert out.read_bytes() == whole.read_bytes()


# ---------------------------------------------------------------------------
# name resolution


def test_resolve_default_profile(write_container):
    names = [
        "model.layers.0.self_attn.q_proj.weight",
        "model.layers.3.mlp.down_proj.weight",
        "model.layers.0.self_attn.q_proj.bias",
        "model.embed_tokens.weight",
        "something.else",
    ]
    path = write_container({n: ("F32", np.zeros((2, 2))) for n in names})
    res = resolve_keys(open_checkpoint(path), BUILTIN_PROFILES["llama-style"])
    keys = [(key.layer, key.kind) for key, _ in res]
    assert keys == [(0, "q"), (3, "mlp_down")]
    matched_names = {name for _, name in res}
    assert "model.layers.0.self_attn.q_proj.bias" not in matched_names
    assert "model.embed_tokens.weight" not in matched_names
    assert "something.else" not in matched_names


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"])  # ARABIC-INDIC and FULLWIDTH three
def test_a_layer_in_non_ascii_digits_is_outside_the_profile(digit):
    profile = BUILTIN_PROFILES["llama-style"]
    assert profile.match("model.layers.3.self_attn.q_proj.weight") == MatrixKey(3, "q")
    assert profile.match(f"model.layers.{digit}.self_attn.q_proj.weight") is None


def test_resolve_qwen_profile_excludes_attention_bias(write_container):
    names = [
        "model.layers.1.self_attn.k_proj.weight",
        "model.layers.1.self_attn.k_proj.bias",
    ]
    path = write_container({n: ("F32", np.zeros((2, 2))) for n in names})
    res = resolve_keys(open_checkpoint(path), BUILTIN_PROFILES["qwen-style"])
    assert res == [(MatrixKey(1, "k"), "model.layers.1.self_attn.k_proj.weight")]


@given(perm=st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_resolve_is_order_invariant(perm):
    from pathlib import Path

    from svdsurgery.tensorstore import Checkpoint, TensorInfo

    names = [
        "model.layers.0.self_attn.q_proj.weight",
        "model.layers.0.self_attn.k_proj.weight",
        "model.layers.1.self_attn.v_proj.weight",
        "model.layers.1.mlp.gate_proj.weight",
        "model.layers.2.mlp.up_proj.weight",
        "model.norm.weight",
    ]
    info = TensorInfo(dtype="F32", shape=(2, 2), offsets=(0, 16))
    ckpt = Checkpoint(
        path=Path("in-memory"),
        index={names[i]: info for i in perm},
        metadata={},
        data_start=8,
    )
    res = resolve_keys(ckpt, BUILTIN_PROFILES["llama-style"])
    assert [(k.layer, k.kind) for k, _ in res] == [
        (0, "q"), (0, "k"), (1, "v"), (1, "mlp_gate"), (2, "mlp_up"),
    ]
    assert "model.norm.weight" not in {name for _, name in res}


def test_resolve_collision_rejected(write_container):
    profile = NamingProfile(
        name="clash",
        patterns=[("a.{layer}.w", "q"), ("b.{layer}.w", "q")],
        exclusions=[],
    )
    path = write_container({"a.0.w": ("F32", np.zeros((2, 2))), "b.0.w": ("F32", np.zeros((2, 2)))})
    with pytest.raises(ValidationError, match="both resolve"):
        resolve_keys(open_checkpoint(path), profile)


def test_pair_matrices_walks_only_the_given_kinds(synth_pair):
    a, b = (open_checkpoint(path) for path in synth_pair())
    profile = BUILTIN_PROFILES["llama-style"]
    every = [pair[:3] for pair in pair_matrices(a, b, profile)]
    some = [pair[:3] for pair in pair_matrices(a, b, profile, ("mlp_down", "q"))]
    assert {key.kind for key, *_ in every} == {kind for _, kind in profile.patterns}
    assert some == [pair for pair in every if pair[0].kind in ("q", "mlp_down")]
    assert {key.kind for key, *_ in some} == {"q", "mlp_down"}


def test_pair_matrices_rejects_a_kind_the_profile_does_not_resolve(synth_pair):
    a, b = (open_checkpoint(path) for path in synth_pair())
    message = ("kinds 'nope' not in profile 'llama-style', "
               "which resolves k, mlp_down, mlp_gate, mlp_up, o, q, v")
    with pytest.raises(ValidationError, match=re.escape(message)):
        pair_matrices(a, b, BUILTIN_PROFILES["llama-style"], ("q", "nope"))


def test_profile_from_file(tmp_path, write_container):
    spec = {
        "name": "custom",
        "patterns": [{"template": "blk.{layer}.attn_q.weight", "kind": "q"}],
        "exclusions": ["*.bias"],
    }
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(spec))
    profile = load_profile(profile_path)
    path = write_container({"blk.5.attn_q.weight": ("F32", np.zeros((2, 2)))})
    res = resolve_keys(open_checkpoint(path), profile)
    assert [(k.layer, k.kind) for k, _ in res] == [(5, "q")]


@pytest.mark.parametrize("patterns, exclusions", [
    ([(5, "q")], []),
    ([("a.{layer}.w", None)], []),
    ([("a.{layer}.w", "q")], "*.bias"),
    ([("a.{layer}.w", "q")], ["*.bias", 3]),
])
def test_profile_rejects_fields_that_are_not_strings(patterns, exclusions):
    with pytest.raises(ValidationError, match="must be"):
        NamingProfile(name="bad", patterns=patterns, exclusions=exclusions)


def test_unknown_profile_rejected():
    with pytest.raises(ValidationError, match="unknown profile"):
        load_profile("no-such-profile")
