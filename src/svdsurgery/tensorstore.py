"""Single-file tensor-container I/O and tensor-name resolution.

File layout: an 8-byte unsigned little-endian header length, a JSON header
mapping tensor name -> {"dtype", "shape", "data_offsets"}, then a raw
little-endian row-major payload. Offsets are relative to the start of the
payload section. The optional "__metadata__" header entry is a
string-to-string map and is preserved on rewrite.

All analysis happens in float64. A checkpoint is written in two steps:
`write_checkpoint` writes the header, which fixes each edited tensor's
dtype, and every unedited tensor; the writer it returns narrows each edit
to the dtype of its slot, with round-to-nearest-even, and puts it in place
as it arrives, so no writer holds more than one edit. BF16 has
no native numpy dtype; values pass through float32 (every BF16 value is
exactly representable there) and are then rounded to BF16 on the raw bits.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import os
import re
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, WriteError

HEADER_LEN_BYTES = 8

#: Supported stored dtypes and their byte widths.
DTYPE_SIZES = {"F64": 8, "F32": 4, "F16": 2, "BF16": 2}

_NUMPY_DTYPES = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}

#: Largest piece of an unedited tensor that a checkpoint write holds at once.
COPY_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# dtype codecs


def _bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    wide = bits.astype(np.uint32)
    wide <<= np.uint32(16)  # in place: one uint32 temporary, not two
    return wide.view(np.float32)


def _f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    # round-to-nearest-even on the upper 16 bits of the float32 pattern
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    bias = np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))
    return ((u + bias) >> np.uint32(16)).astype(np.uint16)


def decode_values(raw: bytes, dtype: str, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a little-endian payload of `dtype` into a new float64 vector, or into `out`.

    `out` is a float64 array or view with one entry per stored value; it is
    filled in row-major order and returned.
    """
    if dtype == "BF16":
        values = _bf16_bits_to_f32(np.frombuffer(raw, dtype="<u2"))
    elif dtype in _NUMPY_DTYPES:
        values = np.frombuffer(raw, dtype=_NUMPY_DTYPES[dtype])
    else:
        raise ValidationError(f"unsupported dtype {dtype!r}")
    if out is None:
        return values.astype(np.float64)
    out[...] = values.reshape(out.shape)
    return out


def encode_values(values: np.ndarray, dtype: str) -> bytes:
    """Encode float64 values into the little-endian payload of `dtype`.

    Rounding is round-to-nearest-even at each narrowing step; BF16 is
    reached via float32.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if dtype == "BF16":
        return _f32_to_bf16_bits(flat.astype(np.float32)).tobytes()
    if dtype not in _NUMPY_DTYPES:
        raise ValidationError(f"unsupported dtype {dtype!r}")
    return flat.astype(_NUMPY_DTYPES[dtype]).tobytes()


# ---------------------------------------------------------------------------
# container reading


def _stored_nbytes(shape: tuple[int, ...], dtype: str) -> int:
    """Bytes that a tensor of `shape` stored as `dtype` takes, in exact integers."""
    return math.prod(shape) * DTYPE_SIZES[dtype]


@dataclass(frozen=True)
class TensorInfo:
    dtype: str
    shape: tuple[int, ...]
    offsets: tuple[int, int]  # byte range inside the payload section

    @property
    def nbytes(self) -> int:
        return self.offsets[1] - self.offsets[0]


@dataclass
class Checkpoint:
    """Parsed container index; tensor payloads stay on disk until loaded."""

    path: Path
    index: dict[str, TensorInfo]
    metadata: dict[str, str]
    data_start: int
    data_size: int

    @property
    def tensor_count(self) -> int:
        return len(self.index)

    @property
    def payload_bytes(self) -> int:
        return sum(info.nbytes for info in self.index.values())


def _parse_header(header: dict, data_size: int) -> tuple[dict[str, TensorInfo], dict[str, str]]:
    metadata: dict[str, str] = {}
    index: dict[str, TensorInfo] = {}
    for name, entry in header.items():
        if name == "__metadata__":
            if not isinstance(entry, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in entry.items()
            ):
                raise ValidationError("__metadata__ must map strings to strings")
            metadata = dict(entry)
            continue
        if not isinstance(entry, dict):
            raise ValidationError(f"malformed header entry for {name!r}")
        try:
            dtype = entry["dtype"]
            shape = tuple(entry["shape"])
            start, end = entry["data_offsets"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed header entry for {name!r}: {exc}") from exc
        if not all(type(x) is int for x in (*shape, start, end)):
            raise ValidationError(f"tensor {name!r}: shape and data_offsets must be JSON integers")
        if not isinstance(dtype, str) or dtype not in DTYPE_SIZES:
            raise ValidationError(f"unsupported dtype {dtype!r} for tensor {name!r}")
        if not 1 <= len(shape) <= 2 or any(d < 0 for d in shape):
            raise ValidationError(f"tensor {name!r} has unsupported shape {shape}")
        if not 0 <= start <= end <= data_size:
            raise ValidationError(f"tensor {name!r} byte range {(start, end)} out of bounds")
        expected = _stored_nbytes(shape, dtype)
        if end - start != expected:
            raise ValidationError(
                f"tensor {name!r} byte range holds {end - start} bytes, expected {expected}"
            )
        index[name] = TensorInfo(dtype=dtype, shape=shape, offsets=(start, end))

    ranges = sorted((info.offsets for info in index.values()))
    for (a_start, a_end), (b_start, _) in zip(ranges, ranges[1:]):
        if b_start < a_end:
            raise ValidationError("tensor byte ranges overlap")
    return index, metadata


def open_checkpoint(path: str | Path) -> Checkpoint:
    """Parse the container header at `path` without loading any payload."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"checkpoint file not found: {path}")
    size = path.stat().st_size
    if size < HEADER_LEN_BYTES:
        raise ValidationError(f"malformed header length: file is only {size} bytes")
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(HEADER_LEN_BYTES))
        if header_len > size - HEADER_LEN_BYTES:
            raise ValidationError(
                f"malformed header length {header_len} for file of {size} bytes"
            )
        header_raw = fh.read(header_len)
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError("header is not a JSON object")

    data_start = HEADER_LEN_BYTES + header_len
    data_size = size - data_start
    index, metadata = _parse_header(header, data_size)
    return Checkpoint(
        path=path, index=index, metadata=metadata, data_start=data_start, data_size=data_size
    )


def load_raw(ckpt: Checkpoint, name: str) -> bytes:
    """Read the stored bytes of one tensor."""
    if name not in ckpt.index:
        raise ValidationError(f"unknown tensor {name!r} in {ckpt.path}")
    start, end = ckpt.index[name].offsets
    with open(ckpt.path, "rb") as fh:
        fh.seek(ckpt.data_start + start)
        return fh.read(end - start)


def load_matrix(ckpt: Checkpoint, name: str, out: np.ndarray | None = None) -> np.ndarray:
    """Load a 2-D tensor, up-cast to float64, row-major order preserved.

    The matrix is a new array or, with `out` (a float64 array or view of the
    tensor's shape, in any memory order), a view of `out`, decoded straight
    into it: no other float64 copy is made. Either way its values are
    checked to be finite where they were decoded.
    """
    if name not in ckpt.index:
        raise ValidationError(f"unknown tensor {name!r} in {ckpt.path}")
    info = ckpt.index[name]
    if len(info.shape) != 2:
        raise ValidationError(
            f"tensor {name!r} has shape {info.shape}; only 2-D tensors load as matrices"
        )
    if out is not None and out.shape != info.shape:
        raise ValidationError(f"shape mismatch: tensor {name!r} is {info.shape}, "
                              f"its destination {out.shape}")
    values = decode_values(load_raw(ckpt, name), info.dtype, out).reshape(info.shape)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"tensor {name!r} contains non-finite values after decode")
    return values


# ---------------------------------------------------------------------------
# container writing


@dataclass(frozen=True)
class CheckpointWriter:
    """The byte ranges of a started checkpoint file that are left for its edits."""

    base: Checkpoint
    path: Path
    #: edited tensor name -> (dtype, start, end) of its bytes in the file
    slots: dict[str, tuple[str, int, int]]

    def write_edit(self, name: str, values: np.ndarray) -> float:
        """Narrow float64 `values` to the dtype of tensor `name`'s slot and write them there.

        The values must have the tensor's shape in the base and be finite;
        they are rounded to nearest-even, and a value beyond the slot
        dtype's range is a NumericalError. Nothing is written on an error.
        Returns the rounding error, max |stored - requested|.
        """
        if name not in self.slots:
            raise ValidationError(f"tensor {name!r} has no edit slot in {self.path}")
        dtype, start, _ = self.slots[name]
        shape = self.base.index[name].shape
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != shape:
            raise ValidationError(
                f"edit for {name!r} has shape {arr.shape}, checkpoint has {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"edit for {name!r} contains non-finite values")
        with np.errstate(over="ignore"):  # an overflow is raised below, naming the tensor
            data = encode_values(arr, dtype)
        stored = decode_values(data, dtype).reshape(shape)
        stored -= arr
        err = float(np.max(np.abs(stored, out=stored))) if arr.size else 0.0
        if not np.isfinite(err):
            raise NumericalError(f"edit for {name!r} overflows {dtype}")
        try:
            with open(self.path, "r+b") as fh:
                fh.seek(start)
                fh.write(data)
        except OSError as exc:
            raise WriteError(f"cannot write checkpoint to {self.path}: {exc}") from exc
        return err


def write_checkpoint(
    base: Checkpoint, edit_dtypes: dict[str, str], out: str | Path
) -> CheckpointWriter:
    """Start writing `base` to `out`, with the tensors of `edit_dtypes` left for edits.

    `edit_dtypes` maps each tensor to be edited to the dtype its edit is
    stored in. The header is written first, since it needs only shapes and
    dtypes; every other tensor is then copied byte-exact from one open
    handle on the base file, in chunks of at most COPY_CHUNK_BYTES, and the
    file is sized to its final length. The edited tensors' byte ranges read
    as zeros until the returned writer fills them (`write_edit`), so edits
    can be written one at a time as they are computed.

    Payload keeps the base file's byte order, so an edit-free write
    reproduces the payload bytes exactly; the header is re-emitted with
    names sorted. `out` may not be the base file itself, which the copy
    still reads from.
    """
    out = Path(out)
    if out.exists() and os.path.samefile(out, base.path):
        raise ValidationError(f"cannot write checkpoint over its own base {base.path}")
    for name, dtype in edit_dtypes.items():
        if name not in base.index or dtype not in DTYPE_SIZES:
            raise ValidationError(
                f"an edit of {name!r} as {dtype} does not fit a tensor of {base.path}"
            )

    # preserve the base payload layout order
    layout = sorted(base.index, key=lambda n: (base.index[n].offsets[0], n))

    entries: dict[str, dict] = {}
    cursor = 0
    for name in layout:
        info = base.index[name]
        if name in edit_dtypes:
            dtype = edit_dtypes[name]
            size = _stored_nbytes(info.shape, dtype)
        else:
            dtype, size = info.dtype, info.nbytes
        entries[name] = {
            "dtype": dtype,
            "shape": list(info.shape),
            "data_offsets": [cursor, cursor + size],
        }
        cursor += size

    if base.metadata:
        entries["__metadata__"] = base.metadata
    header_bytes = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode("utf-8")
    pad = (-(HEADER_LEN_BYTES + len(header_bytes))) % 8
    header_bytes += b" " * pad
    data_start = HEADER_LEN_BYTES + len(header_bytes)
    slots = {
        name: (dtype, *(data_start + offset for offset in entries[name]["data_offsets"]))
        for name, dtype in edit_dtypes.items()
    }

    with open(base.path, "rb") as src:
        try:
            with open(out, "wb") as fh:
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
                for name in layout:
                    if name in slots:
                        fh.seek(slots[name][2])  # left for the writer
                        continue
                    start, end = base.index[name].offsets
                    src.seek(base.data_start + start)
                    for offset in range(start, end, COPY_CHUNK_BYTES):
                        fh.write(src.read(min(COPY_CHUNK_BYTES, end - offset)))
                fh.truncate(data_start + cursor)
        except OSError as exc:
            raise WriteError(f"cannot write checkpoint to {out}: {exc}") from exc
    return CheckpointWriter(base=base, path=out, slots=slots)


# ---------------------------------------------------------------------------
# tensor-name resolution

CANONICAL_KINDS = ("q", "k", "v", "o", "mlp_up", "mlp_gate", "mlp_down")
_KIND_RANK = {kind: i for i, kind in enumerate(CANONICAL_KINDS)}

#: Kinds touched by surgery unless a selection says otherwise.
DEFAULT_SURGERY_KINDS = ("q", "k", "v", "mlp_up", "mlp_gate", "mlp_down")


@dataclass(frozen=True)
class MatrixKey:
    """Identifies one projection matrix: decoder layer index plus kind."""

    layer: int
    kind: str

    def sort_key(self) -> tuple:
        return (self.layer, _KIND_RANK.get(self.kind, len(CANONICAL_KINDS)), self.kind)

    @property
    def label(self) -> str:
        return f"L{self.layer:03d}.{self.kind}"


_DECODER_PATTERNS = [
    ("model.layers.{layer}.self_attn.q_proj.weight", "q"),
    ("model.layers.{layer}.self_attn.k_proj.weight", "k"),
    ("model.layers.{layer}.self_attn.v_proj.weight", "v"),
    ("model.layers.{layer}.self_attn.o_proj.weight", "o"),
    ("model.layers.{layer}.mlp.up_proj.weight", "mlp_up"),
    ("model.layers.{layer}.mlp.gate_proj.weight", "mlp_gate"),
    ("model.layers.{layer}.mlp.down_proj.weight", "mlp_down"),
]

@dataclass
class NamingProfile:
    """Ordered tensor-name templates plus exclusion globs."""

    name: str
    patterns: list[tuple[str, str]]  # (template with {layer}, kind)
    exclusions: list[str]

    def __post_init__(self) -> None:
        if not isinstance(self.exclusions, list) or not all(
            isinstance(glob, str) for glob in self.exclusions
        ):
            raise ValidationError(
                f"profile {self.name!r}: exclusions must be a list of strings, "
                f"got {self.exclusions!r}"
            )
        self._compiled: list[tuple[re.Pattern, str]] = []
        for template, kind in self.patterns:
            if not isinstance(template, str) or not isinstance(kind, str):
                raise ValidationError(
                    f"profile {self.name!r}: template and kind must be strings, "
                    f"got {template!r} and {kind!r}"
                )
            if template.count("{layer}") != 1:
                raise ValidationError(
                    f"profile {self.name!r}: template {template!r} needs exactly one {{layer}}"
                )
            regex = re.escape(template).replace(re.escape("{layer}"), r"(\d+)")
            self._compiled.append((re.compile(regex), kind))

    def is_excluded(self, name: str) -> bool:
        return any(fnmatch.fnmatchcase(name, pat) for pat in self.exclusions)

    def match(self, name: str) -> MatrixKey | None:
        hits = []
        for regex, kind in self._compiled:
            m = regex.fullmatch(name)
            if m:
                hits.append(MatrixKey(layer=int(m.group(1)), kind=kind))
        if len(hits) > 1:
            raise ValidationError(
                f"profile {self.name!r}: tensor {name!r} matches multiple patterns"
            )
        return hits[0] if hits else None

    def check_kinds(self, kinds) -> None:
        """Reject matrix kinds that none of this profile's templates resolves."""
        known = {kind for _, kind in self.patterns}
        unknown = [kind for kind in kinds if kind not in known]
        if unknown:
            raise ValidationError(
                f"kinds {', '.join(map(repr, unknown))} not in profile {self.name!r}, "
                f"which resolves {', '.join(sorted(known))}"
            )


# qwen-style checkpoints use the llama-style names; only the echoed name differs.
# Every template is literal but for {layer} and ends in ".weight", so biases,
# norms and embeddings never match one and need no exclusion globs.
BUILTIN_PROFILES = {
    name: NamingProfile(name=name, patterns=list(_DECODER_PATTERNS), exclusions=[])
    for name in ("llama-style", "qwen-style")
}


def load_profile(spec: str | Path) -> NamingProfile:
    """Return a built-in profile by name, or load one from a JSON file."""
    if isinstance(spec, str) and spec in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[spec]
    path = Path(spec)
    if not path.is_file():
        raise ValidationError(
            f"unknown profile {spec!r}: not a built-in ({', '.join(sorted(BUILTIN_PROFILES))}) "
            "and not a file"
        )
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read profile {path}: {exc}") from exc
    try:
        patterns = [(p["template"], p["kind"]) for p in raw["patterns"]]
        return NamingProfile(
            name=str(raw.get("name", path.stem)),
            patterns=patterns,
            exclusions=raw.get("exclusions", []),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed profile {path}: {exc}") from exc


def resolve_keys(ckpt: Checkpoint, profile: NamingProfile) -> list[tuple[MatrixKey, str]]:
    """Map tensor names to matrix keys, as (key, name) pairs sorted by (layer, kind).

    Excluded and unrecognized names are left out.
    """
    matched: dict[MatrixKey, str] = {}
    for name in ckpt.index:
        if profile.is_excluded(name):
            continue
        key = profile.match(name)
        if key is None:
            continue
        if key in matched:
            raise ValidationError(
                f"tensors {matched[key]!r} and {name!r} both resolve to {key.label}"
            )
        matched[key] = name
    return sorted(matched.items(), key=lambda kv: kv[0].sort_key())


def pair_matrices(
    a: Checkpoint, b: Checkpoint, profile: NamingProfile, kinds=None
) -> list[tuple[MatrixKey, str, str | None, Callable, Callable | None]]:
    """The one walk over the matrices of two checkpoints, paired by key, in key order.

    For each 2-D matrix of `a` of the given `kinds` (every kind if None):
    (key, name in a, name in b, load a, load b). A kind the profile does not
    resolve is rejected first (`NamingProfile.check_kinds`). A loader decodes
    its matrix by `load_matrix` when called, so the caller decides when to
    load. The name and loader in b are None where `b` lacks the key; keys
    only `b` has are left out. Paired tensors must have the same shape.
    """
    if kinds is not None:
        profile.check_kinds(kinds)
    names_b = dict(resolve_keys(b, profile))
    pairs = []
    for key, name_a in resolve_keys(a, profile):
        shape = a.index[name_a].shape
        if (kinds is not None and key.kind not in kinds) or len(shape) != 2:
            continue
        name_b = names_b.get(key)
        if name_b is not None and b.index[name_b].shape != shape:
            raise ValidationError(
                f"{key.label}: shape {shape} in {a.path} vs {b.index[name_b].shape} in {b.path}"
            )
        load_b = None if name_b is None else functools.partial(load_matrix, b, name_b)
        pairs.append((key, name_a, name_b, functools.partial(load_matrix, a, name_a), load_b))
    return pairs


def run_pairs(job: Callable, pairs: list, *args) -> Iterator[tuple]:
    """The one driver of the matrix commands: (pair, `job(pair, *args)`) per pair, in order.

    `pairs` is a `pair_matrices` walk or a restore plan's `targets`. A job is
    a module-level function that loads through the pair's loaders and
    returns plain data holding no matrix, so a job, its pair and its
    arguments pickle. Jobs run here, one at a time, in key order.
    """
    for pair in pairs:
        yield pair, job(pair, *args)
