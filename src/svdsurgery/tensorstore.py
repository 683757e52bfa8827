"""Single-file tensor-container I/O and tensor-name resolution.

File layout: an 8-byte unsigned little-endian header length, a JSON header
mapping tensor name -> {"dtype", "shape", "data_offsets"}, then a raw
little-endian row-major payload. Offsets are relative to the start of the
payload section. The optional "__metadata__" header entry is a
string-to-string map and is preserved on rewrite.

All analysis happens in float64. Narrowing back to a stored dtype happens
only when a checkpoint is written, with round-to-nearest-even. BF16 has no
native numpy dtype; values pass through float32 (every BF16 value is exactly
representable there) and are then rounded to BF16 on the raw bits.
"""

from __future__ import annotations

import fnmatch
import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, WriteError

HEADER_LEN_BYTES = 8

#: Supported stored dtypes and their byte widths.
DTYPE_SIZES = {"F64": 8, "F32": 4, "F16": 2, "BF16": 2}

_NUMPY_DTYPES = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


# ---------------------------------------------------------------------------
# dtype codecs


def _bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32)


def _f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    # round-to-nearest-even on the upper 16 bits of the float32 pattern
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    bias = np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))
    return ((u + bias) >> np.uint32(16)).astype(np.uint16)


def decode_values(raw: bytes, dtype: str) -> np.ndarray:
    """Decode a little-endian payload of `dtype` into a float64 vector."""
    if dtype == "BF16":
        bits = np.frombuffer(raw, dtype="<u2")
        return _bf16_bits_to_f32(bits).astype(np.float64)
    if dtype not in _NUMPY_DTYPES:
        raise ValidationError(f"unsupported dtype {dtype!r}")
    return np.frombuffer(raw, dtype=_NUMPY_DTYPES[dtype]).astype(np.float64)


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
            shape = tuple(int(d) for d in entry["shape"])
            start, end = (int(x) for x in entry["data_offsets"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed header entry for {name!r}: {exc}") from exc
        if dtype not in DTYPE_SIZES:
            raise ValidationError(f"unsupported dtype {dtype!r} for tensor {name!r}")
        if not 1 <= len(shape) <= 2 or any(d < 0 for d in shape):
            raise ValidationError(f"tensor {name!r} has unsupported shape {shape}")
        if not 0 <= start <= end <= data_size:
            raise ValidationError(f"tensor {name!r} byte range {(start, end)} out of bounds")
        expected = int(np.prod(shape)) * DTYPE_SIZES[dtype]
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


def load_matrix(ckpt: Checkpoint, name: str) -> np.ndarray:
    """Load a 2-D tensor, up-cast to float64, row-major order preserved."""
    if name not in ckpt.index:
        raise ValidationError(f"unknown tensor {name!r} in {ckpt.path}")
    info = ckpt.index[name]
    if len(info.shape) != 2:
        raise ValidationError(
            f"tensor {name!r} has shape {info.shape}; only 2-D tensors load as matrices"
        )
    values = decode_values(load_raw(ckpt, name), info.dtype).reshape(info.shape)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"tensor {name!r} contains non-finite values after decode")
    return values


# ---------------------------------------------------------------------------
# container writing


@dataclass
class WriteReport:
    out_path: Path
    tensors_written: int
    tensors_edited: int
    #: per edited tensor: max |stored - requested| after dtype rounding
    rounding_errors: dict[str, float] = field(default_factory=dict)


def write_checkpoint(
    base: Checkpoint,
    edits: dict[str, np.ndarray],
    out: str | Path,
    force_f32: bool = False,
) -> WriteReport:
    """Write `base` with `edits` substituted, all other tensors copied byte-exact.

    Edited tensors are rounded back to their stored dtype (or F32 when
    `force_f32`). Payload keeps the base file's byte order, so an edit-free
    write reproduces the payload bytes exactly; the header is re-emitted
    with names sorted.
    """
    for name, values in edits.items():
        if name not in base.index:
            raise ValidationError(f"edit targets unknown tensor {name!r}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != base.index[name].shape:
            raise ValidationError(
                f"edit for {name!r} has shape {arr.shape}, checkpoint has {base.index[name].shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"edit for {name!r} contains non-finite values")

    # preserve the base payload layout order
    layout = sorted(base.index, key=lambda n: (base.index[n].offsets[0], n))
    report = WriteReport(out_path=Path(out), tensors_written=len(layout), tensors_edited=len(edits))

    blobs: dict[str, bytes] = {}
    entries: dict[str, dict] = {}
    cursor = 0
    for name in layout:
        info = base.index[name]
        if name in edits:
            dtype = "F32" if force_f32 else info.dtype
            arr = np.asarray(edits[name], dtype=np.float64)
            blob = encode_values(arr, dtype)
            stored = decode_values(blob, dtype).reshape(info.shape)
            err = float(np.max(np.abs(stored - arr))) if arr.size else 0.0
            report.rounding_errors[name] = err
        else:
            dtype = info.dtype
            blob = load_raw(base, name)
        blobs[name] = blob
        entries[name] = {
            "dtype": dtype,
            "shape": list(info.shape),
            "data_offsets": [cursor, cursor + len(blob)],
        }
        cursor += len(blob)

    header: dict[str, object] = {name: entries[name] for name in sorted(entries)}
    if base.metadata:
        header["__metadata__"] = dict(sorted(base.metadata.items()))
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    pad = (-(HEADER_LEN_BYTES + len(header_bytes))) % 8
    header_bytes += b" " * pad

    try:
        with open(out, "wb") as fh:
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name in layout:
                fh.write(blobs[name])
    except OSError as exc:
        raise WriteError(f"cannot write checkpoint to {out}: {exc}") from exc
    return report


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

# biases, norms and embeddings carry no projection directions we analyze;
# attention biases in particular are excluded on purpose
_DECODER_EXCLUSIONS = [
    "*.bias",
    "*layernorm*",
    "model.norm.weight",
    "model.embed_tokens.weight",
    "lm_head.weight",
    "*rotary_emb*",
]


@dataclass
class NamingProfile:
    """Ordered tensor-name templates plus exclusion globs."""

    name: str
    patterns: list[tuple[str, str]]  # (template with {layer}, kind)
    exclusions: list[str]

    def __post_init__(self) -> None:
        self._compiled: list[tuple[re.Pattern, str]] = []
        for template, kind in self.patterns:
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


# qwen-style checkpoints use the llama-style names; only the echoed name differs
BUILTIN_PROFILES = {
    name: NamingProfile(
        name=name, patterns=list(_DECODER_PATTERNS), exclusions=list(_DECODER_EXCLUSIONS)
    )
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read profile {path}: {exc}") from exc
    try:
        patterns = [(p["template"], p["kind"]) for p in raw["patterns"]]
        return NamingProfile(
            name=str(raw.get("name", path.stem)),
            patterns=patterns,
            exclusions=[str(e) for e in raw.get("exclusions", [])],
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed profile {path}: {exc}") from exc


@dataclass
class KeyResolution:
    matched: list[tuple[MatrixKey, str]]
    unmatched: list[str]

    def as_dict(self) -> dict[MatrixKey, str]:
        return dict(self.matched)


def resolve_keys(ckpt: Checkpoint, profile: NamingProfile) -> KeyResolution:
    """Map tensor names to matrix keys.

    Output order is deterministic, sorted by (layer, kind); excluded and
    unrecognized names are returned under `unmatched`, never dropped.
    """
    matched: dict[MatrixKey, str] = {}
    unmatched: list[str] = []
    for name in ckpt.index:
        if profile.is_excluded(name):
            unmatched.append(name)
            continue
        key = profile.match(name)
        if key is None:
            unmatched.append(name)
            continue
        if key in matched:
            raise ValidationError(
                f"tensors {matched[key]!r} and {name!r} both resolve to {key.label}"
            )
        matched[key] = name
    ordered = sorted(matched.items(), key=lambda kv: kv[0].sort_key())
    return KeyResolution(matched=ordered, unmatched=sorted(unmatched))


def pair_matrices(
    a: Checkpoint, b: Checkpoint, profile: NamingProfile, keep
) -> list[tuple[MatrixKey, str, str | None]]:
    """Pair each 2-D matrix of `a` whose key passes `keep` with `b`'s tensor for that key.

    Returns (key, name in a, name in b) sorted by key; the name in b is None
    where `b` resolves no tensor for the key. Paired tensors must have the
    same shape.
    """
    names_b = resolve_keys(b, profile).as_dict()
    pairs = []
    for key, name_a in resolve_keys(a, profile).matched:
        shape = a.index[name_a].shape
        if not keep(key) or len(shape) != 2:
            continue
        name_b = names_b.get(key)
        if name_b is not None and b.index[name_b].shape != shape:
            raise ValidationError(
                f"{key.label}: shape {shape} in {a.path} vs {b.index[name_b].shape} in {b.path}"
            )
        pairs.append((key, name_a, name_b))
    return pairs
