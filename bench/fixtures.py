"""Seeded workload inputs, built without the package under test.

The container packer, the BF16 rounding and the container reader used by the
output checks are written here from the format description alone, so that a
defect in ``svdsurgery.tensorstore`` cannot hide by sitting on both sides of
a comparison.

Checkpoints use the medium decoder shapes (dim 512, kv 128, MLP 1376) with
power-law spectra. The donor is the host plus a low-rank update plus small
noise, the way a fine-tuned checkpoint relates to its base. Every tensor is
1-D or 2-D float, because the reader rejects anything else; tensors of other
shapes and dtypes belong in the benchmark once the reader passes them through.

For a fixed seed, NumPy build and CPU the files are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 512
KV_DIM = 128
MLP_DIM = 1376
VOCAB = 2048
LAYERS = 1

#: (tensor-name template, rows, cols) of every decoder projection
PROJECTIONS = {
    "q": ("model.layers.{l}.self_attn.q_proj.weight", DIM, DIM),
    "k": ("model.layers.{l}.self_attn.k_proj.weight", KV_DIM, DIM),
    "v": ("model.layers.{l}.self_attn.v_proj.weight", KV_DIM, DIM),
    "o": ("model.layers.{l}.self_attn.o_proj.weight", DIM, DIM),
    "mlp_up": ("model.layers.{l}.mlp.up_proj.weight", MLP_DIM, DIM),
    "mlp_gate": ("model.layers.{l}.mlp.gate_proj.weight", MLP_DIM, DIM),
    "mlp_down": ("model.layers.{l}.mlp.down_proj.weight", DIM, MLP_DIM),
}

SPECTRUM_EXPONENT = 0.7  # sigma_i = (i + 1) ** -exponent
DONOR_UPDATE_RANK = 8
DONOR_UPDATE_SCALE = 0.1  # of sigma_1
DONOR_NOISE = 1e-3  # of the typical entry size

ROLLOUT_TRACES = 200
ROLLOUT_STEPS = 100
# fixed counts rather than coin flips, so every seed gives a sample of the
# same make-up and the estimator the same amount of work
ROLLOUT_REWARDED = 60  # traces whose last step earns reward 1
ROLLOUT_TERMINAL_ROWS = 100  # traces that log their bootstrap value

_F_DTYPES = {"F32": "<f4"}


# ---------------------------------------------------------------------------
# container format


def f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 values to BF16 bit patterns, ties to even."""
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    upper = (bits >> np.uint32(16)).astype(np.uint32)
    lower = bits & np.uint32(0xFFFF)
    round_up = (lower > 0x8000) | ((lower == 0x8000) & ((upper & 1) == 1))
    return (upper + round_up).astype("<u2")


def encode(values: np.ndarray, dtype: str) -> bytes:
    if dtype == "BF16":
        return f32_to_bf16_bits(np.asarray(values, dtype=np.float32)).tobytes()
    return np.ascontiguousarray(values, dtype=_F_DTYPES[dtype]).tobytes()


def decode(raw: bytes, dtype: str, shape) -> np.ndarray:
    """Stored bytes to float64 values of the given shape."""
    if dtype == "BF16":
        wide = np.frombuffer(raw, dtype="<u2").astype(np.uint32) << np.uint32(16)
        return wide.view(np.float32).astype(np.float64).reshape(shape)
    return np.frombuffer(raw, dtype=_F_DTYPES[dtype]).astype(np.float64).reshape(shape)


def pack_container(path: Path, tensors: dict[str, np.ndarray], dtype: str) -> None:
    """Write {name: float64 array} as one container, every tensor in `dtype`."""
    header: dict[str, dict] = {}
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        blob = encode(arr, dtype)
        header[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + len(blob)],
        }
        blobs.append(blob)
        offset += len(blob)
    raw = json.dumps(header).encode("utf-8")
    raw += b" " * ((-(8 + len(raw))) % 8)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)


@dataclass
class Container:
    """A parsed container: header entries plus the whole file's bytes."""

    header: dict[str, dict]
    data: bytes
    data_start: int

    @classmethod
    def read(cls, path: Path) -> "Container":
        data = Path(path).read_bytes()
        (length,) = struct.unpack("<Q", data[:8])
        header = json.loads(data[8 : 8 + length])
        header.pop("__metadata__", None)
        return cls(header=header, data=data, data_start=8 + length)

    def raw(self, name: str) -> bytes:
        start, end = self.header[name]["data_offsets"]
        return self.data[self.data_start + start : self.data_start + end]

    def values(self, name: str) -> np.ndarray:
        entry = self.header[name]
        return decode(self.raw(name), entry["dtype"], entry["shape"])


def digest_files(paths) -> str:
    """SHA-256 over the paths and contents of `paths`, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checkpoints


def projection_names(layers: int = LAYERS) -> dict[tuple[int, str], str]:
    """(layer, kind) -> tensor name for every decoder projection."""
    return {
        (layer, kind): template.format(l=layer)
        for layer in range(layers)
        for kind, (template, _, _) in PROJECTIONS.items()
    }


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def _host_arrays(rng: np.random.Generator, layers: int) -> dict[str, np.ndarray]:
    arrays = {"model.embed_tokens.weight": 0.02 * rng.standard_normal((VOCAB, DIM))}
    for layer in range(layers):
        for kind, (template, m, n) in PROJECTIONS.items():
            r = min(m, n)
            sigma = np.arange(1, r + 1, dtype=np.float64) ** -SPECTRUM_EXPONENT
            arrays[template.format(l=layer)] = (_orthonormal(rng, m, r) * sigma) @ _orthonormal(
                rng, n, r
            ).T
        for norm in ("input_layernorm", "post_attention_layernorm"):
            arrays[f"model.layers.{layer}.{norm}.weight"] = 1.0 + 0.01 * rng.standard_normal(DIM)
    arrays["model.norm.weight"] = 1.0 + 0.01 * rng.standard_normal(DIM)
    arrays["lm_head.weight"] = 0.02 * rng.standard_normal((VOCAB, DIM))
    return arrays


def _donor_arrays(rng: np.random.Generator, host: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    donor = {}
    for name, w in host.items():
        noise = DONOR_NOISE * float(np.std(w)) * rng.standard_normal(w.shape)
        if w.ndim == 2 and name.startswith("model.layers."):
            m, n = w.shape
            a = rng.standard_normal((m, DONOR_UPDATE_RANK)) / np.sqrt(m)
            b = rng.standard_normal((n, DONOR_UPDATE_RANK)) / np.sqrt(n)
            noise += DONOR_UPDATE_SCALE * (a @ b.T)
        donor[name] = w + noise
    return donor


@dataclass
class CheckpointPair:
    host: Path
    donor: Path
    dtype: str


def write_checkpoint_pair(directory: Path, seed: int, dtype: str) -> CheckpointPair:
    rng = np.random.default_rng([seed, 1])
    host = _host_arrays(rng, LAYERS)
    donor = _donor_arrays(rng, host)
    pair = CheckpointPair(directory / "host.safetensors", directory / "donor.safetensors", dtype)
    pack_container(pair.host, host, dtype)
    pack_container(pair.donor, donor, dtype)
    return pair


# ---------------------------------------------------------------------------
# rollout log


@dataclass
class Rollouts:
    """What the rollout log holds, as arrays (one row per trace)."""

    rewards: np.ndarray  # (traces, steps)
    values: np.ndarray  # (traces, steps + 1); last column 0 where no terminal row


def write_rollout_log(path: Path, seed: int) -> Rollouts:
    """Trace-form JSON-lines log with sparse terminal rewards."""
    rng = np.random.default_rng([seed, 2])
    shape = (ROLLOUT_TRACES, ROLLOUT_STEPS)
    rewards = np.zeros(shape)
    rewards[rng.permutation(ROLLOUT_TRACES)[:ROLLOUT_REWARDED], -1] = 1.0
    drift = rng.normal(0.0, 0.05, (ROLLOUT_TRACES, ROLLOUT_STEPS + 1))
    values = np.cumsum(drift, axis=1) + rng.normal(0.3, 0.2, (ROLLOUT_TRACES, 1))
    has_terminal = np.zeros(ROLLOUT_TRACES, dtype=bool)
    has_terminal[rng.permutation(ROLLOUT_TRACES)[:ROLLOUT_TERMINAL_ROWS]] = True
    values[~has_terminal, -1] = 0.0
    lines = []
    for i in range(ROLLOUT_TRACES):
        trace_id = f"trace-{i:04d}"
        for t in range(ROLLOUT_STEPS):
            lines.append(
                json.dumps(
                    {"trace_id": trace_id, "t": t, "reward": rewards[i, t], "value": values[i, t]}
                )
            )
        if has_terminal[i]:
            lines.append(
                json.dumps({"trace_id": trace_id, "t": ROLLOUT_STEPS, "value": values[i, -1]})
            )
    path.write_text("\n".join(lines) + "\n")
    return Rollouts(rewards=rewards, values=values)
