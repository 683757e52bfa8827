"""Shared fixtures and independent file-format helpers.

`pack_container` builds container bytes by hand (json + struct only) so the
reader and writer under test are checked against an independent encoding of
the same layout.
"""

from __future__ import annotations

import json
import struct
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

_NP_DTYPES = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


def pack_container(tensors: dict, metadata: dict | None = None) -> bytes:
    """Serialize {name: (dtype, array)} into container bytes.

    BF16 entries take uint16 bit patterns; other dtypes take float arrays.
    """
    header: dict = {}
    payload = b""
    for name, (dtype, arr) in tensors.items():
        arr = np.asarray(arr)
        if dtype == "BF16":
            blob = np.ascontiguousarray(arr, dtype="<u2").tobytes()
        else:
            blob = np.ascontiguousarray(arr, dtype=_NP_DTYPES[dtype]).tobytes()
        header[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "data_offsets": [len(payload), len(payload) + len(blob)],
        }
        payload += blob
    if metadata:
        header["__metadata__"] = metadata
    header_bytes = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(header_bytes)) + header_bytes + payload


@pytest.fixture
def write_container(tmp_path):
    def _write(tensors: dict, name: str = "ckpt.safetensors", metadata: dict | None = None):
        path = tmp_path / name
        path.write_bytes(pack_container(tensors, metadata))
        return path

    return _write


def spectral_matrix(rng: np.random.Generator, m: int, n: int, sigmas) -> np.ndarray:
    """Matrix with prescribed singular values and random orthogonal factors."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    r = min(m, n)
    assert sigmas.shape[0] == r
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1[:, :r] * sigmas) @ q2[:, :r].T


def loader(w: np.ndarray):
    """A loader of the in-memory matrix `w`, as `tensorstore.load_matrix` is of a stored one.

    Called with no argument it returns a fresh float64 copy of `w`; with
    `out`, it writes `w` into `out` and returns it.
    """

    def load(out=None):
        if out is None:
            return np.array(w, dtype=np.float64)
        out[...] = w
        return out

    return load


def angles_of(a: np.ndarray, b: np.ndarray):
    """`spectral.matrix_angles` of two in-memory matrices of the same shape."""
    from svdsurgery.spectral import matrix_angles

    return matrix_angles(loader(a), loader(b), np.shape(a))


def drift_of(a: np.ndarray, b: np.ndarray):
    """`spectral.delta_sigma` of two in-memory matrices."""
    from svdsurgery.spectral import delta_sigma

    return delta_sigma(loader(a), loader(b))


def reconstruct(t, keep=None) -> np.ndarray:
    """Sum of sigma_i * u_i v_i^T of an SvdTriple over the rank indices `keep` (all by default)."""
    idx = np.arange(t.rank) if keep is None else np.asarray(keep, dtype=np.int64)
    return (t.u[:, idx] * t.sigma[idx]) @ t.v[:, idx].T


def decoder_layer_shapes(layer: int, dim: int = 12, kv_dim: int = 8) -> dict:
    base = f"model.layers.{layer}."
    return {
        base + "self_attn.q_proj.weight": (dim, dim),
        base + "self_attn.k_proj.weight": (kv_dim, dim),
        base + "self_attn.v_proj.weight": (kv_dim, dim),
        base + "self_attn.o_proj.weight": (dim, dim),
        base + "mlp.up_proj.weight": (dim + 4, dim),
        base + "mlp.gate_proj.weight": (dim + 4, dim),
        base + "mlp.down_proj.weight": (dim, dim + 4),
    }


def synth_decoder_arrays(seed: int, layers: int = 2, dim: int = 12, kv_dim: int = 8) -> dict:
    """Decoder-style weight dict with well-separated, distinct spectra."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for layer in range(layers):
        for name, (m, n) in decoder_layer_shapes(layer, dim, kv_dim).items():
            r = min(m, n)
            sigmas = np.linspace(10.0, 1.0, r) + rng.uniform(0.0, 0.05, r)
            sigmas = np.sort(sigmas)[::-1]
            arrays[name] = spectral_matrix(rng, m, n, sigmas)
    return arrays


@pytest.fixture
def synth_pair(tmp_path):
    """Two decoder-style F64 checkpoints with different spectra and bases.

    `transform(tag, name, matrix)`, if given, replaces each matrix before it is written.
    """

    def _build(layers: int = 2, dim: int = 12, kv_dim: int = 8, seeds=(11, 23), transform=None):
        paths = []
        for tag, seed in zip(("host", "donor"), seeds):
            arrays = synth_decoder_arrays(seed, layers=layers, dim=dim, kv_dim=kv_dim)
            if transform is not None:
                arrays = {name: transform(tag, name, arr) for name, arr in arrays.items()}
            tensors = {name: ("F64", arr) for name, arr in arrays.items()}
            path = tmp_path / f"{tag}.safetensors"
            path.write_bytes(pack_container(tensors))
            paths.append(path)
        return tuple(paths)

    return _build


class HandOverWatch:
    """Records matrices as they are handed over and checks each LAPACK call against them."""

    def __init__(self, routine):
        self.refs: list[weakref.ref] = []
        self.calls = 0
        self._routine = routine

    def fresh(self, w: np.ndarray) -> np.ndarray:
        """A copy of `w` that only the caller holds, watched from now on."""
        w = np.array(w, dtype=np.float64)
        self.refs.append(weakref.ref(w))
        return w

    def loader(self, load):
        """`load`, with each matrix it returns watched."""
        return lambda *args: self.fresh(load(*args))

    def lapack(self, *args) -> None:
        alive = sum(ref() is not None for ref in self.refs)
        assert alive == 0, f"{alive} handed-over matrices alive at LAPACK call {self.calls + 1}"
        self.calls += 1
        return self._routine(*args)


@pytest.fixture
def handover_watch(monkeypatch):
    """Replace `spectral._gesdd` by a fake that fails if a watched matrix is still alive.

    The fake runs NumPy's own LAPACKE dgesdd after the check, so every
    result is the real one.
    """
    from svdsurgery import spectral

    real = spectral._gesdd()
    if real is None:
        pytest.skip("no dgesdd binding here")
    watch = HandOverWatch(real)
    monkeypatch.setattr(spectral, "_gesdd", lambda: watch.lapack)
    return watch


TALL_NAME = "model.layers.0.mlp.up_proj.weight"


@pytest.fixture
def tall_pair(tmp_path):
    """An F32 host and donor, each holding one 600x200 matrix `TALL_NAME`.

    Returns the two paths and the size of one float64 matrix in bytes.
    """
    m, n = 600, 200
    rng = np.random.default_rng(5)
    paths = []
    for tag, sigmas in (("host", np.linspace(10.0, 1.0, n)), ("donor", np.linspace(8.0, 2.0, n))):
        path = tmp_path / f"{tag}.safetensors"
        path.write_bytes(pack_container({TALL_NAME: ("F32", spectral_matrix(rng, m, n, sigmas))}))
        paths.append(path)
    return paths[0], paths[1], m * n * 8


def traced_peak(call) -> int:
    """The tracemalloc peak of `call()`: the most it held at once of what it allocated."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# planted truths

#: a tall matrix (m > n), so the `angles` side that is not whole-space is the left one
PLANTED_NAME = "model.layers.0.mlp.up_proj.weight"


@dataclass
class PlantedStep:
    """One checkpoint of `planted_trajectory`, with the truths it was built from."""

    phase: str  # "base", "sft" or "rl"
    theta: np.ndarray  # (k,) planted angles of the top-k subspaces against the base
    sigma: np.ndarray  # (n,) singular values, descending
    matrix: np.ndarray  # (m, n) float64


def planted_trajectory(seed: int = 0, m: int = 40, n: int = 16, k: int = 4) -> list[PlantedStep]:
    """A base W_0 = U diag(sigma_0) V^T and an SFT -> RL series whose drift and rotation are known.

    Step t is W_t = U_t diag(sigma_t) V_t^T with U_t (m x n) and V_t (n x n)
    orthonormal by construction, so its truths come from the construction,
    not from an SVD of the output:

    - the singular values of W_t are sigma_t, descending, and the planted
      drift is Delta sigma_t = sigma_t - sigma_0. The SFT steps move the
      top-k values; the RL steps keep the last SFT step's values;
    - U_t's top-k columns are U_k cos(Theta_t) + P sin(Theta_t), where P
      is orthonormal and orthogonal to all n columns of U; the other
      columns are U's. The principal angles between the thin left bases of
      W_0 and W_t are therefore Theta_t plus n - k zeros, and those between
      their top-k left subspaces are Theta_t;
    - V_t's top-k columns turn by Theta_t towards columns k+1..2k, which
      get the matching counter-rotation, so V_t stays orthogonal and the
      top-k right subspaces are also Theta_t apart. The thin right basis
      spans all of R^n, so its angles are all zero;
    - Theta_t grows over the SFT steps and partly falls back over the RL
      steps (finding 4 of the source paper: SFT rotates the leading
      directions, RL turns them back while sigma stays put);
    - sigma_k / sigma_{k+1} >= 2 at every step, so each top-k subspace is
      well defined, and sigma_n = 1 keeps the thin left basis well defined;
    - against the reference W_0 at rank r = k, the rotation-preservation
      penalty of W_t is sum_{i<=k} sin^2(theta_{t,i}) (2 sigma_{t,i}^2
      cos^2(theta_{t,i}) + sigma_{t,k+i}^2), since with P_U = U_k U_k^T
      and P_V = V_k V_k^T the two cross blocks are
      (I - P_U) W_t V_k = P sin(Theta) Sigma_top cos(Theta)
      - U_{k:2k} Sigma_mid sin(Theta) and
      U_k^T W_t (I - P_V) = cos(Theta) Sigma_top sin(Theta) V_{k:2k}^T,
      with Sigma_top and Sigma_mid the diagonals of sigma_{t,1..k} and
      sigma_{t,k+1..2k}, and P sin(Theta) orthogonal to U.

    Needs m >= n + k and n >= 2k.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, n + k)))
    u, away = q[:, :n], q[:, n:]
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma_0 = np.concatenate([np.linspace(12.0, 9.0, k), np.linspace(4.0, 1.0, n - k)])
    drift = np.concatenate([np.linspace(0.5, 0.2, k), np.zeros(n - k)])
    peak = np.linspace(0.3, 0.6, k)  # the top-k angles at the end of SFT, in radians
    schedule = [("base", 0.0, 0.0), ("sft", 0.5, 0.5), ("sft", 1.0, 1.0),
                ("rl", 0.8, 1.0), ("rl", 0.6, 1.0)]  # (phase, share of peak, share of drift)
    steps = []
    for phase, turn, grow in schedule:
        theta = turn * peak
        cos, sin = np.cos(theta), np.sin(theta)
        u_t, v_t = u.copy(), v.copy()
        u_t[:, :k] = u[:, :k] * cos + away * sin
        v_t[:, :k] = v[:, :k] * cos + v[:, k:2 * k] * sin
        v_t[:, k:2 * k] = v[:, k:2 * k] * cos - v[:, :k] * sin
        sigma = sigma_0 + grow * drift
        steps.append(PlantedStep(phase=phase, theta=theta, sigma=sigma,
                                 matrix=(u_t * sigma) @ v_t.T))
    return steps


#: unit roundoff of each stored dtype: every stored entry is within UNIT_ROUNDOFF * |x| of x
UNIT_ROUNDOFF = {"F32": 2.0**-24, "BF16": 2.0**-8}


def stored_as(matrix: np.ndarray, dtype: str) -> np.ndarray:
    """What `pack_container` takes for `matrix` stored as F64, F32 or BF16, rounded once.

    BF16 is rounded to nearest-even straight from the float64 bits, not
    through float32, so its error stays within one unit roundoff.
    """
    if dtype != "BF16":
        return matrix
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)
    bias = np.uint64((1 << 44) - 1) + ((bits >> np.uint64(45)) & np.uint64(1))
    nearest = (((bits + bias) >> np.uint64(45)) << np.uint64(45)).view(np.float64)
    return (nearest.astype(np.float32).view(np.uint32) >> np.uint32(16)).astype(np.uint16)
