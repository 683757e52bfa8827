"""Output checks against independent NumPy computations.

Each check takes a command's output directory and what the generator wrote,
and returns a list of problems (empty when the output is right). Tolerances
follow from the stored dtype and the conditioning of the quantity, not from
what the program happens to produce.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fixtures import LAYERS, PROJECTIONS, CheckpointPair, Container, Rollouts, projection_names

#: singular values agree to this fraction of sigma_1; inputs are identical in
#: float64, so only LAPACK rounding separates the two computations
SIGMA_RTOL = 1e-9
#: principal angles in radians; arccos of a cosine exact to 1e-16 is exact
#: to about 1e-8 next to zero
ANGLE_ATOL = 1e-6
#: the penalty is a sum of squares of projections onto well-separated
#: subspaces (power-law gap at rank 32)
PENALTY_RTOL = 1e-6
MOMENT_RTOL = 1e-9
#: CLI defaults for generalized advantage estimation
GAMMA, LAM = 0.99, 0.95


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _column(rows: list[dict[str, str]], name: str) -> np.ndarray:
    return np.array([float(row[name]) for row in rows])


def _slug(layer: int, kind: str) -> str:
    return f"L{layer:03d}_{kind}"


def svd_diff(out: Path, pair: CheckpointPair) -> list[str]:
    problems = []
    host, donor = Container.read(pair.host), Container.read(pair.donor)
    for (layer, kind), name in projection_names().items():
        rows = _read_csv(out / f"delta_sigma__{_slug(layer, kind)}.csv")
        want_a = np.linalg.svd(host.values(name), compute_uv=False)
        want_b = np.linalg.svd(donor.values(name), compute_uv=False)
        got_a, got_b = _column(rows, "sigma_a"), _column(rows, "sigma_b")
        tol = SIGMA_RTOL * want_a[0]
        if got_a.shape != want_a.shape or np.max(np.abs(got_a - want_a)) > tol:
            problems.append(f"svd-diff {name}: sigma_a differs from numpy")
        elif np.max(np.abs(got_b - want_b)) > tol:
            problems.append(f"svd-diff {name}: sigma_b differs from numpy")
        elif np.max(np.abs(_column(rows, "delta") - (got_b - got_a))) > tol:
            problems.append(f"svd-diff {name}: delta is not sigma_b - sigma_a")
    summary = json.loads((out / "summary.json").read_text())
    if len(summary["matrices"]) != len(PROJECTIONS) * LAYERS:
        problems.append(f"svd-diff: summary lists {len(summary['matrices'])} matrices")
    return problems


def _principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cosines = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sort(np.arccos(np.clip(cosines, 0.0, 1.0)))


def angles(out: Path, pair: CheckpointPair) -> list[str]:
    problems = []
    summary = _read_csv(out / "summary.csv")
    if len(summary) != 2 * len(PROJECTIONS) * LAYERS:
        problems.append(f"angles: summary has {len(summary)} rows")
    if not (out / "plot_data.csv").is_file():
        problems.append("angles: --emit-plot-data wrote no plot_data.csv")
    for path in sorted(out.glob("angles__*.csv")):
        deg = _column(_read_csv(path), "angle_deg")
        if deg.size == 0 or deg.min() < 0.0 or deg.max() > 90.0:
            problems.append(f"angles {path.name}: angle outside [0, 90] degrees")
    # one rectangular matrix, whose right singular subspaces can rotate
    name = projection_names()[(0, "k")]
    ua, _, vta = np.linalg.svd(Container.read(pair.host).values(name), full_matrices=False)
    ub, _, vtb = np.linalg.svd(Container.read(pair.donor).values(name), full_matrices=False)
    for side, want in (
        ("left", _principal_angles(ua, ub)),
        ("right", _principal_angles(vta.T, vtb.T)),
    ):
        got = _column(_read_csv(out / f"angles__{_slug(0, 'k')}__{side}.csv"), "angle_rad")
        if got.shape != want.shape or np.max(np.abs(got - want)) > ANGLE_ATOL:
            problems.append(f"angles {name} {side}: differs from numpy")
    return problems


def _spliced(host: np.ndarray, donor: np.ndarray, top: int) -> np.ndarray:
    """Host values with the donor's leading `top` singular vector pairs.

    Each term sigma_i u_i v_i^T is unchanged when u_i and v_i flip sign
    together, so no sign convention needs to match the program's.
    """
    uh, sh, vth = np.linalg.svd(host, full_matrices=False)
    ud, _, vtd = np.linalg.svd(donor, full_matrices=False)
    return (ud[:, :top] * sh[:top]) @ vtd[:top] + (uh[:, top:] * sh[top:]) @ vth[top:]


def restore_output(out: Path, top: int) -> Path:
    return out / f"vectors__layers-all__ranks-top-{top}.safetensors"


def restore(
    out: Path, pair: CheckpointPair, tops: tuple[int, ...], kinds: tuple[str, ...]
) -> list[str]:
    problems = []
    host, donor = Container.read(pair.host), Container.read(pair.donor)
    edited = {name for (_, kind), name in projection_names().items() if kind in kinds}
    name = projection_names()[(0, "mlp_up")]
    for top in tops:
        path = restore_output(out, top)
        for suffix in (".report.json", ".report.csv"):
            if not path.with_name(path.stem + suffix).is_file():
                problems.append(f"restore top:{top}: no {suffix} report")
        result = Container.read(path)
        if set(result.header) != set(host.header):
            problems.append(f"restore top:{top}: tensor names differ from the host")
            continue
        for tensor in sorted(set(host.header) - edited):
            if result.raw(tensor) != host.raw(tensor):
                problems.append(f"restore top:{top}: unedited {tensor} is not byte-identical")
        for tensor in sorted(edited):
            entry = result.header[tensor]
            if entry["dtype"] != pair.dtype or entry["shape"] != host.header[tensor]["shape"]:
                problems.append(f"restore top:{top}: {tensor} changed dtype or shape")
        want = _spliced(host.values(name), donor.values(name), top)
        # BF16 keeps 8 significant bits: storing costs at most half a unit
        # in the last place, 2**-8 of the value, plus a little for the float32
        # step and for the two float64 computations' own rounding
        err = np.abs(result.values(name) - want)
        bound = 2.0**-8 * np.abs(want) * (1 + 2.0**-15) + 1e-9 * np.abs(want).max()
        if np.any(err > bound):
            problems.append(f"restore top:{top}: {name} differs from the numpy splice")
    return problems


def penalty(
    out: Path, pair: CheckpointPair, current: Path, rank: int, kinds: tuple[str, ...]
) -> list[str]:
    problems = []
    rows = _read_csv(out / "penalty.csv")
    if len(rows) != len(kinds) * LAYERS:
        problems.append(f"penalty: {len(rows)} rows, expected {len(kinds) * LAYERS}")
    name = projection_names()[(0, "q")]
    ref = Container.read(pair.host).values(name)
    cur = Container.read(current).values(name)
    u, _, vt = np.linalg.svd(ref, full_matrices=False)
    u, v = u[:, :rank], vt[:rank].T
    p_u, p_v = u @ u.T, v @ v.T
    eye_m, eye_n = np.eye(p_u.shape[0]), np.eye(p_v.shape[0])
    want = np.linalg.norm((eye_m - p_u) @ cur @ p_v) ** 2 + np.linalg.norm(
        p_u @ cur @ (eye_n - p_v)
    ) ** 2
    got = [float(row["penalty"]) for row in rows if row["tensor"] == name]
    if len(got) != 1 or abs(got[0] - want) > PENALTY_RTOL * want:
        problems.append(f"penalty {name}: {got} differs from numpy {want!r}")
    total = json.loads((out / "summary.json").read_text())["total"]
    if abs(total - _column(rows, "penalty").sum()) > 1e-12 * abs(total):
        problems.append("penalty: summary total is not the sum of the table")
    return problems


def gae(rollouts: Rollouts, gamma: float = GAMMA, lam: float = LAM) -> np.ndarray:
    """Advantages of every step, by the recursion run over all traces at once."""
    delta = rollouts.rewards + gamma * rollouts.values[:, 1:] - rollouts.values[:, :-1]
    adv = np.zeros_like(delta)
    running = np.zeros(delta.shape[0])
    for t in range(delta.shape[1] - 1, -1, -1):
        running = delta[:, t] + gamma * lam * running
        adv[:, t] = running
    return adv.reshape(-1)


def adv_stats(out: Path, rollouts: Rollouts) -> list[str]:
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    adv = gae(rollouts)
    if summary["n"] != adv.size:
        problems.append(f"adv-stats: n={summary['n']}, expected {adv.size}")
    for key, want in (("mu", adv.mean()), ("sd", adv.std(ddof=1))):
        if abs(summary[key] - want) > MOMENT_RTOL * abs(want):
            problems.append(f"adv-stats: {key}={summary[key]!r}, independent GAE gives {want!r}")
    counts = _column(_read_csv(out / "histogram.csv"), "count")
    if counts.sum() != summary["n"]:
        problems.append(f"adv-stats: histogram counts sum to {counts.sum():g}, not n")
    return problems
