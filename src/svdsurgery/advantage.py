"""Advantage estimation and trainability diagnostics for PPO rollouts.

Distribution statistics use a fully specified histogram estimator
(Freedman-Diaconis bin width, differential entropy in nats, KL against the
moment-matched normal with exact Gaussian bin masses) so that numbers are
reproducible across runs. The Gaussian masses are differences of the normal
CDF 0.5 * erfc(-z / sqrt 2) at the bin edges, with erfc from the standard
library's `math` module; NumPy is the only third-party dependency. The
multimodality check is a smoothed-bootstrap critical-bandwidth test with the
standard variance correction. Its kernel density curves are computed from
linear-binned counts convolved with the sampled kernel (Silverman, Algorithm
AS 176; Fan & Marron 1994), and directly from the sample when the binning
grid would outnumber it.

Randomness: every bootstrap replicate draws its generator from
``np.random.SeedSequence(seed, spawn_key=(replicate_index,))``, so results do
not depend on evaluation order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError

KDE_GRID_POINTS = 512
FALLBACK_BINS = 64
MAX_BINS = 65536
#: fewest samples `summarize` and `histogram_table` accept
MIN_SAMPLES = 200
#: samples above this count are deterministically subsampled before the
#: multimodality bootstrap
SILVERMAN_MAX_N = 5000


# ---------------------------------------------------------------------------
# generalized advantage estimation


@dataclass(frozen=True)
class GaeParams:
    gamma: float
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"lambda must be in [0, 1], got {self.lam}")


@dataclass
class TrajectoryTrace:
    """Per-step rewards plus value estimates, including the terminal value."""

    rewards: np.ndarray  # (T,)
    values: np.ndarray  # (T + 1,)

    def __post_init__(self) -> None:
        self.rewards = np.asarray(self.rewards, dtype=np.float64).reshape(-1)
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.rewards.shape[0] < 1:
            raise ValidationError("trace must contain at least one step")
        if self.values.shape[0] != self.rewards.shape[0] + 1:
            raise ValidationError(
                f"values must have length T+1={self.rewards.shape[0] + 1}, "
                f"got {self.values.shape[0]}"
            )
        if not (np.all(np.isfinite(self.rewards)) and np.all(np.isfinite(self.values))):
            raise NumericalError("trace contains non-finite entries")


def gae(trace: TrajectoryTrace, p: GaeParams) -> np.ndarray:
    """Advantages by the backward recursion A_t = delta_t + gamma*lam*A_{t+1}."""
    delta = trace.rewards + p.gamma * trace.values[1:] - trace.values[:-1]
    adv = np.empty_like(delta)
    acc = 0.0
    decay = p.gamma * p.lam
    for t in range(delta.shape[0] - 1, -1, -1):
        acc = delta[t] + decay * acc
        adv[t] = acc
    return adv


# ---------------------------------------------------------------------------
# distribution summary


@dataclass(frozen=True)
class EstimatorConfig:
    """Histogram and multimodality settings.

    The fixed parts of the estimator are module constants: at least
    MIN_SAMPLES samples, at most MAX_BINS bins, and at most SILVERMAN_MAX_N
    samples in the multimodality bootstrap. KL is KL(histogram || normal)
    over the bins, which span [min, max] of the sample, so the normal's mass
    outside that range is dropped.
    """

    bins: str | int = "fd"  # "fd" or an explicit bin count
    mode_budget: int = 1
    bootstrap: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bins != "fd" and (not isinstance(self.bins, int) or self.bins < 2):
            raise ValidationError(f"bins must be 'fd' or an integer >= 2, got {self.bins!r}")
        if self.mode_budget < 1:
            raise ValidationError(f"mode budget must be >= 1, got {self.mode_budget}")
        if self.bootstrap < 1:
            raise ValidationError(f"bootstrap count must be >= 1, got {self.bootstrap}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdvantageSummary:
    n: int
    mu: float
    sd: float
    skewness: float
    entropy_nats: float
    kl_vs_matched_normal: float
    silverman_p: float
    estimator_config: dict = field(default_factory=dict)


def _histogram_edges(x: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if cfg.bins == "fd":
        q25, q75 = np.percentile(x, [25.0, 75.0])
        width = 2.0 * (q75 - q25) * x.shape[0] ** (-1.0 / 3.0)
        if width <= 0.0:
            nbins = FALLBACK_BINS
        elif hi - lo >= MAX_BINS * width:  # the ratio may overflow to inf
            nbins = MAX_BINS
        else:
            nbins = int(np.ceil((hi - lo) / width))
    else:
        nbins = int(cfg.bins)
    nbins = min(max(nbins, 1), MAX_BINS)
    return np.linspace(lo, hi, nbins + 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each element, 0.5 * erfc(-z / sqrt 2)."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])


def _entropy_and_kl(x: np.ndarray, mu: float, sd: float, cfg: EstimatorConfig):
    """Histogram entropy and KL(histogram || normal) with the normal's exact bin masses.

    The bins span [min, max] of the sample and the KL sums over those bins
    only: the normal's mass outside the range is dropped, not renormalized.
    """
    edges = _histogram_edges(x, cfg)
    counts, _ = np.histogram(x, bins=edges)
    p = counts / x.shape[0]
    widths = np.diff(edges)
    occupied = p > 0.0

    entropy = -float(np.sum(p[occupied] * np.log(p[occupied] / widths[occupied])))

    q = np.diff(_normal_cdf((edges - mu) / sd))  # exact Gaussian mass per bin
    kl = float(np.sum(p[occupied] * np.log(p[occupied] / np.maximum(q[occupied], 1e-300))))
    return entropy, kl, edges, p, q


def _sample_moments(samples) -> tuple[np.ndarray, float, float]:
    """The checked sample with its mean and sd (ddof=1); needs MIN_SAMPLES and spread.

    Raises NumericalError when the variance of distinct samples underflows
    to 0 or overflows float64.
    """
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.shape[0] < MIN_SAMPLES:
        raise ValidationError(f"need at least {MIN_SAMPLES} samples, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise NumericalError("samples contain non-finite values")
    if x.max() == x.min():
        raise ValidationError("zero variance: all samples identical")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(x.mean())
        sd = float(x.std(ddof=1))
    if not 0.0 < sd < math.inf:
        raise NumericalError(
            f"sample variance {'underflows' if sd == 0.0 else 'overflows'} float64: "
            f"the samples span [{x.min():.3g}, {x.max():.3g}]"
        )
    return x, mu, sd


def _skewness(centered: np.ndarray, sd: float) -> float:
    """m3 / m2**1.5 of centered samples; NumericalError when a term leaves float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
    try:
        scale = m2**1.5
    except OverflowError:
        scale = math.inf
    if not (0.0 < scale < math.inf and math.isfinite(m3)):
        raise NumericalError(
            "skewness needs the third moment and the second moment to the power 1.5, "
            f"which {'underflows' if scale == 0.0 else 'overflows'} float64 at sd {sd:.3g}"
        )
    return m3 / scale


def summarize(samples, cfg: EstimatorConfig = EstimatorConfig()) -> AdvantageSummary:
    """Moments, histogram entropy/KL, and the multimodality p-value.

    Requires at least MIN_SAMPLES points with positive variance; the
    bootstrap runs on a seeded subsample of SILVERMAN_MAX_N points when
    there are more.
    """
    x, mu, sd = _sample_moments(samples)
    skewness = _skewness(x - mu, sd)

    entropy, kl, edges, _, _ = _entropy_and_kl(x, mu, sd, cfg)

    sil_x = x
    if x.shape[0] > SILVERMAN_MAX_N:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0xD0,)))
        sil_x = x[rng.choice(x.shape[0], SILVERMAN_MAX_N, replace=False)]
    p_value, h_crit = _silverman(sil_x, cfg.mode_budget, cfg.bootstrap, cfg.seed)

    return AdvantageSummary(
        n=x.shape[0],
        mu=mu,
        sd=sd,
        skewness=skewness,
        entropy_nats=entropy,
        kl_vs_matched_normal=kl,
        silverman_p=p_value,
        estimator_config={
            "bins_requested": cfg.bins,
            "bins_used": len(edges) - 1,
            "bin_width": float(edges[1] - edges[0]) if len(edges) > 1 else 0.0,
            "kl_direction": "empirical_vs_normal",
            "mode_budget": cfg.mode_budget,
            "bootstrap": cfg.bootstrap,
            "seed": cfg.seed,
            "silverman_n": int(sil_x.shape[0]),
            "critical_bandwidth": h_crit,
        },
    )


def histogram_table(samples, cfg: EstimatorConfig = EstimatorConfig()):
    """Per-bin rows (left, right, count, p, matched-normal mass) for plotting."""
    x, mu, sd = _sample_moments(samples)
    _, _, edges, p, q = _entropy_and_kl(x, mu, sd, cfg)
    counts = np.round(p * x.shape[0]).astype(np.int64)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]), float(p[i]), float(q[i]))
        for i in range(len(p))
    ]


# ---------------------------------------------------------------------------
# multimodality: critical-bandwidth bootstrap


def _kde_on_grid(x: np.ndarray, h: float) -> np.ndarray:
    """Unnormalized Gaussian KDE on KDE_GRID_POINTS spanning [min-3h, max+3h]."""
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, KDE_GRID_POINTS)
    buf = np.subtract(grid[:, None], x[None, :])
    buf *= 1.0 / h
    np.multiply(buf, buf, out=buf)
    buf *= -0.5
    np.exp(buf, out=buf)
    return buf.sum(axis=1)


def _kde(x: np.ndarray, h: float) -> np.ndarray:
    """The `_kde_on_grid` curve from linear-binned counts.

    The sample is binned onto the grid refined r = ceil(4 * spacing / h)
    times, so that each fine bin is at most h/4 wide, convolved with the
    sampled kernel, and read at every r-th point. When the refined grid
    would have more points than the sample (bandwidths far below the sample
    range, as with a far outlier, or fewer than 512 samples), the curve is
    evaluated directly instead. Binning adds a little smoothing (variance at
    most (h/4)^2/4 per sample), so the critical bandwidth can come out lower
    than the direct sum's by up to about 0.8%.

    The convolution is direct, not by FFT: every product is non-negative, so
    empty stretches between clusters carry no round-off ripple.
    """
    lo = x.min() - 3.0 * h
    spacing = (x.max() + 3.0 * h - lo) / (KDE_GRID_POINTS - 1)
    r = math.ceil(4.0 * spacing / h)
    m = (KDE_GRID_POINTS - 1) * r + 1
    if m > x.shape[0]:
        return _kde_on_grid(x, h)
    step = spacing / r
    t = (x - lo) / step
    j = t.astype(np.intp)  # t >= 0, so this is floor; j + 1 < m thanks to the 3h margin
    w = t - j
    counts = np.bincount(j, 1.0 - w, m) + np.bincount(j + 1, w, m)
    # beyond 39 bandwidths exp(-0.5 u^2) underflows to 0, so truncating there is exact
    half = min(m - 1, math.ceil(39.0 * h / step))
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * (step / h)) ** 2)
    return np.convolve(counts, kernel)[half : half + m : r]


def _count_modes(f: np.ndarray) -> int:
    """Local maxima of a grid-sampled curve; runs of equal values merge."""
    steps = np.sign(np.diff(f))
    steps = steps[steps != 0]
    if steps.shape[0] == 0:
        return 1
    peaks = np.count_nonzero((steps[:-1] > 0) & (steps[1:] < 0))
    return int(peaks) + int(steps[0] < 0) + int(steps[-1] > 0)


def _critical_bandwidth(x: np.ndarray, mode_budget: int, rel_tol: float = 1e-3) -> float:
    """Smallest bandwidth whose KDE shows at most `mode_budget` modes (bisection).

    Raises NumericalError when 200 halvings do not bring the bracket within
    relative `rel_tol`. That happens when no bandwidth shows more modes than
    the budget on the grid, as when a far outlier leaves the bulk of the
    sample within a cell or two of it.
    """
    hi = float(x.max() - x.min())
    if hi == 0.0:
        raise ValidationError("zero variance: all samples identical")
    while _count_modes(_kde(x, hi)) > mode_budget:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if _count_modes(_kde(x, mid)) <= mode_budget:
            hi = mid
        else:
            lo = mid
    if hi - lo > rel_tol * hi:
        raise NumericalError(
            f"critical bandwidth did not converge to relative {rel_tol:g}: "
            f"bisection ended with [{lo:.3g}, {hi:.3g}]"
        )
    return hi


def _silverman(x: np.ndarray, mode_budget: int, bootstrap: int, seed: int):
    """Smoothed-bootstrap p-value for "more than `mode_budget` modes", and the critical bandwidth.

    The critical bandwidth is found by bisection to relative 1e-3, counting
    modes of the Gaussian-kernel density on a 512-point grid spanning
    [min - 3h, max + 3h] (see `_kde`). Each resample is smoothed at the
    critical bandwidth and shrunk by (1 + h^2/s^2)^(-1/2) to restore the
    sample variance; the p-value is the fraction of resamples whose density
    at the critical bandwidth still exceeds the mode budget. Deterministic
    for a fixed seed.
    """
    n = x.shape[0]
    h = _critical_bandwidth(x, mode_budget)
    scale = 1.0 / math.sqrt(1.0 + h * h / float(x.var()))
    exceed = 0
    for i in range(bootstrap):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        resample = (x[rng.integers(0, n, n)] + h * rng.standard_normal(n)) * scale
        if _count_modes(_kde(resample, h)) > mode_budget:
            exceed += 1
    return exceed / bootstrap, h


# ---------------------------------------------------------------------------
# trainability verdict


@dataclass(frozen=True)
class ThresholdConfig:
    center_ratio_max: float = 0.5  # |mu| / sd
    entropy_min: float = 2.55
    kl_max: float = 0.16

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValidationError(f"threshold {f.name} must be a finite number, got {value!r}")


@dataclass
class TrainabilityVerdict:
    verdict: str  # "trainable" | "marginal" | "not_trainable"
    reasons: list[dict]


def verdict(s: AdvantageSummary, thresholds: ThresholdConfig = ThresholdConfig()) -> TrainabilityVerdict:
    """Threshold checks on a summary; one violation is marginal, more is not trainable."""
    center_ratio = abs(s.mu) / s.sd
    checks = [
        {
            "check": "center_near_zero",
            "value": center_ratio,
            "threshold": thresholds.center_ratio_max,
            "ok": center_ratio <= thresholds.center_ratio_max,
        },
        {
            "check": "entropy_above_min",
            "value": s.entropy_nats,
            "threshold": thresholds.entropy_min,
            "ok": s.entropy_nats > thresholds.entropy_min,
        },
        {
            "check": "kl_below_max",
            "value": s.kl_vs_matched_normal,
            "threshold": thresholds.kl_max,
            "ok": s.kl_vs_matched_normal < thresholds.kl_max,
        },
    ]
    violations = sum(1 for c in checks if not c["ok"])
    label = "trainable" if violations == 0 else ("marginal" if violations == 1 else "not_trainable")
    return TrainabilityVerdict(verdict=label, reasons=checks)


# ---------------------------------------------------------------------------
# rollout-log ingestion


def _number(value) -> float:
    """A rollout number: a JSON number, not a string or true or false."""
    if type(value) not in (int, float):
        raise ValueError(f"must be a JSON number, got {value!r}")
    return float(value)


def read_rollout_log(path: str | Path, params: GaeParams | None = None):
    """Load advantage samples from a JSON-lines rollout log.

    Two record schemas are accepted and may not be mixed: direct samples
    ``{"advantage": x}`` or per-step rows ``{"trace_id", "t", "reward",
    "value"}`` with steps t = 0..T-1. In trace mode an optional final row at
    t = T carrying only ``value`` supplies the terminal bootstrap value
    (0 when absent) and advantages are recomputed with `params`. Returns
    (samples, source_label).
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"rollout log not found: {path}")
    advantages: list[float] = []
    # per trace: (t, reward or None on the terminal-value row, value)
    steps: dict[str, list[tuple[int, float | None, float]]] = {}
    try:  # the decode runs as the loop reads, so a non-UTF-8 file fails inside it
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(rec, dict):
                    raise ValidationError(
                        f"{path}:{lineno}: record must be a JSON object, got {type(rec).__name__}"
                    )
                try:
                    if "advantage" in rec:
                        advantages.append(_number(rec["advantage"]))
                    elif "trace_id" in rec and "t" in rec and "value" in rec:
                        t, reward = rec["t"], rec.get("reward")
                        if not (type(t) is int or type(t) is float and t.is_integer()):
                            raise ValueError(f"step index t must be an integer, got {t!r}")
                        reward = None if reward is None else _number(reward)
                        row = (int(t), reward, _number(rec["value"]))
                        steps.setdefault(str(rec["trace_id"]), []).append(row)
                    else:
                        raise ValidationError(
                            f"{path}:{lineno}: record needs either 'advantage' or "
                            "'trace_id'/'t'/'reward'/'value' fields"
                        )
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValidationError(f"{path}:{lineno}: bad field value: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if advantages and steps:
        raise ValidationError(f"{path}: mixes advantage records with trace records")
    if advantages:
        return np.asarray(advantages, dtype=np.float64), "advantage-samples"

    if not steps:
        raise ValidationError(f"{path}: no records found")
    if params is None:
        params = GaeParams(gamma=0.99, lam=0.95)
    out: list[np.ndarray] = []
    for trace_id in sorted(steps):
        rows = sorted(steps[trace_id], key=lambda row: row[0])
        rewards = [reward for _, reward, _ in rows if reward is not None]
        terminal = len(rows) - len(rewards)
        if terminal > 1:
            raise ValidationError(f"trace {trace_id!r}: multiple terminal-value rows")
        if [t for t, _, _ in rows] != list(range(len(rows))):
            raise ValidationError(f"trace {trace_id!r}: step indices must be 0..T without gaps")
        if terminal and rows[-1][1] is not None:
            raise ValidationError(f"trace {trace_id!r}: terminal-value row must come last")
        values = [value for _, _, value in rows]
        if not terminal:
            values.append(0.0)
        trace = TrajectoryTrace(rewards=np.asarray(rewards), values=np.asarray(values))
        out.append(gae(trace, params))
    label = f"gae(gamma={params.gamma:g},lambda={params.lam:g})"
    return np.concatenate(out), label
