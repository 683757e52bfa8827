"""GAE, distribution statistics, multimodality, verdicts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdsurgery import advantage
from svdsurgery.advantage import (
    AdvantageSummary,
    EstimatorConfig,
    GaeParams,
    ThresholdConfig,
    TrajectoryTrace,
    gae,
    histogram_table,
    read_rollout_log,
    summarize,
    verdict,
    _count_modes,
    _kde,
    _kde_on_grid,
    _silverman,
)
from svdsurgery.errors import NumericalError, ValidationError


# ---------------------------------------------------------------------------
# oracles


def gae_double_sum(rewards, values, gamma, lam):
    """Forward double-sum definition, evaluated literally."""
    T = len(rewards)
    delta = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(T)]
    return np.array(
        [sum((gamma * lam) ** l * delta[t + l] for l in range(T - t)) for t in range(T)]
    )


def random_trace(rng, T):
    return TrajectoryTrace(
        rewards=rng.standard_normal(T), values=rng.standard_normal(T + 1)
    )


# ---------------------------------------------------------------------------
# GAE


def test_gae_lambda_zero_gives_td_residuals():
    rng = np.random.default_rng(0)
    trace = random_trace(rng, 20)
    adv = gae(trace, GaeParams(gamma=0.9, lam=0.0))
    delta = trace.rewards + 0.9 * trace.values[1:] - trace.values[:-1]
    np.testing.assert_allclose(adv, delta, atol=1e-15)


def test_gae_undiscounted_reward_to_go():
    rng = np.random.default_rng(1)
    rewards = rng.standard_normal(15)
    trace = TrajectoryTrace(rewards=rewards, values=np.zeros(16))
    adv = gae(trace, GaeParams(gamma=1.0, lam=1.0))
    np.testing.assert_allclose(adv, np.cumsum(rewards[::-1])[::-1], atol=1e-12)


def test_gae_matches_double_sum_seeded():
    rng = np.random.default_rng(2)
    trace = random_trace(rng, 50)
    adv = gae(trace, GaeParams(gamma=0.99, lam=0.95))
    oracle = gae_double_sum(trace.rewards, trace.values, 0.99, 0.95)
    np.testing.assert_allclose(adv, oracle, atol=1e-12)


@given(
    T=st.integers(min_value=1, max_value=200),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_gae_recursion_equals_double_sum(T, gamma, lam, seed):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, T)
    adv = gae(trace, GaeParams(gamma=gamma, lam=lam))
    oracle = gae_double_sum(trace.rewards, trace.values, gamma, lam)
    np.testing.assert_allclose(adv, oracle, atol=1e-12, rtol=1e-12)


def test_trace_validation():
    with pytest.raises(ValidationError, match="length"):
        TrajectoryTrace(rewards=np.ones(3), values=np.ones(3))
    with pytest.raises(ValidationError, match="at least one"):
        TrajectoryTrace(rewards=np.ones(0), values=np.ones(1))
    with pytest.raises(ValidationError, match="gamma"):
        GaeParams(gamma=1.5, lam=0.5)
    with pytest.raises(ValidationError, match="lambda"):
        GaeParams(gamma=0.5, lam=-0.1)


# ---------------------------------------------------------------------------
# summary statistics


def _cfg(**kw):
    defaults = dict(bootstrap=100, seed=3)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def test_summarize_gaussian_reference():
    rng = np.random.default_rng(100)
    x = rng.standard_normal(20_000)
    s = summarize(x, _cfg())
    assert abs(s.mu) <= 0.05
    assert abs(s.sd - 1.0) <= 0.05
    assert abs(s.skewness) <= 0.05
    assert s.kl_vs_matched_normal <= 0.01
    assert s.kl_vs_matched_normal >= -1e-9
    assert 0.0 <= s.silverman_p <= 1.0
    assert s.estimator_config["bins_used"] >= 2


def test_summarize_rejects_degenerate_input():
    with pytest.raises(ValidationError, match="at least"):
        summarize(np.zeros(10), _cfg())
    with pytest.raises(ValidationError, match="zero variance"):
        summarize(np.full(500, 3.3), _cfg())


@pytest.mark.parametrize("scale, cause", [
    (1e-130, "power 1.5, which underflows"),  # m2**1.5 underflows while sd > 0
    (1e150, "power 1.5, which overflows"),
    (1e200, "variance overflows"),
    (1e-300, "variance underflows"),  # distinct samples, not identical ones
])
def test_summarize_names_an_out_of_range_scale(scale, cause):
    x = np.random.default_rng(0).standard_normal(300) * scale
    with pytest.raises(NumericalError, match=cause):
        summarize(x, _cfg())


def test_histogram_table_names_an_overflowing_variance():
    x = np.random.default_rng(0).standard_normal(300) * 1e200
    with pytest.raises(NumericalError, match="variance overflows"):
        histogram_table(x, _cfg())


def test_summarize_affine_moments():
    rng = np.random.default_rng(101)
    x = rng.gamma(2.0, size=4000) - 2.0
    s0 = summarize(x, _cfg())
    s_shift = summarize(x + 5.0, _cfg())
    assert s_shift.mu == pytest.approx(s0.mu + 5.0, abs=1e-12)
    assert s_shift.skewness == pytest.approx(s0.skewness, abs=1e-12)
    s_scale = summarize(4.0 * x, _cfg())
    assert s_scale.sd == pytest.approx(4.0 * s0.sd, rel=1e-12)
    assert s_scale.skewness == pytest.approx(s0.skewness, abs=1e-12)


def test_summarize_entropy_shift_under_exact_scaling():
    # power-of-two scale keeps the binning arithmetic exact
    rng = np.random.default_rng(102)
    x = rng.standard_normal(4000)
    s0 = summarize(x, _cfg())
    s_scale = summarize(2.0 * x, _cfg())
    assert s_scale.entropy_nats == pytest.approx(s0.entropy_nats + np.log(2.0), abs=1e-12)
    assert s_scale.kl_vs_matched_normal == pytest.approx(
        s0.kl_vs_matched_normal, abs=1e-9
    )


def test_summarize_fixed_bin_count():
    rng = np.random.default_rng(103)
    x = rng.standard_normal(1000)
    s = summarize(x, _cfg(bins=32))
    assert s.estimator_config["bins_used"] == 32


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    z = np.concatenate([np.linspace(-40.0, 40.0, 80001), [1e4, -1e4]])
    want = ndtr(z)
    assert np.all(np.abs(advantage._normal_cdf(z) - want) <= 2.0**-52 + 1e-12 * want)


# ---------------------------------------------------------------------------
# multimodality


def p_value(x, mode_budget=1, bootstrap=500, seed=0):
    """The bootstrap p-value that `summarize` reports as `silverman_p`."""
    p, _ = _silverman(np.asarray(x, dtype=np.float64), mode_budget, bootstrap, seed)
    return p


def test_silverman_bimodal_mixture_rejected():
    rng = np.random.default_rng(200)
    x = np.concatenate([rng.normal(-3.0, 1.0, 1000), rng.normal(3.0, 1.0, 1000)])
    assert p_value(x, bootstrap=200, seed=7) < 0.05


def test_silverman_gaussian_not_rejected():
    rng = np.random.default_rng(201)
    x = rng.standard_normal(1500)
    assert p_value(x, bootstrap=150, seed=5) > 0.10


def test_silverman_point_masses():
    x = np.array([0.0] * 120 + [1.0] * 120)
    assert p_value(x, bootstrap=150, seed=1) < 0.05


def test_silverman_mode_budget_two_accepts_bimodal():
    rng = np.random.default_rng(202)
    x = np.concatenate([rng.normal(-3.0, 1.0, 600), rng.normal(3.0, 1.0, 600)])
    assert p_value(x, mode_budget=2, bootstrap=150, seed=2) > 0.10


def test_silverman_deterministic_and_affine_invariant():
    rng = np.random.default_rng(203)
    x = np.concatenate([rng.normal(-1.5, 1.0, 400), rng.normal(1.5, 1.0, 400)])
    p0 = p_value(x, bootstrap=120, seed=9)
    assert p_value(x, bootstrap=120, seed=9) == p0
    assert p_value(2.0 * x, bootstrap=120, seed=9) == pytest.approx(p0, abs=1e-12)
    assert p_value(x + 7.25, bootstrap=120, seed=9) == pytest.approx(p0, abs=1e-12)


def test_silverman_input_validation():
    # the bootstrap runs inside `summarize`, which checks its sample and settings first
    with pytest.raises(ValidationError, match="at least 200"):
        summarize(np.arange(150.0), _cfg(bootstrap=150))
    with pytest.raises(ValidationError, match="bootstrap"):
        _cfg(bootstrap=0)
    with pytest.raises(ValidationError, match="mode budget"):
        _cfg(mode_budget=0)


def test_critical_bandwidth_that_never_converges_raises():
    # the outlier stretches the grid so far that no bandwidth shows 3 modes:
    # bisection halves h towards 0 without ever bracketing it
    x = np.append(np.random.default_rng(220).standard_normal(300), 1e4)
    with pytest.raises(NumericalError, match="converge"):
        p_value(x, mode_budget=2, bootstrap=100)


def modes_by_runs(values):
    """Maximal runs of equal values that are higher than every neighbouring run."""
    runs = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    return sum(
        (i == 0 or runs[i - 1] < v) and (i == len(runs) - 1 or runs[i + 1] < v)
        for i, v in enumerate(runs)
    )


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_count_modes_matches_run_definition(values):
    assert _count_modes(np.array(values, dtype=np.float64)) == modes_by_runs(values)


KDE_INPUTS = {
    "gaussian": lambda rng: rng.standard_normal(3000),
    "bimodal": lambda rng: np.concatenate([rng.normal(c, 1.0, 1500) for c in (-2.0, 2.0)]),
    # underflowed and deep-tail stretches between clusters must stay ripple-free
    "wide_gaps": lambda rng: np.concatenate([rng.normal(c, 1.0, 500) for c in (-60.0, 0.0, 60.0)]),
    # the grid spans the outlier, so small bandwidths fall back to direct evaluation
    "far_outlier": lambda rng: np.append(rng.standard_normal(2000), 1e4),
    "point_masses": lambda rng: np.repeat([0.0, 1.0, 3.0], 400),
}


@pytest.mark.parametrize("name", sorted(KDE_INPUTS))
def test_binned_kde_mode_counts_match_direct(name):
    """Binned and direct curves agree, with the same modes, from 0.02 to 3 sds.

    Binning a sample between two fine bins at most h/4 apart moves its kernel
    value by at most (h/4)^2 max|K''| / 8 = 1/128. Where the direct curve has
    dozens of modes, that error can exceed a bump's height, so there the
    counts may differ by one; the statistic only compares counts with a mode
    budget of a few.
    """
    x = KDE_INPUTS[name](np.random.default_rng(210))
    binned = 0
    for h in np.geomspace(0.02, 3.0, 60) * x.std():
        fast, direct = _kde(x, h), _kde_on_grid(x, h)
        binned += not np.array_equal(fast, direct)
        assert np.max(np.abs(fast - direct)) <= x.shape[0] / 128, h
        want = _count_modes(direct)
        if want <= 8:
            assert _count_modes(fast) == want, h
        else:
            assert abs(_count_modes(fast) - want) <= 1, h
    assert binned > 0
    if name == "far_outlier":
        assert binned < 60


@pytest.mark.parametrize("name", ["gaussian", "bimodal", "wide_gaps"])
@pytest.mark.parametrize("mode_budget", [1, 2, 3])
def test_critical_bandwidth_matches_direct(name, mode_budget, monkeypatch):
    x = KDE_INPUTS[name](np.random.default_rng(210))
    h_binned = advantage._critical_bandwidth(x, mode_budget)
    monkeypatch.setattr(advantage, "_kde", _kde_on_grid)
    h_direct = advantage._critical_bandwidth(x, mode_budget)
    # two bisections to relative 1e-3 each, plus linear binning's extra
    # smoothing: variance <= (h/4)^2/4 per sample widens h by at most 0.78%
    assert h_binned == pytest.approx(h_direct, rel=1e-2)


# ---------------------------------------------------------------------------
# verdicts


def _summary(mu=0.01, sd=1.0, entropy=2.80, kl=0.05):
    return AdvantageSummary(
        n=1000, mu=mu, sd=sd, skewness=0.0, entropy_nats=entropy,
        kl_vs_matched_normal=kl, silverman_p=0.5,
    )


def test_verdict_trainable():
    v = verdict(_summary())
    assert v.verdict == "trainable"
    assert all(c["ok"] for c in v.reasons)


def test_verdict_marginal_single_breach():
    v = verdict(_summary(entropy=2.0))
    assert v.verdict == "marginal"
    assert sum(not c["ok"] for c in v.reasons) == 1


def test_verdict_not_trainable_all_breached():
    v = verdict(_summary(mu=1.0, sd=1.0, entropy=2.0, kl=0.30))
    assert v.verdict == "not_trainable"
    assert all(not c["ok"] for c in v.reasons)


def test_verdict_custom_thresholds():
    v = verdict(_summary(entropy=2.0), ThresholdConfig(entropy_min=1.5))
    assert v.verdict == "trainable"


# ---------------------------------------------------------------------------
# rollout-log ingestion


def test_read_advantage_records(tmp_path):
    path = tmp_path / "adv.jsonl"
    path.write_text("\n".join(json.dumps({"advantage": float(i)}) for i in range(5)) + "\n")
    samples, source = read_rollout_log(path)
    np.testing.assert_array_equal(samples, np.arange(5.0))
    assert source == "advantage-samples"


def test_read_trace_records_recomputes_gae(tmp_path):
    rng = np.random.default_rng(300)
    rewards = rng.standard_normal(6)
    values = rng.standard_normal(7)
    rows = [
        {"trace_id": "t0", "t": t, "reward": rewards[t], "value": values[t]}
        for t in range(6)
    ]
    rows.append({"trace_id": "t0", "t": 6, "value": values[6]})
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    params = GaeParams(gamma=0.97, lam=0.9)
    samples, source = read_rollout_log(path, params)
    oracle = gae_double_sum(rewards, values, 0.97, 0.9)
    np.testing.assert_allclose(samples, oracle, atol=1e-12)
    assert source.startswith("gae(")


def test_read_trace_without_terminal_row_uses_zero(tmp_path):
    rows = [
        {"trace_id": "a", "t": 0, "reward": 1.0, "value": 0.5},
        {"trace_id": "a", "t": 1, "reward": 2.0, "value": 0.25},
    ]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    samples, _ = read_rollout_log(path, GaeParams(gamma=1.0, lam=1.0))
    oracle = gae_double_sum([1.0, 2.0], [0.5, 0.25, 0.0], 1.0, 1.0)
    np.testing.assert_allclose(samples, oracle, atol=1e-14)


def test_read_rejects_mixed_and_malformed(tmp_path):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(
        json.dumps({"advantage": 1.0})
        + "\n"
        + json.dumps({"trace_id": "a", "t": 0, "reward": 1.0, "value": 0.0})
        + "\n"
    )
    with pytest.raises(ValidationError, match="mixes"):
        read_rollout_log(mixed)

    gappy = tmp_path / "gappy.jsonl"
    gappy.write_text(
        json.dumps({"trace_id": "a", "t": 0, "reward": 1.0, "value": 0.0})
        + "\n"
        + json.dumps({"trace_id": "a", "t": 2, "reward": 1.0, "value": 0.0})
        + "\n"
    )
    with pytest.raises(ValidationError, match="without gaps"):
        read_rollout_log(gappy)

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    with pytest.raises(ValidationError, match="invalid JSON"):
        read_rollout_log(bad)


SAMPLE_ROW = '{"advantage": 1.0}'
STEP_ROW = '{"trace_id": 1, "t": 0, "reward": 1.0, "value": 0.5}'


@pytest.mark.parametrize("first, bad", [
    (SAMPLE_ROW, "1"),
    (SAMPLE_ROW, '{"advantage": null}'),
    (STEP_ROW, '{"trace_id": 1, "t": "x", "reward": 1, "value": 1}'),
    (STEP_ROW, '{"trace_id": 1, "t": 1, "reward": "x", "value": 1}'),
    (STEP_ROW, '{"trace_id": 1, "t": 1.7, "reward": 1, "value": 1}'),
    (SAMPLE_ROW, '{"advantage": "1.5"}'),
    (SAMPLE_ROW, '{"advantage": true}'),
    (STEP_ROW, '{"trace_id": 1, "t": 1, "reward": 1.0, "value": "0.5"}'),
])
def test_read_rejects_malformed_fields_with_their_line(first, bad, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(first + "\n" + bad + "\n")
    with pytest.raises(ValidationError, match=r"bad\.jsonl:2: "):
        read_rollout_log(path)
