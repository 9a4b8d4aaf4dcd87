"""Synthetic data generator tests: config validation, range and rate
invariants, the latent probability formula, calibration, and the
prefix-stability and reproducibility guarantees."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from smerisk.dataset import split_train_test
from smerisk.errors import ParameterError
from smerisk import synthgen
from smerisk.logit import predict_proba_dataset, sigmoid, train_logistic
from smerisk.seeding import substream
from smerisk.serialize import from_json_dict, to_json_dict
from smerisk.synthgen import (
    MAX_SAMPLES,
    FeatureRanges,
    GeneratorConfig,
    SignalCoefficients,
    generate,
    latent_default_probability,
)


def latent(cfg, revenue_growth, cash_flow_variability, debt_equity_ratio, profit_margin,
           commodity_price_dependency, industry_sector):
    """latent_default_probability of one feature row."""
    row = [revenue_growth, cash_flow_variability, debt_equity_ratio, profit_margin,
           commodity_price_dependency, industry_sector]
    return float(latent_default_probability(np.array([row]), cfg)[0])


# config validation


def test_default_config_values():
    cfg = GeneratorConfig()
    assert cfg.n_samples == 1000
    assert cfg.seed == 42
    assert cfg.base_default_rate == 0.2
    assert cfg.signal_strength == 1.0
    assert cfg.ranges.debt_equity_ratio == (0.2, 3.0)
    assert cfg.coefficients.debt_equity_ratio == 1.2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_samples": 0},
        {"n_samples": -5},
        {"seed": -1},
        {"base_default_rate": 0.0},
        {"base_default_rate": 1.0},
        {"base_default_rate": -0.2},
        {"signal_strength": -0.5},
        {"n_samples": True},
        {"seed": True},
        {"n_samples": MAX_SAMPLES + 1},
        {"n_samples": 10**20},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ParameterError):
        GeneratorConfig(**kwargs)


def test_ranges_validation():
    with pytest.raises(ParameterError):
        FeatureRanges(revenue_growth=(0.3, 0.1))
    with pytest.raises(ParameterError):
        FeatureRanges(cash_flow_variability=(-0.1, 0.5))
    with pytest.raises(ParameterError):
        FeatureRanges(commodity_price_dependency=(0.5, 1.5))


def test_config_json_round_trip():
    cfg = GeneratorConfig(
        n_samples=300,
        seed=9,
        base_default_rate=0.35,
        signal_strength=2.0,
        ranges=FeatureRanges(revenue_growth=(-0.1, 0.1)),
        coefficients=SignalCoefficients(debt_equity_ratio=2.0),
    )
    back = from_json_dict(GeneratorConfig, to_json_dict(cfg))
    assert back == cfg
    assert back.b0 == cfg.b0


def test_config_json_defaults_and_unknown_keys():
    assert from_json_dict(GeneratorConfig, {}) == GeneratorConfig()
    with pytest.raises(ParameterError):
        from_json_dict(GeneratorConfig, {"n_samples": 10, "typo_key": 1})
    with pytest.raises(ParameterError):
        from_json_dict(GeneratorConfig, {"ranges": {"revenue_growth": [0.0, 0.1], "bogus": [0, 1]}})


# generation invariants


def test_generated_shape_and_ranges(default_config, default_data):
    assert len(default_data) == 1000
    assert default_data.labeled
    r = default_config.ranges
    bounds = [
        r.revenue_growth,
        r.cash_flow_variability,
        r.debt_equity_ratio,
        r.profit_margin,
        r.commodity_price_dependency,
    ]
    M = default_data.feature_matrix()
    for j, (low, high) in enumerate(bounds):
        assert M[:, j].min() >= low
        assert M[:, j].max() < high
    assert set(np.unique(M[:, 5])) <= {0.0, 1.0}


def test_generation_reproducible(default_config, default_data):
    again = generate(default_config)
    assert again.records == default_data.records


def test_seed_changes_output():
    a = generate(GeneratorConfig(n_samples=50, seed=1))
    b = generate(GeneratorConfig(n_samples=50, seed=2))
    assert a.records != b.records


def test_prefix_stability():
    # Growing n extends the dataset without rewriting the earlier rows.
    small = generate(GeneratorConfig(n_samples=50, seed=42))
    large = generate(GeneratorConfig(n_samples=100, seed=42))
    assert large.records[:50] == small.records


def test_default_rate_calibrated_large_sample():
    data = generate(GeneratorConfig(n_samples=10000, seed=7))
    # Three binomial standard errors around the configured rate, plus a
    # little slack for probe-vs-sample calibration error.
    se = math.sqrt(0.2 * 0.8 / 10000)
    assert abs(data.default_rate - 0.2) <= 3 * se + 0.01


def test_latent_probabilities_beat_best_linear_model():
    # The generator must carry signal that a linear model in the raw
    # features cannot represent: on a held-out seed (not the default 42),
    # its own latent probabilities at threshold 0.5 (the Bayes ceiling)
    # must out-score a fitted logistic model by a material margin.
    cfg = GeneratorConfig(n_samples=10000, seed=7)
    train, test = split_train_test(generate(cfg), 0.3, 7)
    y = test.labels()
    latent = latent_default_probability(test.feature_matrix(), cfg)
    bayes_accuracy = float(np.mean((latent >= 0.5) == y))
    logit_accuracy = float(np.mean((predict_proba_dataset(train_logistic(train), test) >= 0.5) == y))
    assert bayes_accuracy - logit_accuracy >= 0.02


def _probe_rate(cfg, b0):
    """The default rate intercept ``b0`` gives on the calibration probe."""
    features = synthgen._draw_features(cfg, synthgen._PROBE_SIZE, synthgen._PROBE_SEED)
    g = synthgen._risk_score(cfg.coefficients, features.T.__getitem__)
    return float(np.mean(sigmoid(b0 + cfg.signal_strength * g)))


def _bisection_intercept(cfg):
    """The reference b0: bisection to width 1e-12 on the calibration probe,
    from a bracket doubled until it holds the root."""
    features = synthgen._draw_features(cfg, synthgen._PROBE_SIZE, synthgen._PROBE_SEED)
    g = cfg.signal_strength * synthgen._risk_score(cfg.coefficients, features.T.__getitem__)
    lo, hi = -1.0, 1.0
    while not float(np.mean(sigmoid(lo + g))) < cfg.base_default_rate <= float(np.mean(sigmoid(hi + g))):
        lo, hi = 2 * lo, 2 * hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float(np.mean(sigmoid(mid + g))) < cfg.base_default_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"base_default_rate": 0.01, "signal_strength": 5.0},
        {"base_default_rate": 0.99, "signal_strength": 0.1},
        {"seed": 9, "signal_strength": 1.5},
        # strong enough that b0 lies past -40
        {"signal_strength": 20.0},
        {"signal_strength": 50.0},
    ],
)
def test_calibration_matches_bisection_oracle(kwargs):
    b0_ref = _bisection_intercept(GeneratorConfig(**kwargs))
    for n in (1000, 100_000):
        cfg = GeneratorConfig(n_samples=n, **kwargs)
        assert abs(cfg.b0 - b0_ref) <= 1e-11
        # the labels the reference intercept would draw, drawn by hand
        data = generate(cfg)
        g = cfg.signal_strength * synthgen._risk_score(cfg.coefficients, data.feature_matrix().T.__getitem__)
        u = substream(cfg.seed, 6).random(n)
        assert np.array_equal(data.labels(), (u < sigmoid(b0_ref + g)).astype(np.int64))


@pytest.mark.parametrize(
    ("kwargs", "b0_hex"),
    [
        ({}, "-0x1.a1f106ec76776p+1"),
        ({"base_default_rate": 0.01, "signal_strength": 5.0}, "-0x1.34239a47b2540p+5"),
        ({"base_default_rate": 0.99, "signal_strength": 0.1}, "0x1.2095645c2eeb4p+2"),
        ({"seed": 9, "signal_strength": 1.5}, "-0x1.08eaa36f1d368p+2"),
        ({"signal_strength": 20.0}, "-0x1.5b3499bb41710p+5"),
        ({"signal_strength": 50.0}, "-0x1.b15e61838255ap+6"),
        # debt/equity pinned above the step, so both threshold terms read
        # a constant column
        ({"ranges": FeatureRanges(debt_equity_ratio=(2.5, 2.5))}, "-0x1.9b3bcb6569324p+2"),
        # the covenant breach as the only channel
        ({"coefficients": SignalCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0)}, "-0x1.1af5ccd7bd47ep+1"),
    ],
)
def test_calibrated_intercept_is_pinned_bit_for_bit(kwargs, b0_hex):
    # recorded when the probe was drawn as one (100,000, 6) matrix and
    # scored in one expression; the column-at-a-time probe must add the
    # same terms in the same order
    assert GeneratorConfig(**kwargs).b0.hex() == b0_hex


def test_calibration_never_holds_the_probe_as_a_matrix():
    # the bound is about six probe-length float64 arrays, just under the
    # probe matrix alone (4.58 MiB). Summed a column at a time, the
    # calibration peaks at 3.91 MiB; with the whole matrix and the risk
    # score's temporaries it peaked at 6.27 MiB
    GeneratorConfig()  # one-time allocations
    gc.collect()
    tracemalloc.start()
    try:
        GeneratorConfig()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20, peak


@pytest.mark.parametrize("signal", [20.0, 100.0, 1e300])
def test_any_signal_strength_keeps_the_probe_at_the_base_rate(signal):
    cfg = GeneratorConfig(n_samples=2000, signal_strength=signal)
    assert abs(_probe_rate(cfg, cfg.b0) - cfg.base_default_rate) <= 1e-9
    assert generate(cfg).labels().sum() > 0  # no overflow warning on the way


@pytest.mark.parametrize("signal", [1e308, 8e307, 1.7976931348623157e308])
def test_a_signal_whose_scaled_score_overflows_is_rejected(signal):
    # b0 + s*g must stay finite for every b0 the calibration may try
    with pytest.raises(ParameterError, match=r"^signal_strength \S+ is so large the risk score overflows$"):
        GeneratorConfig(signal_strength=signal)


def test_a_seed_past_64_bits_is_rejected_rather_than_aliased():
    # the seed is mixed as a 64-bit integer, so 3 + 2**64 would draw what 3 draws
    message = r"^seed must be an integer in \[0, 2\*\*64 - 1\], got 18446744073709551619$"
    with pytest.raises(ParameterError, match=message):
        GeneratorConfig(seed=3 + 2**64)
    top = generate(GeneratorConfig(n_samples=50, seed=2**64 - 1))
    assert not np.array_equal(top.feature_matrix(), generate(GeneratorConfig(n_samples=50, seed=0)).feature_matrix())


def test_higher_rate_config_shifts_rate():
    low = generate(GeneratorConfig(n_samples=4000, seed=3, base_default_rate=0.1))
    high = generate(GeneratorConfig(n_samples=4000, seed=3, base_default_rate=0.45))
    assert low.default_rate < 0.2 < high.default_rate


# latent probability


def test_latent_probability_matches_formula():
    cfg = GeneratorConfig()
    p = latent(
        cfg,
        revenue_growth=0.0,
        cash_flow_variability=0.3,
        debt_equity_ratio=1.6,
        profit_margin=0.15,
        commodity_price_dependency=0.8,
        industry_sector=1,
    )
    # Every centered term vanishes; only the sector interaction remains.
    z = cfg.b0 + 1.0 * (0.6 * 0.8 * 1.0)
    expected = 1.0 / (1.0 + math.exp(-z))
    assert p == pytest.approx(expected, abs=1e-12)


def test_latent_probability_leverage_step():
    cfg = GeneratorConfig()
    base = dict(
        revenue_growth=0.0,
        cash_flow_variability=0.3,
        profit_margin=0.15,
        commodity_price_dependency=0.8,
        industry_sector=0,
    )
    p_below = latent(cfg, debt_equity_ratio=1.99, **base)
    p_above = latent(cfg, debt_equity_ratio=2.01, **base)
    # The step adds a whole unit of log-odds across the 2.0 boundary, far
    # more than the smooth term's contribution over a 0.02 move.
    assert p_above > p_below
    odds_ratio = (p_above / (1 - p_above)) / (p_below / (1 - p_below))
    assert odds_ratio > math.exp(0.9)


def _log_odds(p):
    return math.log(p / (1.0 - p))


def _covenant_jump(cfg, debt_equity_ratio):
    """Log-odds change when cash-flow variability crosses 0.35, net of the
    smooth cash-flow term's contribution over the move."""
    base = dict(
        revenue_growth=0.0,
        debt_equity_ratio=debt_equity_ratio,
        profit_margin=0.15,
        commodity_price_dependency=0.8,
        industry_sector=0,
    )
    smooth = cfg.coefficients.cash_flow_variability * 0.02 / 0.2
    return (
        _log_odds(latent(cfg, cash_flow_variability=0.36, **base))
        - _log_odds(latent(cfg, cash_flow_variability=0.34, **base))
        - smooth
    )


def test_latent_probability_covenant_breach():
    cfg = GeneratorConfig()
    # Both conditions hold above the cash-flow boundary: the whole
    # coefficient is added to the log-odds.
    assert _covenant_jump(cfg, 2.5) == pytest.approx(cfg.coefficients.covenant_breach, abs=1e-9)
    # Leverage below 2.0: crossing the cash-flow boundary alone adds nothing.
    assert _covenant_jump(cfg, 1.9) == pytest.approx(0.0, abs=1e-9)
    # Zeroing the coefficient removes the jump.
    zeroed = GeneratorConfig(coefficients=SignalCoefficients(covenant_breach=0.0))
    assert _covenant_jump(zeroed, 2.5) == pytest.approx(0.0, abs=1e-9)


def test_latent_probability_directions():
    cfg = GeneratorConfig()
    base = dict(
        revenue_growth=0.0,
        cash_flow_variability=0.3,
        debt_equity_ratio=1.6,
        profit_margin=0.15,
        commodity_price_dependency=0.8,
        industry_sector=0,
    )
    p0 = latent(cfg, **base)
    riskier = dict(base, cash_flow_variability=0.45, revenue_growth=-0.15)
    safer = dict(base, profit_margin=0.24, revenue_growth=0.15)
    assert latent(cfg, **riskier) > p0
    assert latent(cfg, **safer) < p0


def test_generated_labels_follow_latent_probability():
    # generate draws its labels from latent_default_probability itself,
    # with uniforms from the label substream.
    cfg = GeneratorConfig(n_samples=500, seed=5)
    data = generate(cfg)
    p = latent_default_probability(data.feature_matrix(), cfg)
    u = substream(cfg.seed, 6).random(cfg.n_samples)
    assert data.labels().tolist() == (u < p).astype(int).tolist()
    with pytest.raises(ParameterError):
        latent_default_probability(data.feature_matrix()[:, :5], cfg)


def test_zero_signal_probability_is_base_rate():
    cfg = GeneratorConfig(signal_strength=0.0)
    assert latent(cfg, 0.1, 0.2, 2.5, 0.2, 0.9, 1) == 0.2
    assert cfg.b0 == math.log(0.2 / 0.8)


def test_zero_signal_labels_independent_of_features():
    # With the signal off, flipping every feature but keeping the label
    # stream seed must reproduce the same labels.
    a = generate(GeneratorConfig(n_samples=2000, seed=11, signal_strength=0.0))
    b = generate(
        GeneratorConfig(
            n_samples=2000,
            seed=11,
            signal_strength=0.0,
            coefficients=SignalCoefficients(debt_equity_ratio=5.0),
        )
    )
    assert a.labels().tolist() == b.labels().tolist()


def test_stronger_signal_spreads_probabilities():
    weak_cfg = GeneratorConfig(signal_strength=0.5)
    strong_cfg = GeneratorConfig(signal_strength=3.0)
    weak = generate(weak_cfg)
    rows = weak.feature_matrix()[:500]
    probs_weak = latent_default_probability(rows, weak_cfg)
    probs_strong = latent_default_probability(rows, strong_cfg)
    assert np.std(probs_strong) > np.std(probs_weak)
