"""Synthetic SME loan-book generator with a controllable default signal.

Features are drawn uniformly from fixed per-feature ranges, the sector is
a fair coin, and the default label is Bernoulli with probability
sigmoid(b0 + signal_strength * g(x)), where g is a fixed risk score.
Leverage, cash-flow volatility and a commodity-exposure interaction push
defaults up; growth and margins push them down. Two threshold terms sit
on top of these smooth ones: a step at debt/equity > 2, which the linear
leverage term largely tracks, and a covenant-style breach that fires only
when debt/equity > 2 and cash-flow variability > 0.35 both hold. The
breach is a conjunction of two thresholds, so no linear model in the six
raw features can represent it, and it carries most of the gap between
the best linear model and the generator's own probabilities.

The intercept b0 is calibrated once, when the config is built, by a
safeguarded Newton iteration on a large fixed-seed probe sample, inside a
bracket the probe's own scores prove to hold the root, so the probe's
default rate is base_default_rate however strong the signal is. The probe
is drawn a column at a time into its risk score and is never held as a
feature matrix. A signal so strong that its scaled scores reach half the
float range, where b0 + signal_strength * g could overflow, is rejected.

Randomness: every column draws from its own substream derived from the
master seed (streams 0-4 for the continuous features in canonical order,
5 for the sector, 6 for the labels), so columns never perturb each other.
All uniform draws are half-open, [low, high).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import CONTINUOUS_FEATURES, FEATURE_BOUNDS, FEATURE_COLUMNS, Dataset
from .errors import ParameterError
from .logit import sigmoid
from .seeding import substream

# Largest book a config may ask for, checked before anything is drawn: 10x
# the largest size benchmarked, and 48 MB of float64 features.
MAX_SAMPLES = 10**6

_PROBE_SEED = 0x5CA1AB1E
_PROBE_SIZE = 100_000


@dataclass(frozen=True)
class FeatureRanges:
    """(low, high) sampling bounds per continuous feature, in canonical
    column order. low = high pins a feature to a constant. Each range must
    lie inside its column's physical bounds, ``dataset.FEATURE_BOUNDS``."""

    revenue_growth: tuple[float, float] = (-0.2, 0.2)
    cash_flow_variability: tuple[float, float] = (0.1, 0.5)
    debt_equity_ratio: tuple[float, float] = (0.2, 3.0)
    profit_margin: tuple[float, float] = (0.05, 0.25)
    commodity_price_dependency: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self):
        for f, column in zip(fields(self), CONTINUOUS_FEATURES):
            low, high = getattr(self, f.name)
            lowest, highest, rule = FEATURE_BOUNDS[column]
            if not (math.isfinite(low) and math.isfinite(high) and lowest <= low <= high <= highest):
                raise ParameterError(f"range for {f.name} must have low <= high, each {rule}, got ({low}, {high})")


@dataclass(frozen=True)
class SignalCoefficients:
    """Signed weights of the risk-score terms. Zeroing all but one isolates
    that term as the only feature->default channel."""

    debt_equity_ratio: float = 1.2
    cash_flow_variability: float = 0.8
    revenue_growth: float = -0.9
    profit_margin: float = -0.7
    commodity_sector: float = 0.6
    high_leverage_step: float = 1.0
    covenant_breach: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"coefficient {f.name} must be finite")


@dataclass(frozen=True)
class GeneratorConfig:
    n_samples: int = 1000
    seed: int = 42
    base_default_rate: float = 0.2
    signal_strength: float = 1.0
    ranges: FeatureRanges = field(default_factory=FeatureRanges)
    coefficients: SignalCoefficients = field(default_factory=SignalCoefficients)
    b0: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        if type(self.n_samples) is not int or not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ParameterError(f"n_samples must be an integer in [1, {MAX_SAMPLES}], got {self.n_samples!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:  # mix64 reads 64 bits
            raise ParameterError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}")
        if not 0.0 < self.base_default_rate < 1.0:
            raise ParameterError(f"base_default_rate must lie in (0, 1), got {self.base_default_rate!r}")
        if not (math.isfinite(self.signal_strength) and self.signal_strength >= 0):
            raise ParameterError(f"signal_strength must be >= 0, got {self.signal_strength!r}")
        object.__setattr__(self, "b0", _calibrate_intercept(self))


def _risk_score(c: SignalCoefficients, column: Callable[[int], np.ndarray]) -> np.ndarray:
    """The unscaled signal g(x) of each row, from ``column(k)``, the k-th
    feature column in canonical order.

    Each continuous linear term is centered on its default range midpoint
    and scaled by the half-width. The commodity interaction and the two
    threshold terms are not centered: the leverage step adds its
    coefficient when debt/equity > 2.0, and the covenant breach adds its
    coefficient only when debt/equity > 2.0 and cash-flow variability >
    0.35 hold together. The intercept calibration absorbs their means.
    The terms are added in that order into one array, and each column is
    asked for once and dropped after its last use, so a caller that draws
    columns on demand never holds the feature matrix.
    """
    debt_equity_ratio = column(2)
    g = c.debt_equity_ratio * (debt_equity_ratio - 1.6) / 1.4
    high_leverage = debt_equity_ratio > 2.0
    del debt_equity_ratio
    cash_flow_variability = column(1)
    g += c.cash_flow_variability * (cash_flow_variability - 0.3) / 0.2
    breach = high_leverage & (cash_flow_variability > 0.35)
    del cash_flow_variability
    g += c.revenue_growth * column(0) / 0.2
    g += c.profit_margin * (column(3) - 0.15) / 0.1
    g += c.commodity_sector * column(4) * column(5)
    g += c.high_leverage_step * high_leverage
    g += c.covenant_breach * breach
    return g


def _draw_column(ranges: FeatureRanges, master_seed: int, k: int, n: int) -> np.ndarray:
    """Feature column k of n rows: the ranges' k-th field for k < 5, the
    sector for k = 5."""
    if k == 5:
        return substream(master_seed, 5).integers(0, 2, n)
    return substream(master_seed, k).uniform(*getattr(ranges, fields(FeatureRanges)[k].name), n)


def _draw_features(config: GeneratorConfig, n: int, master_seed: int) -> np.ndarray:
    """The (n, 6) feature matrix: the ranges' columns in field order, then
    the sector."""
    X = np.empty((n, len(FEATURE_COLUMNS)))
    for k in range(len(FEATURE_COLUMNS)):
        X[:, k] = _draw_column(config.ranges, master_seed, k, n)
    return X


def _calibrate_intercept(config: GeneratorConfig) -> float:
    """b0 with mean(sigmoid(b0 + s*g)) = base_default_rate on the probe,
    whose risk score g is summed from columns drawn one at a time; the
    probe is never held as a matrix.

    Newton on f(b0) = mean(sigmoid(b0 + s*g)) - r, with f' = mean(p(1 - p))
    taken from the same sigmoid evaluation. The root lies in
    [logit(r) - max(s*g), logit(r) - min(s*g)], as at either end every
    probe row's probability lies on one side of r. Newton starts at the
    zero-signal intercept logit(r), moved into that bracket, and every
    evaluation of f narrows the bracket around the root; a step that would
    leave it lands on its midpoint instead. It stops on an exact zero of f
    or a step of at most 1e-12. With signal_strength = 0 the rate is
    sigmoid(b0) itself, so the exact analytic intercept is used and no
    probe is drawn.
    """
    r = config.base_default_rate
    logit = math.log(r / (1.0 - r))
    if config.signal_strength == 0:
        return logit
    g = _risk_score(config.coefficients, lambda k: _draw_column(config.ranges, _PROBE_SEED, k, _PROBE_SIZE))
    if math.isinf(2.0 * config.signal_strength * max(float(g.max()), -float(g.min()))):
        raise ParameterError(f"signal_strength {config.signal_strength!r} is so large the risk score overflows")
    g *= config.signal_strength  # in place: the probe holds one score array
    lo, hi = logit - float(g.max()), logit - float(g.min())
    b0 = min(max(logit, lo), hi)
    while True:
        p = sigmoid(b0 + g)
        residual = float(np.mean(p)) - r
        if residual == 0.0:
            return b0
        if residual < 0.0:
            lo = b0
        else:
            hi = b0
        slope = float(np.mean(p * (1.0 - p)))
        new_b0 = b0 - residual / slope if slope > 0.0 else math.nan
        if not lo < new_b0 < hi:  # NaN too: the slope underflowed to 0
            new_b0 = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if abs(new_b0 - b0) <= 1e-12:
            return new_b0
        b0 = new_b0


def latent_default_probability(X: np.ndarray, config: GeneratorConfig) -> np.ndarray:
    """P(default | features) under the generator's model, one probability
    per row of the (n, 6) feature matrix ``X``.

    At signal_strength = 0 the latent score collapses to the calibrated
    intercept, whose sigmoid is the base rate by definition; the base rate
    is returned directly so the identity is exact.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_COLUMNS):
        raise ParameterError(f"feature matrix must have shape (n, {len(FEATURE_COLUMNS)}), got {X.shape}")
    if config.signal_strength == 0:
        return np.full(len(X), config.base_default_rate)
    g = _risk_score(config.coefficients, X.T.__getitem__)
    return sigmoid(config.b0 + config.signal_strength * g)


def generate(config: GeneratorConfig) -> Dataset:
    """Draw a labeled synthetic loan book; a pure function of the config."""
    n = config.n_samples
    X = _draw_features(config, n, config.seed)
    p = latent_default_probability(X, config)
    labels = (substream(config.seed, 6).random(n) < p).astype(np.int64)
    return Dataset(X, labels)
