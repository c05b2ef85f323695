"""Monte Carlo study of frontier size under power-law gains.

Each trial draws both gain marginals from a truncated Pareto law and counts
the momentum leaders. Across many trials the upper percentiles of that count
stay near c * (log10(n) + 1)^2 with c between 1/3 and 1/2, i.e. the frontier
stays tiny even for hundreds of thousands of entities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import InputError
from .frontier import leader_mask

BOUND_COEFFICIENTS = (1 / 3, 1 / 2)


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one study; identical configs reproduce identical results.

    ``x_max`` defaults to ``n * x_min``, mimicking the value range of a
    finite ranked population (an untruncated exponent-1 law has divergent
    mass).
    """

    n: int
    trials: int
    seed: int = 0
    alpha: float = 1.0
    x_min: float = 1.0
    x_max: float | None = None
    percentiles: tuple[float, ...] = (95.0, 99.0)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InputError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        _check_alpha(self.alpha)
        if not 0 < self.x_min < self.resolved_x_max:
            raise InputError(
                f"cutoffs must satisfy 0 < x_min < x_max, got [{self.x_min}, {self.resolved_x_max}]"
            )
        if not self.percentiles:
            raise InputError("at least one percentile is required")
        for p in self.percentiles:
            if not 0 < p < 100:
                raise InputError(f"percentiles must lie in (0, 100), got {p}")

    @property
    def resolved_x_max(self) -> float:
        return self.n * self.x_min if self.x_max is None else self.x_max


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    sizes: tuple[int, ...]
    percentile_values: dict[float, int] = field(compare=False)
    bound_values: dict[float, float] = field(compare=False)
    fitted_c: dict[float, float] = field(compare=False)


def _check_alpha(alpha: float) -> None:
    # an infinite exponent collapses every draw to x_min, so all entities tie
    if not (alpha > 0 and math.isfinite(alpha)):  # also rejects nan
        raise InputError(f"alpha must be finite and > 0, got {alpha}")


def _inverse_cdf(u: np.ndarray, alpha: float, x_min: float, x_max: float) -> np.ndarray:
    # truncated Pareto with density ~ x^-(alpha+1) on [x_min, x_max]
    lo = x_min ** -alpha
    hi = x_max ** -alpha
    return (lo - u * (lo - hi)) ** (-1.0 / alpha)


def sample_power_law(count: int, alpha: float, x_min: float, x_max: float, seed) -> np.ndarray:
    """Draw ``count`` values from the truncated Pareto law, deterministically per seed."""
    _check_alpha(alpha)
    if not 0 < x_min < x_max:
        raise InputError(f"cutoffs must satisfy 0 < x_min < x_max, got [{x_min}, {x_max}]")
    rng = np.random.default_rng(seed)
    return _inverse_cdf(rng.random(count), alpha, x_min, x_max)


def _trial_rng(config: StudyConfig, trial_index: int) -> np.random.Generator:
    # derived per trial so trials can run in any order with identical results
    return np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))


def trial_gains(config: StudyConfig, trial_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The independent (g, r) marginals of one trial."""
    rng = _trial_rng(config, trial_index)
    x_max = config.resolved_x_max
    g = _inverse_cdf(rng.random(config.n), config.alpha, config.x_min, x_max)
    r = _inverse_cdf(rng.random(config.n), config.alpha, config.x_min, x_max)
    return g, r


def run_trial(config: StudyConfig, trial_index: int) -> int:
    """Frontier size of one simulated system."""
    g, r = trial_gains(config, trial_index)
    return int(leader_mask(g, r).sum())


def nearest_rank_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value."""
    if not values:
        raise InputError("percentile of an empty sample is undefined")
    if not 0 < p < 100:
        raise InputError(f"percentiles must lie in (0, 100), got {p}")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def bound_estimate(n: int, c: float) -> float:
    """c * (log10(n) + 1)^2, the empirical frontier-size ceiling."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if c <= 0:
        raise InputError(f"c must be > 0, got {c}")
    return c * (math.log10(n) + 1) ** 2


def run_study(config: StudyConfig) -> StudyResult:
    """Run every trial and aggregate percentiles against the size bound."""
    sizes = tuple(run_trial(config, i) for i in range(config.trials))
    denom = (math.log10(config.n) + 1) ** 2
    percentile_values = {p: int(nearest_rank_percentile(sizes, p)) for p in config.percentiles}
    return StudyResult(
        config=config,
        sizes=sizes,
        percentile_values=percentile_values,
        bound_values={c: bound_estimate(config.n, c) for c in BOUND_COEFFICIENTS},
        fitted_c={p: percentile_values[p] / denom for p in config.percentiles},
    )
