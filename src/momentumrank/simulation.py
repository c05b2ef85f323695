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
    """Map uniform draws ``u`` to the law in place and return ``u``.

    The truncated Pareto law has density ~ x^-(alpha+1) on [x_min, x_max].
    The in-place steps are the operations of ``(lo - u * (lo - hi)) **
    (-1 / alpha)`` in the same order, so the values have the same bits.
    """
    lo = x_min ** -alpha
    hi = x_max ** -alpha
    u *= lo - hi
    np.subtract(lo, u, out=u)
    u **= -1.0 / alpha
    return u


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


def trial_gains(
    config: StudyConfig, trial_index: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The independent (g, r) marginals of one trial, as the two rows of one buffer.

    ``out``, when given, must be a writable C-contiguous float64 array of
    shape ``(2, n)``; it is overwritten, and the returned ``g`` and ``r``
    are views of its rows. Without ``out`` each call fills a fresh buffer,
    so results of separate calls never alias. One ``random`` call fills
    both rows: PCG64 spends one 64-bit draw per double, so ``g`` and ``r``
    are the first and the next ``n`` draws, as from two ``random(n)`` calls.
    """
    shape = (2, config.n)
    if out is None:
        out = np.empty(shape)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InputError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    rng = _trial_rng(config, trial_index)
    rng.random(out=out)
    _inverse_cdf(out, config.alpha, config.x_min, config.resolved_x_max)
    return out[0], out[1]


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
    """Run every trial and aggregate percentiles against the size bound.

    Each trial counts what ``run_trial`` counts, but draws into one
    ``(2, n)`` buffer shared by the whole study, so the sampling loop
    allocates no fresh pages per trial.
    """
    buf = np.empty((2, config.n))
    sizes = tuple(int(leader_mask(*trial_gains(config, i, out=buf)).sum()) for i in range(config.trials))
    denom = (math.log10(config.n) + 1) ** 2
    percentile_values = {p: int(nearest_rank_percentile(sizes, p)) for p in config.percentiles}
    return StudyResult(
        config=config,
        sizes=sizes,
        percentile_values=percentile_values,
        bound_values={c: bound_estimate(config.n, c) for c in BOUND_COEFFICIENTS},
        fitted_c={p: percentile_values[p] / denom for p in config.percentiles},
    )
