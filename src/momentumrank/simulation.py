"""Monte Carlo study of frontier size.

Each trial draws n independent (g, r) pairs and counts the momentum
leaders. Leadership depends only on the strict order of each coordinate,
so a strictly increasing map of either one, such as the inverse CDF of a
truncated Pareto law, leaves every trial's leader set unchanged. The count
is therefore distribution-free: for any continuous, independent marginals
it has the law of the record count of a random permutation of n, a sum of
independent Bernoulli(1/k) (Renyi 1962). The study draws uniforms, the
cheapest such marginals. Across many trials the upper percentiles of the
count stay near c * (log10(n) + 1)^2 with c between 1/3 and 1/2, i.e. the
frontier stays tiny even for hundreds of thousands of entities.
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
    """Parameters of one study; identical configs reproduce identical results."""

    n: int
    trials: int
    seed: int = 0
    percentiles: tuple[float, ...] = (95.0, 99.0)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InputError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not self.percentiles:
            raise InputError("at least one percentile is required")
        for p in self.percentiles:
            if not 0 < p < 100:
                raise InputError(f"percentiles must lie in (0, 100), got {p}")


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    sizes: tuple[int, ...]
    percentile_values: dict[float, int] = field(compare=False)
    bound_values: dict[float, float] = field(compare=False)
    fitted_c: dict[float, float] = field(compare=False)


def _trial_rng(config: StudyConfig, trial_index: int) -> np.random.Generator:
    # derived per trial so trials can run in any order with identical results
    return np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))


def trial_gains(
    config: StudyConfig, trial_index: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The independent uniform (g, r) draws of one trial, as the two rows of one buffer.

    ``out``, when given, must be a writable C-contiguous float64 array of
    shape ``(2, n)``; it is overwritten, and the returned ``g`` and ``r``
    are views of its rows. Without ``out`` each call fills a fresh buffer,
    so results of separate calls never alias. One ``random`` call fills
    both rows: PCG64 spends one 64-bit draw per double, so ``g`` and ``r``
    are the first and the next ``n`` draws, as from two ``random(n)`` calls.
    The draws are not mapped to another law: no strictly increasing map
    can change a trial's leaders, so the uniforms count as any continuous
    marginals would.
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
    return out[0], out[1]


def run_trial(config: StudyConfig, trial_index: int) -> int:
    """Frontier size of one simulated system."""
    g, r = trial_gains(config, trial_index)
    return int(leader_mask(g, r).sum())


def nearest_rank_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value, with the rank exact."""
    if not values:
        raise InputError("percentile of an empty sample is undefined")
    if not 0 < p < 100:
        raise InputError(f"percentiles must lie in (0, 100), got {p}")
    ordered = sorted(values)
    # an exact ceiling: in floats 7 / 100 * 100 is 7.000000000000001, whose ceiling is 8
    num, den = float(p).as_integer_ratio()
    return ordered[-(-num * len(ordered) // (den * 100)) - 1]


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
