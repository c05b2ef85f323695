"""Monte Carlo study of frontier size.

Each trial draws n independent (g, r) pairs and counts the momentum
leaders. Leadership depends only on the strict order of each coordinate,
so a strictly increasing map of either one, such as the inverse CDF of a
truncated Pareto law, leaves every trial's leader set unchanged. The count
is therefore distribution-free: for any continuous, independent marginals
it has the law of the record count of a random permutation of n, a sum of
independent Bernoulli(1/k) (Renyi 1962). The study draws uniforms, the
cheapest such marginals, and counts each trial's leaders behind one corner
point (``_leader_count``): both coordinates share the scale [0, 1), so the
corner cuts all but about 1 % of the draws before the sort-scan. The upper
percentiles of the count grow like c * (log10(n) + 1)^2, but c is not a
constant: the exact p95 is 16 at n = 20,000, so c is about 0.57 there, and
it falls to 1/2 only near n = 100,000. Either way the frontier stays tiny
even for hundreds of thousands of entities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import InputError
from .frontier import _sort_scan

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
        for i, p in enumerate(self.percentiles):
            if not 0 < p < 100:
                raise InputError(f"percentiles must lie in (0, 100), got {p}")
            if p in self.percentiles[:i]:
                raise InputError(f"percentiles must not repeat, got {p} twice")


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


def trial_gains(config: StudyConfig, trial_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The independent uniform (g, r) draws of one trial, as the two rows of one fresh buffer.

    One ``random(out=buf)`` call fills both rows, as ``run_study`` fills its
    buffer: PCG64 spends one 64-bit draw per double, so ``g`` and ``r`` are
    the first and the next ``n`` draws, as from ``random((2, n))`` or two
    ``random(n)`` calls. No strictly increasing map can change a trial's
    leaders, so the uniforms count as any continuous marginals would.
    """
    buf = _buffer(config.n)
    _trial_rng(config, trial_index).random(out=buf)
    g, r = buf
    return g, r


def _buffer(n: int) -> np.ndarray:
    """An empty ``(2, n)`` float64 buffer for one trial's draws, or an InputError naming n."""
    try:
        return np.empty((2, n))
    except (ValueError, MemoryError):  # numpy refuses the size, or the allocation fails
        raise InputError(f"n={n} is too large: no memory for its (2, n) float64 buffer") from None


def _leader_count(g: np.ndarray, r: np.ndarray) -> int:
    """How many leaders a non-empty, finite (g, r) sample has, behind one corner point.

    The corner p maximises min(g, r). Every entity below p in both
    coordinates is strictly dominated by p, which survives the cut, so by
    transitivity each survivor keeps its leader status, and the survivors'
    leader count is the sample's. The count is exact for any finite input,
    but the cut pays only when g and r share one scale, as the study's
    uniform draws on [0, 1) do: then p sits near (1, 1) and about 190 of
    20,000 entities survive. On real systems, whose g and r have different
    units, p cuts little, so ``leader_mask`` keeps its sample screen.
    """
    keep = _corner_survivors(g, r)
    return int(np.count_nonzero(_sort_scan(g[keep], r[keep])))


def _corner_survivors(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Positions not strictly below the corner point p = argmax(min(g, r)) in both g and r."""
    p = np.minimum(g, r).argmax()
    return np.flatnonzero((g >= g[p]) | (r >= r[p]))


def run_trial(config: StudyConfig, trial_index: int) -> int:
    """Frontier size of one simulated system."""
    return _leader_count(*trial_gains(config, trial_index))


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
    """Run every trial in order on the calling thread, and aggregate percentiles.

    Each trial counts what ``run_trial`` counts: trial i always draws from
    its own generator, so its size does not depend on the trials before it.
    The loop fills one ``(2, n)`` buffer for every trial instead of a fresh
    one per trial, so no trial faults in fresh pages. A sizes array numpy
    cannot allocate is an InputError naming trials, and so is a buffer
    naming n.
    """
    try:
        sizes = np.zeros(config.trials, np.intp)
    except (ValueError, OverflowError, MemoryError):  # numpy refuses the count, or the allocation fails
        raise InputError(f"trials={config.trials} is too large: no memory for its sizes") from None
    buf = _buffer(config.n)
    g, r = buf
    for i in range(config.trials):
        _trial_rng(config, i).random(out=buf)
        sizes[i] = _leader_count(g, r)
    sizes = sizes.tolist()
    denom = (math.log10(config.n) + 1) ** 2
    percentile_values = {p: int(nearest_rank_percentile(sizes, p)) for p in config.percentiles}
    return StudyResult(
        config=config,
        sizes=tuple(sizes),
        percentile_values=percentile_values,
        bound_values={c: bound_estimate(config.n, c) for c in BOUND_COEFFICIENTS},
        fitted_c={p: percentile_values[p] / denom for p in config.percentiles},
    )
