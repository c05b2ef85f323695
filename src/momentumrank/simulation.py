"""Monte Carlo study of frontier size.

Each trial draws n independent (g, r) pairs and counts the momentum
leaders. Leadership depends only on the strict order of each coordinate,
so a strictly increasing map of either one, such as the inverse CDF of a
truncated Pareto law, leaves every trial's leader set unchanged. The count
is therefore distribution-free: for any continuous, independent marginals
it has the law of the record count of a random permutation of n, a sum of
independent Bernoulli(1/k) (Renyi 1962). The study draws uniforms, the
cheapest such marginals, and counts each trial's leaders with
``frontier.leader_mask``, the one kernel: both coordinates share the scale
[0, 1), so its corner cut drops all but about 1 % of the draws. The upper
percentiles of the count grow like c * (log10(n) + 1)^2, but c is not a
constant: the exact p95 is 16 at n = 20,000, so c is about 0.57 there, and
it falls to 1/2 only near n = 100,000. Either way the frontier stays tiny
even for hundreds of thousands of entities.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import InputError, _float_or_self, _integer, _is_number
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
        for name in ("n", "trials", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))  # the int read, not the object given
        for name, least in (("n", 2), ("trials", 1), ("seed", 0)):
            if (value := getattr(self, name)) < least:
                raise InputError(f"{name} must be >= {least}, got {value}")
        if isinstance(self.percentiles, (str, bytes)) or not isinstance(self.percentiles, Iterable):
            raise InputError(f"percentiles must be a sequence of real numbers, got {self.percentiles!r}")
        object.__setattr__(self, "percentiles", tuple(self.percentiles))  # hashable, each element as given
        if not self.percentiles:
            raise InputError("at least one percentile is required")
        for i, p in enumerate(self.percentiles):
            _check_percentile(p)
            if float(p) in map(float, self.percentiles[:i]):  # the rank reads each as its float
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
    if (index := _integer(trial_index, "trial index")) < 0:
        raise InputError(f"trial index must be >= 0, got {index}")
    buf = _buffer(config.n)
    _trial_rng(config, index).random(out=buf)
    g, r = buf
    return g, r


def _buffer(n: int) -> np.ndarray:
    """An empty ``(2, n)`` float64 buffer for one trial's draws, or an InputError naming n."""
    try:
        return np.empty((2, n))
    except (ValueError, MemoryError):  # numpy refuses the size, or the allocation fails
        raise InputError(f"n={n} is too large: no memory for its (2, n) float64 buffer") from None


def run_trial(config: StudyConfig, trial_index: int) -> int:
    """Frontier size of one simulated system."""
    return int(np.count_nonzero(leader_mask(*trial_gains(config, trial_index))))


def nearest_rank_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value, with the rank exact."""
    if not values:
        raise InputError("percentile of an empty sample is undefined")
    _check_percentile(p)
    ordered = sorted(values)
    # an exact ceiling: in floats 7 / 100 * 100 is 7.000000000000001, whose ceiling is 8
    num, den = float(p).as_integer_ratio()
    return ordered[-(-num * len(ordered) // (den * 100)) - 1]


def _check_percentile(p) -> None:
    """An InputError unless ``p`` is a real number whose float, the rank's percentile, lies in (0, 100)."""
    if not _is_number(type(p)):
        raise InputError(f"percentiles must be real numbers, got {p!r}")
    if not 0 < float(_float_or_self(p)) < 100:  # a float, as the rank reads it; a Decimal NaN refuses < itself
        raise InputError(f"percentiles must lie in (0, 100), got {p}")


def bound_estimate(n: int, c: float) -> float:
    """c * (log10(n) + 1)^2, the empirical frontier-size ceiling; a c past the float range reads as inf."""
    if not 1 <= n < math.inf:
        raise InputError(f"n must be >= 1, got {n}")
    c = _float_or_self(c)
    if not 0 < c < math.inf:
        raise InputError(f"c must be > 0, got {c}")
    return float(c) * (math.log10(n) + 1) ** 2  # a Decimal does not multiply a float


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
        sizes[i] = np.count_nonzero(leader_mask(g, r))
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
