"""Shared test helpers: naive reference implementations and random generators.

The naive_* functions are written straight from the dominance definition with
plain loops so they stay independent of the package code they check.
"""
from __future__ import annotations

import math

import numpy as np


def naive_leader_indices(pairs) -> list[int]:
    """Indices of maximal elements: nothing strictly exceeds them in both coords."""
    return [
        i
        for i, (g, r) in enumerate(pairs)
        if not any(g2 > g and r2 > r for g2, r2 in pairs)
    ]


def naive_layers(pairs, layers) -> list[list[int]]:
    """Peel successive frontiers: layer k leads what layers 1..k-1 left over."""
    remaining = list(range(len(pairs)))
    peeled = []
    for _ in range(layers):
        if not remaining:
            break
        leaders = [remaining[k] for k in naive_leader_indices([pairs[i] for i in remaining])]
        peeled.append(leaders)
        remaining = [i for i in remaining if i not in leaders]
    return peeled


def naive_dominated_indices(pairs, i) -> set[int]:
    g, r = pairs[i]
    return {j for j, (g2, r2) in enumerate(pairs) if g2 < g and r2 < r}


def naive_max_window(n, pos, dominated_positions) -> tuple[int, int]:
    """Widest 1-based [L, R] containing pos whose other members are all dominated."""
    best = (pos, pos)
    for lo in range(1, pos + 1):
        for hi in range(pos, n + 1):
            members = range(lo, hi + 1)
            if all(k == pos or k in dominated_positions for k in members):
                if hi - lo > best[1] - best[0]:
                    best = (lo, hi)
    return best


def naive_moving_maxima(values) -> tuple[int, ...]:
    """1-based positions of new strict maxima, by a plain running-maximum loop."""
    indices = []
    best = -math.inf
    for pos, value in enumerate(values, start=1):
        if value > best:
            indices.append(pos)
            best = value
    return tuple(indices)


def full_sort_bound_count(g: np.ndarray, r: np.ndarray) -> int:
    """Moving maxima of r over all n in descending-g order, ties by position.

    ``verify_bound`` as it counted before scanning the leaders alone: a
    stable argsort of every entity.
    """
    by_gain = np.argsort(-g, kind="stable")
    return len(naive_moving_maxima(r[by_gain].tolist()))


def naive_system(records) -> list[tuple]:
    """(id, score, g, r, rank) rows in rank order, as the record contract defines them.

    Ranked by descending score, ties by ascending id, when every record has a
    score; otherwise the input order is kept.
    """
    rows = [(rec[0], None, *rec[1:]) if len(rec) == 3 else tuple(rec) for rec in records]
    if rows and all(row[1] is not None for row in rows):
        rows.sort(key=lambda row: (-row[1], row[0]))
    return [(*row, rank) for rank, row in enumerate(rows, start=1)]


def lexsort_leader_mask(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The sort-and-scan kernel as it stood before the screen: a stable lexsort of all n."""
    n = len(g)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((np.arange(n), -g))
    gs = g[order]
    rs = r[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = gs[1:] != gs[:-1]
    group_id = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    # max of rs strictly before each group start == max r over strictly greater g
    max_before = np.concatenate(([-np.inf], np.maximum.accumulate(rs)))[starts]
    sorted_mask = rs >= max_before[group_id]
    mask = np.empty(n, dtype=bool)
    mask[order] = sorted_mask
    return mask


def brute_leader_mask(g: np.ndarray, r: np.ndarray, chunk: int = 512) -> np.ndarray:
    """All-pairs numpy check, a block of rows at a time: i leads iff no j beats it in both."""
    mask = np.empty(len(g), dtype=bool)
    for lo in range(0, len(g), chunk):
        gi, ri = g[lo : lo + chunk, None], r[lo : lo + chunk, None]
        mask[lo : lo + chunk] = ~((g > gi) & (r > ri)).any(axis=1)
    return mask


def _alloc_inverse_cdf(u: np.ndarray, alpha: float, x_min: float, x_max: float) -> np.ndarray:
    # truncated Pareto with density ~ x^-(alpha+1) on [x_min, x_max]
    lo = x_min ** -alpha
    hi = x_max ** -alpha
    return (lo - u * (lo - hi)) ** (-1.0 / alpha)


def alloc_trial_gains(
    config, trial_index: int, alpha: float, x_min: float, x_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's power-law sampler: one trial's two ``random(n)`` draws through the Pareto inverse CDF.

    The library counts the leaders of the uniform draws themselves; this
    sampler is the oracle that the count is the same under the power law.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))
    g = _alloc_inverse_cdf(rng.random(config.n), alpha, x_min, x_max)
    r = _alloc_inverse_cdf(rng.random(config.n), alpha, x_min, x_max)
    return g, r


def record_count_pmf(n: int, terms: int = 100) -> np.ndarray:
    """P(K = k) for k < ``terms``, K the number of records in a random permutation of n.

    K is a sum of independent Bernoulli(1/k), k = 1..n (Renyi 1962), and it
    is also the leader count of n points with continuous, independent
    coordinates. Convolving one Bernoulli at a time and dropping the mass at
    or above ``terms`` loses less than 1e-30 for n up to 10**6.
    """
    pmf = np.zeros(terms)
    pmf[0] = 1.0
    for k in range(1, n + 1):
        p = 1.0 / k
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


STYLES = ("continuous", "grid", "negative", "mixed")


def random_pairs(rng: np.random.Generator, n: int, style: str) -> tuple[np.ndarray, np.ndarray]:
    """Gain pairs in several regimes: continuous, tied grids, duplicates, negatives."""
    if style == "grid":
        g = rng.integers(-3, 4, size=n).astype(float)
        r = rng.integers(-3, 4, size=n).astype(float)
    elif style == "negative":
        g = rng.normal(0.0, 1e6, size=n)
        r = rng.normal(0.0, 2.0, size=n)
    elif style == "mixed":
        g = rng.random(n) * 1e6
        r = rng.random(n) * 10.0 - 2.0
        if n >= 4:
            g[1], r[1] = g[0], r[0]  # exact duplicate point
            g[3] = g[2]  # g tie with differing r
    else:
        g = rng.random(n) * 1e9
        r = rng.random(n) * 100.0
    return g, r


def records_from_pairs(g, r, scores=None) -> list[tuple]:
    if scores is None:
        return [(f"e{i:04d}", float(g[i]), float(r[i])) for i in range(len(g))]
    return [(f"e{i:04d}", float(scores[i]), float(g[i]), float(r[i])) for i in range(len(g))]


def naive_derive_from_snapshots(before, after, mode: str = "ratio"):
    """``derive_from_snapshots`` as a walk of the sorted union of ids, one dict lookup at a time.

    The loop computes each entity's g and r in sorted id order and builds the
    warnings as it meets the exclusions; only the final build is shared with
    the package.
    """
    from momentumrank.core import _build

    if mode == "share_delta":
        before_total = sum(before.scores.values())
        after_total = sum(after.scores.values())

    warnings: list[str] = []
    ids, base, gains, rel = [], [], [], []
    for eid in sorted(set(before.scores) | set(after.scores)):
        if eid not in before.scores:
            warnings.append(f"excluded {eid!r}: present only in the after snapshot")
            continue
        if eid not in after.scores:
            warnings.append(f"excluded {eid!r}: present only in the before snapshot")
            continue
        old, new = before.scores[eid], after.scores[eid]
        g = new - old
        if mode == "ratio":
            if old == 0:
                warnings.append(f"excluded {eid!r}: relative gain undefined (zero score before the window)")
                continue
            r = g / old
        else:
            r = new / after_total - old / before_total
        ids.append(eid)
        base.append(old)
        gains.append(g)
        rel.append(r)

    window = ""
    if before.timestamp or after.timestamp:
        window = f"{before.timestamp}..{after.timestamp}"
    return _build(ids, base, gains, rel, window), tuple(warnings)


def system_bits(ds) -> tuple:
    """Everything a system holds, with floats as their exact bits (-0.0 differs from 0.0)."""
    return (
        ds.ids,
        ds.window,
        ds.total_score.hex(),
        ds.has_scores,
        ds.g.tobytes(),
        ds.r.tobytes(),
        ds.score.tobytes(),
    )
