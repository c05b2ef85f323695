"""Momentum leaders: Pareto-frontier computations over a gain system.

Two interchangeable algorithms are provided. ``frontier_bruteforce`` is the
quadratic all-pairs reference; ``frontier_sortscan`` sorts by absolute gain
and sweeps a running maximum of relative gain, which finds the identical
leader set in O(n log n). The sweep doubles as the proof device for the
moving-maxima bound checked by ``verify_bound``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DeltaSystem, EntityGain, InputError, dominates


@dataclass(frozen=True)
class FrontierResult:
    """Leader set of one system, reported in rank order."""

    system: DeltaSystem
    leaders: tuple[str, ...]
    algorithm: str

    @property
    def leader_set(self) -> frozenset[str]:
        return frozenset(self.leaders)


@dataclass(frozen=True)
class MovingMaxima:
    """1-based positions where a sequence attains a new strict maximum."""

    indices: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.indices)


class BoundCheck(NamedTuple):
    frontier_size: int
    moving_maxima_count: int
    holds: bool


class LeaderRow(NamedTuple):
    """What one entity m leads: w(m), its rank interval and |D(m)|.

    ``w`` is None when the system has no usable scores.
    """

    entity: EntityGain
    w: float | None
    interval: tuple[int, int]
    dominated: int


_SAMPLE = 512  # points in the strided sample whose staircase screens the input


def leader_mask(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Boolean mask of maximal elements for paired, finite gain arrays.

    An entity is a leader iff no entity has strictly greater g and strictly
    greater r. Two steps find them:

    1. Screen. The leaders of a strided sample of about ``_SAMPLE`` points
       form a staircase. One rectangle test against the staircase corner
       that dominates most of the sample, then one ``searchsorted`` over the
       staircase with its suffix maximum of r, drop every entity that some
       staircase point strictly beats in both g and r. Small inputs, and
       inputs whose sample staircase is too long for the screen to pay,
       skip it.
    2. Sort-scan the survivors by descending g (an unstable sort). Entities
       tied on g form a group, and each member is compared with the running
       maximum of r over strictly greater g only, so ties never create
       dominance. A member leads iff that maximum does not strictly exceed
       its own r. The maximum is over a set, so the order within a group
       does not matter.

    The screen is exact: each dropped entity is strictly dominated by a
    real entity, and since dominance is a strict partial order, it is then
    dominated by some leader too. No leader is ever dropped, so the
    survivors have the same leaders as the whole input. The cost is about
    linear when the frontier is small, and O(n log n) plus the screen in
    the worst case. Inputs must be finite: a NaN breaks both steps.
    """
    keep = _screen(g, r)
    if keep is None:
        return _sort_scan(g, r)
    mask = np.zeros(len(g), dtype=bool)
    mask[keep] = _sort_scan(g[keep], r[keep])
    return mask


def _screen(g: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Positions that no sample staircase point strictly dominates, or None to skip."""
    n = len(g)
    if n <= 4 * _SAMPLE:
        return None
    sg, sr = g[:: n // _SAMPLE], r[:: n // _SAMPLE]
    lead = _sort_scan(sg, sr)
    # the sample's survivor share estimates the input's: past 1/8 the
    # screen costs more than the sort it saves
    if np.count_nonzero(lead) > _SAMPLE // 8:
        return None
    lg, lr = sg[lead], sr[lead]
    corner = np.argmax(((sg < lg[:, None]) & (sr < lr[:, None])).sum(axis=1))
    cand = np.flatnonzero((g >= lg[corner]) | (r >= lr[corner]))
    order = np.argsort(lg)
    lg = lg[order]
    # best_r[k]: the largest r over staircase points k.. in ascending g, so
    # for an entity it is the largest r among points with strictly greater g
    best_r = np.append(np.maximum.accumulate(lr[order][::-1])[::-1], -np.inf)
    beaten = best_r[np.searchsorted(lg, g[cand], side="right")] > r[cand]
    return cand[~beaten]


def _sort_scan(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    n = len(g)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(-g)
    gs = g[order]
    rs = r[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = gs[1:] != gs[:-1]
    group_id = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    # max of rs strictly before each group start == max r over strictly greater g
    max_before = np.concatenate(([-np.inf], np.maximum.accumulate(rs)))[starts]
    mask = np.empty(n, dtype=bool)
    mask[order] = rs >= max_before[group_id]
    return mask


def _require_entities(ds: DeltaSystem) -> None:
    if not ds.n:
        raise InputError("frontier operations require a non-empty system")


def frontier_bruteforce(ds: DeltaSystem) -> FrontierResult:
    """All-pairs reference: an entity leads iff nothing dominates it."""
    _require_entities(ds)
    ents = ds.entities
    leaders = tuple(e.id for e in ents if not any(dominates(e, f) for f in ents))
    return FrontierResult(system=ds, leaders=leaders, algorithm="bruteforce")


def frontier_sortscan(ds: DeltaSystem) -> FrontierResult:
    _require_entities(ds)
    leaders = _ids(ds, np.flatnonzero(leader_mask(ds.g, ds.r)))
    return FrontierResult(system=ds, leaders=leaders, algorithm="sortscan")


def _ids(ds: DeltaSystem, positions: np.ndarray) -> tuple[str, ...]:
    return tuple(map(ds.ids.__getitem__, positions.tolist()))


def _dominated_mask(ds: DeltaSystem, entity_id: str) -> tuple[int, np.ndarray]:
    """Position of ``entity_id`` in rank order and the mask of the entities it dominates."""
    pos = ds.index(entity_id)
    return pos, (ds.g < ds.g[pos]) & (ds.r < ds.r[pos])


def leader_row(ds: DeltaSystem, entity_id: str) -> LeaderRow:
    """w(m), the interval and |D(m)| of one entity, usually a leader.

    ``w`` sums the normalized scores of D(m) with ``math.fsum``, so it is
    exactly rounded whatever the summation order. The interval is the
    inclusive rank range (L, R) around m whose other members all lie in
    D(m): it ends just inside the nearest entity on each side that m does
    not dominate.
    """
    pos, mask = _dominated_mask(ds, entity_id)
    w = None
    if ds.has_scores and ds.total_score > 0:
        w = math.fsum((ds.score[mask] / ds.total_score).tolist())
    left = np.flatnonzero(~mask[:pos])
    right = np.flatnonzero(~mask[pos + 1 :])
    lo = int(left[-1]) + 2 if left.size else 1
    hi = pos + int(right[0]) + 1 if right.size else ds.n
    return LeaderRow(ds.by_rank(pos + 1), w, (lo, hi), int(np.count_nonzero(mask)))


def dominated_set(ds: DeltaSystem, entity_id: str) -> frozenset[str]:
    """All ids strictly below ``entity_id`` in both g and r.

    Dominated sets of different leaders may overlap; the entity itself is
    never a member.
    """
    _, mask = _dominated_mask(ds, entity_id)
    return frozenset(_ids(ds, np.flatnonzero(mask)))


def interval(ds: DeltaSystem, entity_id: str) -> tuple[int, int]:
    """Maximal contiguous rank range (L, R) around the entity lying in its D(m)."""
    return leader_row(ds, entity_id).interval


def moving_maxima(values: Sequence[float]) -> MovingMaxima:
    """Positions (1-based) holding a value strictly larger than all earlier ones.

    A NaN is never a new maximum and does not raise the running maximum.
    """
    v = np.asarray(values, dtype=float)
    # fmax skips NaN, so best[i] is the largest non-NaN value before position i
    best = np.fmax.accumulate(np.concatenate(([-math.inf], v)))[:-1]
    return MovingMaxima(indices=tuple((np.flatnonzero(v > best) + 1).tolist()))


def verify_bound(ds: DeltaSystem) -> BoundCheck:
    """Compare frontier size against the moving-maxima count of r.

    The r sequence is taken in descending-g order (rank breaks g ties).
    Every new maximum of r is a leader, since an entity that some f
    strictly dominates follows f in that order and has smaller r. So the
    count never exceeds the frontier size, and ``holds`` (size <= count)
    means the two are equal: no leader ties the running maximum of r.
    That is always so with distinct g and distinct r; with ties in either,
    a leader can tie it (g=[3, 2], r=[1, 1] gives size 2 and count 1).

    Only the leaders are scanned. A non-leader never changes the count: it
    is not a new maximum, and the leader that dominates it comes earlier
    with larger r, so it never raises the running maximum either.
    """
    lead = np.flatnonzero(leader_mask(ds.g, ds.r))
    by_gain = lead[np.argsort(-ds.g[lead], kind="stable")]
    count = moving_maxima(ds.r[by_gain]).count
    return BoundCheck(lead.size, count, lead.size <= count)


def runners_up(ds: DeltaSystem, layers: int) -> list[tuple[str, ...]]:
    """Peel successive frontiers: layer k leads the system with layers 1..k-1 removed."""
    if layers < 1:
        raise InputError(f"layers must be >= 1, got {layers}")
    _require_entities(ds)
    remaining = np.arange(ds.n)
    peeled: list[tuple[str, ...]] = []
    for _ in range(layers):
        if not remaining.size:
            break
        mask = leader_mask(ds.g[remaining], ds.r[remaining])
        peeled.append(_ids(ds, remaining[mask]))
        remaining = remaining[~mask]
    return peeled
