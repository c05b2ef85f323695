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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import DeltaSystem, InputError, _integer, dominates


@dataclass(frozen=True, eq=False)
class FrontierResult:
    """Leader set of one system: ``positions`` holds each leader's rank minus 1, ascending, read-only.

    ``leaders`` (their ids in rank order) and ``leader_set`` are built on first access.
    """

    system: DeltaSystem
    positions: np.ndarray
    algorithm: str

    def __post_init__(self) -> None:
        self.positions.flags.writeable = False

    @cached_property
    def leaders(self) -> tuple[str, ...]:
        return _ids(self.system, self.positions)

    @cached_property
    def leader_set(self) -> frozenset[str]:
        return frozenset(self.leaders)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrontierResult):
            return NotImplemented
        return (self.system, self.leaders, self.algorithm) == (other.system, other.leaders, other.algorithm)

    def __hash__(self) -> int:
        return hash((self.system, self.leaders, self.algorithm))


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


class LeaderTable(NamedTuple):
    """What each leader m of a frontier leads, as columns in the order of its positions.

    ``w`` holds its w(m) (None when the system has no usable scores),
    ``left`` and ``right`` the ends of its inclusive rank interval (L, R),
    and ``dominated`` its |D(m)|.
    """

    w: np.ndarray | None
    left: np.ndarray
    right: np.ndarray
    dominated: np.ndarray


_SAMPLE = 512  # points in the strided sample whose staircase screens the input


def leader_mask(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Boolean mask of maximal elements for paired, finite gain arrays.

    An entity is a leader iff no entity has strictly greater g and strictly
    greater r. Three steps find them:

    1. Corner cut. The corner p maximises min(g, r); every entity below p
       in both g and r is dropped. This pays only where g and r share one
       scale near the top, as a study's uniform draws do (about 180 of
       20,000 survive), so it runs only when at most a third of a strided
       sample reaches the sample's best min(g, r) in g or in r. No antichain
       passes that test, so an all-leader input is read as given.
    2. Screen. The leaders of a strided sample of about ``_SAMPLE`` points
       form a staircase. One rectangle test against the staircase corner
       that dominates most of the sample, then one ``searchsorted`` over the
       staircase with its suffix maximum of r, drop every entity that some
       staircase point strictly beats in both g and r. Small inputs, and
       inputs whose sample staircase is too long for the screen to pay,
       skip it.
    3. Sort-scan the survivors by descending g (an unstable sort). Entities
       tied on g form a group, and each member is compared with the running
       maximum of r over strictly greater g only, so ties never create
       dominance. A member leads iff that maximum does not strictly exceed
       its own r. The maximum is over a set, so the order within a group
       does not matter.

    The cut and the screen are exact: each dropped entity is strictly
    dominated by a real entity that survives, and since dominance is a
    strict partial order, then by some leader too. So the survivors have
    the same leaders as the whole input. The cost is about linear when the
    frontier is small, and O(n log n) plus the cut and the screen in the
    worst case. Inputs must be finite: a NaN breaks every step.
    """
    mask = np.zeros(len(g), dtype=bool)
    if not len(g):
        return mask
    kept = None
    for cut in (_corner, _screen):  # each returns the positions it keeps, or None to skip
        keep = cut(g, r)
        if keep is not None:
            g, r = g[keep], r[keep]
            kept = keep if kept is None else kept[keep]
    mask[slice(None) if kept is None else kept] = _sort_scan(g, r)
    return mask


def _corner(g: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Positions not strictly below p = argmax(min(g, r)) in both g and r, or None to skip the cut."""
    sg, sr = g[:: max(1, len(g) // _SAMPLE)], r[:: max(1, len(g) // _SAMPLE)]
    if 3 * np.count_nonzero(np.maximum(sg, sr) >= np.minimum(sg, sr).max()) > len(sg):
        return None
    p = np.minimum(g, r).argmax()
    return np.flatnonzero((g >= g[p]) | (r >= r[p]))


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
    """Step 3 of ``leader_mask`` on non-empty g and r."""
    n = len(g)
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
    positions = np.flatnonzero([not any(dominates(e, f) for f in ents) for e in ents])
    return FrontierResult(system=ds, positions=positions, algorithm="bruteforce")


def frontier_sortscan(ds: DeltaSystem) -> FrontierResult:
    _require_entities(ds)
    return FrontierResult(system=ds, positions=np.flatnonzero(leader_mask(ds.g, ds.r)), algorithm="sortscan")


def _ids(ds: DeltaSystem, positions: np.ndarray) -> tuple[str, ...]:
    return tuple(map(ds.ids.__getitem__, positions.tolist()))


def _dominated_mask(ds: DeltaSystem, entity_id: str) -> np.ndarray:
    """The mask of the entities that ``entity_id`` dominates."""
    pos = ds.index(entity_id)
    return (ds.g < ds.g[pos]) & (ds.r < ds.r[pos])


def dominated_set(ds: DeltaSystem, entity_id: str) -> frozenset[str]:
    """All ids strictly below ``entity_id`` in both g and r; O(n) per call.

    Dominated sets of different leaders may overlap; the entity itself is
    never a member.
    """
    return frozenset(_ids(ds, np.flatnonzero(_dominated_mask(ds, entity_id))))


def interval(ds: DeltaSystem, entity_id: str) -> tuple[int, int]:
    """Maximal contiguous rank range (L, R) around the entity lying in its D(m); O(n) per call.

    Each end lies just inside the nearest entity outside ``_dominated_mask``, or at rank 1 or n.
    """
    outside = np.flatnonzero(np.concatenate(([True], ~_dominated_mask(ds, entity_id), [True]))) - 1
    at = int(np.searchsorted(outside, ds.index(entity_id)))
    return int(outside[at - 1]) + 2, int(outside[at + 1])


def _has_weights(ds: DeltaSystem) -> bool:
    """True when every entity has a score and the scores sum to a finite positive total."""
    return ds.has_scores and 0 < ds.total_score < math.inf


def leader_rows(frontier: FrontierResult) -> LeaderTable:
    """w(m), the interval and |D(m)| of every leader of a frontier, in O(n log n) whatever its size.

    Sorted by descending g, ties by ascending r, the leaders form a
    staircase along which r never falls. The leaders with g above an
    entity's are a prefix of that order and those with r above it a
    suffix, so the leaders that dominate entity e are one range
    ``[lo_e, hi_e)``, found by two binary searches. A difference array over
    the ranges counts |D(m)|. For w, ``_range_fsums`` sums the normalized
    scores over them exactly in Python ints and rounds each sum once, so w
    has the bits of ``math.fsum`` at any system size. The intervals come
    from the same ranges: no leader dominates another, so an entity can lie
    only in the run of the leader ranked next above or next below it, and
    does iff that leader's staircase index k has ``lo_e <= k < hi_e``.
    """
    ds, positions = frontier.system, frontier.positions
    size = len(positions)
    stair = positions[np.lexsort((ds.r[positions], -ds.g[positions]))]
    lo = np.searchsorted(ds.r[stair], ds.r, side="right")
    hi = np.maximum(size - np.searchsorted(ds.g[stair][::-1], ds.g, side="right"), lo)
    dominated = np.cumsum(np.bincount(lo, minlength=size + 1) - np.bincount(hi, minlength=size + 1))[:size]
    w = _range_fsums(ds.score / ds.total_score, lo, hi, size) if _has_weights(ds) else None
    rank_order = np.argsort(stair)  # each leader's staircase index, in rank order
    # per entity, the staircase index of the leader ranked next above it and next below it, or size
    above = np.repeat(np.append(size, rank_order), np.diff(positions, prepend=0, append=ds.n))
    below = np.repeat(np.append(rank_order, size), np.diff(positions + 1, prepend=0, append=ds.n))
    after = np.flatnonzero(~((lo <= above) & (above < hi)))  # outside the run of the leader above
    before = np.flatnonzero(~((lo <= below) & (below < hi)))  # outside the run of the leader below
    right = np.append(after, ds.n)[np.searchsorted(after, positions, side="right")]
    left = np.append(-1, before)[np.searchsorted(before, positions)] + 2
    return LeaderTable(None if w is None else w[rank_order], left, right, dominated[rank_order])


def _range_fsums(terms: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """For k < size, the correctly rounded sum of ``terms[e]`` over every e with lo[e] <= k < hi[e].

    The package's one exact sum: w sums its normalized scores here, and
    momentousness its r * w over a single range. Every term is finite, of
    either sign and any size: an integer K_e times 2**base, base the lowest
    bit of any term but never above 0. A difference array of exact Python
    ints adds K_e over each range, and its prefix sum holds each exact sum.
    One correctly rounded int division per range rounds it once, which gives
    the bits of ``math.fsum`` (a zero sum is 0.0), and raises OverflowError
    for a sum past the float range. A sum is as wide as the exponents of its
    terms span, so memory grows with that span.
    """
    keep = np.flatnonzero((lo < hi) & (terms != 0))
    if not keep.size:
        return np.zeros(size)
    mantissa, exponent = np.frexp(terms[keep])
    base = min(int(exponent.min()) - 53, 0)
    ints = (mantissa * 2.0**53).astype(np.int64).astype(object) << (exponent - 53 - base).astype(object)
    diff = np.zeros(size + 1, dtype=object)
    np.add.at(diff, lo[keep], ints)
    np.subtract.at(diff, hi[keep], ints)
    scale = 1 << -base
    return np.array([total / scale for total in np.cumsum(diff[:size]).tolist()])


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


def runners_up(source: DeltaSystem | FrontierResult, layers: int) -> list[tuple[str, ...]]:
    """Peel successive frontiers: layer k leads the system with layers 1..k-1 removed.

    Given a frontier, layer 1 is that frontier, and the kernel runs only on the entities outside it.
    """
    if (layers := _integer(layers, "layers")) < 1:
        raise InputError(f"layers must be >= 1, got {layers}")
    frontier = source if isinstance(source, FrontierResult) else frontier_sortscan(source)
    ds = frontier.system
    remaining = np.delete(np.arange(ds.n), frontier.positions)
    peeled = [frontier.leaders]
    for _ in range(layers - 1):
        if not remaining.size:
            break
        mask = leader_mask(ds.g[remaining], ds.r[remaining])
        peeled.append(_ids(ds, remaining[mask]))
        remaining = remaining[~mask]
    return peeled
