"""Data model for gain systems.

A gain system holds N ranked entities, each carrying an absolute gain ``g``
and a relative gain ``r`` measured over some window. Entity ``e`` is
*dominated* by entity ``f`` when ``f`` strictly exceeds ``e`` in both
coordinates; everything else in the package is built on top of that relation.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Sequence

import numpy as np

MODES = ("ratio", "share_delta")


class InputError(ValueError):
    """Raised when an input violates a documented contract."""


@dataclass(frozen=True)
class EntityGain:
    """One entity's gains over a window.

    ``score`` is the entity's base value at the window start (None when the
    source data does not publish it); ``rank`` is 1 for the highest score.
    ``r`` is a dimensionless fraction and may be negative, as may ``g``.
    """

    id: str
    g: float
    r: float
    score: float | None = None
    rank: int = 1


@dataclass(frozen=True)
class Snapshot:
    """A timestamped map of entity id to non-negative score."""

    timestamp: str
    scores: dict[str, float]

    def __post_init__(self) -> None:
        for eid, value in self.scores.items():
            if value < 0:
                raise InputError(f"negative score for {eid!r}: {value}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise InputError(f"non-finite score for {eid!r}: an int past the float range") from None
            if not finite:
                raise InputError(f"non-finite score for {eid!r}: {value}")


@dataclass(frozen=True, eq=False)
class DeltaSystem:
    """N ranked entities with their gains over one shared window, as columns.

    ``ids`` lists the entities by rank ascending: rank ``k`` sits at position
    ``k - 1``. ``g``, ``r`` and ``score`` are read-only float64 columns in
    the same order; ``score`` is NaN where an entity has no base score.
    ``has_scores`` is False when any entity lacks one, which makes the
    weight-based operations unavailable. ``EntityGain`` values are built
    only on demand: ``by_id`` and ``by_rank`` build one, and ``entities``
    builds the full view once, on first use.
    """

    ids: tuple[str, ...]
    g: np.ndarray
    r: np.ndarray
    score: np.ndarray
    window: str = ""
    total_score: float = 0.0
    has_scores: bool = False

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def entities(self) -> tuple[EntityGain, ...]:
        return tuple(map(self._entity, range(self.n)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.ids)}

    def index(self, entity_id: str) -> int:
        """Position of ``entity_id`` in the columns: its rank minus 1."""
        try:
            return self._index[entity_id]
        except KeyError:
            raise InputError(f"unknown entity id {entity_id!r}") from None

    def by_id(self, entity_id: str) -> EntityGain:
        return self._entity(self.index(entity_id))

    def by_rank(self, rank: int) -> EntityGain:
        if not 1 <= rank <= self.n:
            raise InputError(f"rank {rank} out of range 1..{self.n}")
        return self._entity(rank - 1)

    def _entity(self, i: int) -> EntityGain:
        score = float(self.score[i])
        return EntityGain(
            self.ids[i], float(self.g[i]), float(self.r[i]), None if math.isnan(score) else score, i + 1
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaSystem):
            return NotImplemented
        return (
            (self.ids, self.window, self.total_score, self.has_scores)
            == (other.ids, other.window, other.total_score, other.has_scores)
            and np.array_equal(self.g, other.g)
            and np.array_equal(self.r, other.r)
            and np.array_equal(self.score, other.score, equal_nan=True)
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.window, self.total_score))


def dominates(e: EntityGain, f: EntityGain) -> bool:
    """True iff ``f`` strictly exceeds ``e`` in both ``g`` and ``r``.

    Equality in either coordinate makes the pair incomparable, so this is
    irreflexive and antisymmetric by construction.
    """
    return e.g < f.g and e.r < f.r


def _build(
    ids: list[str],
    score: list[float | None],
    g: list[float],
    r: list[float],
    window: str = "",
    *,
    rank: bool = True,
    where: Sequence[int] | str = "",
) -> DeltaSystem:
    """Validate, rank and freeze record columns: the one way a system is made.

    ``score`` holds None where an entity has no base score. With ``rank``
    set and every score present, entities are ordered by descending score
    with ties broken by ascending id (Python string order); otherwise the
    given order is kept. ``where`` locates the records, as in ``_check_columns``.
    """
    missing = np.array([s is None for s in score], dtype=bool)
    score_col, g_col, r_col = (np.array(c, dtype=np.float64) for c in (score, g, r))  # None reads as NaN
    _check_columns(ids, {"score": np.where(missing, 0.0, score_col), "g": g_col, "r": r_col}, where)
    has_scores = bool(ids) and not missing.any()
    if rank and has_scores:
        id_order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        order = id_order[np.argsort(-score_col[id_order], kind="stable")]
        ids = list(map(ids.__getitem__, order.tolist()))
        score_col, g_col, r_col = score_col[order], g_col[order], r_col[order]
    for column in (score_col, g_col, r_col):
        column.flags.writeable = False
    return DeltaSystem(
        ids=tuple(ids),
        g=g_col,
        r=r_col,
        score=score_col,
        window=window,
        total_score=float(sum((score_col if has_scores else score_col[~missing]).tolist())),
        has_scores=has_scores,
    )


def _check_columns(ids: Sequence[str], columns: dict[str, Sequence[float]], where: Sequence[int] | str = "") -> None:
    """Raise the error of the first faulty record: the one place the record rules live.

    Within a record, ids must be non-blank, then unique; then each column's
    values must be non-negative (``score`` and ``w`` only) and finite.
    ``where`` holds the records' CSV line numbers or names their JSON file.
    """
    faults = []  # (record, precedence, message) for the first record failing each check
    if not all(map(str.strip, ids)):
        faults.append(([*map(str.strip, ids)].index(""), 0, "empty entity id"))
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        i = next(i for i, eid in enumerate(ids) if eid in seen or seen.add(eid))  # add() returns None
        faults.append((i, 1, f"duplicate entity id {ids[i]!r}"))
    checks = []
    for name, column in columns.items():
        column = np.asarray(column, dtype=np.float64)
        if name in ("score", "w"):
            checks.append((f"negative {name}", column < 0, column))
        checks.append((f"non-finite {name}", ~np.isfinite(column), column))
    for precedence, (fault, bad, column) in enumerate(checks, start=2):
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            faults.append((i, precedence, f"{fault} for {ids[i]!r}: {float(column[i])}"))
    if faults:
        i, _, message = min(faults)
        prefix = where if isinstance(where, str) else f"line {where[i]}"
        raise InputError(f"{prefix}: {message}" if prefix else message)


def system_from_entities(entities: Sequence[EntityGain], window: str = "") -> DeltaSystem:
    """Re-rank ``entities`` 1..N in the given order and wrap them in a system."""
    return _build(
        [e.id for e in entities],
        [e.score for e in entities],
        [e.g for e in entities],
        [e.r for e in entities],
        window,
        rank=False,
    )


def build_delta_system(
    records: Iterable[tuple], window: str = ""
) -> DeltaSystem:
    """Build a system from ``(id, score, g, r)`` or ``(id, g, r)`` records.

    When every record carries a score, entities are ranked by descending
    score with ties broken by ascending id; otherwise the input order is
    preserved and ranks are assigned by position.
    """
    ids, score, g, r = [], [], [], []
    for rec in records:
        if len(rec) == 3:
            eid, g_value, r_value = rec
            score_value = None
        elif len(rec) == 4:
            eid, score_value, g_value, r_value = rec
        else:
            _build(ids, score, g, r)  # a fault in an earlier record is reported first
            raise InputError(f"record must be (id, score, g, r) or (id, g, r), got {rec!r}")
        ids.append(str(eid))
        score.append(None if score_value is None else float(score_value))
        g.append(float(g_value))
        r.append(float(r_value))
    return _build(ids, score, g, r, window)


def derive_from_snapshots(
    before: Snapshot, after: Snapshot, mode: str = "ratio"
) -> tuple[DeltaSystem, tuple[str, ...]]:
    """Diff two snapshots into a gain system.

    Only entities present in both snapshots are kept; exclusions are reported
    in the returned warnings. ``ratio`` mode sets ``r = g / before`` (entities
    with a zero before-score are excluded since that ratio is undefined);
    ``share_delta`` mode sets ``r`` to the change in the entity's share of
    the snapshot total. The base score is always the before-window value.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if not before.scores or not after.scores:
        raise InputError("snapshots must be non-empty")

    if mode == "share_delta":
        before_total = sum(before.scores.values())
        after_total = sum(after.scores.values())
        if before_total <= 0 or after_total <= 0:
            raise InputError("share_delta requires a positive total score in both snapshots")

    old_scores, new_scores = before.scores, after.scores
    ids = [eid for eid in old_scores if eid in new_scores]
    excluded = []  # (id, reason)
    if len(ids) < len(old_scores):
        excluded += [(eid, "present only in the before snapshot") for eid in old_scores if eid not in new_scores]
    if len(ids) < len(new_scores):
        excluded += [(eid, "present only in the after snapshot") for eid in new_scores if eid not in old_scores]
    ids.sort()  # linear on sorted files; a fault is reported for the first id in this order
    base, new = list(map(old_scores.__getitem__, ids)), list(map(new_scores.__getitem__, ids))
    gains = list(map(operator.sub, new, base))
    if mode == "ratio":
        if 0 in base:
            kept = [old != 0 for old in base]
            excluded += [
                (eid, "relative gain undefined (zero score before the window)")
                for eid, keep in zip(ids, kept)
                if not keep
            ]
            ids, base, gains = (list(compress(column, kept)) for column in (ids, base, gains))
        rel = list(map(operator.truediv, gains, base))
    else:
        shares = map(operator.truediv, new, repeat(after_total)), map(operator.truediv, base, repeat(before_total))
        rel = list(map(operator.sub, *shares))
    warnings = tuple(f"excluded {eid!r}: {reason}" for eid, reason in sorted(excluded))

    window = ""
    if before.timestamp or after.timestamp:
        window = f"{before.timestamp}..{after.timestamp}"
    return _build(ids, base, gains, rel, window), warnings
