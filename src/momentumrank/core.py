"""Data model for gain systems.

A gain system holds N ranked entities, each carrying an absolute gain ``g``
and a relative gain ``r`` measured over some window. Entity ``e`` is
*dominated* by entity ``f`` when ``f`` strictly exceeds ``e`` in both
coordinates; everything else in the package is built on top of that relation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
            if not math.isfinite(value):
                raise InputError(f"non-finite score for {eid!r}: {value}")


@dataclass(frozen=True)
class DeltaSystem:
    """N ranked entities with their gains over one shared window.

    ``entities`` is ordered by rank ascending with ranks contiguous 1..N.
    ``has_scores`` is False when any entity lacks a base score, which makes
    the weight-based operations unavailable. ``g`` and ``r`` are the gains
    as read-only float64 columns in rank order, built on first use.
    """

    entities: tuple[EntityGain, ...]
    window: str = ""
    total_score: float = 0.0
    has_scores: bool = False

    @property
    def n(self) -> int:
        return len(self.entities)

    @cached_property
    def g(self) -> np.ndarray:
        return _column(e.g for e in self.entities)

    @cached_property
    def r(self) -> np.ndarray:
        return _column(e.r for e in self.entities)

    @cached_property
    def _by_id(self) -> dict[str, EntityGain]:
        return {e.id: e for e in self.entities}

    def by_id(self, entity_id: str) -> EntityGain:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise InputError(f"unknown entity id {entity_id!r}") from None

    def by_rank(self, rank: int) -> EntityGain:
        if not 1 <= rank <= self.n:
            raise InputError(f"rank {rank} out of range 1..{self.n}")
        return self.entities[rank - 1]


def _column(values: Iterable[float]) -> np.ndarray:
    column = np.fromiter(values, dtype=np.float64)
    column.flags.writeable = False
    return column


def dominates(e: EntityGain, f: EntityGain) -> bool:
    """True iff ``f`` strictly exceeds ``e`` in both ``g`` and ``r``.

    Equality in either coordinate makes the pair incomparable, so this is
    irreflexive and antisymmetric by construction.
    """
    return e.g < f.g and e.r < f.r


def system_from_entities(entities: Sequence[EntityGain], window: str = "") -> DeltaSystem:
    """Re-rank ``entities`` 1..N in the given order and wrap them in a system."""
    ranked = tuple(replace(e, rank=i) for i, e in enumerate(entities, start=1))
    scores = [e.score for e in ranked]
    return DeltaSystem(
        entities=ranked,
        window=window,
        total_score=float(sum(s for s in scores if s is not None)),
        has_scores=bool(ranked) and all(s is not None for s in scores),
    )


def build_delta_system(
    records: Iterable[tuple], window: str = ""
) -> DeltaSystem:
    """Build a system from ``(id, score, g, r)`` or ``(id, g, r)`` records.

    When every record carries a score, entities are ranked by descending
    score with ties broken by ascending id; otherwise the input order is
    preserved and ranks are assigned by position.
    """
    rows: list[tuple[str, float | None, float, float]] = []
    seen: set[str] = set()
    for rec in records:
        if len(rec) == 3:
            eid, g, r = rec
            score = None
        elif len(rec) == 4:
            eid, score, g, r = rec
        else:
            raise InputError(f"record must be (id, score, g, r) or (id, g, r), got {rec!r}")
        eid = str(eid)
        if eid in seen:
            raise InputError(f"duplicate entity id {eid!r}")
        seen.add(eid)
        if score is not None:
            score = float(score)
            if score < 0:
                raise InputError(f"negative score for {eid!r}: {score}")
        g, r = float(g), float(r)
        for name, value in (("score", score), ("g", g), ("r", r)):
            if value is not None and not math.isfinite(value):
                raise InputError(f"non-finite {name} for {eid!r}: {value}")
        rows.append((eid, score, g, r))

    if rows and all(row[1] is not None for row in rows):
        rows.sort(key=lambda row: (-row[1], row[0]))
    entities = [EntityGain(id=eid, g=g, r=r, score=score) for eid, score, g, r in rows]
    return system_from_entities(entities, window)


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

    warnings: list[str] = []
    records: list[tuple[str, float, float, float]] = []
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
        records.append((eid, old, g, r))

    window = ""
    if before.timestamp or after.timestamp:
        window = f"{before.timestamp}..{after.timestamp}"
    return build_delta_system(records, window), tuple(warnings)
