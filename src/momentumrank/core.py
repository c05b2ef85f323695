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
        _check_columns(list(self.scores), {"score": list(self.scores.values())})

    @classmethod
    def _checked(cls, timestamp: str, scores: dict[str, float]) -> Snapshot:
        """A snapshot of scores that ``_check_columns`` has passed, built without a second check."""
        snapshot = object.__new__(cls)
        object.__setattr__(snapshot, "timestamp", timestamp)
        object.__setattr__(snapshot, "scores", scores)
        return snapshot


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
    found: Sequence[tuple[int, str]] = (),
) -> DeltaSystem:
    """Validate, rank and freeze record columns: the one way a system is made.

    ``score`` holds None where an entity has no base score, or NaN if it is
    a float64 array. With ``rank`` set and every score present, entities
    are ordered by descending score with ties broken by ascending id (Python
    string order); otherwise the given order is kept. ``where`` and
    ``found`` are as in ``_check_columns``.
    """
    score_col, g_col, r_col = (np.asarray(c, dtype=np.float64) for c in (score, g, r))  # None reads as NaN
    missing = np.isnan(score_col) if isinstance(score, np.ndarray) else np.array([s is None for s in score], bool)
    _check_columns(ids, {"score": np.where(missing, 0.0, score_col), "g": g_col, "r": r_col}, where, found)
    has_scores = bool(ids) and not missing.any()
    if rank and has_scores:
        order = _rank_order(ids, score_col)
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


def _rank_order(ids: Sequence[str], *keys: np.ndarray) -> np.ndarray:
    """Positions by each key descending in turn, then by ascending id in Python string order: the rank tie-break."""
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.lexsort([-key[by_id] for key in reversed(keys)])]


def _check_columns(
    ids: Sequence[str], columns: dict[str, Sequence[float]], where: Sequence[int] | str = "", found: Sequence = ()
) -> None:
    """Raise the error of the first faulty record: the one place the record rules live.

    Within a record, ids must be non-blank, then unique; then each column's
    values must be non-negative (``score`` and ``w`` only) and finite, and
    so must ``r * w`` where both columns are given. Messages show each value
    as given, and a number past the float range as +-inf.
    ``where`` holds the records' CSV line numbers or names their JSON file.
    ``found`` holds ``(record, message)`` faults a reader has already found,
    such as a cell that does not parse. Each precedes the rules of its own
    record and every fault listed after it, and its message is raised as is.
    """
    # (record, precedence, message) for the first record failing each check
    faults = [(i, precedence - len(found), message) for precedence, (i, message) in enumerate(found)]
    if not all(map(str.strip, ids)):
        faults.append(([*map(str.strip, ids)].index(""), 0, "empty entity id"))
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        i = next(i for i, eid in enumerate(ids) if eid in seen or seen.add(eid))  # add() returns None
        faults.append((i, 1, f"duplicate entity id {ids[i]!r}"))
    checks = []
    for name, column in columns.items():
        try:
            values = np.asarray(column, dtype=np.float64)
        except (OverflowError, ValueError):  # a number past the float range, or a signalling NaN
            column = list(map(_float_or_self, column))
            values = np.asarray(column, dtype=np.float64)
        if name in ("score", "w"):
            negative = values < 0
            if not isinstance(column, np.ndarray):  # a value that rounds to 0.0 keeps its own sign
                zeros = np.flatnonzero(values == 0).tolist()
                negative[zeros] = [column[i] < 0 for i in zeros]
            checks.append((f"negative {name}", negative, column))
        checks.append((f"non-finite {name}", ~np.isfinite(values), column))
    if {"r", "w"} <= columns.keys():
        with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range is the fault sought
            product = np.multiply(columns["r"], columns["w"], dtype=np.float64)
        checks.append(("non-finite r*w", ~np.isfinite(product), product))
    for precedence, (fault, bad, column) in enumerate(checks, start=2):
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            faults.append((i, precedence, f"{fault} for {ids[i]!r}: {column[i]}"))
    if faults:
        i, precedence, message = min(faults)
        if precedence < 0:
            raise InputError(message)
        prefix = where if isinstance(where, str) else f"line {where[i]}"
        raise InputError(f"{prefix}: {message}" if prefix else message)


def _float_or_self(value):
    """``value`` if ``float`` takes it; else +-inf for a number past the float range, NaN for a signalling NaN."""
    try:
        float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except ValueError:
        return math.nan
    return value


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
    A ``Decimal`` beside a float or a ``Fraction``, which ``Decimal``
    arithmetic does not take, counts as the equal ``Fraction``.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    if not before.scores or not after.scores:
        raise InputError("snapshots must be non-empty")

    old_scores, new_scores = before.scores, after.scores
    kinds = {*map(type, old_scores.values()), *map(type, new_scores.values())}
    if kinds != {float}:  # imported only here: together they add 2-5 ms to every start
        from decimal import Decimal
        from fractions import Fraction

        if any(issubclass(k, Decimal) for k in kinds) and not all(issubclass(k, (Decimal, int)) for k in kinds):
            old_scores, new_scores = (
                {eid: Fraction(v) if isinstance(v, Decimal) else v for eid, v in scores.items()}
                for scores in (old_scores, new_scores)
            )
    if mode == "share_delta":
        before_total = sum(old_scores.values())
        after_total = sum(new_scores.values())
        if before_total <= 0 or after_total <= 0:
            raise InputError("share_delta requires a positive total score in both snapshots")
        if before_total == math.inf or after_total == math.inf:
            raise InputError("share_delta requires a finite total score in both snapshots")

    ids = [eid for eid in old_scores if eid in new_scores]
    ids.sort()  # linear on sorted files; a fault is reported for the first id in this order
    # (id, reason) pairs in set order: the warnings are sorted below
    excluded = [(eid, "present only in the before snapshot") for eid in old_scores.keys() - new_scores.keys()]
    excluded += [(eid, "present only in the after snapshot") for eid in new_scores.keys() - old_scores.keys()]
    base = list(map(old_scores.__getitem__, ids))
    if mode == "ratio":  # a zero base has no ratio: drop it before the after lookup and the subtraction
        reason = "relative gain undefined (zero score before the window)"
        excluded += zip(compress(ids, map(operator.not_, base)), repeat(reason))
        ids, base = list(compress(ids, base)), list(filter(None, base))
    new = list(map(new_scores.__getitem__, ids))
    gains = list(map(operator.sub, new, base))
    if mode == "ratio":
        rel = list(map(operator.truediv, gains, base))
    else:
        shares = map(operator.truediv, new, repeat(after_total)), map(operator.truediv, base, repeat(before_total))
        rel = list(map(operator.sub, *shares))
    warnings = tuple(f"excluded {eid!r}: {reason}" for eid, reason in sorted(excluded))

    window = ""
    if before.timestamp or after.timestamp:
        window = f"{before.timestamp}..{after.timestamp}"
    return _build(ids, base, gains, rel, window), warnings
