"""Linear ordering of momentum leaders and whole-system momentousness.

Leaders are mutually incomparable under dominance, so they are ordered by
the normalized weight of the entities they dominate. A whole system is
scored by summing r(m) * w(m) over its leaders, which rewards leaders that
combine high relative gain with a heavy dominated set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .core import DeltaSystem, InputError, _check_columns
from .frontier import frontier_sortscan, leader_row


@dataclass(frozen=True)
class LeaderRanking:
    """Leaders as (id, w, r) rows, heaviest dominated weight first.

    Ties on w break by r descending, then id ascending.
    """

    entries: tuple[tuple[str, float, float], ...]

    @property
    def leader_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _, _ in self.entries)


@dataclass(frozen=True)
class MomentousnessScore:
    """Sum of r(m) * w(m) over leaders, with the per-leader terms kept."""

    value: float
    terms: tuple[tuple[str, float, float, float], ...]  # (id, r, w, r*w)


@dataclass(frozen=True)
class SystemComparison:
    a: MomentousnessScore
    b: MomentousnessScore
    verdict: str  # "a" | "b" | "equal"


LeaderRows = Iterable[tuple]
SystemOrLeaders = Union[DeltaSystem, LeaderRows]


def _require_weights(ds: DeltaSystem) -> None:
    if not ds.n:
        raise InputError("weights require a non-empty system")
    if not ds.has_scores:
        raise InputError("weights require scores on every entity")
    if ds.total_score <= 0:
        raise InputError("weights require a positive total score")


def normalized_weights(ds: DeltaSystem) -> dict[str, float]:
    """Per-entity share of the total score; shares sum to 1."""
    _require_weights(ds)
    return dict(zip(ds.ids, (ds.score / ds.total_score).tolist()))


def leader_weight(ds: DeltaSystem, leader_id: str) -> float:
    """w(m): summed normalized scores of the entities m dominates."""
    leaders = frontier_sortscan(ds).leader_set
    if leader_id not in leaders:
        raise InputError(f"{leader_id!r} is not a momentum leader")
    _require_weights(ds)
    return leader_row(ds, leader_id).w


def _leader_rows(ds: DeltaSystem) -> list[tuple[str, float, float]]:
    result = frontier_sortscan(ds)
    _require_weights(ds)
    rows = []
    for leader_id in result.leaders:
        row = leader_row(ds, leader_id)
        rows.append((leader_id, row.w, row.entity.r))
    return rows


def rank_leaders(ds: DeltaSystem) -> LeaderRanking:
    rows = _leader_rows(ds)
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return LeaderRanking(entries=tuple(rows))


def momentousness(source: SystemOrLeaders) -> MomentousnessScore:
    """Score a system, or a pre-computed list of (id, r, w) leader rows.

    Negative-r leaders contribute negative terms, so the value itself can
    be negative.
    """
    if isinstance(source, DeltaSystem):
        terms = tuple(
            (leader_id, r, w, r * w) for leader_id, w, r in _leader_rows(source)
        )
    else:
        terms = _leader_terms(source)
    return MomentousnessScore(
        value=math.fsum(t[3] for t in terms),
        terms=terms,
    )


def _leader_terms(rows: LeaderRows) -> tuple[tuple[str, float, float, float], ...]:
    """(id, r, w, r*w) per leader row; the rows obey the record rules of a leader table."""
    ids, r, w = [], [], []
    for index, row in enumerate(rows):
        if len(row) == 3:
            leader_id, r_value, w_value = row
        elif len(row) == 2:
            r_value, w_value = row
            leader_id = str(index + 1)
        else:
            _check_columns(ids, {"r": r, "w": w})  # a fault in an earlier row is reported first
            raise InputError(f"leader row must be (id, r, w) or (r, w), got {row!r}")
        ids.append(str(leader_id))
        r.append(float(r_value))
        w.append(float(w_value))
    _check_columns(ids, {"r": r, "w": w})
    return tuple((leader_id, r_value, w_value, r_value * w_value) for leader_id, r_value, w_value in zip(ids, r, w))


def compare_systems(a: SystemOrLeaders, b: SystemOrLeaders) -> SystemComparison:
    """Momentousness of both inputs plus which one is greater."""
    score_a = momentousness(a)
    score_b = momentousness(b)
    if score_a.value > score_b.value:
        verdict = "a"
    elif score_b.value > score_a.value:
        verdict = "b"
    else:
        verdict = "equal"
    return SystemComparison(a=score_a, b=score_b, verdict=verdict)
