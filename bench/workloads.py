"""Seeded inputs, reference results and output checks for each workload.

The references are written here from the definitions, not with the
package's code: a numpy sort-and-scan for the leader set, repeated peeling
for runner-up layers, one boolean mask per leader for |D(m)| and its
interval, and ``math.fsum`` for ``w``. Leaders, layers, intervals and
counts are compared exactly; floats within a relative tolerance, so that a
change of summation order in the program does not count as wrong.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REL_TOL = 1e-9
LAYERS = 5


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def truncated_pareto(u: np.ndarray, x_max: float) -> np.ndarray:
    """Inverse CDF of the alpha=1 Pareto law truncated to [1, x_max]."""
    lo, hi = 1.0, x_max**-1.0
    return (lo - u * (lo - hi)) ** -1.0


def reference_leader_mask(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Entities that no other entity strictly exceeds in both g and r."""
    order = np.lexsort((-r, -g))
    gs, rs = g[order], r[order]
    # an entity is beaten only by entities with strictly greater g, i.e. by
    # everything before the first member of its own equal-g group
    group_start = np.searchsorted(-gs, -gs, side="left")
    best_r = np.maximum.accumulate(rs)
    best_before = np.where(group_start > 0, best_r[np.maximum(group_start - 1, 0)], -np.inf)
    mask = np.empty(len(g), dtype=bool)
    mask[order] = rs >= best_before
    return mask


def reference_layers(g: np.ndarray, r: np.ndarray, layers: int) -> list[np.ndarray]:
    """Positions of each successive frontier after peeling the previous ones."""
    remaining = np.arange(len(g))
    peeled = []
    for _ in range(layers):
        if remaining.size == 0:
            break
        mask = reference_leader_mask(g[remaining], r[remaining])
        peeled.append(remaining[mask])
        remaining = remaining[~mask]
    return peeled


def draw_with_leaders(seed: int, leaders: int, draw):
    """Inputs from the first sub-seed (seed, k) whose system has ``leaders`` leaders.

    Per-leader work dominates the reports, and the leader count of one
    random draw varies severalfold, so fixing it keeps the work per seed
    steady. ``draw(rng)`` returns (inputs, g, r).
    """
    for attempt in range(10_000):
        inputs, g, r = draw(np.random.default_rng([seed, attempt]))
        if reference_leader_mask(g, r).sum() == leaders:
            return inputs
    raise RuntimeError(f"no draw with {leaders} leaders for seed {seed}")


@dataclass(frozen=True)
class LeaderRow:
    id: str
    rank: int
    g: float
    r: float
    w: float
    interval: tuple[int, int]
    dominated: int


def reference_leader_rows(ids: list[str], score, g, r) -> list[LeaderRow]:
    """Leader rows of a system whose arrays are in rank order (rank 1 first)."""
    weights = score / math.fsum(score.tolist())
    rows = []
    for pos in np.flatnonzero(reference_leader_mask(g, r)):
        dom = (g < g[pos]) & (r < r[pos])
        lo = hi = pos
        while hi + 1 < len(g) and dom[hi + 1]:
            hi += 1
        while lo > 0 and dom[lo - 1]:
            lo -= 1
        rows.append(
            LeaderRow(
                id=ids[pos],
                rank=int(pos) + 1,
                g=float(g[pos]),
                r=float(r[pos]),
                w=math.fsum(weights[dom].tolist()),
                interval=(int(lo) + 1, int(hi) + 1),
                dominated=int(dom.sum()),
            )
        )
    return rows


def _rank_order(ids: list[str], score: np.ndarray) -> list[int]:
    # the package ranks by descending score, ties by ascending id
    return sorted(range(len(ids)), key=lambda i: (-score[i], ids[i]))


def _write_csv(path: Path, header: list[str], columns: list) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))
    return path.stat().st_size


def _floats(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


@dataclass
class Case:
    """One workload instance: the command, its reference and its counts."""

    argv: list[str]
    check: Callable[[str], None]
    input_bytes: int
    counts: dict[str, int]
    # a second traced command and the one span metric it supplies
    extra: tuple[str, list[str], Callable[[str], None]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, Path, bool], Case]


# --- leaders_layers -----------------------------------------------------------


def make_leaders_layers(seed: int, workdir: Path, smoke: bool) -> Case:
    n = 2_000 if smoke else 50_000

    def draw(rng):
        score = truncated_pareto(rng.random(n), n)
        r = rng.lognormal(0.0, 1.0, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
        g = score * r
        return (score, g, r), g, r

    score, g, r = draw_with_leaders(seed, 7, draw)
    ids = [f"e{i:06d}" for i in range(n)]
    path = workdir / "gains.csv"
    size = _write_csv(path, ["id", "score", "g", "r"], [ids, _floats(score), _floats(g), _floats(r)])

    order = _rank_order(ids, score)
    ids = [ids[i] for i in order]
    score, g, r = score[order], g[order], r[order]
    rows = reference_leader_rows(ids, score, g, r)
    layers = [[ids[p] for p in layer] for layer in reference_layers(g, r, LAYERS)]

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        _expect(doc["n"] == n, f"n {doc['n']} != {n}")
        got = doc["leaders"]
        _expect([x["id"] for x in got] == [x.id for x in rows], "leader ids or order differ")
        for x, ref in zip(got, rows):
            _expect(x["rank"] == ref.rank, f"{ref.id}: rank {x['rank']} != {ref.rank}")
            _expect(x["interval"] == f"{ref.interval[0]}..{ref.interval[1]}", f"{ref.id}: interval {x['interval']}")
            _expect(x["dominated"] == ref.dominated, f"{ref.id}: |D(m)| {x['dominated']} != {ref.dominated}")
            _expect(_close(x["g"], ref.g) and _close(x["r"], ref.r), f"{ref.id}: g or r differ")
            _expect(_close(x["w"], ref.w), f"{ref.id}: w {x['w']} != {ref.w}")
        _expect(doc["layers"] == layers, "runner-up layers differ")

    return Case(
        argv=["leaders", "--gains", str(path), "--layers", str(LAYERS), "--format", "json"],
        check=check,
        input_bytes=size,
        counts={
            "core.entities": n,
            "frontier.leaders": len(rows),
            "frontier.dominated_total": sum(x.dominated for x in rows),
            "frontier.layer_sizes_total": sum(len(layer) for layer in layers),
        },
    )


# --- snapshot_rank ------------------------------------------------------------


def make_snapshot_rank(seed: int, workdir: Path, smoke: bool) -> Case:
    n = 2_000 if smoke else 50_000
    k_missing, k_zero = n // 200, n // 500

    def draw(rng):
        before = truncated_pareto(rng.random(n), n)
        # diminishing returns: big entities gain more in absolute, less in relative terms
        after = before * (1.0 + 0.5 * before**-0.5 * rng.lognormal(0.0, 0.05, n))
        perm = rng.permutation(n)
        before[perm[2 * k_missing : 2 * k_missing + k_zero]] = 0.0
        in_before = np.ones(n, dtype=bool)
        in_before[perm[k_missing : 2 * k_missing]] = False
        in_after = np.ones(n, dtype=bool)
        in_after[perm[:k_missing]] = False
        kept = in_before & in_after & (before != 0)
        g = after[kept] - before[kept]
        return (before, after, in_before, in_after), g, g / before[kept]

    before, after, in_before, in_after = draw_with_leaders(seed, 55 if smoke else 110, draw)
    ids = np.array([f"s{i:06d}" for i in range(n)])
    before_path, after_path = workdir / "before.csv", workdir / "after.csv"
    size = _write_csv(before_path, ["id", "score"], [ids[in_before].tolist(), _floats(before[in_before])])
    size += _write_csv(after_path, ["id", "score"], [ids[in_after].tolist(), _floats(after[in_after])])

    kept = np.flatnonzero(in_before & in_after & (before != 0))
    kept_ids = ids[kept].tolist()
    order = _rank_order(kept_ids, before[kept])
    sel = kept[order]
    score = before[sel]
    g = after[sel] - score
    r = g / score
    rows = reference_leader_rows(ids[sel].tolist(), score, g, r)
    ref = {x.id: x for x in rows}

    def check_rank(stdout: str) -> None:
        got = list(csv.DictReader(stdout.splitlines()))
        _expect(sorted(x["id"] for x in got) == sorted(ref), "leader ids differ")
        for x in got:
            want = ref[x["id"]]
            _expect(_close(float(x["w"]), want.w), f"{want.id}: w {x['w']} != {want.w}")
            _expect(_close(float(x["r"]), want.r), f"{want.id}: r {x['r']} != {want.r}")
        # heaviest w first, ties by r descending then id; near-equal w may swap
        for a, b in zip(got, got[1:]):
            ra, rb = ref[a["id"]], ref[b["id"]]
            in_order = (-ra.w, -ra.r, ra.id) <= (-rb.w, -rb.r, rb.id)
            _expect(in_order or _close(ra.w, rb.w), f"{ra.id} and {rb.id} out of order")

    def check_momentousness(stdout: str) -> None:
        doc = json.loads(stdout)
        _expect(sorted(t["id"] for t in doc["terms"]) == sorted(ref), "term ids differ")
        for t in doc["terms"]:
            _expect(_close(t["w"], ref[t["id"]].w), f"{t['id']}: w differs")
        value = math.fsum(x.r * x.w for x in rows)
        _expect(_close(doc["value"], value), f"momentousness {doc['value']} != {value}")

    inputs = ["--before", str(before_path), "--after", str(after_path)]
    return Case(
        argv=["rank", *inputs, "--format", "csv"],
        check=check_rank,
        input_bytes=size,
        counts={
            "core.entities": len(sel),
            "core.excluded": n - len(sel),
            "frontier.leaders": len(rows),
            "frontier.dominated_total": sum(x.dominated for x in rows),
        },
        extra=("ranking.momentousness_s", ["momentousness", *inputs, "--format", "json"], check_momentousness),
    )


# --- mc_study -----------------------------------------------------------------


def make_mc_study(seed: int, workdir: Path, smoke: bool) -> Case:
    n, trials = (2_000, 20) if smoke else (20_000, 500)
    # the study's seeded draws are part of its contract: one SeedSequence per
    # trial, g then r, each from the truncated Pareto law on [1, n]
    sizes = []
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        g = truncated_pareto(rng.random(n), n)
        r = truncated_pareto(rng.random(n), n)
        sizes.append(int(reference_leader_mask(g, r).sum()))
    ordered = sorted(sizes)
    percentiles = {p: ordered[math.ceil(p / 100 * trials) - 1] for p in (95, 99)}
    denom = (math.log10(n) + 1) ** 2

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        cfg = doc["config"]
        _expect((cfg["n"], cfg["trials"], cfg["seed"]) == (n, trials, seed), f"config echo {cfg}")
        _expect(doc["percentiles"] == {str(p): v for p, v in percentiles.items()}, f"percentiles {doc['percentiles']}")
        for p, v in percentiles.items():
            _expect(_close(doc["fitted_c"][str(p)], v / denom), f"fitted_c {p}")
        _expect(_close(doc["bounds"]["1/3"], denom / 3) and _close(doc["bounds"]["1/2"], denom / 2), "bounds")

    return Case(
        argv=["simulate", "--n", str(n), "--trials", str(trials), "--seed", str(seed), "--format", "json"],
        check=check,
        input_bytes=0,
        counts={"frontier.leaders": sum(sizes), "simulation.trials": trials},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "leaders_layers",
            "n-bound work at n=50k with 7 leaders: parse, build, 5-layer runner-up peeling and the per-leader report",
            make_leaders_layers,
        ),
        Workload(
            "snapshot_rank",
            "snapshot diff and ranking of 110 leaders at n=50k, so per-leader costs dominate; no runner-up peeling",
            make_snapshot_rank,
        ),
        Workload(
            "mc_study",
            "Monte Carlo study, n=20k x 500 trials: the leader_mask kernel and sampling dominate, almost no I/O",
            make_mc_study,
        ),
    )
}
