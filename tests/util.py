"""Shared test helpers: naive reference implementations and random generators.

The naive_* functions are written straight from the dominance definition with
plain loops so they stay independent of the package code they check.
"""
from __future__ import annotations

import csv
import io
import json
import math
from array import array
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from momentumrank.core import DeltaSystem, InputError, Snapshot, _build, _check_columns
from momentumrank.frontier import BoundCheck, FrontierResult, leader_rows
from momentumrank.io import FORMATS, _read_table
from momentumrank.ranking import LeaderRanking, MomentousnessScore, SystemComparison
from momentumrank.simulation import StudyResult


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


KERNEL_STYLES = (
    *STYLES,
    "wide_grid",
    "pool",
    "signed_zeros",
    "subnormal",
    "power_law",
    "antidiagonal",
    "ascending",
)


def kernel_pairs(rng: np.random.Generator, n: int, style: str) -> tuple[np.ndarray, np.ndarray]:
    """Finite gain pairs that probe the kernel's screen, ties and sort order."""
    if style in STYLES:
        return random_pairs(rng, n, style)
    if style == "wide_grid":  # ties on g and on r that straddle the sample staircase
        return rng.integers(-1000, 1001, size=(2, n)).astype(float)
    if style == "pool":  # every point repeats many times
        pool = rng.normal(size=(2, max(1, n // 20)))
        return pool[:, rng.integers(0, pool.shape[1], size=n)]
    if style in ("signed_zeros", "subnormal"):  # the top value is 0.0 or -0.0
        g, r = rng.integers(-40, 1, size=(2, n)).astype(float)
        g[(g == 0) & (rng.random(n) < 0.5)] = -0.0
        r[(r == 0) & (rng.random(n) < 0.5)] = -0.0
        return (g, r) if style == "signed_zeros" else (g * 5e-324, r * 5e-324)
    if style == "power_law":  # the study's regime: tiny frontier, heavy tails
        return (1.0 - rng.random((2, n))) ** -1.0
    x = rng.permutation(n).astype(float)
    if style == "antidiagonal":  # every point leads
        return x, -x
    g = np.sort(rng.normal(size=n))  # ascending g: the sample's best points come last
    return g, rng.normal(size=n)


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


def leader_row(ds, entity_id: str) -> tuple:
    """(w, (L, R), |D(m)|) of one entity from its own O(n) mask: the per-leader oracle.

    ``w`` is ``math.fsum`` over the masked ``score / total_score`` (None
    without scores on every entity or a finite positive total); the
    interval ends just inside the nearest entity on each side that the
    entity does not dominate.
    """
    pos = ds.ids.index(entity_id)
    mask = (ds.g < ds.g[pos]) & (ds.r < ds.r[pos])
    w = None
    if ds.has_scores and 0 < ds.total_score < math.inf:
        w = math.fsum((ds.score[mask] / ds.total_score).tolist())
    left = np.flatnonzero(~mask[:pos])
    right = np.flatnonzero(~mask[pos + 1 :])
    lo = int(left[-1]) + 2 if left.size else 1
    hi = pos + int(right[0]) + 1 if right.size else ds.n
    return w, (lo, hi), int(np.count_nonzero(mask))


def fsum_then_fraction(values: list[float]) -> float:
    """Momentousness's old sum, the oracle of ``ranking._sum``: ``math.fsum``, then ``Fraction`` past an overflow."""
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum overflowed: the exact sum may still be a float
        try:
            return float(sum(map(Fraction, values)))
        except OverflowError:
            raise InputError("momentousness is past the float range: |sum of r*w| > 1.8e308") from None


# --- the CSV row readers -------------------------------------------------------
# The readers as they stood before each CSV format got one columnar reader,
# kept unchanged: one row at a time, each fault raised where it is met. The
# readers' differential tests compare every outcome with theirs.


def _number(text: str, *, line: int, column: str, percent: bool = False) -> float:
    """Parse one numeric field; percent strings are allowed only where flagged."""
    try:
        value = float(text)  # text float() accepts holds no ',' or '%'
    except ValueError:
        raw = text.strip()
        body, divisor = raw, 1.0
        if percent and raw.endswith("%"):
            # divide by the exactly-representable 100 so "x%" == x/100 bit-for-bit
            body, divisor = raw[:-1], 100.0
        try:
            value = float(body.replace(",", "")) / divisor
        except ValueError:
            value = math.nan  # unparseable text fails the finiteness check below
    if not math.isfinite(value):
        raise InputError(f"line {line}, column {column}: cannot parse number {text.strip()!r}")
    return value


def _csv_rows(reader):
    """Yield ``reader``'s rows; a csv.Error, such as a field past the size limit, is an InputError at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from None


def _snapshot_from_csv(text: str, path) -> Snapshot:
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=""))
    rows = _csv_rows(reader)
    first = next(rows, None)
    if first is not None and [h.strip().lower() for h in first] != ["id", "score"]:
        raise InputError(f"{path}: expected header id,score, got {first!r}")
    ids, scores, lines = [], [], array("l")
    try:
        for row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            line_no = reader.line_num
            if len(row) != 2:
                raise InputError(f"line {line_no}: expected 2 fields, got {len(row)}")
            scores.append(_number(row[1], line=line_no, column="score"))
            ids.append(row[0].strip())
            lines.append(line_no)
    except InputError:
        _check_columns(ids, {"score": scores}, lines)  # a fault on an earlier line is reported first
        raise
    del reader, rows  # frees the decoded text buffer before the dict is built
    _check_columns(ids, {"score": scores}, lines)
    if not ids:
        raise InputError(f"{path}: no entities")
    return Snapshot._checked(timestamp="", scores=dict(zip(ids, scores)))


def _table_rows(text: str, path, required: set[str], expected: str):
    """Yield a CSV table's column positions, then ``(line, row)`` per data row.

    The header is stripped and lowercased, and a repeated name maps to its
    last column. Blank lines are skipped and short rows padded with "".
    """
    # read the text back as the file was read: a StringIO would hold four bytes per character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=""))
    rows = _csv_rows(reader)
    fields = [f.strip().lower() for f in next(rows, [])]
    missing = required - set(fields)
    if missing:
        raise InputError(f"{path}: expected columns {expected} (missing {sorted(missing)})")
    yield {name: i for i, name in enumerate(fields)}
    for row in rows:
        if row:
            if len(row) < len(fields):
                row += [""] * (len(fields) - len(row))
            yield reader.line_num, row


def _gains_from_rows(text: str, path) -> DeltaSystem:
    rows = _table_rows(text, path, {"id", "g", "r"}, "id[,score],g,r")
    id_at, g_at, r_at, score_at = map(next(rows).get, ("id", "g", "r", "score"))
    ids, score, g, r, lines = [], [], [], [], array("l")
    try:
        for line_no, row in rows:
            g_value = _number(row[g_at], line=line_no, column="g")
            r_value = _number(row[r_at], line=line_no, column="r", percent=True)
            has_score = score_at is not None and row[score_at].strip()
            score.append(_number(row[score_at], line=line_no, column="score") if has_score else None)
            ids.append(row[id_at].strip())
            g.append(g_value)
            r.append(r_value)
            lines.append(line_no)
    except InputError:
        _build(ids, score, g, r, where=lines)  # a fault on an earlier line is reported first
        raise
    ds = _build(ids, score, g, r, where=lines)
    if not ds.n:
        raise InputError(f"{path}: no entities")
    return ds


def _leaders_from_rows(path) -> tuple[tuple[str, float, float], ...]:
    """Read pre-computed leader rows: columns ``[id,]r,w``; returns (id, r, w)."""
    rows = _table_rows(_read_table(path), path, {"r", "w"}, "[id,]r,w")
    id_at, r_at, w_at = map(next(rows).get, ("id", "r", "w"))
    ids, r, w, lines = [], [], [], array("l")
    try:
        for line_no, row in rows:
            r_value = _number(row[r_at], line=line_no, column="r", percent=True)
            w.append(_number(row[w_at], line=line_no, column="w", percent=True))
            r.append(r_value)
            ids.append((row[id_at].strip() if id_at is not None else "") or str(len(ids) + 1))
            lines.append(line_no)
    except InputError:
        _check_columns(ids, {"r": r, "w": w}, lines)  # a fault on an earlier line is reported first
        raise
    _check_columns(ids, {"r": r, "w": w}, lines)
    if not ids:
        raise InputError(f"{path}: no leader rows")
    return tuple(zip(ids, r, w))


# --- the row-wise report writer ------------------------------------------------
# The report layer as it stood before reports became tables of named columns,
# kept unchanged but for its entry point's name: every format renders a header
# and row tuples, one row at a time. It shares no formatting code with the
# package, so the report differential test compares every byte with it.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() and abs(value) < 1e16 else repr(value)
    return str(value)


def _fmt_human(value) -> str:
    # markdown is for people: trim float noise, keep csv/json at full precision
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return _fmt(value)


def _json_document(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_document(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue().rstrip("\n")


def _one_line(text: str) -> str:
    # a quoted CSV id may hold a line break, which would split a markdown line
    return text.replace("\r", "<br>").replace("\n", "<br>")


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    def cell(value) -> str:
        return _one_line(_fmt_human(value).replace("|", "\\|"))

    lines = [
        "| " + " | ".join(map(cell, header)) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(map(cell, row)) + " |" for row in rows]
    return "\n".join(lines)


class _Report(NamedTuple):
    """One result in all three formats.

    ``payload()`` builds the JSON document, which only a JSON report
    calls, and ``header`` with ``rows`` is the CSV table. ``markdown``
    lists blocks, joined by a blank line; a block is text or a
    ``(header, rows)`` table.
    """

    payload: Callable[[], object]
    header: Sequence[str]
    rows: Sequence[Sequence]
    markdown: list


def _frontier_report(result: FrontierResult, layers) -> _Report:
    ds = result.system
    header = ["id", "rank", "g", "r", "w", "interval", "|D(m)|"]
    table = leader_rows(result)
    at = result.positions
    w = [None] * len(at) if table.w is None else table.w.tolist()
    columns = at.tolist(), ds.g[at].tolist(), ds.r[at].tolist(), w, table.left.tolist(), table.right.tolist()
    rows = [
        [ds.ids[i], i + 1, g, r, w_m, f"{lo}..{hi}", count]
        for i, g, r, w_m, lo, hi, count in zip(*columns, table.dominated.tolist())
    ]

    def payload() -> dict:
        keys = ["id", "rank", "g", "r", "w", "interval", "dominated"]
        leaders = [dict(zip(keys, row)) for row in rows]
        doc = {"algorithm": result.algorithm, "window": ds.window, "n": ds.n, "leaders": leaders}
        if layers is not None:
            doc["layers"] = [list(layer) for layer in layers]
        return doc

    markdown = [(header, rows)]
    if layers is None:
        return _Report(payload, header, rows, markdown)
    flat = [[1, *row] for row in rows]
    # one scan finds the runner-ups, so no id index over all n is built
    wanted = set().union(*layers[1:])
    where = {ds.ids[i]: i for i in compress(range(ds.n), map(wanted.__contains__, ds.ids))}
    trailer = []
    for depth, layer in enumerate(layers[1:], start=2):
        for leader_id in layer:
            if leader_id not in where:
                raise InputError(f"unknown entity id {leader_id!r}")
            i = where[leader_id]
            flat.append([depth, leader_id, i + 1, float(ds.g[i]), float(ds.r[i]), None, None, None])
        trailer.append(f"Layer {depth}: {', '.join(map(_one_line, layer))}")
    if trailer:
        markdown.append("\n".join(trailer))
    return _Report(payload, ["layer", *header], flat, markdown)


def _ranking_report(ranking: LeaderRanking) -> _Report:
    header = ["id", "w", "r"]
    rows = ranking.entries
    return _Report(lambda: {"leaders": [dict(zip(header, row)) for row in rows]}, header, rows, [(header, rows)])


def _momentousness_report(score: MomentousnessScore) -> _Report:
    header = ["id", "r", "w", "r*w"]
    return _Report(
        lambda: {"value": score.value, "terms": [dict(zip(header, term)) for term in score.terms]},
        header,
        [*score.terms, ("TOTAL", None, None, score.value)],
        [(header, score.terms), f"momentousness: {_fmt_human(score.value)}"],
    )


def _comparison_report(comparison: SystemComparison) -> _Report:
    a, b, verdict = comparison.a.value, comparison.b.value, comparison.verdict
    if verdict == "equal":
        line = f"equally momentous ({_fmt_human(a)} = {_fmt_human(b)})"
    elif verdict == "a":
        line = f"A more momentous ({_fmt_human(a)} > {_fmt_human(b)})"
    else:
        line = f"B more momentous ({_fmt_human(b)} > {_fmt_human(a)})"
    return _Report(
        lambda: {"a": a, "b": b, "verdict": verdict},
        ["system", "momentousness"],
        [["a", a], ["b", b], ["verdict", verdict]],
        [f"momentousness A: {_fmt(a)}\nmomentousness B: {_fmt(b)}\n{line}"],
    )


def _study_report(result: StudyResult) -> _Report:
    cfg = result.config
    percentiles = {_fmt(float(p)): v for p, v in result.percentile_values.items()}
    fitted = {_fmt(float(p)): c for p, c in result.fitted_c.items()}
    bounds = {"1/3": result.bound_values[1 / 3], "1/2": result.bound_values[1 / 2]}
    payload = {
        "config": {
            "n": cfg.n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "percentiles": list(cfg.percentiles),
        },
        "percentiles": percentiles,
        "bounds": bounds,
        "fitted_c": fitted,
    }
    table = (["percentile", "size", "fitted c"], [[p, v, fitted[p]] for p, v in percentiles.items()])
    bound_line = ", ".join(f"c={k}: {_fmt_human(v)}" for k, v in bounds.items())
    return _Report(
        lambda: payload,
        ["trial", "size"],
        [[i, s] for i, s in enumerate(result.sizes)],
        [f"n={cfg.n} trials={cfg.trials} seed={cfg.seed}", table, f"bound c*(log10(n)+1)^2 -> {bound_line}"],
    )


def _bound_report(check: BoundCheck) -> _Report:
    text = (
        f"frontier size: {check.frontier_size}\n"
        f"moving maxima: {check.moving_maxima_count}\n"
        f"bound holds: {str(check.holds).lower()}"
    )
    return _Report(check._asdict, check._fields, [check], [text])


def _system_report(ds: DeltaSystem) -> _Report:
    scores = [None if math.isnan(s) else s for s in ds.score.tolist()]
    columns = (ds.ids, scores, ds.g.tolist(), ds.r.tolist())

    def payload() -> dict:
        entities = [
            {"id": eid, "rank": rank, "score": score, "g": g, "r": r}
            for rank, (eid, score, g, r) in enumerate(zip(*columns), start=1)
        ]
        return {"window": ds.window, "total_score": ds.total_score, "has_scores": ds.has_scores, "entities": entities}

    if any(s is not None for s in scores):
        header, rows = ["id", "score", "g", "r"], list(zip(*columns))
    else:
        header, rows = ["id", "g", "r"], list(zip(ds.ids, *columns[2:]))
    return _Report(payload, header, rows, [(header, rows)])


def rowwise_report(result, fmt: str = "markdown", *, layers=None) -> str:
    """Serialize any result deterministically in json, csv, or markdown."""
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {fmt!r}")
    if isinstance(result, FrontierResult):
        report = _frontier_report(result, layers)
    elif isinstance(result, LeaderRanking):
        report = _ranking_report(result)
    elif isinstance(result, MomentousnessScore):
        report = _momentousness_report(result)
    elif isinstance(result, SystemComparison):
        report = _comparison_report(result)
    elif isinstance(result, StudyResult):
        report = _study_report(result)
    elif isinstance(result, BoundCheck):
        report = _bound_report(result)
    elif isinstance(result, DeltaSystem):
        report = _system_report(result)
    else:
        raise InputError(f"no report writer for {type(result).__name__}")
    if fmt == "json":
        return _json_document(report.payload())
    if fmt == "csv":
        return _csv_document(report.header, report.rows)
    return "\n\n".join(b if isinstance(b, str) else _markdown_table(*b) for b in report.markdown)
