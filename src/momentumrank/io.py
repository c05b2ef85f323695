"""File input and report output.

Readers accept the conventions of published gain tables: relative gains as
either fractions or percent strings, thousands separators inside quoted
fields, and scientific notation. Writers are deterministic: identical
results serialize to byte-identical documents.
"""
from __future__ import annotations

import csv
import io
import json
import math
from array import array
from itertools import compress
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import DeltaSystem, InputError, Snapshot, _build, _check_columns
from .frontier import BoundCheck, FrontierResult, leader_rows
from .ranking import LeaderRanking, MomentousnessScore, SystemComparison
from .simulation import StudyResult

FORMATS = ("json", "csv", "markdown")


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


def parse_snapshot(path) -> Snapshot:
    """Read a snapshot from CSV (header ``id,score``) or JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _snapshot_from_json(stripped, path)
    snapshot = _snapshot_from_columns(text)
    return snapshot if snapshot is not None else _snapshot_from_csv(text, path)


def _snapshot_from_json(text: str, path) -> Snapshot:
    try:
        # objects become tuples of (key, value) pairs, so a repeated id stays visible
        fields = dict(json.loads(text, object_pairs_hook=tuple))
    except (ValueError, RecursionError) as exc:  # also an int past Python's digit limit, or deep nesting
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    scores = fields.get("scores")
    if not isinstance(scores, tuple) or not scores:
        raise InputError(f"{path}: no entities")
    ids, values = [], []
    for eid, value in scores:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"{path}: score for {eid!r} is not a number")
        try:
            values.append(float(value))
        except OverflowError:  # an int past the float range rounds to +-inf, as 1e999 does
            values.append(math.inf if value > 0 else -math.inf)
        ids.append(eid)
    _check_columns(ids, {"score": values}, str(path))
    return Snapshot._checked(timestamp=str(fields.get("timestamp", "")), scores=dict(zip(ids, values)))


def _plain_columns(text: str, numbers: Sequence[str]) -> tuple[list[str], list[list[str]]] | None:
    """Split a CSV text that needs no quoting rules into header names and data columns.

    Returns None, leaving the text to the row reader, unless the text has no
    '"', '\\r' or NUL, and every line, the header too, has the header's
    field count (at least two) and no field longer than
    ``csv.field_size_limit()`` bytes. On such a text ``csv.reader`` reads
    each line as the line split at every ','. Names are stripped and lowercased.
    The first data row's cells in the ``numbers`` columns must parse with
    ``float``, so a table of percent strings or blank scores is refused
    before the whole text is split.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    end = text.find("\n", text.find("\n") + 1)  # slice the first two lines only: no copy of the rest
    header, _, first = text[: end if end >= 0 else None].partition("\n")
    names = [name.strip().lower() for name in header.split(",")]
    first_row = dict(zip(names, first.split(",")))
    try:
        for name in numbers:
            float(first_row.get(name, 0))
    except ValueError:
        return None
    if not text.endswith("\n"):
        text += "\n"
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    ends = data[seps] == ord("\n")  # each line's k separators: k - 1 commas, then its newline
    k = int(ends.argmax()) + 1
    if k < 2 or ends.size % k:
        return None
    by_line = ends.reshape(-1, k)
    if not by_line[:, -1].all() or by_line[:, :-1].any():
        return None
    if np.diff(seps, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    del data, seps, ends, by_line
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # the empty text after the last newline
    return names, [fields[k + i :: k] for i in range(k)]


def _snapshot_from_columns(text: str) -> Snapshot | None:
    """The columnar twin of ``_snapshot_from_csv``; None leaves the text to it."""
    plain = _plain_columns(text, ("score",))
    if plain is None or plain[0] != ["id", "score"] or not plain[1][0]:
        return None
    try:
        ids, scores = list(map(str.strip, plain[1][0])), list(map(float, plain[1][1]))
        del plain
        _check_columns(ids, {"score": scores})
    except ValueError:  # also InputError: the row reader names the faulty line
        return None
    return Snapshot._checked(timestamp="", scores=dict(zip(ids, scores)))


def _csv_rows(reader):
    """Yield ``reader``'s rows; a csv.Error, such as a field past the size limit, is an InputError at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from None


def _snapshot_from_csv(text: str, path) -> Snapshot:
    reader = csv.reader(io.StringIO(text))
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


def _read_table(path) -> str:
    """A CSV table's whole text with its line ends as written; one that is not UTF-8 is an InputError.

    The file is read once, so a pipe such as ``/dev/stdin`` can be read too.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


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


def parse_gains_table(path, window: str = "") -> DeltaSystem:
    """Read a pre-diffed gains table: columns ``id[,score],g,r``, extras ignored.

    Row order defines rank when the score column is absent or has a blank cell.
    """
    text = _read_table(path)
    system = _gains_from_columns(text, window)
    return system if system is not None else _gains_from_rows(text, path, window)


def _gains_from_columns(text: str, window: str) -> DeltaSystem | None:
    """The columnar twin of ``_gains_from_rows``; None leaves the text to it."""
    plain = _plain_columns(text, ("score", "g", "r"))
    if plain is None:
        return None
    column = dict(zip(*plain))  # a repeated name keeps its last column, as in _table_rows
    del plain
    if not {"id", "g", "r"} <= column.keys():
        return None
    try:
        ids = list(map(str.strip, column["id"]))
        # g and r become float64 arrays with no float object per cell; the memory saved
        # pays for keeping the text for the row reader until _build has passed
        g, r = (np.fromiter(map(float, column[name]), np.float64, len(ids)) for name in ("g", "r"))
        score = list(map(float, column["score"])) if "score" in column else [None] * len(ids)
        del column
        return _build(ids, score, g, r, window)
    except ValueError:  # also InputError: the row reader names the faulty line
        return None


def _gains_from_rows(text: str, path, window: str = "") -> DeltaSystem:
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
    return _build(ids, score, g, r, window, where=lines)


def parse_leaders_table(path) -> tuple[tuple[str, float, float], ...]:
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


# --- report writing ---------------------------------------------------------


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


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    def cell(value) -> str:
        # a quoted CSV id may hold a line break, which would split the table row
        return _fmt_human(value).replace("|", "\\|").replace("\r", "<br>").replace("\n", "<br>")

    lines = [
        "| " + " | ".join(map(cell, header)) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(map(cell, row)) + " |" for row in rows]
    return "\n".join(lines)


class _Report(NamedTuple):
    """One result in all three formats.

    ``payload`` is the JSON document and ``header`` with ``rows`` the CSV
    table. ``markdown`` lists blocks, joined by a blank line; a block is
    text or a ``(header, rows)`` table.
    """

    payload: object
    header: Sequence[str]
    rows: Sequence[Sequence]
    markdown: list


def _frontier_report(result: FrontierResult, layers) -> _Report:
    ds = result.system
    header = ["id", "rank", "g", "r", "w", "interval", "|D(m)|"]
    table = leader_rows(ds)
    at = table.positions
    w = [None] * len(at) if table.w is None else table.w.tolist()
    columns = at.tolist(), ds.g[at].tolist(), ds.r[at].tolist(), w, table.left.tolist(), table.right.tolist()
    rows = [
        [ds.ids[i], i + 1, g, r, w_m, f"{lo}..{hi}", count]
        for i, g, r, w_m, lo, hi, count in zip(*columns, table.dominated.tolist())
    ]
    payload = {
        "algorithm": result.algorithm,
        "window": ds.window,
        "n": ds.n,
        "leaders": [dict(zip(["id", "rank", "g", "r", "w", "interval", "dominated"], row)) for row in rows],
    }
    markdown = [(header, rows)]
    if layers is None:
        return _Report(payload, header, rows, markdown)
    payload["layers"] = [list(layer) for layer in layers]
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
        trailer.append(f"Layer {depth}: {', '.join(layer)}")
    if trailer:
        markdown.append("\n".join(trailer))
    return _Report(payload, ["layer", *header], flat, markdown)


def _ranking_report(ranking: LeaderRanking) -> _Report:
    header = ["id", "w", "r"]
    rows = ranking.entries
    return _Report({"leaders": [dict(zip(header, row)) for row in rows]}, header, rows, [(header, rows)])


def _momentousness_report(score: MomentousnessScore) -> _Report:
    header = ["id", "r", "w", "r*w"]
    payload = {"value": score.value, "terms": [dict(zip(header, term)) for term in score.terms]}
    markdown = [(header, score.terms), f"momentousness: {_fmt_human(score.value)}"]
    return _Report(payload, header, [*score.terms, ("TOTAL", None, None, score.value)], markdown)


def _comparison_report(comparison: SystemComparison) -> _Report:
    a, b, verdict = comparison.a.value, comparison.b.value, comparison.verdict
    if verdict == "equal":
        line = f"equally momentous ({_fmt_human(a)} = {_fmt_human(b)})"
    elif verdict == "a":
        line = f"A more momentous ({_fmt_human(a)} > {_fmt_human(b)})"
    else:
        line = f"B more momentous ({_fmt_human(b)} > {_fmt_human(a)})"
    return _Report(
        {"a": a, "b": b, "verdict": verdict},
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
        payload,
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
    return _Report(check._asdict(), check._fields, [check], [text])


def _system_report(ds: DeltaSystem) -> _Report:
    scores = [None if math.isnan(s) else s for s in ds.score.tolist()]
    columns = (ds.ids, scores, ds.g.tolist(), ds.r.tolist())
    payload = {
        "window": ds.window,
        "total_score": ds.total_score,
        "has_scores": ds.has_scores,
        "entities": [
            {"id": eid, "rank": rank, "score": score, "g": g, "r": r}
            for rank, (eid, score, g, r) in enumerate(zip(*columns), start=1)
        ],
    }
    if any(s is not None for s in scores):
        header, rows = ["id", "score", "g", "r"], list(zip(*columns))
    else:
        header, rows = ["id", "g", "r"], list(zip(ds.ids, *columns[2:]))
    return _Report(payload, header, rows, [(header, rows)])


def write_report(result, fmt: str = "markdown", *, layers=None) -> str:
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
        return _json_document(report.payload)
    if fmt == "csv":
        return _csv_document(report.header, report.rows)
    return "\n\n".join(b if isinstance(b, str) else _markdown_table(*b) for b in report.markdown)
