"""File input and report output.

Readers accept the conventions of published gain tables: relative gains as
either fractions or percent strings, thousands separators inside quoted
fields, and scientific notation. Each CSV format has one reader: the text
is split once into columns, each number column is converted to float64 as
a whole, and the first fault in record order is reported with its line.
Each report is one table of named columns, which every format renders: CSV
and markdown a column at a time, and each JSON record list one record per
row. Writers are deterministic: identical results serialize to
byte-identical documents.
"""
from __future__ import annotations

import csv
import io
import json
import math
from array import array
from itertools import compress, repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import DeltaSystem, InputError, Snapshot, _build, _check_columns, _float_or_self
from .frontier import BoundCheck, FrontierResult, leader_rows
from .ranking import LeaderRanking, MomentousnessScore, SystemComparison
from .simulation import StudyResult

FORMATS = ("json", "csv", "markdown")


def _number(text: str, percent: bool = False) -> float:
    """Parse one numeric field, NaN where it does not parse; percent strings are allowed only where flagged."""
    try:
        return float(text)  # text float() accepts holds no ',' or '%'
    except ValueError:
        raw = text.strip()
        body, divisor = raw, 1.0
        if percent and raw.endswith("%"):
            # divide by the exactly-representable 100 so "x%" == x/100 bit-for-bit
            body, divisor = raw[:-1], 100.0
        try:
            return float(body.replace(",", "")) / divisor
        except ValueError:
            return math.nan


def _column(cells: Sequence[str], name: str, lines: Sequence[int], faults: list, *, percent=False, blank=False):
    """One number column as float64; its first cell that is no finite number is added to ``faults``.

    ``map(float)`` reads a plain column in C. Only a column it refuses goes
    cell by cell through ``_number``. With ``blank`` set, a blank cell reads
    as NaN and is no fault.
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.fromiter(map(_number, cells, repeat(percent)), np.float64, len(cells))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        if cells[i].strip() or not blank:
            faults.append((i, f"line {lines[i]}, column {name}: cannot parse number {cells[i].strip()!r}"))
            break
    return values


def parse_snapshot(path) -> Snapshot:
    """Read a snapshot from CSV (header ``id,score``) or JSON."""
    text = _read_table(path)
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return _snapshot_from_json(stripped, path)
    header, columns, lines, faults = _split(text, width=2)
    if header is not None and [name.strip().lower() for name in header] != ["id", "score"]:
        raise InputError(f"{path}: expected header id,score, got {header!r}")
    ids = list(map(str.strip, columns.get("id", ())))  # an empty text has no columns
    scores = _column(columns.get("score", ()), "score", lines, faults)
    del columns
    _check_columns(ids, {"score": scores}, lines, faults)
    if not ids:
        raise InputError(f"{path}: no entities")
    return Snapshot._checked(timestamp="", scores=dict(zip(ids, scores.tolist())))


def _snapshot_from_json(text: str, path) -> Snapshot:
    try:
        # objects become tuples of (key, value) pairs, so a repeated id stays visible
        document = json.loads(text, object_pairs_hook=tuple)
    except (ValueError, RecursionError) as exc:  # also an int past Python's digit limit, or deep nesting
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(document, tuple):  # an array, or a bare value
        raise InputError(f"{path}: expected a JSON object")
    fields = dict(document)
    scores, timestamp = fields.get("scores"), fields.get("timestamp")
    if not isinstance(scores, tuple):  # missing, or not an object
        raise InputError(f'{path}: "scores" must be an object of id: number pairs')
    if not isinstance(timestamp, (str, type(None))):
        raise InputError(f'{path}: "timestamp" must be a string')
    if not scores:
        raise InputError(f"{path}: no entities")
    for eid, value in scores:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"{path}: score for {eid!r} is not a number")
    ids = [eid for eid, _ in scores]
    values = np.array([_float_or_self(value) for _, value in scores], np.float64)  # an int past the range: +-inf
    _check_columns(ids, {"score": values}, str(path))
    return Snapshot._checked(timestamp=timestamp or "", scores=dict(zip(ids, values.tolist())))


def _plain_columns(text: str) -> tuple[list[str], list[list[str]]] | None:
    """Split a CSV text that needs no quoting rules into its header row and data columns.

    Returns None, leaving the text to ``csv.reader``, unless the text has no
    '"', NUL or '\\r' but in CRLF, and every line, the header too, has the
    header's field count (at least two) and no field longer than
    ``csv.field_size_limit()`` bytes. On such a text ``csv.reader`` reads
    each line, ended by LF or CRLF, as the line split at every ','.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
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
    return fields[:k], [fields[k + i :: k] for i in range(k)]


def _split(text: str, width: int | None = None):
    """Split a CSV text once: its header row, its columns by name, each record's line and its fault.

    The header is None for an empty text, and a fault in it is raised. Names
    are stripped and lowercased, and a repeated name maps to its last
    column. Blank lines are skipped. With ``width`` set, whitespace-only
    lines are skipped too and a record of another field count ends the
    text; otherwise short records are padded with "" and extra cells are
    ignored. The fault list holds the ``(record, message)`` that ended the
    text, if any: that record or a ``csv.Error`` at its line.
    """
    plain = _plain_columns(text)
    if plain is not None:
        header, columns = plain
        lines, faults = range(2, len(columns[0]) + 2), []
    else:
        # read the text back as the file was read: a StringIO would hold four bytes per character
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=""))
        # the cells go in one flat list: a list kept per row would make every garbage collection walk them all
        header, cells, lines, faults = None, [], array("l"), []
        try:
            header = next(reader, None)
            k = len(header or ())
            for row in reader:
                if not row or (width and len(row) == 1 and not row[0].strip()):
                    continue
                if width and len(row) != width:
                    faults.append((len(lines), f"line {reader.line_num}: expected {width} fields, got {len(row)}"))
                    break
                cells += row[:k]
                if len(row) < k:
                    cells += [""] * (k - len(row))
                lines.append(reader.line_num)
        except csv.Error as exc:  # such as a field past the size limit
            if header is None:
                raise InputError(f"line {reader.line_num}: {exc}") from None
            faults.append((len(lines), f"line {reader.line_num}: {exc}"))
        columns = [cells[i::k] for i in range(k)]
    return header, dict(zip((name.strip().lower() for name in header or ()), columns)), lines, faults


def _read_table(path) -> str:
    """The whole text of an input file, CSV or JSON, with its line ends as written.

    The file is read once, so a pipe such as ``/dev/stdin`` can be read too.
    A leading byte-order mark, as spreadsheets write, is dropped, and a file
    that is not UTF-8 is an InputError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


def _table(path, required: set[str], expected: str, empty: str):
    """``_split`` of a CSV table, less its header; one lacking a ``required`` column or any record is an InputError."""
    _, columns, lines, faults = _split(_read_table(path))
    missing = required - columns.keys()
    if missing:
        raise InputError(f"{path}: expected columns {expected} (missing {sorted(missing)})")
    if not lines and not faults:
        raise InputError(f"{path}: {empty}")
    return columns, lines, faults


def parse_gains_table(path) -> DeltaSystem:
    """Read a pre-diffed gains table: columns ``id[,score],g,r``, extras ignored.

    Row order defines rank when the score column is absent or has a blank cell.
    """
    columns, lines, faults = _table(path, {"id", "g", "r"}, "id[,score],g,r", "no entities")
    ids = list(map(str.strip, columns["id"]))
    g = _column(columns["g"], "g", lines, faults)
    r = _column(columns["r"], "r", lines, faults, percent=True)
    score = _column(columns["score"], "score", lines, faults, blank=True) if "score" in columns else [None] * len(ids)
    del columns
    return _build(ids, score, g, r, where=lines, found=faults)


def parse_leaders_table(path) -> tuple[tuple[str, float, float], ...]:
    """Read pre-computed leader rows: columns ``[id,]r,w``; returns (id, r, w)."""
    columns, lines, faults = _table(path, {"r", "w"}, "[id,]r,w", "no leader rows")
    r = _column(columns["r"], "r", lines, faults, percent=True)
    w = _column(columns["w"], "w", lines, faults, percent=True)
    # a missing or blank id is the record's number
    ids = [eid.strip() or str(i) for i, eid in enumerate(columns.get("id", [""] * len(lines)), start=1)]
    _check_columns(ids, {"r": r, "w": w}, lines, faults)
    return tuple(zip(ids, r.tolist(), w.tolist()))


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


def _csv_document(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    writer.writerows(zip(*(map(_fmt, column) for column in table.values())))
    return buf.getvalue().rstrip("\n")


def _one_line(text: str) -> str:
    # a quoted CSV id may hold a line break, which would split a markdown line
    return text.replace("\r", "<br>").replace("\n", "<br>")


def _markdown_table(table: dict) -> str:
    def cell(value) -> str:
        return _one_line(_fmt_human(value).replace("|", "\\|"))

    rows = zip(*(map(cell, column) for column in table.values()))
    lines = [map(cell, table), ("---" for _ in table), *rows]
    return "\n".join(f"| {' | '.join(line)} |" for line in lines)


class _Report(NamedTuple):
    """One result in all three formats.

    ``table`` maps each CSV column name to its cells. ``payload()`` builds
    the JSON document, which only a JSON report calls. ``markdown`` lists
    blocks, joined by a blank line; a block is text or a table of columns.
    """

    payload: Callable[[], object]
    table: dict
    markdown: list


def _columns(names: Sequence[str], rows: Sequence[Sequence]) -> dict:
    """Rows as a table of named columns; a table with no rows keeps its names."""
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


def _records(table: dict, keys: Sequence[str] | None = None) -> list[dict]:
    """The rows of a table as JSON objects, keyed by its column names or by ``keys``."""
    keys = keys or list(table)
    return [dict(zip(keys, row)) for row in zip(*table.values())]


def _frontier_report(result: FrontierResult, layers) -> _Report:
    ds = result.system
    led = leader_rows(result)

    def located(ids, at: np.ndarray) -> dict:
        return {"id": ids, "rank": (at + 1).tolist(), "g": ds.g[at].tolist(), "r": ds.r[at].tolist()}

    table = located(result.leaders, result.positions)
    table["w"] = [None] * len(result.positions) if led.w is None else led.w.tolist()
    table["interval"] = list(map("{}..{}".format, led.left.tolist(), led.right.tolist()))
    table["|D(m)|"] = led.dominated.tolist()

    def payload() -> dict:
        leaders = _records(table, ["id", "rank", "g", "r", "w", "interval", "dominated"])
        doc = {"algorithm": result.algorithm, "window": ds.window, "n": ds.n, "leaders": leaders}
        if layers is not None:
            doc["layers"] = [list(layer) for layer in layers]
        return doc

    if layers is None:
        return _Report(payload, table, [table])
    # one scan finds the runner-ups, so no id index over all n is built
    wanted = set().union(*layers[1:])
    where = {ds.ids[i]: i for i in compress(range(ds.n), map(wanted.__contains__, ds.ids))}
    runners = [leader_id for layer in layers[1:] for leader_id in layer]
    try:
        cells = located(runners, np.array([where[leader_id] for leader_id in runners], dtype=np.intp))
    except KeyError as exc:
        raise InputError(f"unknown entity id {exc.args[0]!r}") from None
    depths = [depth for depth, layer in enumerate(layers[1:], start=2) for _ in layer]
    layered = {"layer": [1] * len(result.positions) + depths}
    for name, column in table.items():
        layered[name] = [*column, *cells.get(name, [None] * len(runners))]
    trailer = [f"Layer {depth}: {', '.join(map(_one_line, layer))}" for depth, layer in enumerate(layers[1:], start=2)]
    return _Report(payload, layered, [table, "\n".join(trailer)] if trailer else [table])


def _ranking_report(ranking: LeaderRanking) -> _Report:
    table = _columns(["id", "w", "r"], ranking.entries)
    return _Report(lambda: {"leaders": _records(table)}, table, [table])


def _momentousness_report(score: MomentousnessScore) -> _Report:
    terms = _columns(["id", "r", "w", "r*w"], score.terms)
    total = ("TOTAL", None, None, score.value)
    return _Report(
        lambda: {"value": score.value, "terms": _records(terms)},
        {name: [*cells, last] for (name, cells), last in zip(terms.items(), total)},
        [terms, f"momentousness: {_fmt_human(score.value)}"],
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
        {"system": ["a", "b", "verdict"], "momentousness": [a, b, verdict]},
        [f"momentousness A: {_fmt(a)}\nmomentousness B: {_fmt(b)}\n{line}"],
    )


def _study_report(result: StudyResult) -> _Report:
    cfg = result.config
    percentiles = {_fmt(float(p)): v for p, v in result.percentile_values.items()}
    fitted = {_fmt(float(p)): c for p, c in result.fitted_c.items()}
    bounds = {"1/3": result.bound_values[1 / 3], "1/2": result.bound_values[1 / 2]}
    config = {"n": cfg.n, "trials": cfg.trials, "seed": cfg.seed, "percentiles": list(cfg.percentiles)}
    payload = {"config": config, "percentiles": percentiles, "bounds": bounds, "fitted_c": fitted}
    table = _columns(["percentile", "size", "fitted c"], [(p, v, fitted[p]) for p, v in percentiles.items()])
    bound_line = ", ".join(f"c={k}: {_fmt_human(v)}" for k, v in bounds.items())
    return _Report(
        lambda: payload,
        {"trial": range(len(result.sizes)), "size": result.sizes},
        [f"n={cfg.n} trials={cfg.trials} seed={cfg.seed}", table, f"bound c*(log10(n)+1)^2 -> {bound_line}"],
    )


def _bound_report(check: BoundCheck) -> _Report:
    text = (
        f"frontier size: {check.frontier_size}\n"
        f"moving maxima: {check.moving_maxima_count}\n"
        f"bound holds: {str(check.holds).lower()}"
    )
    return _Report(check._asdict, _columns(check._fields, [check]), [text])


def _system_report(ds: DeltaSystem) -> _Report:
    scores = [None if math.isnan(s) else s for s in ds.score.tolist()]
    table = {"id": ds.ids, "score": scores, "g": ds.g.tolist(), "r": ds.r.tolist()}
    if all(s is None for s in scores):
        del table["score"]

    def payload() -> dict:
        entities = _records({**table, "score": scores, "rank": range(1, ds.n + 1)})
        return {"window": ds.window, "total_score": ds.total_score, "has_scores": ds.has_scores, "entities": entities}

    return _Report(payload, table, [table])


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
        return json.dumps(report.payload(), sort_keys=True, indent=2)
    if fmt == "csv":
        return _csv_document(report.table)
    return "\n\n".join(b if isinstance(b, str) else _markdown_table(b) for b in report.markdown)
