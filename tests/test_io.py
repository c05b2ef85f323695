import csv
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentumrank import io as mio
from momentumrank import (
    InputError,
    StudyConfig,
    build_delta_system,
    frontier_sortscan,
    parse_gains_table,
    parse_leaders_table,
    parse_snapshot,
    rank_leaders,
    run_study,
    verify_bound,
    write_report,
)

from util import random_pairs, records_from_pairs, system_bits


class TestParseSnapshot:
    def test_csv(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,100\nB,50\n")
        snap = parse_snapshot(p)
        assert snap.scores == {"A": 100.0, "B": 50.0}

    def test_json(self, tmp_path):
        p = tmp_path / "snap.json"
        p.write_text(json.dumps({"timestamp": "2021-05-01", "scores": {"A": 1.5}}))
        snap = parse_snapshot(p)
        assert snap.timestamp == "2021-05-01"
        assert snap.scores == {"A": 1.5}

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "10**400"])
    def test_json_non_finite_score(self, tmp_path, literal):
        p = tmp_path / "snap.json"
        p.write_text('{"scores": {"A": 1.0, "B": %s}}' % literal)
        with pytest.raises(InputError, match="non-finite score for 'B'"):
            parse_snapshot(p)

    def test_json_duplicate_id_names_id(self, tmp_path):
        p = tmp_path / "snap.json"
        p.write_text('{"scores": {"a": 1, "a": 2, "b": 3}}')
        with pytest.raises(InputError) as excinfo:
            parse_snapshot(p)
        assert str(excinfo.value) == f"{p}: duplicate entity id 'a'"

    @pytest.mark.parametrize("eid", ["", " "], ids=["empty", "blank"])
    def test_json_empty_id(self, tmp_path, eid):
        p = tmp_path / "snap.json"
        p.write_text(json.dumps({"scores": {"a": 1, eid: 2}}))
        with pytest.raises(InputError, match="empty entity id"):
            parse_snapshot(p)

    def test_json_integer_past_digit_limit(self, tmp_path):
        # int() refuses more than 4300 digits with a ValueError, not a JSONDecodeError;
        # nesting past the recursion limit raises a RecursionError
        p = tmp_path / "snap.json"
        for value in ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000]:
            p.write_text('{"scores": {"A": %s}}' % value)
            with pytest.raises(InputError, match="invalid JSON"):
                parse_snapshot(p)

    def test_duplicate_id_names_id_and_line(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,100\nA,50\n")
        with pytest.raises(InputError, match=r"line 3.*'A'"):
            parse_snapshot(p)

    def test_negative_score(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,-1\n")
        with pytest.raises(InputError, match="negative"):
            parse_snapshot(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("")
        with pytest.raises(InputError, match="no entities"):
            parse_snapshot(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\n")
        with pytest.raises(InputError, match="no entities"):
            parse_snapshot(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,1\nB\n")
        with pytest.raises(InputError, match="line 3"):
            parse_snapshot(p)

    def test_unparseable_score_reports_line(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,ten\n")
        with pytest.raises(InputError, match="line 2"):
            parse_snapshot(p)

    def test_first_faulty_line_wins(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("id,score\nA,1\nA,2\nB,x\n")
        with pytest.raises(InputError, match=r"^line 3: duplicate entity id 'A'$"):
            parse_snapshot(p)

    def test_line_numbers_count_lines_inside_quoted_ids(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text('id,score\n"a\nb",1\nc,x\n')
        with pytest.raises(InputError, match=r"^line 4, column score"):
            parse_snapshot(p)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("entity,value\nA,1\n")
        with pytest.raises(InputError, match="header"):
            parse_snapshot(p)

    def test_field_past_csv_limit_names_line(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text(f"id,score\nA,1\n{'b' * 140_000},2\n")
        with pytest.raises(InputError) as excinfo:
            parse_snapshot(p)
        assert str(excinfo.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"


class TestParseGainsTable:
    def test_table2_shape_and_values(self, table2):
        assert table2.n == 28
        anuel = table2.by_rank(4)
        assert anuel.g == 6301433.0  # thousands separators normalized
        assert anuel.r == 0.332

    def test_percent_normalization_matches_division(self, table2):
        assert table2.by_rank(3).r == 4.50 / 100

    def test_negative_percent(self, fixtures_dir):
        ds = parse_gains_table(fixtures_dir / "table7.csv")
        assert ds.by_id("Qi Baishi").r == -2.18 / 100
        assert ds.by_id("Qi Baishi").r < 0

    def test_scientific_notation_scores(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,score,g,r\nMSFT,2.49E+12,5.5e10,2.24%\n")
        ds = parse_gains_table(p)
        assert ds.by_id("MSFT").score == 2.49e12

    def test_extra_columns_ignored(self, fixtures_dir):
        ds = parse_gains_table(fixtures_dir / "table6.csv")  # carries a name column
        assert ds.n == 20
        assert ds.by_id("QS").g == 1756.0

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g\nA,1\n")
        with pytest.raises(InputError, match="missing"):
            parse_gains_table(p)

    def test_unparseable_number_reports_line_and_column(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g,r\nA,1,0.1\nB,oops,0.2\n")
        with pytest.raises(InputError, match=r"line 3, column g"):
            parse_gains_table(p)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999", "nan%"])
    def test_non_finite_number_reports_line_and_column(self, tmp_path, text):
        p = tmp_path / "g.csv"
        p.write_text(f"id,g,r\nA,1,0.1\nB,2,{text}\n")
        with pytest.raises(InputError, match=r"line 3, column r"):
            parse_gains_table(p)

    def test_header_only_gives_empty_system(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g,r\n")
        assert parse_gains_table(p).n == 0

    def test_blank_score_cells_mean_missing(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,score,g,r\nA,10,1,0.1\nB,,2,0.2\n")
        ds = parse_gains_table(p)
        assert not ds.has_scores
        assert ds.by_id("B").score is None

    def test_duplicate_id_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g,r\na,1,0.1\nb,2,0.2\na,3,0.3\n")
        with pytest.raises(InputError, match=r"line 4.*'a'"):
            parse_gains_table(p)

    def test_negative_score_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,score,g,r\na,5,1,0.1\nb,-2,2,0.2\n")
        with pytest.raises(InputError, match=r"line 3: negative score for 'b'"):
            parse_gains_table(p)

    def test_first_faulty_line_wins(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g,r\na,1,0.1\na,2,0.2\nb,oops,0.3\n")
        with pytest.raises(InputError, match=r"line 3: duplicate"):
            parse_gains_table(p)

    def test_row_semantics(self, tmp_path):
        # blank lines skipped, extra cells ignored, a repeated name reads its last column
        p = tmp_path / "g.csv"
        p.write_text("id,g,r,G\n\na,1,0.1,7,extra\n\nb,2,0.2,8\n")
        ds = parse_gains_table(p)
        assert ds.ids == ("a", "b")
        assert ds.g.tolist() == [7.0, 8.0]

    def test_short_row_reads_missing_fields_as_empty(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,g,r\na,1,0.1\nb,2\n")
        with pytest.raises(InputError, match=r"^line 3, column r: cannot parse number ''$"):
            parse_gains_table(p)

    def test_field_past_csv_limit_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(f"id,g,r\na,1,0.1\n{'b' * 140_000},2,0.2\n")
        with pytest.raises(InputError) as excinfo:
            parse_gains_table(p)
        assert str(excinfo.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"

    @given(x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_percent_equals_hundredth(self, tmp_path_factory, x):
        p = tmp_path_factory.mktemp("pct") / "g.csv"
        p.write_text(f"id,g,r\nA,1,{x!r}%\n")
        assert parse_gains_table(p).by_id("A").r == x / 100


class TestParseLeadersTable:
    def test_reads_percent_columns(self, fixtures_dir):
        rows = parse_leaders_table(fixtures_dir / "table8.csv")
        assert rows == (("k1", 0.2, 0.1), ("k2", 0.4, 0.6), ("k3", 0.8, 0.3))

    def test_id_column_optional(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("r,w\n0.5,0.1\n0.25,0.2\n")
        assert parse_leaders_table(p) == (("1", 0.5, 0.1), ("2", 0.25, 0.2))

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("r,w\n")
        with pytest.raises(InputError, match="no leader rows"):
            parse_leaders_table(p)

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("id,weight\nA,0.5\n")
        with pytest.raises(InputError, match="missing"):
            parse_leaders_table(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,r,w\na,0.1,0.5\na,0.2,0.7\n", "line 3: duplicate entity id 'a'"),
            ("id,r,w\na,0.1,0.5\nb,0.2,-50%\n", "line 3: negative w for 'b': -0.5"),
            ("id,r,w\n,0.1,0.5\n1,0.2,0.7\n", "line 3: duplicate entity id '1'"),  # repeats a row number
            ("id,r,w\na,0.1,0.5\na,0.2,0.7\nb,x,0.1\n", "line 3: duplicate entity id 'a'"),
        ],
        ids=["duplicate", "negative w", "default id", "first faulty line"],
    )
    def test_record_rules_name_the_line(self, tmp_path, text, message):
        p = tmp_path / "l.csv"
        p.write_text(text)
        with pytest.raises(InputError) as excinfo:
            parse_leaders_table(p)
        assert str(excinfo.value) == message


HEADERS = {"gains": ["id", "score", "g", "r"], "snapshot": ["id", "score"]}
NUMBERS = {"gains": ("score", "g", "r"), "snapshot": ("score",)}
ODD_IDS = ["e0", "", "  ", " e1 ", '"e,9"', '"e""q"', '"e5"']
ODD_NUMBERS = ["4.6%", '"1,234"', '"0.25"', " 7 ", "-0.0", "1_0", "nan", "inf", "-inf", "1e999", "", " ", "x", "-1"]
LINE_FAULTS = ["blank line", "whitespace line", "short row", "long row", "swap", "lone cr", "long field", "not utf-8"]


@st.composite
def csv_texts(draw, kind):
    """A CSV text of one kind: plain and valid, then up to two odd cells and two line faults."""
    header = list(HEADERS[kind])
    if kind == "gains":
        header = draw(st.permutations(header))
        if draw(st.booleans()):
            header.remove("score")
        extra = draw(st.sampled_from([None, "name", *header]))  # a repeated name reads its last column
        if extra:
            header.insert(draw(st.integers(0, len(header))), extra)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(header) - 1))
            header[i] = f" {header[i].upper()}"
    names = [name.strip().lower() for name in header]
    n = draw(st.integers(0, 5))
    rows = [
        [
            f"e{i}" if name == "id" else "n" if name == "name" else repr(draw(st.floats(-1e6, 1e6)))
            for name in names
        ]
        for i in range(n)
    ]
    for row in rows:  # a score is not negative
        for j, name in enumerate(names):
            if name == "score":
                row[j] = row[j].lstrip("-")
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(names) - 1))
        rows[i][j] = draw(st.sampled_from(ODD_IDS if names[j] == "id" else ODD_NUMBERS))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * len(lines)
    for fault in draw(st.lists(st.sampled_from(LINE_FAULTS), max_size=2)):
        at = draw(st.integers(1, len(lines)))  # a data line, or the place after the last
        if fault == "blank line":
            lines.insert(at, "")
            ends.insert(at, end)
        elif fault == "whitespace line":
            lines.insert(at, "  ")
            ends.insert(at, end)
        elif at < len(lines) and fault == "short row":
            lines[at] = lines[at].rpartition(",")[0]
        elif at < len(lines) and fault == "long row":
            lines[at] += ",7"
        elif at < len(lines) - 1 and fault == "swap":
            # one line gains a field and the next loses one: the total count stays right
            lines[at] += "," + lines[at + 1].rpartition(",")[2]
            lines[at + 1] = lines[at + 1].rpartition(",")[0]
        elif fault == "lone cr":  # csv ends a record at a lone '\r', also inside a line
            lines[at - 1] = lines[at - 1].replace(",", "\r,", 1)
        elif fault == "long field":
            lines[at - 1] = "9" * csv.field_size_limit() + lines[at - 1]
        elif fault == "not utf-8":
            lines[at - 1] += "\udcff"  # written with surrogateescape, this is the byte 0xff
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + line_end for line, line_end in zip(lines, ends))


def _fingerprint(result) -> object:
    if isinstance(result, tuple):  # leader rows
        return [(eid, r.hex(), w.hex()) for eid, r, w in result]
    if hasattr(result, "scores"):  # a snapshot
        return result.timestamp, [(eid, score.hex()) for eid, score in result.scores.items()]
    return system_bits(result)


def _outcome(read, path):
    try:
        return _fingerprint(read(path))
    except InputError as exc:
        return str(exc)


def _snapshot_rows(path):
    return mio._snapshot_from_csv(path.read_text(encoding="utf-8"), path)


def _gains_rows(path):
    return mio._gains_from_rows(mio._read_table(path), path)


class TestColumnarReaders:
    """The column splitter must read every file exactly as the row reader does, or leave it to it."""

    READERS = {
        "gains": (parse_gains_table, _gains_rows),
        "snapshot": (parse_snapshot, _snapshot_rows),
    }

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(HEADERS)))
    def test_same_result_or_message_as_the_row_reader(self, tmp_path_factory, data, kind):
        text = data.draw(csv_texts(kind), label="text")
        # parse_snapshot decodes the text before it picks a reader
        assume(kind != "snapshot" or "\udcff" not in text)
        p = tmp_path_factory.mktemp("plain") / f"{kind}.csv"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        read, read_rows = self.READERS[kind]
        assert _outcome(read, p) == _outcome(read_rows, p)

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("gains", "id,g,r\ne0,0.1,0.2,0.3\ne1,0.4\n"),  # the total comma count is right, the lines are not
            ("gains", "id,g,r\ne0\r,0.1,0.2\n"),  # csv ends the record at the '\r'
            ("gains", 'id,g,r\n"e0",1,0.1\n'),
            ("snapshot", 'id,score\n"a""b",1\n'),
            ("snapshot", f"id,score\n{'a' * (csv.field_size_limit() + 1)},1\n"),
            ("gains", "id,g,r\n\ne0,1,0.1\n"),
            ("snapshot", "id\n\na\n"),  # one column: a blank line would read as an empty field
            ("gains", "id,score,g,r\ne0,1,2,4.6%\ne1,1,2,0.1\n"),  # refused before the split
            ("gains", "id,score,g,r\ne0,,2,0.1\ne1,1,2,0.1\n"),
        ],
        ids=[
            "per-line count", "lone cr", "quoted", "escaped quote", "field limit", "blank line", "one column",
            "first row percent", "first row blank score",
        ],
    )
    def test_refused_layouts(self, tmp_path, kind, text):
        assert mio._plain_columns(text, NUMBERS[kind]) is None
        p = tmp_path / f"{kind}.csv"
        p.write_bytes(text.encode())
        read, read_rows = self.READERS[kind]
        assert _outcome(read, p) == _outcome(read_rows, p)

    def test_plain_files_never_reach_the_row_reader(self, tmp_path, monkeypatch):
        # benchmark-shaped input: ids in order, shortest-repr floats, no quoting
        rng = np.random.default_rng(5)
        n = 2_000
        ids = [f"e{i:06d}" for i in range(n)]
        score, g, r = rng.random(n) * 1e3, rng.normal(0, 1e2, n), rng.normal(0, 1, n)
        files = {
            "gains": ("id,score,g,r", zip(ids, score.tolist(), g.tolist(), r.tolist())),
            "snapshot": ("id,score", zip(ids, score.tolist())),
        }
        expected = {}
        for kind, (header, rows) in files.items():
            p = tmp_path / f"{kind}.csv"
            p.write_text(header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
            expected[kind] = (p, _outcome(self.READERS[kind][1], p))

        def row_reader_used(*args, **kwargs):
            raise AssertionError("a plain CSV file went through the row reader")

        monkeypatch.setattr(mio, "_number", row_reader_used)
        for kind, (p, rows_outcome) in expected.items():
            assert _outcome(self.READERS[kind][0], p) == rows_outcome

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("read, name", [(parse_gains_table, "table2.csv"), (parse_leaders_table, "table8.csv")])
    def test_a_pipe_is_read_once(self, fixtures_dir, read, name):
        # the splitter refuses the quoted gains table, and the row reader must read the same text:
        # opening the pipe a second time would find it empty
        out, into = os.pipe()
        try:
            os.write(into, (fixtures_dir / name).read_bytes())  # smaller than a pipe's buffer
            os.close(into)
            assert _outcome(read, f"/dev/fd/{out}") == _outcome(read, fixtures_dir / name)
        finally:
            os.close(out)


class TestRoundTrip:
    @pytest.mark.parametrize("with_scores", [True, False])
    def test_gains_csv_round_trips_exactly(self, tmp_path, with_scores):
        rng = np.random.default_rng(83)
        g, r = random_pairs(rng, 40, "negative")
        scores = rng.random(40) * 1e9 if with_scores else None
        ds = build_delta_system(records_from_pairs(g, r, scores))
        p = tmp_path / "out.csv"
        p.write_text(write_report(ds, "csv") + "\n")
        back = parse_gains_table(p)
        assert [(e.id, e.score, e.g, e.r) for e in back.entities] == [
            (e.id, e.score, e.g, e.r) for e in ds.entities
        ]

    def test_fixture_survives_rewrite(self, table2, tmp_path):
        p = tmp_path / "t2.csv"
        p.write_text(write_report(table2, "csv") + "\n")
        back = parse_gains_table(p)
        assert [(e.id, e.g, e.r) for e in back.entities] == [
            (e.id, e.g, e.r) for e in table2.entities
        ]


class TestWriteReport:
    def test_markdown_leader_table_has_one_row_per_leader(self, table2):
        doc = write_report(frontier_sortscan(table2), "markdown")
        lines = doc.splitlines()
        assert lines[0].startswith("| id | rank | g | r | w | interval |")
        assert len(lines) == 2 + 3  # header, rule, three leaders

    def test_serialization_is_deterministic(self, table2):
        result = frontier_sortscan(table2)
        assert write_report(result, "json") == write_report(result, "json")
        study = run_study(StudyConfig(n=500, trials=10, seed=3))
        assert write_report(study, "json") == write_report(study, "json")

    def test_frontier_json_fields(self, abcd):
        payload = json.loads(write_report(frontier_sortscan(abcd), "json"))
        assert payload["n"] == 4
        ids = [row["id"] for row in payload["leaders"]]
        assert ids == ["A", "B", "C"]
        assert payload["leaders"][0]["w"] == 0.2

    def test_frontier_csv_interval_column(self, table2):
        doc = write_report(frontier_sortscan(table2), "csv")
        rows = doc.splitlines()
        assert rows[0] == "id,rank,g,r,w,interval,|D(m)|"
        assert rows[1].endswith("1..21,24")

    def test_ranking_report(self, abcd):
        doc = write_report(rank_leaders(abcd), "csv")
        assert doc.splitlines()[1].startswith("C,0.2,0.5")

    def test_study_json_summary(self):
        study = run_study(StudyConfig(n=500, trials=10, seed=3))
        payload = json.loads(write_report(study, "json"))
        assert set(payload) == {"config", "percentiles", "bounds", "fitted_c"}
        assert payload["config"]["n"] == 500
        assert set(payload["bounds"]) == {"1/3", "1/2"}

    def test_study_csv_is_trial_size(self):
        study = run_study(StudyConfig(n=500, trials=4, seed=3))
        rows = write_report(study, "csv").splitlines()
        assert rows[0] == "trial,size"
        assert len(rows) == 5

    def test_bound_report(self, table2):
        payload = json.loads(write_report(verify_bound(table2), "json"))
        assert payload == {"frontier_size": 3, "moving_maxima_count": 3, "holds": True}

    def test_momentousness_formats(self, abcd):
        from momentumrank import momentousness

        score = momentousness(abcd)
        markdown = write_report(score, "markdown")
        assert markdown.splitlines()[0] == "| id | r | w | r*w |"
        assert markdown.splitlines()[-1].startswith("momentousness: ")
        rows = write_report(score, "csv").splitlines()
        assert rows[0] == "id,r,w,r*w"
        assert rows[-1].startswith("TOTAL")

    def test_comparison_formats(self, abcd):
        from momentumrank import compare_systems

        comparison = compare_systems(abcd, abcd)
        assert json.loads(write_report(comparison, "json"))["verdict"] == "equal"
        assert "equally momentous" in write_report(comparison, "markdown")

    def test_system_reports(self, abcd):
        payload = json.loads(write_report(abcd, "json"))
        assert payload["total_score"] == 200.0
        assert [e["id"] for e in payload["entities"]] == ["A", "B", "D", "C"]
        markdown = write_report(abcd, "markdown")
        assert markdown.splitlines()[0] == "| id | score | g | r |"

    def test_study_markdown_mentions_bounds(self):
        study = run_study(StudyConfig(n=500, trials=5, seed=3))
        doc = write_report(study, "markdown")
        assert "bound c*(log10(n)+1)^2" in doc
        assert "n=500 trials=5 seed=3" in doc

    def test_unknown_format_rejected(self, table2):
        with pytest.raises(InputError, match="format"):
            write_report(frontier_sortscan(table2), "yaml")

    def test_unknown_result_rejected(self):
        with pytest.raises(InputError, match="no report writer"):
            write_report(object(), "json")
