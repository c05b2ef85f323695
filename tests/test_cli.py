import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentumrank import build_delta_system, leader_weight
from momentumrank.cli import main

from util import STYLES, random_pairs

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_leaders_from_gains_table(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "leaders", "--gains", str(fixtures_dir / "table2.csv"))
    assert code == 0
    assert err == ""
    for name in ("Anuel AA", "Big Sean", "Fredo Bang"):
        assert name in out


def test_leaders_json_ranks(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "leaders", "--gains", str(fixtures_dir / "table2.csv"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["rank"] for row in payload["leaders"]] == [4, 22, 28]


def test_leaders_with_runner_up_layers(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "leaders", "--gains", str(fixtures_dir / "table4.csv"), "--layers", "2"
    )
    assert code == 0
    assert "El Chombo" in out
    layer2 = next(line for line in out.splitlines() if line.startswith("Layer 2:"))
    for name in ("Luis Fonsi", "Shape of You", "PSY", "Perfect"):
        assert name in layer2


def test_conflicting_inputs_exit_2(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys,
        "leaders",
        "--gains", str(fixtures_dir / "table2.csv"),
        "--before", "x.csv",
        "--after", "y.csv",
    )
    assert code == 2
    assert out == ""
    assert "conflicting" in err


def test_missing_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "leaders")
    assert code == 2
    assert "required" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "leaders", "--gains", "does-not-exist.csv")
    assert code == 2
    assert "does-not-exist" in err


def test_rank_orders_by_weight_then_relative_gain(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "rank", "--gains", str(fixtures_dir / "abcd.csv"), "--format", "csv"
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["C", "B", "A"]


def test_rank_without_scores_exits_2(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "rank", "--gains", str(fixtures_dir / "table2.csv"))
    assert code == 2
    assert "scores" in err


def test_momentousness_from_leader_rows(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "momentousness",
        "--leaders-csv", str(fixtures_dir / "table8.csv"),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.50, abs=1e-9)


def test_momentousness_input_conflict(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys,
        "momentousness",
        "--leaders-csv", str(fixtures_dir / "table8.csv"),
        "--gains", str(fixtures_dir / "abcd.csv"),
    )
    assert code == 2
    assert "conflicting" in err


def test_compare_reports_more_momentous_system(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--leaders-csv-a", str(fixtures_dir / "table8.csv"),
        "--leaders-csv-b", str(fixtures_dir / "table9.csv"),
    )
    assert code == 0
    assert "B more momentous (2.125 > 0.5)" in out


def test_compare_missing_side_exits_2(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "compare", "--leaders-csv-a", str(fixtures_dir / "table8.csv")
    )
    assert code == 2
    assert "--gains-b" in err or "leaders-csv-b" in err


def test_verify_bound_on_table2(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys,
        "verify-bound",
        "--gains", str(fixtures_dir / "table2.csv"),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"frontier_size": 3, "moving_maxima_count": 3, "holds": True}


def test_simulate_rejects_invalid_n(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "0")
    assert code == 2
    assert "n must" in err


def test_simulate_rejects_bad_percentiles(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "100", "--percentiles", "95,max")
    assert code == 2
    assert "percentiles" in err


def test_duplicate_id_in_gains_table_exits_2_with_line(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,g,r\na,1,0.1\nb,2,0.2\na,3,0.3\n")
    code, out, err = run_cli(capsys, "leaders", "--gains", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 4: duplicate entity id 'a'\n"


def test_simulate_deterministic_output(capsys):
    args = ["simulate", "--n", "1000", "--trials", "25", "--seed", "7", "--format", "json"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["seed"] == 7


def test_snapshot_flow_warns_on_stderr_only(capsys, tmp_path):
    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    before.write_text("id,score\nA,100\nB,0\n")
    after.write_text("id,score\nA,110\nB,10\n")
    code, out, err = run_cli(
        capsys,
        "leaders",
        "--before", str(before),
        "--after", str(after),
        "--mode", "ratio",
        "--format", "json",
    )
    assert code == 0
    assert "warning" in err and "'B'" in err
    payload = json.loads(out)  # stdout stays machine-consumable
    assert [row["id"] for row in payload["leaders"]] == ["A"]


def test_snapshot_exclusion_warnings_collapse_after_ten(capsys, tmp_path):
    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    before.write_text("id,score\nA,100\n" + "".join(f"gone{i:02d},5\n" for i in range(25)))
    after.write_text("id,score\nA,110\n")
    code, out, err = run_cli(capsys, "leaders", "--before", str(before), "--after", str(after))
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 11
    assert all("only in the before snapshot" in line for line in lines[:10])
    assert lines[-1] == "warning: 15 more entities excluded"


def test_share_delta_mode_flag(capsys, tmp_path):
    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    before.write_text("id,score\nA,100\nB,100\n")
    after.write_text("id,score\nA,150\nB,50\n")
    code, out, _ = run_cli(
        capsys,
        "leaders",
        "--before", str(before),
        "--after", str(after),
        "--mode", "share-delta",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["id"] for row in payload["leaders"]] == ["A"]


@pytest.mark.parametrize("style", STYLES)
def test_w_identical_across_leaders_rank_and_leader_weight(capsys, tmp_path, style):
    rng = np.random.default_rng([61, STYLES.index(style)])
    for trial in range(8):
        g, r = random_pairs(rng, 300, style)
        scores = rng.random(300) * 1e6
        records = [(f"e{i:03d}", float(scores[i]), float(g[i]), float(r[i])) for i in range(300)]
        path = tmp_path / f"{trial}.csv"
        path.write_text("id,score,g,r\n" + "".join(f"{i},{s!r},{a!r},{b!r}\n" for i, s, a, b in records))
        ds = build_delta_system(records)
        _, out, _ = run_cli(capsys, "leaders", "--gains", str(path), "--format", "json")
        from_leaders = {row["id"]: row["w"] for row in json.loads(out)["leaders"]}
        _, out, _ = run_cli(capsys, "rank", "--gains", str(path), "--format", "json")
        from_rank = {row["id"]: row["w"] for row in json.loads(out)["leaders"]}
        from_api = {m: leader_weight(ds, m) for m in from_leaders}
        assert from_leaders == from_rank == from_api


def test_nan_in_gains_table_exits_2_with_line(capsys, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("id,g,r\na,10,1.0\nb,nan,0.5\nc,5,2.0\nd,3,nan\ne,1,3.0\n")
    code, out, err = run_cli(capsys, "leaders", "--gains", str(path))
    assert code == 2
    assert out == ""
    assert "line 3" in err


def test_nan_in_json_snapshot_exits_2(capsys, tmp_path):
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    before.write_text('{"scores": {"A": 100, "B": NaN}}')
    after.write_text('{"scores": {"A": 110, "B": 10}}')
    code, out, err = run_cli(capsys, "rank", "--before", str(before), "--after", str(after))
    assert code == 2
    assert out == ""
    assert "non-finite score for 'B'" in err


def test_duplicate_id_in_json_snapshot_exits_2(capsys, tmp_path):
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    before.write_text('{"scores": {"a": 1, "a": 2, "b": 3}}')
    after.write_text('{"scores": {"a": 2, "b": 4}}')
    code, out, err = run_cli(capsys, "leaders", "--before", str(before), "--after", str(after))
    assert (code, out, err) == (2, "", f"error: {before}: duplicate entity id 'a'\n")


def test_json_snapshot_value_fault_names_file(capsys, tmp_path):
    before = tmp_path / "B.json"
    after = tmp_path / "A.json"
    before.write_text('{"scores": {"a": 1, "b": -3}}')
    after.write_text('{"scores": {"a": 2, "b": 4}}')
    code, out, err = run_cli(capsys, "leaders", "--before", str(before), "--after", str(after))
    assert (code, out, err) == (2, "", f"error: {before}: negative score for 'b': -3.0\n")


# One fault injected into an otherwise valid input. CSV faults at a data row
# name its line. A missing column is a header fault, a file that is not
# UTF-8 cannot be read at all, and JSON has no lines: these name the file.
KINDS = ("gains csv", "snapshot csv", "snapshot json", "leaders csv")
FAULTS = (
    "duplicate id",
    "negative score",  # the w column of a leader table
    "nan",
    "inf",
    "1e999",
    "huge integer",
    "empty id",
    "field count",
    "missing column",
    "not utf-8",
    "deep nesting",
    "long field",
)
BAD_NUMBER = {"nan": "nan", "inf": "inf", "1e999": "1e999", "huge integer": "1" + "0" * 400, "negative score": "-1"}
BAD_JSON_NUMBER = {**BAD_NUMBER, "nan": "NaN", "inf": "Infinity"}
NOT_UTF8 = "\udcff"  # written with surrogateescape, this is the single byte 0xff


def _csv_with_fault(header, rows, fault, k, column):
    if fault == "missing column":
        drop = header.index(column)
        header = [h for i, h in enumerate(header) if i != drop]
        rows = [[c for i, c in enumerate(row) if i != drop] for row in rows]
    elif fault == "duplicate id":
        rows[k][0] = rows[0][0]
    elif fault == "empty id":
        rows[k][0] = ""
    elif fault == "field count":
        rows[k] = rows[k][:2] if len(header) > 2 else [*rows[k], "7"]
    elif fault == "not utf-8":
        rows[k][0] += NOT_UTF8
    elif fault == "long field":
        rows[k][0] = "x" * 140_000  # past the csv module's field size limit
    elif fault is not None:
        rows[k][header.index(column)] = BAD_NUMBER[fault]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _json_with_fault(ids, scores, fault, k):
    pairs = [[json.dumps(eid), repr(score)] for eid, score in zip(ids, scores)]
    key = "scores"
    if fault == "missing column":
        key = "score"
    elif fault == "duplicate id":
        pairs[k][0] = pairs[0][0]
    elif fault == "empty id":
        pairs[k][0] = '""'
    elif fault == "field count":
        pairs[k][1] = f"[{pairs[k][1]}, 1]"
    elif fault == "not utf-8":
        pairs[k][0] = f'"{ids[k]}{NOT_UTF8}"'
    elif fault == "deep nesting":
        pairs[k][1] = "[" * 100_000 + "]" * 100_000
    elif fault is not None:
        pairs[k][1] = BAD_JSON_NUMBER[fault]
    return '{"timestamp": "t", "%s": {%s}}' % (key, ", ".join(f"{a}: {b}" for a, b in pairs))


@settings(max_examples=250, deadline=None)
@given(kind=st.sampled_from(KINDS), fault=st.sampled_from(FAULTS), n=st.integers(2, 6), data=st.data())
def test_single_injected_fault_exits_2(tmp_path_factory, kind, fault, n, data):
    # only JSON nests, only CSV has a field size limit; a leader row with an empty id takes its row number
    assume(fault != "deep nesting" or kind == "snapshot json")
    assume(fault != "long field" or kind != "snapshot json")
    assume(fault != "empty id" or kind != "leaders csv")
    k = data.draw(st.integers(1, n - 1), label="row")
    ids = [f"e{i}" for i in range(n)]
    before = [100.0 + i for i in range(n)]
    after = [150.0 - 7 * i for i in range(n)]
    workdir = tmp_path_factory.mktemp("fault")
    if kind in ("gains csv", "leaders csv"):
        # the score column is optional, and only a score or a w must not be negative
        if kind == "gains csv":
            header, optional, required, non_negative = ["id", "score", "g", "r"], ["score"], ["id", "g", "r"], "score"
            rows = [[eid, repr(b), repr(a - b), repr(a / b - 1)] for eid, b, a in zip(ids, before, after)]
            argv = ["leaders", "--gains"]
        else:
            header, optional, required, non_negative = ["id", "r", "w"], [], ["r", "w"], "w"
            rows = [[eid, repr(a / b - 1), repr(b / 1000)] for eid, b, a in zip(ids, before, after)]
            argv = ["momentousness", "--leaders-csv"]
        columns = required if fault == "missing column" else optional + required[-2:]
        column = data.draw(st.sampled_from(columns), label="column")
        if fault == "negative score":
            column = non_negative
        faulty = workdir / "table.csv"
        faulty.write_text(_csv_with_fault(header, rows, fault, k, column), encoding="utf-8", errors="surrogateescape")
        argv.append(str(faulty))
    else:
        side = data.draw(st.sampled_from(["before", "after"]), label="side")
        paths = {}
        for name, scores in (("before", before), ("after", after)):
            if kind == "snapshot json":
                text = _json_with_fault(ids, scores, fault if name == side else None, k)
                paths[name] = workdir / f"{name}.json"
            else:
                rows = [[eid, repr(score)] for eid, score in zip(ids, scores)]
                text = _csv_with_fault(["id", "score"], rows, fault if name == side else None, k, "score")
                paths[name] = workdir / f"{name}.csv"
            paths[name].write_text(text, encoding="utf-8", errors="surrogateescape")
        faulty = paths[side]
        argv = ["rank", "--before", str(paths["before"]), "--after", str(paths["after"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), err.getvalue()
    assert err.getvalue().startswith("error: ")
    if kind == "snapshot json" or fault in ("missing column", "not utf-8"):
        assert err.getvalue().startswith(f"error: {faulty}: "), err.getvalue()
    else:
        assert re.search(rf"\bline {k + 2}\b", err.getvalue()), err.getvalue()


def _readme_cli_lines() -> list[str]:
    lines, in_block = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("momentumrank "):
            lines.append(line)
    return lines


def test_readme_cli_examples_run(capsys, monkeypatch):
    # a flag removed from the CLI must not linger in the documented examples
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    monkeypatch.chdir(README.parent)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["unheard-of"])
    assert excinfo.value.code == 2


def test_debug_flag_reraises_internal_errors(capsys, monkeypatch, fixtures_dir):
    def broken(args):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr("momentumrank.cli.cmd_rank", broken)
    argv = ["rank", "--gains", str(fixtures_dir / "table2.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "internal error: kernel exploded\n")
    with pytest.raises(RuntimeError, match="kernel exploded"):
        main(["--debug", *argv])


def test_debug_flag_keeps_input_errors_at_exit_2(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "--debug", "leaders", "--gains", str(fixtures_dir / "missing.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
