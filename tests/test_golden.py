"""Golden reports: the exact stdout and exit code of the CLI on the fixtures.

Each case runs one command in all three formats and compares the output
byte for byte with ``tests/golden/<name>.<ext>``. Report shapes no command
prints (the system report, a frontier with a single layer) are written
through ``write_report`` directly. A change to any report, including the
last digit of a float, fails here; an intended change rewrites the golden
file from the command's output in the same commit.
"""
from pathlib import Path

import pytest

from momentumrank import frontier_sortscan, parse_gains_table, runners_up, write_report
from momentumrank.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXTENSIONS = {"json": "json", "csv": "csv", "markdown": "md"}


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


# name -> (argv without --format, expected exit code)
COMMANDS = {
    "leaders_abcd": (["leaders", "--gains", _fixture("abcd.csv")], 0),
    "leaders_table2": (["leaders", "--gains", _fixture("table2.csv")], 0),
    "leaders_table4_layers3": (["leaders", "--gains", _fixture("table4.csv"), "--layers", "3"], 0),
    "rank_abcd": (["rank", "--gains", _fixture("abcd.csv")], 0),
    "momentousness_abcd": (["momentousness", "--gains", _fixture("abcd.csv")], 0),
    "momentousness_table8": (["momentousness", "--leaders-csv", _fixture("table8.csv")], 0),
    "compare_table8_table9": (
        ["compare", "--leaders-csv-a", _fixture("table8.csv"), "--leaders-csv-b", _fixture("table9.csv")],
        0,
    ),
    "compare_table9_table8": (
        ["compare", "--leaders-csv-a", _fixture("table9.csv"), "--leaders-csv-b", _fixture("table8.csv")],
        0,
    ),
    "compare_table8_table8": (
        ["compare", "--leaders-csv-a", _fixture("table8.csv"), "--leaders-csv-b", _fixture("table8.csv")],
        0,
    ),
    "verify_bound_table2": (["verify-bound", "--gains", _fixture("table2.csv")], 0),
    "simulate_n2000_t20_s7": (["simulate", "--n", "2000", "--trials", "20", "--seed", "7"], 0),
}


def _frontier_one_layer(name: str):
    ds = parse_gains_table(_fixture(name))
    return frontier_sortscan(ds), {"layers": runners_up(ds, 1)}


# name -> () -> (result, write_report keywords)
REPORTS = {
    "system_abcd": lambda: (parse_gains_table(_fixture("abcd.csv")), {}),
    "system_table2": lambda: (parse_gains_table(_fixture("table2.csv")), {}),
    "frontier_table4_layers1": lambda: _frontier_one_layer("table4.csv"),
}

CASES = [(name, fmt) for name in COMMANDS for fmt in EXTENSIONS]
REPORT_CASES = [(name, fmt) for name in REPORTS for fmt in EXTENSIONS]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{EXTENSIONS[fmt]}"


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_report_matches_golden(capsys, name, fmt):
    argv, expected_code = COMMANDS[name]
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == golden_path(name, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, fmt", REPORT_CASES, ids=[f"{n}-{f}" for n, f in REPORT_CASES])
def test_library_report_matches_golden(name, fmt):
    result, keywords = REPORTS[name]()
    assert write_report(result, fmt, **keywords) == golden_path(name, fmt).read_text(encoding="utf-8")


def test_every_golden_file_is_checked():
    expected = {golden_path(name, fmt).name for name, fmt in CASES + REPORT_CASES}
    assert {p.name for p in GOLDEN.iterdir()} == expected
