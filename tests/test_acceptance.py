"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from momentumrank import (
    StudyConfig,
    build_delta_system,
    compare_systems,
    frontier_bruteforce,
    frontier_sortscan,
    momentousness,
    parse_gains_table,
    parse_leaders_table,
    rank_leaders,
    run_study,
    runners_up,
    verify_bound,
)
from momentumrank.simulation import bound_estimate

from util import random_pairs, records_from_pairs

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def _ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS: {message}")


def _ranks(ds, ids):
    return sorted(ds.by_id(i).rank for i in ids)


def test_criterion_01_table2_frontier_and_speed():
    ds = parse_gains_table(FIXTURES / "table2.csv")
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        result = frontier_sortscan(ds)
        best = min(best, time.perf_counter() - start)
    assert _ranks(ds, result.leaders) == [4, 22, 28]
    assert ds.by_rank(4).id.startswith("Anuel AA")
    assert ds.by_rank(22).id.startswith("Big Sean")
    assert ds.by_rank(28).id.startswith("Fredo Bang")
    assert best < 0.010
    _ok(1, f"table2 frontier = ranks {{4, 22, 28}} in {best * 1e3:.2f} ms")


def test_criterion_02_table4_layers():
    ds = parse_gains_table(FIXTURES / "table4.csv")
    layers = runners_up(ds, 2)
    assert [ds.by_id(i).rank for i in layers[0]] == [6]
    assert layers[0][0].startswith("El Chombo")
    assert _ranks(ds, layers[1]) == [1, 2, 5, 20]
    second = set(layers[1])
    assert any(i.startswith("Luis Fonsi") for i in second)
    assert any("Shape of You" in i for i in second)
    assert any(i.startswith("PSY") for i in second)
    assert any("Perfect" in i for i in second)
    _ok(2, "table4 frontier = {El Chombo}; layer 2 = ranks {1, 2, 5, 20}")


def test_criterion_03_table5_marketcap_gains():
    with open(FIXTURES / "table5.csv", newline="", encoding="utf-8") as fh:
        records = []
        for row in csv.DictReader(fh):
            cap = float(row["marketcap"])
            r = float(row["r"].rstrip("%")) / 100
            records.append((row["symbol"], cap, cap * r, r))
    ds = build_delta_system(records)
    assert frontier_sortscan(ds).leader_set == {"MSFT", "TSLA"}
    _ok(3, "table5 with g = marketcap x r -> frontier {MSFT, TSLA}")


def test_criterion_04_table6_relative_gainers():
    ds = parse_gains_table(FIXTURES / "table6.csv")
    assert frontier_sortscan(ds).leader_set == {"QS", "CADE", "BKKT"}
    _ok(4, "table6 frontier = {QS, CADE, BKKT}")


def test_criterion_05_erratum_fixtures_match_printed_numbers():
    t1 = parse_gains_table(FIXTURES / "table1.csv")
    assert frontier_sortscan(t1).leader_set == {"V5", "V8"}
    assert frontier_bruteforce(t1).leader_set == {"V5", "V8"}
    t7 = parse_gains_table(FIXTURES / "table7.csv")
    assert frontier_sortscan(t7).leader_set == {"Picasso", "Banksy", "Basquiat"}
    notes = (FIXTURES / "README.md").read_text(encoding="utf-8")
    assert "V5" in notes and "V3" in notes  # documented: narrative names V3, numbers say V5
    assert "Van Gogh" in notes and "Banksy" in notes
    _ok(5, "table1 -> {V5, V8} and table7 -> {Picasso, Banksy, Basquiat}; notes in fixtures/README.md")


def test_criterion_06_momentousness_worked_examples():
    a = momentousness(parse_leaders_table(FIXTURES / "table8.csv"))
    b = momentousness(parse_leaders_table(FIXTURES / "table9.csv"))
    assert a.value == pytest.approx(0.50, abs=1e-9)
    assert b.value == pytest.approx(2.125, abs=1e-9)
    assert compare_systems(
        parse_leaders_table(FIXTURES / "table8.csv"),
        parse_leaders_table(FIXTURES / "table9.csv"),
    ).verdict == "b"
    _ok(6, "momentousness 0.50 / 2.125 exact; outlier system compares greater")


def test_criterion_07_anticorrelated_counterexample():
    n, c = 1000, 1000.0
    ds = build_delta_system([(f"i{i}", c / i, math.log(i)) for i in range(1, n + 1)])
    assert len(frontier_sortscan(ds).leaders) == n
    assert verify_bound(ds) == (n, n, True)
    _ok(7, "g = C/i, r = log(i), N=1000 -> all 1000 entities lead")


def test_criterion_08_oracle_equivalence_thousand_systems():
    rng = np.random.default_rng(1008)
    styles = ("continuous", "grid", "negative", "mixed")
    checked = 0
    for trial in range(1000):
        if trial < 4:
            n = 500  # pin the boundary size
        else:
            n = max(1, int(round(math.exp(rng.uniform(0.0, math.log(500))))))
        g, r = random_pairs(rng, n, styles[trial % 4])
        ds = build_delta_system(records_from_pairs(g, r))
        assert frontier_sortscan(ds).leader_set == frontier_bruteforce(ds).leader_set
        checked += 1
    assert checked == 1000
    _ok(8, "sortscan == bruteforce on 1000 systems (ties, duplicates, negatives included)")


def test_criterion_09_moving_maxima_bound():
    rng = np.random.default_rng(1009)
    equalities = 0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        g = rng.random(n)
        while len(np.unique(g)) != n:  # continuous draws; collisions are theoretical
            g = rng.random(n)
        r = rng.random(n)
        ds = build_delta_system(records_from_pairs(g, r))
        size, count, holds = verify_bound(ds)
        assert holds, "frontier exceeded the moving-maxima count with distinct g"
        if len(np.unique(r)) == n:
            assert size == count
            equalities += 1
    assert equalities == 1000
    _ok(9, "1000 distinct-g systems: frontier <= moving maxima, equality when r distinct")


def test_criterion_10_power_law_study_band():
    start = time.perf_counter()
    sweep = {}
    for n, trials in ((20_000, 500), (50_000, 200), (100_000, 200), (200_000, 200)):
        sweep[n] = run_study(StudyConfig(n=n, trials=trials, seed=7))
    elapsed = time.perf_counter() - start

    main = sweep[20_000]
    ceiling = bound_estimate(20_000, 1.0)  # 28.1
    assert main.percentile_values[99.0] <= ceiling
    assert main.percentile_values[95.0] >= 2
    for n, result in sweep.items():
        assert 0.1 <= result.fitted_c[95.0] <= 1.0, f"fitted c out of band at n={n}"
    assert elapsed < 60.0
    summary = ", ".join(f"n={n}: c95={res.fitted_c[95.0]:.3f}" for n, res in sweep.items())
    _ok(10, f"p99={main.percentile_values[99.0]} <= {ceiling:.1f}; {summary}; {elapsed:.1f}s")


def test_criterion_11_bound_formula_pins():
    assert bound_estimate(20_000, 1 / 3) == pytest.approx(9.37, abs=0.01)
    assert bound_estimate(200_000, 1 / 2) == pytest.approx(19.85, abs=0.01)
    _ok(11, "c*(log10(n)+1)^2 = 9.37 at (20k, 1/3) and 19.85 at (200k, 1/2)")


def test_criterion_12_sortscan_speed_at_200k():
    rng = np.random.default_rng(1012)
    n = 200_000
    g = rng.random(n) * 1e9
    r = rng.random(n) * 100
    ds = build_delta_system(records_from_pairs(g, r))
    start = time.perf_counter()
    result = frontier_sortscan(ds)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert 1 <= len(result.leaders) <= n
    _ok(12, f"sortscan over N=200,000 in {elapsed * 1e3:.0f} ms")


def test_criterion_14_rank_leaders_with_every_entity_leading_at_200k():
    rng = np.random.default_rng(1014)
    n = 200_000
    x = rng.permutation(n).astype(float)
    ds = build_delta_system(records_from_pairs(x, -x, rng.random(n) * 1e6))  # anti-diagonal: all lead
    start = time.perf_counter()
    ranking = rank_leaders(ds)
    elapsed = time.perf_counter() - start
    assert len(ranking.entries) == n
    assert elapsed < 2.0
    _ok(14, f"rank_leaders over N=200,000 leaders in {elapsed * 1e3:.0f} ms")


def test_criterion_13_cli_output_is_byte_identical():
    invocations = [
        ["leaders", "--gains", str(FIXTURES / "table2.csv")],
        ["simulate", "--n", "2000", "--trials", "40", "--seed", "7", "--format", "json"],
        ["simulate", "--n", "2000", "--trials", "40", "--seed", "7", "--format", "csv"],
    ]
    # the child imports the package from this checkout, as the tests do
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "momentumrank", *argv],
                capture_output=True,
                cwd=REPO,
                check=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
    _ok(13, f"{len(invocations)} seeded invocations, each byte-identical across two runs")
