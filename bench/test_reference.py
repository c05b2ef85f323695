"""Tests of the benchmark's references, output checks and span arithmetic.

Run from the repository root: python -m pytest bench
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import momentumrank as mr  # noqa: E402
from momentumrank import cli  # noqa: E402
from run import span_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Mismatch,
    reference_layers,
    reference_leader_mask,
    reference_leader_rows,
)


def small_system(seed: int):
    """Few distinct values, so ties in g, in r and duplicate points are common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    g = rng.integers(-5, 6, n).astype(float)
    r = rng.integers(-5, 6, n).astype(float) / 4
    score = rng.integers(1, 100, n).astype(float)
    ds = mr.build_delta_system([(f"x{i:02d}", s, gi, ri) for i, (s, gi, ri) in enumerate(zip(score, g, r))])
    ranked = ds.entities
    arrays = [np.array([getattr(e, f) for e in ranked]) for f in ("score", "g", "r")]
    return ds, [e.id for e in ranked], *arrays


@pytest.mark.parametrize("seed", range(150))
def test_reference_frontier_and_layers_match_bruteforce(seed):
    ds, ids, _, g, r = small_system(seed)
    assert [ids[i] for i in np.flatnonzero(reference_leader_mask(g, r))] == list(mr.frontier_bruteforce(ds).leaders)
    remaining, peeled = list(ds.entities), []
    while remaining and len(peeled) < 4:
        leaders = mr.frontier_bruteforce(mr.system_from_entities(remaining)).leaders
        peeled.append(list(leaders))
        remaining = [e for e in remaining if e.id not in leaders]
    assert [[ids[p] for p in layer] for layer in reference_layers(g, r, 4)] == peeled


@pytest.mark.parametrize("seed", range(60))
def test_reference_rows_match_definitions(seed):
    ds, ids, score, g, r = small_system(seed)
    for row in reference_leader_rows(ids, score, g, r):
        dominated = mr.dominated_set(ds, row.id)
        assert row.dominated == len(dominated)
        assert row.interval == mr.interval(ds, row.id)
        assert row.w == pytest.approx(mr.leader_weight(ds, row.id), rel=1e-12, abs=1e-15)


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_program_and_reject_a_tampered_report(name, tmp_path):
    case = WORKLOADS[name].make(3, tmp_path, True)
    commands = [(case.argv, case.check)]
    if case.extra is not None:
        commands.append((case.extra[1], case.extra[2]))
    for argv, check in commands:
        out = cli_stdout(argv)
        check(out)
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            doc = json.loads(out)
            if "leaders" in doc:
                doc["leaders"][0]["dominated"] += 1
            elif "terms" in doc:
                doc["value"] *= 1.001
            else:
                doc["percentiles"]["95"] += 1
            tampered = json.dumps(doc)
        else:
            lines = out.splitlines()
            lines[1], lines[2] = lines[2], lines[1]
            tampered = "\n".join(lines)
        with pytest.raises(Mismatch):
            check(tampered)


def test_span_metrics_self_time_and_outermost_sums():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["io.parse_gains_table", 0.0, 4.0, 0],
        ["core.build_delta_system", 1.0, 3.0, 1],
        ["frontier.interval", 4.0, 7.0, 0],
        ["frontier.dominated_set", 5.0, 6.0, 3],
        ["frontier.dominated_set", 7.0, 9.0, 0],
    ]
    m = span_metrics(spans)
    assert m["io.parse_gains_table_s"] == 4.0
    assert m["core.build_delta_system_s"] == 2.0
    assert m["frontier.derived_s"] == 5.0  # the nested dominated_set is not counted twice
    assert m["cli.self_s"] == 1.0
    assert m["io.self_s"] == 2.0
    assert m["frontier.self_s"] == 5.0
    assert m["trace.coverage"] == 0.9
    assert m["trace.spans"] == 6
