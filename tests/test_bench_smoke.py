"""The benchmark's own smoke run: every workload at tiny n, untraced and traced, each report checked.

A change that breaks what the benchmark runs, or the benchmark's reading
of the reports, fails here rather than only in a full benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_is_correct_on_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [result["correct"] for result in results] == [True] * 6, proc.stdout
