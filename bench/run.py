"""End-to-end and per-layer benchmark of the momentumrank CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke            # every workload at tiny n, both modes
    python3 bench/run.py --write-manifest   # regenerate BENCHMARK.json

Each run builds the workload's inputs from the seed, computes the reference
result, then runs the real CLI as a child process, one at a time in a
closed loop (one client), until the time budget is spent. Every child's
output is checked against the reference. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced in-process
runs (``tracer.py``) and reports the per-layer metrics. The last stdout line
is one JSON object; the full result, run metadata and spans are written
under ``.bench_work/results/``. See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Case, Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5
RUN_SECONDS = 40
RUN_LIMIT_S = 160  # children still running this long after the start are killed

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ratio", "ratio", "higher", 0.05),
]

# (name, unit, better)
PER_LAYER = [
    ("cli.cpu_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("io.parse_gains_table_s", "s", "lower"),
    ("io.parse_snapshot_s", "s", "lower"),
    ("io.write_report_s", "s", "lower"),
    ("io.self_s", "s", "lower"),
    ("io.input_bytes", "bytes", "lower"),
    ("io.report_bytes", "bytes", "lower"),
    ("io.stderr_lines", "count", "lower"),
    ("core.build_delta_system_s", "s", "lower"),
    ("core.derive_from_snapshots_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.entities", "count", "higher"),
    ("core.excluded", "count", "lower"),
    ("frontier.leader_mask_s", "s", "lower"),
    ("frontier.frontier_sortscan_s", "s", "lower"),
    ("frontier.derived_s", "s", "lower"),
    ("frontier.runners_up_s", "s", "lower"),
    ("frontier.self_s", "s", "lower"),
    ("frontier.leaders", "count", "higher"),
    ("frontier.dominated_total", "count", "higher"),
    ("frontier.layer_sizes_total", "count", "higher"),
    ("ranking.rank_leaders_s", "s", "lower"),
    ("ranking.momentousness_s", "s", "lower"),
    ("ranking.self_s", "s", "lower"),
    ("simulation.run_study_s", "s", "lower"),
    ("simulation.trial_gains_s", "s", "lower"),
    ("simulation.self_s", "s", "lower"),
    ("simulation.trials", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]

# metric -> the traced functions whose outermost spans it sums
SPAN_METRICS = {
    "io.parse_gains_table_s": {"io.parse_gains_table"},
    "io.parse_snapshot_s": {"io.parse_snapshot"},
    "io.write_report_s": {"io.write_report"},
    "core.build_delta_system_s": {"core.build_delta_system"},
    "core.derive_from_snapshots_s": {"core.derive_from_snapshots"},
    "frontier.leader_mask_s": {"frontier.leader_mask"},
    "frontier.frontier_sortscan_s": {"frontier.frontier_sortscan"},
    "frontier.derived_s": {"frontier.dominated_set", "frontier.interval"},
    "frontier.runners_up_s": {"frontier.runners_up"},
    "ranking.rank_leaders_s": {"ranking.rank_leaders"},
    "ranking.momentousness_s": {"ranking.momentousness"},
    "simulation.run_study_s": {"simulation.run_study"},
    "simulation.trial_gains_s": {"simulation.trial_gains"},
}
LAYERS = ("cli", "io", "core", "frontier", "ranking", "simulation")


@dataclass
class Child:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    report_bytes: int
    stderr_lines: int
    error: str = ""
    trace: dict | None = None


class Launcher:
    """Starts children one at a time in ``workdir``; none outlives ``deadline``.

    Wall time is taken around spawn and reap; CPU time and peak RSS come
    from the child's own ``wait4`` record. stdout and stderr go to files so
    that no pipe can fill and block the child.
    """

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, cmd: list[str], tag: str) -> tuple[Child, str]:
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=self.env, cwd=self.workdir
            )
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(err, "rb") as fh:
            stderr_lines = sum(1 for _ in fh)
        child = Child(
            ok=code == 0,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            report_bytes=out.stat().st_size,
            stderr_lines=stderr_lines,
            error="" if code == 0 else f"exit {code}: {err.read_text(encoding='utf-8', errors='replace')[-500:]}",
        )
        return child, out.read_text(encoding="utf-8")

    def checked(self, cmd: list[str], tag: str, check) -> Child:
        child, stdout = self.spawn(cmd, tag)
        if child.ok:
            try:
                check(stdout)
            except (Mismatch, ValueError, KeyError, TypeError) as exc:
                child.ok, child.error = False, f"output check failed: {exc!r}"
        return child

    def cli(self, argv: list[str], tag: str, check=lambda stdout: None) -> Child:
        return self.checked([sys.executable, "-m", "momentumrank", *argv], tag, check)

    def traced(self, mode: str, argv: list[str], tag: str, check) -> Child:
        trace_path = self.workdir / f"{tag}.trace.json"
        child = self.checked([sys.executable, str(BENCH / "tracer.py"), mode, str(trace_path), "--", *argv], tag, check)
        try:
            child.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            child.ok, child.error = False, f"no readable trace: {exc!r}"
            return child
        if Path(child.trace["package"]) != SRC / "momentumrank":
            child.ok, child.error = False, f"traced the wrong package: {child.trace['package']}"
        return child


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Outermost-span totals per metric, self time per layer, and coverage."""
    dur = [end - start for _, start, end, _ in spans]
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    child_total = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_total[p] += dur[i]

    def outermost(wanted: set[str]) -> float:
        total = 0.0
        for i, name in enumerate(names):
            if name not in wanted:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in wanted:
                p = parents[p]
            if p < 0:
                total += dur[i]
        return total

    metrics = {metric: outermost(fns) for metric, fns in SPAN_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            dur[i] - child_total[i] for i, name in enumerate(names) if name.split(".")[0] == layer
        )
    root = names.index("cli.main")
    metrics["trace.coverage"] = child_total[root] / dur[root]
    metrics["trace.spans"] = len(spans)
    return metrics


def within_budget(start: float, seconds: float, iterations: int) -> bool:
    """True while one more iteration, at the mean pace so far, ends inside the budget."""
    elapsed = time.perf_counter() - start
    return iterations == 0 or elapsed + elapsed / iterations <= seconds


def measure_end_to_end(case: Case, launch: Launcher, seconds: float) -> tuple[dict, list[Child]]:
    # the first --help compiles bytecode; users pay that once, so it is not timed
    launch.cli(["--help"], "warmup")
    setups: list[Child] = []
    children: list[Child] = []
    # set-up runs alternate with workload runs so both see the same host load
    start = time.perf_counter()
    while within_budget(start, seconds, len(children)):
        children.append(launch.cli(case.argv, f"run{len(children)}", case.check))
        setups.append(launch.cli(["--help"], f"setup{len(setups)}"))
    while len(setups) < SETUP_RUNS:
        setups.append(launch.cli(["--help"], f"setup{len(setups)}"))
    ok = [c for c in children if c.ok]
    samples = {
        "setup_s": [c.wall_s for c in setups if c.ok],
        "wall_s": [c.wall_s for c in ok],
        "peak_rss_mb": [c.rss_mb for c in ok],
    }
    return samples, setups + children


def measure_per_layer(case: Case, launch: Launcher, seconds: float) -> tuple[dict, list[Child]]:
    samples: dict[str, list] = {name: [] for name, _, _ in PER_LAYER}
    start = time.perf_counter()
    extra = None
    if case.extra is not None:
        extra_metric, extra_argv, extra_check = case.extra
        extra = launch.traced("spans", extra_argv, "extra", extra_check)
    plain: list[Child] = []
    traced: list[Child] = []
    while within_budget(start, seconds, len(traced)):
        plain.append(launch.traced("plain", case.argv, f"plain{len(plain)}", case.check))
        traced.append(launch.traced("spans", case.argv, f"spans{len(traced)}", case.check))
    for c in plain:
        if c.ok:
            samples["cli.cpu_s"].append(c.cpu_s)
            samples["io.report_bytes"].append(c.report_bytes)
            samples["io.stderr_lines"].append(c.stderr_lines)
    traced_ok = [c for c in traced if c.ok]
    for c in traced_ok:
        samples["cli.main_s"].append(c.trace["main_s"])
        for metric, value in span_metrics(c.trace["spans"]).items():
            samples[metric].append(value)
    if extra is not None:
        # the extra command alone supplies its metric
        samples[extra_metric] = [span_metrics(extra.trace["spans"])[extra_metric]] if extra.ok else []
    # adjacent pairs see nearly the same host speed, unlike two separate medians
    samples["trace.overhead_s"] = [
        t.trace["main_s"] - p.trace["main_s"] for p, t in zip(plain, traced) if p.ok and t.ok
    ]
    samples["io.input_bytes"] = [case.input_bytes]
    for name, value in case.counts.items():
        samples[name] = [value]
    children = plain + traced + ([extra] if extra else [])
    return samples, children


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "loop": "closed, one client, one child at a time",
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    meta = run_metadata(workload, seed, trace)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        workdir = Path(tmp)
        case = WORKLOADS[workload].make(seed % 2**32, workdir, smoke)
        measure = measure_per_layer if trace else measure_end_to_end
        samples, children = measure(case, Launcher(workdir, deadline), seconds)
        spans = [
            {"invocation": i, "spans": c.trace["spans"]} for i, c in enumerate(children) if c.trace and c.trace["spans"]
        ]
    failed = sum(not c.ok for c in children)
    if not trace:
        samples["ok_ratio"] = [1 - failed / len(children)]
    table = END_TO_END if not trace else PER_LAYER
    metrics = {
        name: {"value": statistics.median(samples[name]) if samples[name] else 0, "unit": unit, "samples": len(samples[name])}
        for name, unit, *_ in table
    }
    if not trace:
        metrics["fail_ratio"] = {"value": failed / len(children), "unit": "ratio", "samples": len(children)}
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
        "errors": sorted({c.error for c in children if c.error}),
        "meta": meta,
        "samples": samples,
    }
    stem = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if spans:
        run_id = f"{stem}-{int(time.time())}-{os.getpid()}"
        (results / f"{stem}.spans.json").write_text(
            json.dumps({"run_id": run_id, "fields": ["name", "start", "end", "parent"], "invocations": spans}),
            encoding="utf-8",
        )
    return result


def print_result(result: dict) -> None:
    meta = result["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} commit={meta['commit']}")
    print(
        f"# python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
        f"cpu {meta['cpu_model']}, loadavg {meta['loadavg']}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']:6s} (samples={m['samples']})")
    for error in result["errors"]:
        print(f"# failure: {error}")
    names = [name for name, *_ in (PER_LAYER if meta["trace"] else END_TO_END)]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]} for n in names},
            }
        )
    )


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny n, both modes")
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args()
    if args.write_manifest:
        write_manifest()
        return 0
    if not (SRC / "momentumrank" / "__init__.py").is_file():
        print(f"error: no momentumrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        all_correct = True
        for name in WORKLOADS:
            for trace in (0, 1):
                result = run(name, args.seed or 1, 0, trace, smoke=True)
                print_result(result)
                all_correct &= result["correct"]
        return 0 if all_correct else 1
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not 1 <= args.seconds <= 60 or not math.isfinite(args.seconds):
        parser.error("--seconds must lie in [1, 60]")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
