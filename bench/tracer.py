"""Run ``momentumrank.cli.main`` in-process and time it from outside the package.

Usage: python tracer.py {plain|spans} TRACE_OUT -- CLI_ARGS...

``plain`` times only ``cli.main``. ``spans`` also replaces each traced public
function, wherever a package module holds a reference to it, with a wrapper
that records a span (name, start, end, parent) in memory. The spans are
written to TRACE_OUT as JSON when the process ends. Functions missing from
the package are skipped, so the tracer keeps working when code moves.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

TRACED = {
    "io": ("parse_gains_table", "parse_snapshot", "write_report"),
    "core": ("build_delta_system", "derive_from_snapshots"),
    "frontier": ("leader_mask", "frontier_sortscan", "dominated_set", "interval", "runners_up"),
    "ranking": ("rank_leaders", "momentousness"),
    "simulation": ("trial_gains", "run_study"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def patch(self, package: str) -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer, names in TRACED.items():
            module = sys.modules[f"{package}.{layer}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def main() -> int:
    mode, out, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "spans") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import momentumrank
    from momentumrank import cli

    tracer = Tracer()
    if mode == "spans":
        tracer.patch("momentumrank")
    entry = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    try:
        return entry(argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        record = {"package": str(Path(momentumrank.__file__).resolve().parent), "main_s": main_s, "spans": tracer.spans}
        Path(out).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
