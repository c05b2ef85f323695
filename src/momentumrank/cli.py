"""Command-line interface.

Exit codes: 0 success, 2 usage or input error, 1 internal failure; a
closed stdout ends the process by ``SIGPIPE``. Each ``cmd_*`` returns
its report and ``main`` prints it, so stdout carries exactly the report;
diagnostics go to stderr. ``--debug`` re-raises an internal failure.
"""
from __future__ import annotations

import argparse
import gc
import signal
import sys
from collections import Counter

from .core import MODES, DeltaSystem, InputError, derive_from_snapshots
from .frontier import frontier_sortscan, runners_up, verify_bound
from .io import FORMATS, parse_gains_table, parse_leaders_table, parse_snapshot, write_report
from .ranking import compare_systems, momentousness, rank_leaders
from .simulation import StudyConfig, run_study

_WARNINGS_SHOWN = 10  # exclusion warnings printed one per line; the rest are counted, then all by reason


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gains", metavar="PATH", help="pre-diffed gains table (id[,score],g,r)")
    sub.add_argument("--before", metavar="PATH", help="snapshot at the window start")
    sub.add_argument("--after", metavar="PATH", help="snapshot at the window end")
    sub.add_argument(
        "--mode",
        choices=[mode.replace("_", "-") for mode in MODES],
        default="ratio",
        help="how to derive relative gain from snapshots (default: ratio)",
    )


def _add_command(sub, name: str, func, help: str, *, inputs: bool = True) -> argparse.ArgumentParser:
    """One subcommand: its system input flags when it reads a system, then ``--format``."""
    p = sub.add_parser(name, help=help)
    if inputs:
        _add_input_flags(p)
    p.add_argument("--format", choices=FORMATS, default="markdown", help="report format")
    p.set_defaults(func=func)
    return p


def _load_system(args: argparse.Namespace) -> DeltaSystem:
    has_snapshots = args.before is not None or args.after is not None
    if args.gains and has_snapshots:
        raise InputError("conflicting input flags: use --gains or --before/--after, not both")
    if args.gains:
        return parse_gains_table(args.gains)
    if args.before is None or args.after is None:
        raise InputError("an input is required: --gains PATH, or --before PATH with --after PATH")
    before = parse_snapshot(args.before)
    after = parse_snapshot(args.after)
    system, warnings = derive_from_snapshots(before, after, args.mode.replace("-", "_"))
    for message in warnings[:_WARNINGS_SHOWN]:
        print(f"warning: {message}", file=sys.stderr)
    if len(warnings) > _WARNINGS_SHOWN:
        counts = Counter(message.rpartition(": ")[2] for message in warnings)  # by reason
        by_reason = ", ".join(f"{counts[reason]} {reason}" for reason in sorted(counts))
        more = len(warnings) - _WARNINGS_SHOWN
        print(f"warning: {more} more entities excluded; {len(warnings)} in all: {by_reason}", file=sys.stderr)
    return system


def cmd_leaders(args: argparse.Namespace) -> str:
    if args.layers < 1:
        raise InputError(f"--layers must be >= 1, got {args.layers}")
    result = frontier_sortscan(_load_system(args))
    layers = runners_up(result, args.layers) if args.layers > 1 else None
    return write_report(result, args.format, layers=layers)


def cmd_rank(args: argparse.Namespace) -> str:
    return write_report(rank_leaders(_load_system(args)), args.format)


def cmd_momentousness(args: argparse.Namespace) -> str:
    has_system_input = args.gains or args.before or args.after
    if args.leaders_csv and has_system_input:
        raise InputError("conflicting input flags: use --leaders-csv or a system input, not both")
    source = parse_leaders_table(args.leaders_csv) if args.leaders_csv else _load_system(args)
    return write_report(momentousness(source), args.format)


def _comparison_side(args: argparse.Namespace, side: str):
    leaders_csv = getattr(args, f"leaders_csv_{side}")
    gains = getattr(args, f"gains_{side}")
    if (leaders_csv is None) == (gains is None):
        raise InputError(f"exactly one of --leaders-csv-{side} or --gains-{side} is required")
    return parse_leaders_table(leaders_csv) if leaders_csv else parse_gains_table(gains)


def cmd_compare(args: argparse.Namespace) -> str:
    return write_report(compare_systems(_comparison_side(args, "a"), _comparison_side(args, "b")), args.format)


def cmd_simulate(args: argparse.Namespace) -> str:
    try:
        percentiles = tuple(float(p) for p in args.percentiles.split(","))
    except ValueError:
        raise InputError(f"--percentiles must be a comma-separated number list, got {args.percentiles!r}") from None
    config = StudyConfig(n=args.n, trials=args.trials, seed=args.seed, percentiles=percentiles)
    return write_report(run_study(config), args.format)


def cmd_verify_bound(args: argparse.Namespace) -> str:
    return write_report(verify_bound(_load_system(args)), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentumrank",
        description="Rank changing entities by momentum via Pareto ordering of absolute and relative gains.",
    )
    parser.add_argument("--debug", action="store_true", help="re-raise internal errors with their traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "leaders", cmd_leaders, "compute momentum leaders (the Pareto frontier)")
    p.add_argument("--layers", type=int, default=1, help="also peel K-1 runner-up layers")

    _add_command(sub, "rank", cmd_rank, "order leaders by dominated weight")

    p = _add_command(sub, "momentousness", cmd_momentousness, "score a whole system")
    p.add_argument("--leaders-csv", metavar="PATH", help="pre-computed leader rows ([id,]r,w)")

    p = _add_command(sub, "compare", cmd_compare, "compare two systems by momentousness", inputs=False)
    p.add_argument("--leaders-csv-a", metavar="PATH")
    p.add_argument("--leaders-csv-b", metavar="PATH")
    p.add_argument("--gains-a", metavar="PATH")
    p.add_argument("--gains-b", metavar="PATH")

    study = "Monte Carlo study of frontier size under independent continuous gains"
    p = _add_command(sub, "simulate", cmd_simulate, study, inputs=False)
    p.add_argument("--n", type=int, required=True, help="entities per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--percentiles", default="95,99", help="comma-separated percentiles in (0,100)")

    _add_command(sub, "verify-bound", cmd_verify_bound, "check frontier size against the moving-maxima count")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        if args.debug:
            raise
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """What the process entry, ``momentumrank.__main__``, runs for ``python -m momentumrank`` and the script.

    ``gc.freeze()`` moves every object that start-up and the imports made
    into the collector's permanent generation, so neither a collection
    during the run nor the ones the interpreter runs at exit walk them
    again. That saves about 30 ms of every command's exit. Where the
    platform has ``SIGPIPE``, its default action is restored, so a closed
    stdout, as ``| head`` leaves, ends the process silently, as it ends
    ``cat``. ``main`` itself leaves the collector and the signals alone, so
    callers that run it in-process keep their own.
    """
    gc.freeze()
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
