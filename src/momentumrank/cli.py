"""Command-line interface.

Exit codes: 0 success, 2 usage or input error, 1 internal failure. stdout
carries exactly the report; diagnostics go to stderr. With ``--debug`` an
internal failure is re-raised with its traceback.
"""
from __future__ import annotations

import argparse
import sys

from .core import DeltaSystem, InputError, derive_from_snapshots
from .frontier import frontier_sortscan, runners_up, verify_bound
from .io import FORMATS, parse_gains_table, parse_leaders_table, parse_snapshot, write_report
from .ranking import compare_systems, momentousness, rank_leaders
from .simulation import StudyConfig, run_study

_WARNINGS_SHOWN = 10  # exclusion warnings printed one per line; the rest are counted


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gains", metavar="PATH", help="pre-diffed gains table (id[,score],g,r)")
    sub.add_argument("--before", metavar="PATH", help="snapshot at the window start")
    sub.add_argument("--after", metavar="PATH", help="snapshot at the window end")
    sub.add_argument(
        "--mode",
        choices=("ratio", "share-delta"),
        default="ratio",
        help="how to derive relative gain from snapshots (default: ratio)",
    )


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="markdown", help="report format")


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
        print(f"warning: {len(warnings) - _WARNINGS_SHOWN} more entities excluded", file=sys.stderr)
    return system


def cmd_leaders(args: argparse.Namespace) -> int:
    ds = _load_system(args)
    if args.layers < 1:
        raise InputError(f"--layers must be >= 1, got {args.layers}")
    result = frontier_sortscan(ds)
    layers = runners_up(ds, args.layers) if args.layers > 1 else None
    print(write_report(result, args.format, layers=layers))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    print(write_report(rank_leaders(_load_system(args)), args.format))
    return 0


def cmd_momentousness(args: argparse.Namespace) -> int:
    has_system_input = args.gains or args.before or args.after
    if args.leaders_csv and has_system_input:
        raise InputError("conflicting input flags: use --leaders-csv or a system input, not both")
    if args.leaders_csv:
        score = momentousness(parse_leaders_table(args.leaders_csv))
    else:
        score = momentousness(_load_system(args))
    print(write_report(score, args.format))
    return 0


def _comparison_side(args: argparse.Namespace, side: str):
    leaders_csv = getattr(args, f"leaders_csv_{side}")
    gains = getattr(args, f"gains_{side}")
    if (leaders_csv is None) == (gains is None):
        raise InputError(f"exactly one of --leaders-csv-{side} or --gains-{side} is required")
    if leaders_csv:
        return parse_leaders_table(leaders_csv)
    return parse_gains_table(gains)


def cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_systems(_comparison_side(args, "a"), _comparison_side(args, "b"))
    print(write_report(comparison, args.format))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        percentiles = tuple(float(p) for p in args.percentiles.split(","))
    except ValueError:
        raise InputError(f"--percentiles must be a comma-separated number list, got {args.percentiles!r}") from None
    config = StudyConfig(n=args.n, trials=args.trials, seed=args.seed, percentiles=percentiles)
    print(write_report(run_study(config), args.format))
    return 0


def cmd_verify_bound(args: argparse.Namespace) -> int:
    print(write_report(verify_bound(_load_system(args)), args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentumrank",
        description="Rank changing entities by momentum via Pareto ordering of absolute and relative gains.",
    )
    parser.add_argument("--debug", action="store_true", help="re-raise internal errors with their traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("leaders", help="compute momentum leaders (the Pareto frontier)")
    _add_input_flags(p)
    _add_format_flag(p)
    p.add_argument("--layers", type=int, default=1, help="also peel K-1 runner-up layers")
    p.set_defaults(func=cmd_leaders)

    p = sub.add_parser("rank", help="order leaders by dominated weight")
    _add_input_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("momentousness", help="score a whole system")
    _add_input_flags(p)
    _add_format_flag(p)
    p.add_argument("--leaders-csv", metavar="PATH", help="pre-computed leader rows ([id,]r,w)")
    p.set_defaults(func=cmd_momentousness)

    p = sub.add_parser("compare", help="compare two systems by momentousness")
    p.add_argument("--leaders-csv-a", metavar="PATH")
    p.add_argument("--leaders-csv-b", metavar="PATH")
    p.add_argument("--gains-a", metavar="PATH")
    p.add_argument("--gains-b", metavar="PATH")
    _add_format_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo study of frontier size under independent continuous gains")
    p.add_argument("--n", type=int, required=True, help="entities per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--percentiles", default="95,99", help="comma-separated percentiles in (0,100)")
    _add_format_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-bound", help="check frontier size against the moving-maxima count")
    _add_input_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_verify_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        if args.debug:
            raise
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
