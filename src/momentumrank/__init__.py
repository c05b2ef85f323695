"""Momentum ranking via Pareto ordering of absolute and relative gains.

Each public name loads the module that defines it on first use (PEP 562),
so ``import momentumrank`` loads neither numpy nor any submodule.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {  # each public name and the module that defines it
    "BoundCheck": "frontier",
    "DeltaSystem": "core",
    "EntityGain": "core",
    "FrontierResult": "frontier",
    "InputError": "core",
    "LeaderRanking": "ranking",
    "MomentousnessScore": "ranking",
    "MovingMaxima": "frontier",
    "Snapshot": "core",
    "StudyConfig": "simulation",
    "StudyResult": "simulation",
    "SystemComparison": "ranking",
    "bound_estimate": "simulation",
    "build_delta_system": "core",
    "compare_systems": "ranking",
    "derive_from_snapshots": "core",
    "dominated_set": "frontier",
    "dominates": "core",
    "frontier_bruteforce": "frontier",
    "frontier_sortscan": "frontier",
    "interval": "frontier",
    "leader_weight": "ranking",
    "momentousness": "ranking",
    "moving_maxima": "frontier",
    "normalized_weights": "ranking",
    "parse_gains_table": "io",
    "parse_leaders_table": "io",
    "parse_snapshot": "io",
    "rank_leaders": "ranking",
    "run_study": "simulation",
    "run_trial": "simulation",
    "runners_up": "frontier",
    "system_from_entities": "core",
    "trial_gains": "simulation",
    "verify_bound": "frontier",
    "write_report": "io",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # any other name raises, so ``from momentumrank import cli`` falls back to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
