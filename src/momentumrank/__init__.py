"""Momentum ranking via Pareto ordering of absolute and relative gains."""

from .core import (
    DeltaSystem,
    EntityGain,
    InputError,
    Snapshot,
    build_delta_system,
    derive_from_snapshots,
    dominates,
    system_from_entities,
)
from .frontier import (
    BoundCheck,
    FrontierResult,
    MovingMaxima,
    dominated_set,
    frontier_bruteforce,
    frontier_sortscan,
    interval,
    moving_maxima,
    runners_up,
    verify_bound,
)
from .io import parse_gains_table, parse_leaders_table, parse_snapshot, write_report
from .ranking import (
    LeaderRanking,
    MomentousnessScore,
    SystemComparison,
    compare_systems,
    leader_weight,
    momentousness,
    normalized_weights,
    rank_leaders,
)
from .simulation import (
    StudyConfig,
    StudyResult,
    bound_estimate,
    run_study,
    run_trial,
    trial_gains,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "DeltaSystem",
    "EntityGain",
    "FrontierResult",
    "InputError",
    "LeaderRanking",
    "MomentousnessScore",
    "MovingMaxima",
    "Snapshot",
    "StudyConfig",
    "StudyResult",
    "SystemComparison",
    "bound_estimate",
    "build_delta_system",
    "compare_systems",
    "derive_from_snapshots",
    "dominated_set",
    "dominates",
    "frontier_bruteforce",
    "frontier_sortscan",
    "interval",
    "leader_weight",
    "momentousness",
    "moving_maxima",
    "normalized_weights",
    "parse_gains_table",
    "parse_leaders_table",
    "parse_snapshot",
    "rank_leaders",
    "run_study",
    "run_trial",
    "runners_up",
    "system_from_entities",
    "trial_gains",
    "verify_bound",
    "write_report",
]
