"""Jamming-aware wireless sensor network simulator with two-colony ant route search."""

from .ants import (
    Ant,
    Colony,
    DeadEnd,
    PheromoneTable,
    SearchParams,
    SearchResult,
    adapt_sensitivity,
    global_pheromone_update,
    init_colonies,
    run_search,
    transition_probabilities,
)
from .config import ConfigError, ScenarioConfig, format_config, parse_config
from .engine import RunReport, Simulation, run_scenario
from .jammers import (
    Jammer,
    JammerKind,
    RadioParams,
    RadioSample,
    is_jammed,
    jammer_emission,
    noise_at,
    signal_to_noise_ratio,
)
from .metrics import (
    LinkMetrics,
    MetricTotals,
    TourRecord,
    link_quality,
    measure_link,
    normalize_metric,
    tour_quality,
)
from .network import (
    Network,
    Node,
    build_network,
    euclidean_distance,
    grid_network,
    random_geometric_network,
)

__version__ = "0.1.0"

__all__ = [
    "Ant",
    "Colony",
    "ConfigError",
    "DeadEnd",
    "Jammer",
    "JammerKind",
    "LinkMetrics",
    "MetricTotals",
    "Network",
    "Node",
    "PheromoneTable",
    "RadioParams",
    "RadioSample",
    "RunReport",
    "ScenarioConfig",
    "SearchParams",
    "SearchResult",
    "Simulation",
    "TourRecord",
    "adapt_sensitivity",
    "build_network",
    "euclidean_distance",
    "format_config",
    "global_pheromone_update",
    "grid_network",
    "init_colonies",
    "is_jammed",
    "jammer_emission",
    "link_quality",
    "measure_link",
    "noise_at",
    "normalize_metric",
    "parse_config",
    "random_geometric_network",
    "run_scenario",
    "run_search",
    "signal_to_noise_ratio",
    "tour_quality",
    "transition_probabilities",
]
