"""Staggered-broadcast VOD: event-driven simulator and analytic capacity model."""

from .analytic import (
    CapacityReport,
    PlacementMap,
    broadcast_analysis,
    dedicated_stream_analysis,
    erlang_b,
    hit_ratio,
    place_cache,
    select_broadcast_videos,
)
from .balancer import LpsEntry, LpsTable, assign_lps, record_request, release_request
from .caching import AcquisitionOutcome, SchemeId, SourceKind, normalize_scheme
from .domain import (
    ConfigError,
    QualityLevel,
    RandomSource,
    SimConfig,
    VideoSpec,
    catalog_from_config,
    derive_seed,
    load_config,
    max_channels,
    validate_config,
)
from .engine import MetricsReport, Simulation, SimulationError, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AcquisitionOutcome",
    "CapacityReport",
    "ConfigError",
    "LpsEntry",
    "LpsTable",
    "MetricsReport",
    "PlacementMap",
    "QualityLevel",
    "RandomSource",
    "SchemeId",
    "SimConfig",
    "Simulation",
    "SimulationError",
    "SourceKind",
    "VideoSpec",
    "assign_lps",
    "broadcast_analysis",
    "catalog_from_config",
    "dedicated_stream_analysis",
    "derive_seed",
    "erlang_b",
    "hit_ratio",
    "load_config",
    "max_channels",
    "normalize_scheme",
    "place_cache",
    "record_request",
    "release_request",
    "run_simulation",
    "select_broadcast_videos",
    "validate_config",
    "__version__",
]
