"""NWC / kNWC query processing — the paper's primary contribution."""

from .bruteforce import (
    knwc_bruteforce,
    nwc_bruteforce,
    nwc_bruteforce_generated,
    qualified_window_exists,
)
from .errors import (
    EngineConfigError,
    NWCError,
    QueryParameterError,
)
from .engine import (
    DEFAULT_EXECUTION,
    DEFAULT_GRID_CELL_SIZE,
    EXECUTION_MODES,
    NWCEngine,
)
from .group import Aggregate, GroupNWCQuery, group_knwc, group_nwc, group_nwc_bruteforce
from .knwc import ExactGroupBuffer, PaperGroupList, make_policy
from .maxrs import MaxRSResult, maxrs, maxrs_bruteforce
from .measures import (
    DistanceMeasure,
    average_distance,
    cluster_distance,
    maximum_distance,
    minimum_distance,
    nearest_window_distance,
)
from .query import KNWCQuery, NWCQuery
from .regions import (
    FrameRegion,
    QuadrantFrame,
    generation_region,
    point_generation_region,
    search_region,
    shrink_search_region,
)
from .results import (
    KNWCResult,
    NWCResult,
    ObjectGroup,
)
from .schemes import ALL_SCHEMES, OptimizationFlags, Scheme
from .sweep import knwc_sweep, nwc_sweep

__all__ = [
    "ALL_SCHEMES",
    "Aggregate",
    "DEFAULT_EXECUTION",
    "DEFAULT_GRID_CELL_SIZE",
    "DistanceMeasure",
    "EXECUTION_MODES",
    "EngineConfigError",
    "ExactGroupBuffer",
    "GroupNWCQuery",
    "MaxRSResult",
    "FrameRegion",
    "KNWCQuery",
    "KNWCResult",
    "NWCEngine",
    "NWCError",
    "NWCQuery",
    "NWCResult",
    "ObjectGroup",
    "OptimizationFlags",
    "PaperGroupList",
    "QuadrantFrame",
    "QueryParameterError",
    "Scheme",
    "average_distance",
    "cluster_distance",
    "generation_region",
    "group_knwc",
    "group_nwc",
    "group_nwc_bruteforce",
    "knwc_bruteforce",
    "knwc_sweep",
    "make_policy",
    "maxrs",
    "maxrs_bruteforce",
    "maximum_distance",
    "minimum_distance",
    "nearest_window_distance",
    "nwc_bruteforce",
    "nwc_bruteforce_generated",
    "nwc_sweep",
    "point_generation_region",
    "qualified_window_exists",
    "search_region",
    "shrink_search_region",
]
