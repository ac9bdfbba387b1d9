"""Shared machinery for the Section 5 experiments.

A :class:`BenchContext` builds (once per dataset) the R*-tree, density
grids and the IWP pointer index, then hands out engines per scheme.  The
experiment functions in :mod:`repro.eval.experiments` drive it through
the paper's parameter sweeps.

Because this substrate is pure Python (the authors used Java on their
testbed), experiments accept a ``scale`` factor that subsamples the
datasets and — by default — grows the window by ``1/sqrt(scale)`` so the
expected number of objects per window (the quantity the paper's analysis
is written in, ``lam * l * w``) is preserved.  The reported metric is
node accesses, exactly as in the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core import NWCEngine, NWCQuery, KNWCQuery, Scheme
from ..datasets import Dataset
from ..grid import DensityGrid
from ..index import FlatIWP, FlatRTree, IWPIndex, RStarTree
from ..storage import StatsAggregator
from ..workloads import SweepPoint

#: Environment knob for experiment fidelity (fraction of the paper's
#: dataset cardinality; 1.0 reruns at full scale).
SCALE_ENV_VAR = "REPRO_SCALE"
DEFAULT_SCALE = 0.05

#: Environment knob for the number of queries averaged per setting
#: (the paper uses 25).
QUERIES_ENV_VAR = "REPRO_QUERIES"
DEFAULT_QUERIES = 5


def experiment_scale() -> float:
    """The dataset scale for this run (env override or default)."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw is None:
        return DEFAULT_SCALE
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{SCALE_ENV_VAR} must be in (0, 1], got {raw}")
    return value


def experiment_query_count() -> int:
    """Queries per setting for this run (env override or default)."""
    raw = os.environ.get(QUERIES_ENV_VAR)
    if raw is None:
        return DEFAULT_QUERIES
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{QUERIES_ENV_VAR} must be positive, got {raw}")
    return value


def window_scale_factor(scale: float) -> float:
    """Window growth that keeps ``lam * l * w`` constant under
    subsampling by ``scale``."""
    return (1.0 / scale) ** 0.5


@dataclass
class BenchContext:
    """Everything reusable across schemes and sweep points of a dataset."""

    dataset: Dataset
    tree: RStarTree
    iwp: IWPIndex | None = None
    grids: dict[float, DensityGrid] = field(default_factory=dict)
    flat: FlatRTree | None = None
    flat_iwp: FlatIWP | None = None

    @classmethod
    def build(cls, dataset: Dataset, max_entries: int = 50) -> "BenchContext":
        """Bulk-load the R*-tree for ``dataset``."""
        tree = RStarTree.bulk_load(dataset.points, max_entries=max_entries)
        return cls(dataset=dataset, tree=tree)

    def grid(self, cell_size: float) -> DensityGrid:
        """The density grid at ``cell_size``, built once."""
        if cell_size not in self.grids:
            self.grids[cell_size] = DensityGrid.build(
                self.dataset.points, self.dataset.extent, cell_size
            )
        return self.grids[cell_size]

    def pointer_index(self) -> IWPIndex:
        """The scalar IWP pointer index, built once (its size is a
        storage overhead; the columnar engines read ``FlatIWP``)."""
        if self.iwp is None:
            self.iwp = IWPIndex(self.tree)
        return self.iwp

    def flat_index(self) -> FlatRTree:
        """The columnar snapshot of the tree, built once."""
        if self.flat is None:
            self.flat = FlatRTree.from_tree(self.tree)
        return self.flat

    def flat_pointer_index(self) -> FlatIWP:
        """The columnar IWP twin, built once."""
        if self.flat_iwp is None:
            self.flat_iwp = FlatIWP(self.flat_index())
        return self.flat_iwp

    def engine(self, scheme: Scheme, point: SweepPoint) -> NWCEngine:
        """An engine for ``scheme`` with shared DEP/IWP structures.

        The flat snapshot and its FlatIWP are shared, so the default
        columnar execution does not re-convert the tree for every
        (scheme, sweep point) cell, nor build a scalar pointer index it
        never reads.
        """
        flags = scheme.flags
        return NWCEngine(
            self.tree,
            scheme,
            grid=self.grid(point.grid_cell) if flags.dep else None,
            flat=self.flat_index(),
            flat_iwp=self.flat_pointer_index() if flags.iwp else None,
            extent=self.dataset.extent,
        )


def run_nwc_setting(
    context: BenchContext,
    scheme: Scheme,
    point: SweepPoint,
    query_points: list[tuple[float, float]],
) -> dict[str, float]:
    """Average I/O of one (dataset, scheme, parameters) cell.

    Returns a row with the mean node accesses (the paper's metric) plus
    secondary counters useful for analysis.
    """
    engine = context.engine(scheme, point)
    agg = StatsAggregator()
    found = 0
    for qx, qy in query_points:
        result = engine.nwc(NWCQuery(qx, qy, point.length, point.width, point.n))
        agg.add(result.stats)
        found += 1 if result.found else 0
    return {
        "node_accesses": agg.mean("node_accesses"),
        "window_queries": agg.mean("window_queries"),
        "window_queries_cancelled": agg.mean("window_queries_cancelled"),
        "qualified_windows": agg.mean("qualified_windows"),
        "found_fraction": found / len(query_points),
    }


def run_knwc_setting(
    context: BenchContext,
    scheme: Scheme,
    point: SweepPoint,
    query_points: list[tuple[float, float]],
    maintenance: str = "exact",
) -> dict[str, float]:
    """Average I/O of one kNWC cell (Figures 13-14)."""
    engine = context.engine(scheme, point)
    agg = StatsAggregator()
    groups_found = 0
    for qx, qy in query_points:
        query = KNWCQuery.make(
            qx, qy, point.length, point.width, point.n, point.k, point.m
        )
        result = engine.knwc(query, maintenance=maintenance)
        agg.add(result.stats)
        groups_found += len(result.groups)
    return {
        "node_accesses": agg.mean("node_accesses"),
        "window_queries": agg.mean("window_queries"),
        "avg_groups": groups_found / len(query_points),
    }
