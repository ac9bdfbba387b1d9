"""I/O accounting.

The paper's performance metric is *the number of R*-tree nodes visited*
(Section 5).  Every node fetch in this library — best-first traversal,
window queries, IWP descents — is charged to an :class:`IOStats`.  An
engine query creates its own and hands it down, so a query's counters
are its result's ``stats`` whatever runs beside it; a direct call on a
tree charges the tree's ``stats`` (see :data:`OWN_STATS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default ``io`` sink of the index query methods: the tree's own
#: ``stats`` (an engine query passes its own; ``None`` counts nothing).
OWN_STATS = object()


@dataclass
class IOStats:
    """Counters of one query (or of one tree's direct calls).

    Attributes:
        node_accesses: R-tree nodes visited (the paper's metric).
        leaf_accesses: Subset of ``node_accesses`` that were leaves.
        window_queries: Window queries issued by the NWC algorithm.
        window_queries_cancelled: Window queries cancelled by DEP.
        objects_examined: Candidate partner objects evaluated.
        windows_evaluated: Candidate windows whose cardinality was checked.
        qualified_windows: Candidate windows that were qualified.
        page_reads: Physical page reads (paged persistence only).
        page_writes: Physical page writes (paged persistence only).
    """

    node_accesses: int = 0
    leaf_accesses: int = 0
    window_queries: int = 0
    window_queries_cancelled: int = 0
    objects_examined: int = 0
    windows_evaluated: int = 0
    qualified_windows: int = 0
    page_reads: int = 0
    page_writes: int = 0

    def record_node(self, is_leaf: bool) -> None:
        """Count one node visit."""
        self.node_accesses += 1
        if is_leaf:
            self.leaf_accesses += 1

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy the counters into a plain dict (for reports)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __iadd__(self, other: "IOStats") -> "IOStats":
        """Accumulate ``other``'s counters into this instance."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


@dataclass
class StatsAggregator:
    """Averages :class:`IOStats` snapshots over a query workload.

    The paper runs 25 queries per setting and reports the average
    (Section 5); this helper reproduces that reduction.
    """

    snapshots: list[dict[str, int]] = field(default_factory=list)

    def add(self, stats: IOStats | dict[str, int]) -> None:
        """Record one per-query snapshot (a result's ``stats`` dict or
        an :class:`IOStats`)."""
        self.snapshots.append(
            stats if isinstance(stats, dict) else stats.snapshot())

    def __len__(self) -> int:
        return len(self.snapshots)

    def mean(self, field_name: str = "node_accesses") -> float:
        """Average of one counter over all recorded queries."""
        if not self.snapshots:
            return 0.0
        return sum(s[field_name] for s in self.snapshots) / len(self.snapshots)

    def total(self, field_name: str = "node_accesses") -> int:
        """Sum of one counter over all recorded queries."""
        return sum(s[field_name] for s in self.snapshots)
