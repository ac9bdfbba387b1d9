"""I/O accounting.

The paper's performance metric is *the number of R*-tree nodes visited*
(Section 5).  Every node fetch in this library — best-first traversal,
window queries, IWP descents — goes through one :class:`IOStats`
instance attached to the tree, so experiments read a single counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Counters for one tree (or one query, when reset per query).

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
        """Zero every counter (typically called before each query)."""
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

    def add(self, stats: IOStats) -> None:
        """Record one per-query snapshot."""
        self.snapshots.append(stats.snapshot())

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
