"""Result types for NWC and kNWC queries."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import PointObject, Rect


@dataclass(frozen=True, slots=True)
class ObjectGroup:
    """One group of ``n`` objects with its cluster distance.

    Attributes:
        objects: The group, ordered by ascending distance to ``q``.
        distance: The group's cluster distance under the query measure.
        window: A qualified window that contains the group (the one the
            search generated; other equivalent windows may exist).
    """

    objects: tuple[PointObject, ...]
    distance: float
    window: Rect
    # :attr:`oids`, once asked for; no part of the group's value.
    _oids: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def oids(self) -> frozenset[int]:
        """Object ids — the kNWC overlap constraint compares these
        (built on first use: kNWC group selection asks many times)."""
        cached = self._oids
        if cached is None:
            cached = frozenset(p.oid for p in self.objects)
            object.__setattr__(self, "_oids", cached)
        return cached

    def overlap(self, other: "ObjectGroup") -> int:
        """``|objs_1 ∩ objs_2|`` of Definition 3."""
        return len(self.oids & other.oids)


@dataclass(frozen=True, slots=True)
class NWCResult:
    """Answer of one NWC query.

    Attributes:
        group: The best group, or ``None`` when no qualified window
            exists anywhere in the dataset.
        stats: Snapshot of the I/O counters accumulated by the query.
        reason: Why the engine answered empty without searching, when
            it could prove the query unsatisfiable up front (``"n
            exceeds dataset size"``, ``"constrained region contains no
            objects"``); ``None`` for ordinary answers, including
            empty ones produced by an exhaustive search.
    """

    group: ObjectGroup | None
    stats: dict[str, int] = field(default_factory=dict)
    reason: str | None = None

    @property
    def found(self) -> bool:
        """True when a qualified window was found."""
        return self.group is not None

    @property
    def objects(self) -> tuple[PointObject, ...]:
        """The returned objects (empty when nothing qualified)."""
        return self.group.objects if self.group else ()

    @property
    def distance(self) -> float:
        """Cluster distance of the answer (``inf`` when not found)."""
        return self.group.distance if self.group else float("inf")

    @property
    def node_accesses(self) -> int:
        """The paper's I/O metric for this query."""
        return self.stats.get("node_accesses", 0)


@dataclass(frozen=True, slots=True)
class KNWCResult:
    """Answer of one kNWC query: up to ``k`` groups, ascending distance.

    ``reason`` mirrors :attr:`NWCResult.reason` — set only when the
    engine proved the query unsatisfiable without searching.
    """

    groups: tuple[ObjectGroup, ...]
    stats: dict[str, int] = field(default_factory=dict)
    reason: str | None = None

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def distances(self) -> tuple[float, ...]:
        """Group distances in ascending order."""
        return tuple(g.distance for g in self.groups)

    @property
    def node_accesses(self) -> int:
        """The paper's I/O metric for this query."""
        return self.stats.get("node_accesses", 0)

    def max_pairwise_overlap(self) -> int:
        """Largest ``|objs_i ∩ objs_j|`` over all group pairs (should be
        at most the query's ``m``)."""
        worst = 0
        for i, a in enumerate(self.groups):
            for b in self.groups[i + 1 :]:
                worst = max(worst, a.overlap(b))
        return worst
