"""Query descriptors: NWC (Definition 1) and kNWC (Definition 3)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import QueryParameterError
from .measures import DistanceMeasure


@dataclass(frozen=True, slots=True)
class NWCQuery:
    """An ``NWC(q, l, w, n)`` query.

    Attributes:
        qx: Query location x.
        qy: Query location y.
        length: Window length ``l`` (extent along x).
        width: Window width ``w`` (extent along y).
        n: Number of objects to retrieve (positive).
        measure: Cluster distance measure (Equations 1-4).
    """

    qx: float
    qy: float
    length: float
    width: float
    n: int
    measure: DistanceMeasure = DistanceMeasure.MAX

    def __post_init__(self) -> None:
        if not (math.isfinite(self.qx) and math.isfinite(self.qy)):
            raise QueryParameterError("query location must be finite")
        if not (math.isfinite(self.length) and math.isfinite(self.width)):
            raise QueryParameterError("window length and width must be finite")
        if self.length <= 0 or self.width <= 0:
            raise QueryParameterError("window length and width must be positive")
        if self.n <= 0:
            raise QueryParameterError("n must be positive")

    @property
    def diagonal(self) -> float:
        """Window diagonal; bounds how far a window can reach from an
        object on its edge (used for search termination)."""
        return math.hypot(self.length, self.width)

    @property
    def base(self) -> "NWCQuery":
        """The window/cluster parameters: the query itself (a
        :class:`KNWCQuery` carries them as its ``base``)."""
        return self


@dataclass(frozen=True, slots=True)
class KNWCQuery:
    """A ``kNWC(k, q, l, w, n, m)`` query (Definition 3).

    Attributes:
        base: The underlying window/cluster parameters.
        k: Number of object groups to return.
        m: Maximum number of identical objects in any two groups
           (``0 <= m < n``; ``m = n-1`` still forbids identical groups).
    """

    base: NWCQuery
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QueryParameterError("k must be positive")
        if not 0 <= self.m < self.base.n:
            raise QueryParameterError("m must satisfy 0 <= m < n")

    @staticmethod
    def make(
        qx: float,
        qy: float,
        length: float,
        width: float,
        n: int,
        k: int,
        m: int,
        measure: DistanceMeasure = DistanceMeasure.MAX,
    ) -> "KNWCQuery":
        """Convenience constructor mirroring the paper's parameter list."""
        return KNWCQuery(NWCQuery(qx, qy, length, width, n, measure), k, m)
