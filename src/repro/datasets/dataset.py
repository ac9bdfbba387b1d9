"""Dataset container.

All paper datasets live in a square of width 10,000 (Section 5: "the
data space ... normalized to a square of width 10,000").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import PointObject, Rect

#: The paper's data space.
PAPER_EXTENT = Rect(0.0, 0.0, 10_000.0, 10_000.0)

#: Rows :func:`from_coordinates` converts per array pass.
_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class Dataset:
    """A named, immutable collection of data objects.

    Attributes:
        name: Identifier used in reports (e.g. ``"CA-like"``).
        points: The objects, with ids ``0..len-1``.
        extent: The normalized data space.
    """

    name: str
    points: tuple[PointObject, ...]
    extent: Rect = PAPER_EXTENT

    def __len__(self) -> int:
        return len(self.points)

    @property
    def cardinality(self) -> int:
        """Number of objects (Table 2's "Cardinality")."""
        return len(self.points)

    @property
    def density(self) -> float:
        """Objects per unit area over the full extent."""
        return len(self.points) / self.extent.area

    def coordinates(self) -> np.ndarray:
        """``(N, 2)`` float array of the locations."""
        return np.array([(p.x, p.y) for p in self.points], dtype=float)

    def subsample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Deterministic random subsample (used to scale experiments).

        Args:
            fraction: Kept fraction in ``(0, 1]``.
            seed: RNG seed for reproducibility.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if fraction == 1.0:
            return self
        rng = np.random.default_rng(seed)
        keep = rng.random(len(self.points)) < fraction
        picked = [p for p, flag in zip(self.points, keep) if flag]
        renumbered = tuple(
            PointObject(i, p.x, p.y) for i, p in enumerate(picked)
        )
        return Dataset(f"{self.name}@{fraction:g}", renumbered, self.extent)


def from_coordinates(
    name: str, coords: Sequence[tuple[float, float]] | np.ndarray,
    extent: Rect = PAPER_EXTENT,
) -> Dataset:
    """Wrap raw coordinates, clamping them into the extent.  A bound
    replaces a value only when strictly beyond it, as ``min(max(v, lo),
    hi)`` does (``np.maximum`` could turn ``-0.0`` into ``0.0``)."""
    arr = np.asarray(coords, dtype=float).reshape(-1, 2)
    points: list[PointObject] = []
    # A block at a time: whole-column temporaries would land on the
    # allocator's heap and stay resident after they are freed.
    for s in range(0, len(arr), _BLOCK):
        cols = []
        for col, lo, hi in ((arr[s:s + _BLOCK, 0], extent.x1, extent.x2),
                            (arr[s:s + _BLOCK, 1], extent.y1, extent.y2)):
            col = np.where(lo > col, lo, col)
            cols.append(np.where(hi < col, hi, col).tolist())
        points += map(PointObject, range(s, s + len(cols[0])), *cols)
    return Dataset(name, tuple(points), extent)
