"""Density grid for DEP (Section 3.3.3).

The object space is divided into square cells of side ``cell_size``
(the paper's "grid size"; 25 by default, giving a 400 x 400 grid over the
10,000-wide space, i.e. 160,000 cells).  Each cell stores the number of
objects inside it.  DEP uses the grid to upper-bound the number of
objects in any rectangle: the sum of counts of every cell *intersecting*
the rectangle.  A finer grid gives tighter bounds (Figure 9).

:class:`DensityGrid` stores the counts as their 2-D cumulative-count
table (the O(1) window aggregate of Shi & Wang, see PAPERS.md), one
eagerly built int32 array kept exact under ``add``/``remove``: every
upper bound — scalar or a whole array of rectangles at once — is four
table lookups, a single cell's count included, and concurrent readers
never create state.  ``PrefixSumDensityGrid`` is another name for it,
kept for its importers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..geometry import PointObject, Rect


class DensityGrid:
    """Cell-count grid over a square data space."""

    def __init__(self, extent: Rect, cell_size: float) -> None:
        """Args:
            extent: The data space (cells tile this rectangle).
            cell_size: Side length of each square cell (> 0).
        """
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.extent = extent
        self.cell_size = float(cell_size)
        self.cols = max(1, math.ceil(extent.width / cell_size))
        self.rows = max(1, math.ceil(extent.height / cell_size))
        # Axis 0 of the two-row arrays is (x, y) resp. (col, row).
        self._origin = np.array(((extent.x1,), (extent.y1,)))
        self._far = np.array(((extent.x2,), (extent.y2,)))
        self._last = np.array(((self.cols - 1,), (self.rows - 1,)))
        # _table[r, c] = objects in the cells of rows [0, r), columns [0, c);
        # int32 halves the table and holds any dataset below 2**31 objects.
        self._table = np.zeros((self.rows + 1, self.cols + 1), dtype=np.int32)
        self.total = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, objects: Iterable[PointObject], extent: Rect,
              cell_size: float) -> "DensityGrid":
        """Build the grid from a dataset (one ``bincount`` pass)."""
        grid = cls(extent, cell_size)
        coords = np.fromiter(
            (c for obj in objects for c in (obj.x, obj.y)), np.float64
        ).reshape(-1, 2)
        col, row = grid._cells(coords.T)
        counts = np.bincount(row * grid.cols + col, minlength=grid.cell_count)
        inner = grid._table[1:, 1:]
        np.cumsum(counts.reshape(grid.rows, grid.cols), axis=0,
                  dtype=np.int32, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        grid.total = len(coords)
        return grid

    @property
    def cell_count(self) -> int:
        """Total number of cells (paper: 160,000 at cell size 25)."""
        return self.cols * self.rows

    def storage_overhead_bytes(self, bytes_per_cell: int = 2) -> int:
        """Grid size in bytes; the paper stores short integers (2 B)."""
        return self.cell_count * bytes_per_cell

    # ------------------------------------------------------------------
    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Clamped ``(col, row)`` cells of a ``(2, k)`` array of points —
        the array form of :meth:`_cell_of` (``np.floor_divide`` and
        Python ``//`` round identically)."""
        index = np.floor_divide(points - self._origin, self.cell_size)
        np.maximum(index, 0, out=index)
        np.minimum(index, self._last, out=index)
        return index.astype(np.intp)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        col = int((x - self.extent.x1) // self.cell_size)
        row = int((y - self.extent.y1) // self.cell_size)
        return (min(max(col, 0), self.cols - 1), min(max(row, 0), self.rows - 1))

    def add(self, x: float, y: float) -> None:
        """Count one object at ``(x, y)`` (clamped into the extent)."""
        col, row = self._cell_of(x, y)
        self._table[row + 1:, col + 1:] += 1
        self.total += 1

    def remove(self, x: float, y: float) -> None:
        """Remove one previously added object."""
        col, row = self._cell_of(x, y)
        if self._range_sum(col, col, row, row) <= 0:
            raise ValueError(f"cell ({col}, {row}) is already empty")
        self._table[row + 1:, col + 1:] -= 1
        self.total -= 1

    def _range_sum(self, col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> int:
        """Objects in the (inclusive) cell range."""
        at = self._table.item
        return (at(row_hi + 1, col_hi + 1) - at(row_lo, col_hi + 1)
                - at(row_hi + 1, col_lo) + at(row_lo, col_lo))

    def cell_range(self, rect: Rect) -> tuple[int, int, int, int]:
        """Index range ``(col_lo, col_hi, row_lo, row_hi)`` (inclusive) of
        the cells intersecting ``rect``; clamped to the grid."""
        col_lo = int((rect.x1 - self.extent.x1) // self.cell_size)
        col_hi = int((rect.x2 - self.extent.x1) // self.cell_size)
        row_lo = int((rect.y1 - self.extent.y1) // self.cell_size)
        row_hi = int((rect.y2 - self.extent.y1) // self.cell_size)
        return (
            min(max(col_lo, 0), self.cols - 1),
            min(max(col_hi, 0), self.cols - 1),
            min(max(row_lo, 0), self.rows - 1),
            min(max(row_hi, 0), self.rows - 1),
        )

    def upper_bound(self, rect: Rect) -> int:
        """Upper bound on objects inside ``rect`` (Algorithm 2's ``ub``)."""
        if not rect.intersects(self.extent):
            return 0
        return self._range_sum(*self.cell_range(rect))

    def upper_bounds(self, x1: np.ndarray, y1: np.ndarray,
                     x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """:meth:`upper_bound` of many rectangles at once (coordinate
        arrays of equal length)."""
        low, high = np.array((x1, y1)), np.array((x2, y2))
        col_lo, row_lo = self._cells(low)
        col_hi, row_hi = self._cells(high) + 1
        table = self._table
        bounds = (table[row_hi, col_hi] - table[row_lo, col_hi]
                  - table[row_hi, col_lo] + table[row_lo, col_lo])
        bounds[((low > self._far) | (high < self._origin)).any(axis=0)] = 0
        return bounds

    def is_pruned(self, rect: Rect, n: int) -> bool:
        """Algorithm 2: True when ``rect`` cannot hold ``n`` objects."""
        return self.upper_bound(rect) < n

    def cell_counts(self) -> Sequence[int]:
        """Read-only copy of the raw counts (row-major)."""
        counts = np.diff(np.diff(self._table, axis=0), axis=1)
        return tuple(counts.ravel().tolist())


#: Another name for :class:`DensityGrid`, kept for its importers.
PrefixSumDensityGrid = DensityGrid
