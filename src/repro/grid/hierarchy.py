"""Hierarchical density grid — a DEP extension (ablation).

Algorithm 2 scans every cell intersecting the probe rectangle; with the
paper's 400 x 400 grid a large rectangle touches tens of thousands of
cells.  This variant keeps a pyramid of progressively coarser levels
(each level aggregates 2 x 2 cells of the finer one) and answers
``upper_bound`` by descending only into coarse cells that straddle the
rectangle's boundary — interior cells are summed at the coarsest level
that fits.  Answers are identical to :class:`DensityGrid`; only CPU
cost changes (the paper's I/O metric is unaffected), which the ablation
bench quantifies.
"""

from __future__ import annotations

from typing import Iterable

from ..geometry import PointObject, Rect
from .density import DensityGrid


class HierarchicalDensityGrid(DensityGrid):
    """Density grid with a 2x2 aggregation pyramid.

    Build with :meth:`build` (or ``add`` everything, then call
    :meth:`freeze`); updates after freezing raise.
    """

    def __init__(self, extent: Rect, cell_size: float) -> None:
        super().__init__(extent, cell_size)
        self._pyramid: list[tuple[int, int, list[int]]] | None = None

    @classmethod
    def build(cls, objects: Iterable[PointObject], extent: Rect,
              cell_size: float) -> "HierarchicalDensityGrid":
        grid = super().build(objects, extent, cell_size)
        grid.freeze()
        return grid

    def add(self, x: float, y: float) -> None:
        if self._pyramid is not None:
            raise RuntimeError("grid is frozen; updates are not allowed")
        super().add(x, y)

    def remove(self, x: float, y: float) -> None:
        if self._pyramid is not None:
            raise RuntimeError("grid is frozen; updates are not allowed")
        super().remove(x, y)

    def freeze(self) -> None:
        """Build the aggregation pyramid (level 0 = the raw cells)."""
        levels = [(self.cols, self.rows, list(self.cell_counts()))]
        cols, rows, counts = levels[0]
        while cols > 1 or rows > 1:
            new_cols = (cols + 1) // 2
            new_rows = (rows + 1) // 2
            coarse = [0] * (new_cols * new_rows)
            for row in range(rows):
                base = row * cols
                coarse_base = (row // 2) * new_cols
                for col in range(cols):
                    coarse[coarse_base + col // 2] += counts[base + col]
            levels.append((new_cols, new_rows, coarse))
            cols, rows, counts = new_cols, new_rows, coarse
        self._pyramid = levels

    def upper_bound(self, rect: Rect) -> int:
        if self._pyramid is None:
            return super().upper_bound(rect)
        if not rect.intersects(self.extent):
            return 0
        col_lo, col_hi, row_lo, row_hi = self.cell_range(rect)
        return self._sum_region(len(self._pyramid) - 1, col_lo, col_hi,
                                row_lo, row_hi)

    def _sum_region(self, level: int, col_lo: int, col_hi: int,
                    row_lo: int, row_hi: int) -> int:
        """Sum the level-0 cell range using the coarsest covering cells.

        The range is expressed in level-0 coordinates; a level-``k``
        pyramid cell covers ``2**k`` cells per axis.
        """
        cols, rows, counts = self._pyramid[level]
        if level == 0:
            total = 0
            for row in range(row_lo, row_hi + 1):
                base = row * cols
                total += sum(counts[base + col_lo : base + col_hi + 1])
            return total
        span = 1 << level
        total = 0
        coarse_col_lo = col_lo // span
        coarse_col_hi = col_hi // span
        coarse_row_lo = row_lo // span
        coarse_row_hi = row_hi // span
        for crow in range(coarse_row_lo, coarse_row_hi + 1):
            r0 = crow * span
            r1 = r0 + span - 1
            for ccol in range(coarse_col_lo, coarse_col_hi + 1):
                c0 = ccol * span
                c1 = c0 + span - 1
                if r0 >= row_lo and r1 <= row_hi and c0 >= col_lo and c1 <= col_hi:
                    total += counts[crow * cols + ccol]  # fully inside
                else:
                    total += self._sum_region(
                        level - 1,
                        max(col_lo, c0), min(col_hi, c1),
                        max(row_lo, r0), min(row_hi, r1),
                    )
        return total
