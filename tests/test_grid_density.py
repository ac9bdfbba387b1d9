"""Unit tests for the density grid (repro.grid)."""

import random

import pytest

from repro.geometry import Rect, make_points
from repro.grid import DensityGrid
from tests.conftest import grid_cell_sum as _cell_sum
from tests.conftest import grid_upper_bounds as _bounds
from tests.conftest import make_uniform_points


EXTENT = Rect(0.0, 0.0, 1000.0, 1000.0)


class TestConstruction:
    def test_cell_count_matches_paper(self):
        # Paper: cell size 25 over a 10,000-wide space -> 160,000 cells.
        grid = DensityGrid(Rect(0, 0, 10_000, 10_000), 25.0)
        assert grid.cell_count == 160_000
        assert grid.storage_overhead_bytes() == 320_000  # 2 B per cell

    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            DensityGrid(EXTENT, 0.0)

    def test_non_divisible_extent_rounds_up(self):
        grid = DensityGrid(Rect(0, 0, 10, 10), 3.0)
        assert grid.cols == 4 and grid.rows == 4


class TestCounts:
    def test_build_totals(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        assert grid.total == len(uniform_points)
        assert sum(grid.cell_counts()) == len(uniform_points)

    def test_add_remove(self):
        grid = DensityGrid(EXTENT, 10.0)
        grid.add(5, 5)
        grid.add(5, 5)
        grid.remove(5, 5)
        assert grid.total == 1
        with pytest.raises(ValueError):
            grid.remove(500, 500)  # empty cell

    def test_out_of_extent_points_clamp(self):
        grid = DensityGrid(EXTENT, 10.0)
        grid.add(-5, 2000)
        assert grid.total == 1
        assert grid.upper_bound(Rect(0, 990, 10, 1000)) == 1


class TestUpperBound:
    def test_is_a_true_upper_bound(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        rng = random.Random(8)
        for _ in range(100):
            x, y = rng.uniform(-50, 1000), rng.uniform(-50, 1000)
            rect = Rect(x, y, x + rng.uniform(1, 200), y + rng.uniform(1, 200))
            actual = sum(1 for p in uniform_points if rect.contains_object(p))
            assert grid.upper_bound(rect) >= actual

    def test_tightens_with_finer_cells(self, uniform_points):
        rect = Rect(100, 100, 180, 140)
        coarse = DensityGrid.build(uniform_points, EXTENT, 200.0)
        fine = DensityGrid.build(uniform_points, EXTENT, 10.0)
        assert fine.upper_bound(rect) <= coarse.upper_bound(rect)

    def test_disjoint_rect_is_zero(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        assert grid.upper_bound(Rect(5000, 5000, 5100, 5100)) == 0

    def test_full_extent_counts_everything(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        assert grid.upper_bound(EXTENT) == len(uniform_points)

    def test_is_pruned(self):
        pts = make_points([(5, 5), (6, 6)])
        grid = DensityGrid.build(pts, EXTENT, 10.0)
        region = Rect(0, 0, 10, 10)
        assert not grid.is_pruned(region, 2)
        assert grid.is_pruned(region, 3)


class TestVectorisedBounds:
    """``upper_bounds`` == ``upper_bound`` == the brute cell sum."""

    def _check(self, grid, rects):
        assert _bounds(grid, rects) == [grid.upper_bound(r) for r in rects] \
            == [_cell_sum(grid, r) for r in rects]

    def test_random_rectangles(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        rng = random.Random(21)
        rects = []
        for _ in range(300):
            x, y = rng.uniform(-100, 1050), rng.uniform(-100, 1050)
            rects.append(Rect(x, y, x + rng.uniform(0, 400), y + rng.uniform(0, 400)))
        self._check(grid, rects)

    def test_cell_aligned_rectangles(self, uniform_points):
        """Edges exactly on cell boundaries: the closed rectangle takes
        the cell on the far side of each edge too (``np.floor_divide``
        must round like Python's ``//``)."""
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        rects = [Rect(25.0 * a, 25.0 * b, 25.0 * (a + w), 25.0 * (b + h))
                 for a, b, w, h in [(0, 0, 1, 1), (3, 7, 2, 0), (39, 39, 1, 1),
                                    (40, 40, 0, 0), (0, 39, 40, 1), (10, 10, 0, 0)]]
        self._check(grid, rects)
        assert _bounds(grid, rects[:1]) == [_cell_sum(grid, Rect(0, 0, 49, 49))]

    def test_rectangles_outside_the_extent_are_zero(self, uniform_points):
        grid = DensityGrid.build(uniform_points, EXTENT, 25.0)
        outside = [Rect(1000.5, 0, 1100, 1000), Rect(-50, -50, -0.5, 1000),
                   Rect(0, 1000.5, 1000, 2000), Rect(0, -9, 1000, -1)]
        assert _bounds(grid, outside) == [0, 0, 0, 0]
        # Touching the extent is not outside: the clamped edge cells count.
        touching = [Rect(1000.0, 0, 1100, 1000), Rect(-50, -50, 0.0, 0.0)]
        self._check(grid, touching)
        assert _bounds(grid, touching)[0] > 0

    def test_points_on_cell_and_extent_edges(self):
        """Build (``bincount``) and ``add`` agree on where edge points go."""
        coords = [(0.0, 0.0), (25.0, 25.0), (25.0, 24.999999), (1000.0, 1000.0),
                  (999.9999, 1000.0), (50.0, 0.0), (1200.0, -3.0)]
        built = DensityGrid.build(make_points(coords), EXTENT, 25.0)
        added = DensityGrid(EXTENT, 25.0)
        for x, y in coords:
            added.add(x, y)
        assert built.cell_counts() == added.cell_counts()
        assert built.total == added.total == len(coords)
        probes = [Rect(x - 1, y - 1, x, y) for x, y in coords[:-1]]
        self._check(built, probes)
        assert _bounds(built, probes) == _bounds(added, probes)

    def test_table_follows_random_add_remove(self):
        rng = random.Random(33)
        grid = DensityGrid(EXTENT, 40.0)  # 1000 / 40: clamped last cells
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                grid.remove(*live.pop(rng.randrange(len(live))))
            else:
                point = (rng.choice([0.0, 40.0, 960.0, 1000.0, rng.uniform(0, 1000)]),
                         rng.uniform(-10, 1010))
                live.append(point)
                grid.add(*point)
            if step % 40 == 0:
                rects = [Rect(x - 30, y - 30, x + rng.uniform(0, 90), y + 30)
                         for x, y in live[-5:]] + [EXTENT, Rect(960, 960, 1000, 1000)]
                self._check(grid, rects)
        assert grid.upper_bound(EXTENT) == grid.total == len(live)
        fresh = DensityGrid.build(make_points(live), EXTENT, 40.0)
        assert fresh.cell_counts() == grid.cell_counts()
