"""Shared fixtures for the test suite.

Datasets here are intentionally small: correctness is checked against
O(N^2)/O(N^3) brute-force references, and hypothesis multiplies every
property by dozens of examples.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.geometry import PointObject, Rect, make_points
from repro.index import RStarTree


def make_uniform_points(count: int, span: float = 1000.0, seed: int = 7) -> list[PointObject]:
    """Deterministic uniform points in ``[0, span]^2``."""
    rng = random.Random(seed)
    return make_points((rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(count))


def make_clustered_points(
    count: int, clusters: int = 5, span: float = 1000.0, spread: float = 30.0, seed: int = 7
) -> list[PointObject]:
    """Deterministic clustered points (mixture of tight blobs)."""
    rng = random.Random(seed)
    centers = [(rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(clusters)]
    coords = []
    for _ in range(count):
        cx, cy = rng.choice(centers)
        coords.append((cx + rng.gauss(0.0, spread), cy + rng.gauss(0.0, spread)))
    return make_points(coords)


#: Coordinates drawn from a small pool: duplicates and ties everywhere,
#: and both signs of zero.
_POOL = np.array([-0.0, 0.0, 0.0, 1.5, 2.0, 2.0, 7.25, 9.0])


def pooled_points(n: int, seed: int, fix_x=None, fix_y=None) -> list[PointObject]:
    """Deterministic points on the :data:`_POOL` coordinates (or with
    one coordinate fixed)."""
    rng = np.random.default_rng(seed)
    xs = rng.choice(_POOL, n) if fix_x is None else np.full(n, fix_x)
    ys = rng.choice(_POOL, n) if fix_y is None else np.full(n, fix_y)
    return [PointObject(i, float(x), float(y))
            for i, (x, y) in enumerate(zip(xs, ys))]


def grid_upper_bounds(grid, rects) -> list[int]:
    """``grid.upper_bounds`` over a list of :class:`Rect`."""
    columns = (np.array([getattr(r, side) for r in rects])
               for side in ("x1", "y1", "x2", "y2"))
    return grid.upper_bounds(*columns).tolist()


def grid_cell_sum(grid, rect: Rect) -> int:
    """Algorithm 2 spelt out: add up every grid cell meeting ``rect``."""
    if not rect.intersects(grid.extent):
        return 0
    col_lo, col_hi, row_lo, row_hi = grid.cell_range(rect)
    counts = grid.cell_counts()
    return sum(counts[row * grid.cols + col]
               for row in range(row_lo, row_hi + 1)
               for col in range(col_lo, col_hi + 1))


@pytest.fixture(scope="session")
def uniform_points() -> list[PointObject]:
    """1,000 uniform points in a 1,000-wide square."""
    return make_uniform_points(1000)


@pytest.fixture(scope="session")
def clustered_points() -> list[PointObject]:
    """800 clustered points in a 1,000-wide square."""
    return make_clustered_points(800)


@pytest.fixture(scope="session")
def uniform_tree(uniform_points) -> RStarTree:
    """Bulk-loaded tree over ``uniform_points`` (shared; do not mutate)."""
    return RStarTree.bulk_load(uniform_points, max_entries=16)


@pytest.fixture(scope="session")
def clustered_tree(clustered_points) -> RStarTree:
    """Bulk-loaded tree over ``clustered_points`` (shared; do not mutate)."""
    return RStarTree.bulk_load(clustered_points, max_entries=16)


@pytest.fixture()
def unit_extent() -> Rect:
    """The 1,000-wide test data space."""
    return Rect(0.0, 0.0, 1000.0, 1000.0)
