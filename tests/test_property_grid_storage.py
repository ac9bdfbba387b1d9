"""Property-based tests for the density grid and the storage layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import PointObject, Rect
from repro.grid import DensityGrid
from repro.storage import decode, encode_internal, encode_leaf

from .conftest import grid_cell_sum as _cell_sum
from .conftest import grid_upper_bounds as _batch_bounds

EXTENT = Rect(0.0, 0.0, 100.0, 100.0)

grid_points = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
    min_size=0, max_size=80,
)


@st.composite
def query_rects(draw):
    x1 = draw(st.floats(-20, 110, allow_nan=False))
    y1 = draw(st.floats(-20, 110, allow_nan=False))
    return Rect(x1, y1,
                x1 + draw(st.floats(0, 80, allow_nan=False)),
                y1 + draw(st.floats(0, 80, allow_nan=False)))


class TestDensityGridProperties:
    @given(grid_points, query_rects(), st.floats(1.0, 40.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_upper_bound_dominates_truth(self, raw, rect, cell):
        points = [PointObject(i, x, y) for i, (x, y) in enumerate(raw)]
        grid = DensityGrid.build(points, EXTENT, cell)
        actual = sum(1 for p in points if rect.contains_object(p))
        assert grid.upper_bound(rect) >= actual

    @given(grid_points, st.floats(1.0, 40.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_total_preserved(self, raw, cell):
        points = [PointObject(i, x, y) for i, (x, y) in enumerate(raw)]
        grid = DensityGrid.build(points, EXTENT, cell)
        assert grid.total == len(points)
        assert grid.upper_bound(EXTENT) == len(points)


    @given(grid_points, st.lists(query_rects(), min_size=1, max_size=12),
           st.floats(1.0, 40.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_upper_bounds_equals_scalar_and_cell_sum(self, raw, rects, cell):
        points = [PointObject(i, x, y) for i, (x, y) in enumerate(raw)]
        grid = DensityGrid.build(points, EXTENT, cell)
        assert _batch_bounds(grid, rects) == [
            grid.upper_bound(r) for r in rects] == [
            _cell_sum(grid, r) for r in rects]

    @given(grid_points, st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)),
                                 max_size=40),
           st.lists(query_rects(), min_size=1, max_size=8),
           st.sampled_from([1.0, 7.0, 12.5, 25.0, 33.3]))
    @settings(max_examples=80, deadline=None)
    def test_table_maintained_under_add_remove(self, raw, ops, rects, cell):
        """``add``/``remove`` keep the cumulative table exact: after any
        update sequence the grid equals one rebuilt from scratch."""
        live = list(raw)
        grid = DensityGrid.build(
            [PointObject(i, x, y) for i, (x, y) in enumerate(live)], EXTENT, cell)
        for insert, pick in ops:
            if insert or not live:
                # multiples of 2.5 land on cell edges for most cell sizes
                point = ((pick % 41) * 2.5, (pick // 41 % 41) * 2.5)
                live.append(point)
                grid.add(*point)
            else:
                grid.remove(*live.pop(pick % len(live)))
        fresh = DensityGrid.build(
            [PointObject(i, x, y) for i, (x, y) in enumerate(live)], EXTENT, cell)
        assert grid.total == fresh.total == len(live)
        assert grid.cell_counts() == fresh.cell_counts()
        assert _batch_bounds(grid, rects) == _batch_bounds(fresh, rects) == [
            _cell_sum(grid, r) for r in rects]


serializable_points = st.lists(
    st.tuples(
        st.integers(0, 2**40),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    max_size=50,
)


class TestSerializationProperties:
    @given(serializable_points)
    @settings(max_examples=80, deadline=None)
    def test_leaf_roundtrip(self, raw):
        objects = [PointObject(oid, x, y) for oid, x, y in raw]
        record = decode(encode_leaf(objects, 4096))
        assert list(record.objects) == objects

    @given(st.lists(
        st.tuples(
            st.integers(1, 2**30),
            st.floats(-1e5, 1e5, allow_nan=False),
            st.floats(0, 1e5, allow_nan=False),
        ),
        max_size=40,
    ))
    @settings(max_examples=80, deadline=None)
    def test_internal_roundtrip(self, raw):
        children = [
            (page, Rect(x, 0.0, x + extra, extra)) for page, x, extra in raw
        ]
        record = decode(encode_internal(children, 4096))
        assert list(record.children) == children
