"""Property-based tests for the R*-tree: random update sequences keep the
structure valid and the query results exact."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import PointObject, Rect
from repro.index import RStarTree, validate_tree

coordinates = st.tuples(st.integers(0, 500), st.integers(0, 500))


@st.composite
def update_sequences(draw):
    """A list of (op, point) steps: inserts and deletes of known points."""
    inserts = draw(st.lists(coordinates, min_size=1, max_size=120))
    points = [PointObject(i, float(x), float(y)) for i, (x, y) in enumerate(inserts)]
    steps = [("insert", p) for p in points]
    victims = draw(st.lists(st.sampled_from(points), max_size=60, unique_by=id))
    steps.extend(("delete", p) for p in victims)
    return steps


class TestUpdateSequences:
    @given(update_sequences())
    @settings(max_examples=40, deadline=None)
    def test_invariants_and_content(self, steps):
        tree = RStarTree(max_entries=6)
        alive: dict[int, PointObject] = {}
        for op, p in steps:
            if op == "insert":
                tree.insert(p)
                alive[p.oid] = p
            else:
                assert tree.delete(p) == (p.oid in alive)
                alive.pop(p.oid, None)
        validate_tree(tree)
        assert sorted(o.oid for o in tree.iter_objects()) == sorted(alive)

    @given(st.lists(coordinates, min_size=1, max_size=150),
           st.integers(0, 500), st.integers(0, 500),
           st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_window_query_exact(self, raw, x, y, w, h):
        points = [PointObject(i, float(a), float(b)) for i, (a, b) in enumerate(raw)]
        tree = RStarTree(max_entries=6)
        tree.extend(points)
        rect = Rect(float(x), float(y), float(x + w), float(y + h))
        got = sorted(o.oid for o in tree.window_query(rect, io=None))
        expect = sorted(p.oid for p in points if rect.contains_object(p))
        assert got == expect

    @given(st.lists(coordinates, min_size=1, max_size=150),
           st.integers(-100, 600), st.integers(-100, 600))
    @settings(max_examples=40, deadline=None)
    def test_incremental_nearest_is_sorted_and_complete(self, raw, qx, qy):
        points = [PointObject(i, float(a), float(b)) for i, (a, b) in enumerate(raw)]
        tree = RStarTree.bulk_load(points, max_entries=6)
        stream = list(tree.incremental_nearest(qx, qy, io=None))
        dists = [d for _, d, _ in stream]
        assert dists == sorted(dists)
        assert sorted(o.oid for o, _, _ in stream) == [p.oid for p in points]

    @given(st.lists(coordinates, min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_dynamic_content(self, raw):
        points = [PointObject(i, float(a), float(b)) for i, (a, b) in enumerate(raw)]
        bulk = RStarTree.bulk_load(points, max_entries=6)
        validate_tree(bulk)
        dynamic = RStarTree(max_entries=6)
        dynamic.extend(points)
        assert sorted(o.oid for o in bulk.iter_objects()) == sorted(
            o.oid for o in dynamic.iter_objects()
        )
