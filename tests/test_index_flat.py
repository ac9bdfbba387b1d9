"""FlatRTree layout contract: the struct-of-arrays index must be a
faithful mirror of the object-graph R*-tree.

Two property families back the columnar execution mode:

* *window queries* return exactly the same objects with exactly the
  same node/leaf access counters as ``RStarTree.window_query``;
* *best-first distance browsing* over the flat arrays pops objects in
  exactly the order of ``RStarTree.incremental_nearest`` — bitwise
  distances, identical tie-breaks.

Plus the persistence contract: ``FlatRTree.from_page_file`` (zero-copy
``np.frombuffer`` over an mmap) must produce the identical layout as
rebuilding through ``load_tree`` on both v1 (legacy) and v2
(checksummed) page files, and the update contract: after non-structural
edits ``FlatRTree.splice`` must produce exactly what ``from_tree`` would.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import PointObject, Rect, make_points
from repro.index import (
    FlatIWP,
    FlatRTree,
    IWPIndex,
    RStarTree,
    load_tree,
    save_tree,
)
from repro.storage import IOStats
from tests.conftest import make_clustered_points, make_uniform_points


# ----------------------------------------------------------------------
# Strategies (coarse grid so coordinate ties are common)
# ----------------------------------------------------------------------
def _coords(span: float):
    return st.integers(0, int(span)).map(lambda v: v / 2.0)


@st.composite
def tree_cases(draw):
    span = 100.0
    count = draw(st.integers(1, 60))
    coords = draw(
        st.lists(st.tuples(_coords(span), _coords(span)),
                 min_size=count, max_size=count)
    )
    points = make_points(coords)
    max_entries = draw(st.sampled_from([4, 8, 16]))
    tree = RStarTree.bulk_load(points, max_entries=max_entries)
    return tree, points


def _rect(draw):
    x1 = draw(_coords(100.0))
    y1 = draw(_coords(100.0))
    w = draw(st.floats(0.0, 40.0, allow_nan=False))
    h = draw(st.floats(0.0, 40.0, allow_nan=False))
    return Rect(x1, y1, x1 + w, y1 + h)


@st.composite
def window_cases(draw):
    tree, points = draw(tree_cases())
    return tree, _rect(draw)


@st.composite
def nearest_cases(draw):
    tree, points = draw(tree_cases())
    return tree, draw(_coords(100.0)), draw(_coords(100.0))


# ----------------------------------------------------------------------
# Reference traversal over the flat arrays
# ----------------------------------------------------------------------
def flat_incremental_nearest(flat: FlatRTree, x: float, y: float):
    """Distance browsing over the flat layout, mirroring
    ``RStarTree.incremental_nearest`` operation for operation."""
    if flat.count[0] == 0:
        return
    counter = itertools.count()
    mbrs = flat.mbrs
    heap = [(flat.root_mbr.mindist(x, y), 0, next(counter), 0)]
    while heap:
        dist, kind, _, ident = heapq.heappop(heap)
        if kind == 1:
            yield int(flat.oids[ident]), dist
            continue
        lo = int(flat.first[ident])
        hi = lo + int(flat.count[ident])
        if flat.is_leaf[ident]:
            for col in range(lo, hi):
                d = math.hypot(float(flat.xs[col]) - x,
                               float(flat.ys[col]) - y)
                heapq.heappush(heap, (d, 1, next(counter), col))
        else:
            for child in range(lo, hi):
                if flat.count[child] == 0:
                    continue
                x1, y1, x2, y2 = mbrs[child].tolist()
                heapq.heappush(
                    heap,
                    (Rect(x1, y1, x2, y2).mindist(x, y), 0,
                     next(counter), child),
                )


# ----------------------------------------------------------------------
# Property: window queries match the node graph exactly
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(window_cases())
def test_window_query_matches_tree(case):
    tree, rect = case
    flat = FlatRTree.from_tree(tree)
    flat.stats = IOStats()  # unshare from the tree to compare accounting
    tree.stats.reset()
    want = tree.window_query(rect)
    got = flat.window_query(rect)
    assert sorted(p.oid for p in got) == sorted(p.oid for p in want)
    # Identical I/O accounting: same nodes touched, pushed or pruned.
    assert flat.stats.node_accesses == tree.stats.node_accesses
    assert flat.stats.leaf_accesses == tree.stats.leaf_accesses


# ----------------------------------------------------------------------
# The grouped batch walk against the scalar IWP start-set walk
# ----------------------------------------------------------------------
def _leaves_in_flat_order(tree):
    """The tree's leaf nodes in the order ``from_tree`` numbers them."""
    level = [tree.root]
    while not level[0].is_leaf:
        level = [child for node in level for child in node.entries]
    return level


def _grouped_case(height, group_count, per_group, seed):
    """A tree of the given height and ``group_count`` groups of
    ``per_group`` rectangles, each group issued from one leaf: windows
    around that leaf's objects, from a point to a tenth of the extent.
    The first group also holds a rectangle that misses the root MBR and
    (with ``per_group > 1``) one that covers all of it."""
    count, max_entries = {0: (7, 8), 2: (400, 16), 5: (1200, 4)}[height]
    points = make_uniform_points(count, seed=seed)
    tree = RStarTree.bulk_load(points, max_entries=max_entries)
    flat = FlatRTree.from_tree(tree)
    assert flat.height == height
    leaves = _leaves_in_flat_order(tree)
    leaf_lo = int(flat.level_bounds[-2])
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(leaves), min(group_count, len(leaves)),
                        replace=False).tolist()
    rects, leaf_ids = [], []
    for g, at in enumerate(picked):
        for k in range(per_group):
            p = leaves[at].entries[k % len(leaves[at].entries)]
            w, h = rng.uniform(0.0, 100.0, 2).tolist()
            rects.append((p.x - w, p.y - h / 2, p.x, p.y + h / 2))
            leaf_ids.append(leaf_lo + at)
        if g == 0:
            rects[-1] = (2000.0, 2000.0, 2100.0, 2050.0)
            if per_group > 1:
                rects[-2] = (-1.0, -1.0, 1001.0, 1001.0)
    return tree, flat, leaves, leaf_lo, np.array(rects).T, np.array(leaf_ids)


@pytest.mark.parametrize("height", [0, 2, 5])
@pytest.mark.parametrize("group_count,per_group",
                         [(1, 9), (2, 6), (17, 4), (17, 1)])
@pytest.mark.parametrize("budget", [None, 50], ids=["budget", "budget-50"])
def test_grouped_batch_walk_matches_the_scalar_start_set_walk(
        height, group_count, per_group, budget, monkeypatch):
    if budget is not None:  # many containment passes on any tree
        monkeypatch.setattr("repro.index.flat._PAIR_BUDGET", budget)
    tree, flat, leaves, leaf_lo, rects, leaf_ids = _grouped_case(
        height, group_count, per_group, seed=31 + height)
    iwp, flat_iwp = IWPIndex(tree), FlatIWP(flat)
    start_depth = flat_iwp.start_depths(leaf_ids, rects)
    nodes, leaf_hits, member_rect, member_cols = flat.window_query_batch(
        rects, start_depth, leaf_ids)
    assert (np.diff(member_rect) >= 0).all()
    for r, (rect, leaf_id) in enumerate(zip(rects.T.tolist(), leaf_ids.tolist())):
        tree.stats.reset()
        starts = iwp.start_nodes(leaves[leaf_id - leaf_lo], Rect(*rect))
        want = tree.window_query_from(starts, Rect(*rect))
        assert (int(nodes[r]), int(leaf_hits[r])) == (
            tree.stats.node_accesses, tree.stats.leaf_accesses)
        assert sorted(flat.oids[member_cols[member_rect == r]].tolist()) == \
            sorted(p.oid for p in want)
        assert (start_depth[r] != 0) == (starts[0] is not tree.root)
    # The rectangle off the data reads nothing, wherever it starts.
    off = per_group - 1
    assert (nodes[off], leaf_hits[off]) == (0, 0)
    # Default arguments: root starts, everything one group.
    root_nodes, _, root_rect, root_cols = flat.window_query_batch(rects)
    for r, rect in enumerate(rects.T.tolist()):
        tree.stats.reset()
        want = tree.window_query(Rect(*rect))
        assert int(root_nodes[r]) == tree.stats.node_accesses
        assert sorted(flat.oids[root_cols[root_rect == r]].tolist()) == \
            sorted(p.oid for p in want)


def test_rectangles_above_the_pair_budget():
    """Rectangles that hold the whole data set: far more (rectangle,
    column) pairs than one containment pass takes."""
    points = make_uniform_points(2000, seed=5)
    tree = RStarTree.bulk_load(points, max_entries=8)
    flat = FlatRTree.from_tree(tree)
    rects = np.array([(-1.0, -1.0, 1001.0, 1001.0), (0.0, 0.0, 1000.0, 600.0),
                      (-5.0, 300.0, 1005.0, 1005.0)]).T
    groups = np.array([4, 4, 9])
    nodes, leaf_hits, member_rect, member_cols = flat.window_query_batch(
        rects, None, groups)
    assert len(member_cols) > 4096
    for r, rect in enumerate(rects.T.tolist()):
        tree.stats.reset()
        want = tree.window_query(Rect(*rect))
        assert (int(nodes[r]), int(leaf_hits[r])) == (
            tree.stats.node_accesses, tree.stats.leaf_accesses)
        assert sorted(flat.oids[member_cols[member_rect == r]].tolist()) == \
            sorted(p.oid for p in want)


@pytest.mark.parametrize("height", [0, 2, 5])
def test_start_depths_per_row_leaves_equal_per_leaf_calls(height):
    _, flat, _, _, rects, leaf_ids = _grouped_case(height, 17, 4, seed=77)
    flat_iwp = FlatIWP(flat)
    per_row = flat_iwp.start_depths(leaf_ids, rects)
    for leaf in set(leaf_ids.tolist()):
        rows = leaf_ids == leaf
        assert per_row[rows].tolist() == \
            flat_iwp.start_depths(leaf, rects[:, rows]).tolist()
    if height:
        assert len(set(per_row.tolist())) > 1  # not every start is the root


@settings(max_examples=80, deadline=None)
@given(nearest_cases())
def test_mindist_order_matches_tree(case):
    tree, qx, qy = case
    flat = FlatRTree.from_tree(tree)
    want = [(obj.oid, dist)
            for obj, dist, _leaf in tree.incremental_nearest(qx, qy)]
    got = list(flat_incremental_nearest(flat, qx, qy))
    assert got == want  # bitwise distances, identical tie order


@settings(max_examples=40, deadline=None)
@given(tree_cases())
def test_flat_layout_is_valid(case):
    tree, points = case
    flat = FlatRTree.from_tree(tree)
    flat.validate()
    assert flat.size == len(points)
    assert sorted(p.oid for p in flat.iter_objects()) == \
        sorted(p.oid for p in points)


# ----------------------------------------------------------------------
# Persistence: mmap load equals load_tree rebuild (v1 and v2 files)
# ----------------------------------------------------------------------
def _assert_same_layout(a: FlatRTree, b: FlatRTree) -> None:
    np.testing.assert_array_equal(a.mbrs, b.mbrs)
    np.testing.assert_array_equal(a.is_leaf, b.is_leaf)
    np.testing.assert_array_equal(a.first, b.first)
    np.testing.assert_array_equal(a.count, b.count)
    np.testing.assert_array_equal(a.parent, b.parent)
    np.testing.assert_array_equal(a.level_bounds, b.level_bounds)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.ys, b.ys)
    np.testing.assert_array_equal(a.oids, b.oids)
    np.testing.assert_array_equal(a.leaf_of, b.leaf_of)
    assert (a.size, a.max_entries, a.min_entries) == \
        (b.size, b.max_entries, b.min_entries)


@pytest.mark.parametrize("format_version", [1, 2])
def test_from_page_file_matches_load_tree(tmp_path, format_version):
    points = make_clustered_points(400, clusters=4, seed=97)
    tree = RStarTree.bulk_load(points, max_entries=16)
    path = tmp_path / f"tree_v{format_version}.pages"
    save_tree(tree, path, format_version=format_version)

    mmapped = FlatRTree.from_page_file(path)
    rebuilt = FlatRTree.from_tree(load_tree(path))
    mmapped.validate()
    _assert_same_layout(mmapped, rebuilt)

    # And both answer queries exactly like the original node graph.
    for rect in (Rect(100, 100, 400, 400), Rect(0, 0, 1000, 1000),
                 Rect(950, 950, 960, 960)):
        want = sorted(p.oid for p in tree.window_query(rect))
        assert sorted(p.oid for p in mmapped.window_query(rect)) == want
    qx, qy = 321.0, 654.0
    want = [(obj.oid, dist)
            for obj, dist, _leaf in tree.incremental_nearest(qx, qy)]
    assert list(flat_incremental_nearest(mmapped, qx, qy)) == want


@pytest.mark.parametrize("format_version", [1, 2])
def test_from_page_file_insert_built_tree(tmp_path, format_version):
    # Insert-built (non-bulk-loaded) trees have different shapes;
    # the page-file assembly must reproduce them too.
    tree = RStarTree(max_entries=8)
    for p in make_uniform_points(150, seed=99):
        tree.insert(p)
    path = tmp_path / "grown.pages"
    save_tree(tree, path, format_version=format_version)
    mmapped = FlatRTree.from_page_file(path)
    _assert_same_layout(mmapped, FlatRTree.from_tree(load_tree(path)))
    rect = Rect(200, 200, 700, 700)
    assert sorted(p.oid for p in mmapped.window_query(rect)) == \
        sorted(p.oid for p in tree.window_query(rect))


# ----------------------------------------------------------------------
# Updates: a splice of the previous snapshot equals from_tree
# ----------------------------------------------------------------------
_FIELDS = ("mbrs", "is_leaf", "first", "count", "parent", "level_bounds",
           "xs", "ys", "oids", "leaf_of")


def _frozen(flat: FlatRTree):
    return ({name: getattr(flat, name).copy() for name in _FIELDS},
            list(flat._objects), flat.size)


def _assert_same_snapshot(a: FlatRTree, b: FlatRTree) -> None:
    _assert_same_layout(a, b)
    for name in _FIELDS:
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    assert a._objects == b._objects
    assert a.stats is b.stats


@pytest.mark.parametrize("max_entries", [4, 5, 8])
@pytest.mark.parametrize("batch", [1, 3], ids=["each", "batched"])
def test_splice_equals_from_tree_through_updates(max_entries, batch):
    """Seeded inserts and deletes on a small-fanout tree — splits, forced
    reinserts, condense, root growth and shrink, a drain to empty and a
    refill — with a refresh after every ``batch`` updates that splices
    the gathered leaves, or rebuilds after a structural edit."""
    rng = random.Random(100 * max_entries + batch)
    tree = RStarTree(max_entries=max_entries)
    flat = FlatRTree.from_tree(tree)
    live: list[PointObject] = []
    ops = ["insert" if rng.random() < 0.7 else "delete" for _ in range(300)]
    ops += ["delete"] * 400 + ["insert"] * 40  # drain (extra deletes skip), refill
    pending: set | None = set()
    seen = {"spliced": 0, "rebuilt": 0, "reinsert_moves": 0, "condensed": 0,
            "root_grew": 0, "root_shrank": 0, "drained": 0}
    for step, op in enumerate(ops):
        height = tree.height
        if op == "insert":
            obj = PointObject(step, rng.randint(0, 200) / 2, rng.randint(0, 200) / 2)
            tree.insert(obj)
            live.append(obj)
            if tree.last_edit is not None and len(tree.last_edit) > 1:
                seen["reinsert_moves"] += 1
        elif live:
            assert tree.delete(live.pop(rng.randrange(len(live))))
            seen["condensed"] += tree.last_edit is None
            seen["drained"] += not live
        else:
            continue
        seen["root_grew"] += tree.height > height
        seen["root_shrank"] += tree.height < height
        edit = tree.last_edit
        pending = None if edit is None or pending is None else pending | edit
        if step % batch:
            continue
        old, before = flat, _frozen(flat)
        if pending is None:
            flat = FlatRTree.from_tree(tree)
            seen["rebuilt"] += 1
        else:
            flat = flat.splice(pending)
            seen["spliced"] += 1
        pending = set()
        _assert_same_snapshot(flat, FlatRTree.from_tree(tree))
        after = _frozen(old)
        for name in _FIELDS:
            np.testing.assert_array_equal(after[0][name], before[0][name])
        assert after[1:] == before[1:]
    assert all(seen.values()), seen
    flat.validate()


def test_empty_and_single_object_trees():
    empty = FlatRTree.from_tree(RStarTree(max_entries=8))
    assert empty.size == 0
    assert empty.root_mbr is None
    assert empty.window_query(Rect(0, 0, 10, 10)) == []
    assert list(flat_incremental_nearest(empty, 0.0, 0.0)) == []

    single = RStarTree(max_entries=8)
    single.insert(PointObject(7, 3.0, 4.0))
    flat = FlatRTree.from_tree(single)
    flat.validate()
    assert [p.oid for p in flat.window_query(Rect(0, 0, 10, 10))] == [7]
    assert list(flat_incremental_nearest(flat, 0.0, 0.0)) == [(7, 5.0)]
