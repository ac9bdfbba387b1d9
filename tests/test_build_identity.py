"""The array-pass builders against per-object references.

Each reference below is the per-object construction the array passes
replaced, written out here: STR tiling with ``sorted(key=...)`` and one
``Node.add_entry`` per entry, Hilbert packing over the scalar curve
transform, the page-file reconstruction decoding entry by entry, the
per-point clamp of ``from_coordinates`` and the 2-D ``rng.shuffle`` of
``clustered``.  The builders must match them bit for bit: node ids,
entry order (the same objects), MBR bytes and parent links.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest

from repro.datasets import ca_like, clustered, gaussian, ny_like, uniform
from repro.datasets.dataset import PAPER_EXTENT, Dataset, from_coordinates
from repro.geometry import PointObject, Rect
from repro.index import (
    RStarTree,
    hilbert_bulk_load,
    hilbert_key,
    load_tree,
    save_tree,
)
from repro.storage import IOStats, PageFile
from tests.conftest import pooled_points

# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def _ref_rebalance_tail(chunks, min_size):
    if len(chunks) <= 1:
        return chunks
    out = []
    for chunk in chunks:
        if out and len(chunk) < min_size:
            merged = out.pop() + chunk
            half = len(merged) // 2
            out.append(merged[:half])
            out.append(merged[half:])
        else:
            out.append(chunk)
    return out


def _ref_str_tiles(items, capacity, key_x, key_y):
    n = len(items)
    pages = math.ceil(n / capacity)
    slab_count = max(1, math.ceil(math.sqrt(pages)))
    per_slab = math.ceil(n / slab_count)
    by_x = sorted(items, key=key_x)
    for s in range(0, n, per_slab):
        slab = sorted(by_x[s:s + per_slab], key=key_y)
        for c in range(0, len(slab), capacity):
            yield slab[c:c + capacity]


def _ref_pack(tree, level_chunks, is_leaf):
    out = []
    for chunk in level_chunks:
        node = tree._new_node(is_leaf=is_leaf)
        for entry in chunk:
            node.add_entry(entry)
        out.append(node)
    return out


def _ref_capacity(tree, fill):
    return min(tree.max_entries,
               max(2 * tree.min_entries, int(tree.max_entries * fill)))


def ref_str_bulk_load(objects, max_entries, fill):
    tree = RStarTree(max_entries=max_entries)
    capacity = _ref_capacity(tree, fill)
    level = _ref_pack(tree, _ref_rebalance_tail(list(_ref_str_tiles(
        list(objects), capacity, lambda p: p.x, lambda p: p.y)),
        tree.min_entries), True)
    while len(level) > 1:
        level = _ref_pack(tree, _ref_rebalance_tail(list(_ref_str_tiles(
            level, capacity, lambda n: n.mbr.center[0],
            lambda n: n.mbr.center[1])), tree.min_entries), False)
    tree.root = level[0]
    tree.root.parent = None
    tree.size = len(objects)
    return tree


def _ref_hilbert_d(x, y, order):
    side = 1 << order
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def ref_hilbert_bulk_load(objects, max_entries, fill, order=16):
    tree = RStarTree(max_entries=max_entries)
    extent = Rect.bounding(objects)
    side = 1 << order
    span_x = max(extent.width, 1e-12)
    span_y = max(extent.height, 1e-12)

    def key(p):
        cx = min(side - 1, int((p.x - extent.x1) / span_x * side))
        cy = min(side - 1, int((p.y - extent.y1) / span_y * side))
        return _ref_hilbert_d(max(cx, 0), max(cy, 0), order)

    ordered = sorted(objects, key=key)
    capacity = _ref_capacity(tree, fill)
    level = _ref_pack(tree, _ref_rebalance_tail(
        [ordered[i:i + capacity] for i in range(0, len(ordered), capacity)],
        tree.min_entries), True)
    while len(level) > 1:
        level = _ref_pack(tree, _ref_rebalance_tail(
            [level[i:i + capacity] for i in range(0, len(level), capacity)],
            tree.min_entries), False)
    tree.root = level[0]
    tree.root.parent = None
    tree.size = len(objects)
    return tree


def ref_load_tree(path):
    """Post-order reconstruction, one ``struct`` unpack and one
    ``add_entry`` per entry."""
    with PageFile(path, stats=IOStats()) as file:
        max_entries, min_entries, size = struct.unpack_from(
            "<qqq", file.read_page(1), 0)
        tree = RStarTree(max_entries=max_entries, min_entries=min_entries)
        records = {}
        post_order = []
        stack = [(file.root_page, False)]
        while stack:
            page_id, expanded = stack.pop()
            if expanded:
                post_order.append(page_id)
                continue
            data = file.read_page(page_id)
            flags, count = struct.unpack_from("<BH", data, 0)
            if flags & 1:
                record = ("leaf", [PointObject(*struct.unpack_from(
                    "<qdd", data, 3 + 24 * i)) for i in range(count)])
            else:
                record = ("node", [struct.unpack_from("<q", data, 3 + 40 * i)[0]
                                   for i in range(count)])
            records[page_id] = record
            stack.append((page_id, True))
            if record[0] == "node":
                stack.extend((c, False) for c in reversed(record[1]))
        nodes = {}
        for page_id in post_order:
            kind, entries = records[page_id]
            node = tree._new_node(is_leaf=kind == "leaf")
            for entry in entries:
                node.add_entry(entry if kind == "leaf" else nodes[entry])
            nodes[page_id] = node
    tree.root = nodes[file.root_page]
    tree.root.parent = None
    tree.size = size
    return tree


def ref_from_coordinates(name, coords, extent):
    points = []
    for i, (x, y) in enumerate(coords):
        cx = min(max(float(x), extent.x1), extent.x2)
        cy = min(max(float(y), extent.y1), extent.y2)
        points.append(PointObject(i, cx, cy))
    return Dataset(name, tuple(points), extent)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def shape(tree: RStarTree, same_objects: bool = True) -> list:
    """Every node in BFS order: id, kind, parent id, MBR bytes and its
    entries (objects by identity, or by oid and coordinate bytes for
    objects decoded from a page file; children by id)."""
    out = [("tree", tree.size, tree._next_node_id, tree.last_edit,
            tree.max_entries, tree.min_entries)]
    level = [tree.root]
    while level:
        nxt = []
        for node in level:
            mbr = None if node.mbr is None else _bits(
                node.mbr.x1, node.mbr.y1, node.mbr.x2, node.mbr.y2)
            parent = None if node.parent is None else node.parent.node_id
            if node.is_leaf:
                entries = [id(p) if same_objects else (p.oid, _bits(p.x, p.y))
                           for p in node.entries]
            else:
                entries = [child.node_id for child in node.entries]
                assert all(child.parent is node for child in node.entries)
                nxt.extend(node.entries)
            out.append((node.node_id, node.is_leaf, parent, mbr, entries))
        level = nxt
    return out


CONFIGS = [(m, f) for m in (4, 8, 50) for f in (0.5, 0.9, 1.0)]
LOADERS = [(RStarTree.bulk_load, ref_str_bulk_load),
           (hilbert_bulk_load, ref_hilbert_bulk_load)]
LOADER_IDS = ["str", "hilbert"]


# ----------------------------------------------------------------------
# Bulk loading
# ----------------------------------------------------------------------


@pytest.mark.parametrize("loader,reference", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize("max_entries,fill", CONFIGS)
def test_every_size_to_three_capacities(loader, reference, max_entries, fill):
    """Sizes 1..3x capacity pass through every tail-rebalance case."""
    capacity = _ref_capacity(RStarTree(max_entries=max_entries), fill)
    for n in range(1, 3 * capacity + 1):
        pts = pooled_points(n, seed=n)
        assert shape(loader(pts, max_entries=max_entries, fill=fill)) == \
            shape(reference(pts, max_entries, fill)), n


@pytest.mark.parametrize("loader,reference", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize("max_entries,fill", CONFIGS)
@pytest.mark.parametrize("fix", ["none", "x", "y"])
def test_deep_trees(loader, reference, max_entries, fill, fix):
    """Several internal levels; duplicates, or one coordinate constant."""
    fixed = {"none": {}, "x": {"fix_x": 2.0}, "y": {"fix_y": -0.0}}[fix]
    pts = pooled_points(900, seed=max_entries, **fixed)
    assert shape(loader(pts, max_entries=max_entries, fill=fill)) == \
        shape(reference(pts, max_entries, fill))


@pytest.mark.parametrize("loader,reference", LOADERS, ids=LOADER_IDS)
def test_continuous_coordinates(loader, reference):
    pts = list(ca_like(4000, seed=3).points)
    assert shape(loader(pts, max_entries=50, fill=0.9)) == \
        shape(reference(pts, 50, 0.9))


def test_hilbert_key_outside_extent():
    extent = Rect(0.0, 0.0, 10.0, 10.0)
    for x, y in [(-5.0, 3.0), (3.0, 40.0), (10.0, 10.0), (-0.0, 9.99)]:
        cx = min((1 << 16) - 1, int(x / 10.0 * (1 << 16)))
        cy = min((1 << 16) - 1, int(y / 10.0 * (1 << 16)))
        assert hilbert_key(PointObject(0, x, y), extent) == \
            _ref_hilbert_d(max(cx, 0), max(cy, 0), 16)


# ----------------------------------------------------------------------
# Page-file reconstruction
# ----------------------------------------------------------------------


def _dynamic_tree(n: int, seed: int) -> RStarTree:
    tree = RStarTree(max_entries=6)
    pts = pooled_points(n, seed)
    rng = np.random.default_rng(seed)
    for p in pts:
        tree.insert(PointObject(p.oid, p.x + float(rng.integers(0, 50)), p.y))
    for p in list(tree.iter_objects())[::3]:
        tree.delete(p)
    return tree


@pytest.mark.parametrize("build", [
    lambda: RStarTree(),
    lambda: RStarTree.bulk_load(pooled_points(1, seed=1)),
    lambda: RStarTree.bulk_load(pooled_points(700, seed=2), max_entries=4),
    lambda: hilbert_bulk_load(pooled_points(300, seed=3), max_entries=8,
                              fill=0.5),
    lambda: _dynamic_tree(400, seed=4),
], ids=["empty", "one", "str", "hilbert", "dynamic"])
def test_load_tree_matches_reference(tmp_path, build):
    path = tmp_path / "tree.pages"
    save_tree(build(), path)
    assert shape(load_tree(path), same_objects=False) == \
        shape(ref_load_tree(path), same_objects=False)


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------


def _point_bytes(ds: Dataset) -> bytes:
    return b"".join(struct.pack("<qdd", p.oid, p.x, p.y) for p in ds.points)


@pytest.mark.parametrize("seed", range(4))
def test_from_coordinates_clamps_like_the_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(5.0, 8.0, size=(500, 2))
    coords[::7] = 0.0
    coords[::11] = -0.0
    coords[::13] = 10.0
    coords[3] = (-0.0, 10.0)
    for extent in (Rect(0.0, 0.0, 10.0, 10.0), Rect(-0.0, 2.5, 10.0, 12.0)):
        assert _point_bytes(from_coordinates("d", coords, extent)) == \
            _point_bytes(ref_from_coordinates("d", coords, extent))
    listed = [tuple(row) for row in coords.tolist()]
    assert _point_bytes(from_coordinates("d", listed)) == \
        _point_bytes(ref_from_coordinates("d", listed, PAPER_EXTENT))


@pytest.mark.parametrize("seed", [0, 1601 + 1, 1898 + 1, 123456789])
def test_permutation_draws_what_shuffle_draws(seed):
    coords = np.random.default_rng(99).normal(size=(1001, 2))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    shuffled = coords.copy()
    a.shuffle(shuffled)
    permuted = coords[b.permutation(len(coords))]
    assert shuffled.tobytes() == permuted.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


#: SHA-256 of every generator's packed points, taken from the per-object
#: implementation.
GENERATOR_DIGESTS = {
    "ca": (lambda: ca_like(3000, seed=5),
           "a56d134572c2ef9debf77c8ac7d7553941dba96b93ed3f34ea8c81fa1ef4d202"),
    "ny": (lambda: ny_like(3000, seed=6),
           "2e2ae2043aa09ee17659998415d80d2ad18ad7a7e4936236dd2e1034cea0b312"),
    "gaussian": (lambda: gaussian(3000, std=4000.0, seed=7),
                 "8d66b0cca34864930a064ebc0da974e296cd7fa5aae4b11f72bad1a41efe2f65"),
    "uniform": (lambda: uniform(3000, seed=8),
                "00931f9a07d3d54c6c58a6418ce96983756c62ef4385449c7bbfe21bff7e498d"),
    "clustered": (lambda: clustered(3000, [(0.0, 0.0), (10000.0, 5000.0)],
                                    [900.0, 1500.0], seed=9),
                  "32fcb6e73e1107fb8931578e4d60bc3522f67f081596b9f4031c1fc186011b3a"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generators_byte_identical(name):
    make, digest = GENERATOR_DIGESTS[name]
    assert hashlib.sha256(_point_bytes(make())).hexdigest() == digest
