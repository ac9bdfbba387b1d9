"""Unit tests for paged tree persistence (repro.index.persistence)."""

import random

import pytest

from repro.geometry import Rect
from repro.index import RStarTree, load_tree, save_tree, validate_tree
from repro.storage import IOStats
from tests.conftest import make_uniform_points


class TestSaveLoad:
    def test_roundtrip_preserves_objects(self, tmp_path):
        points = make_uniform_points(700, seed=13)
        tree = RStarTree.bulk_load(points, max_entries=16)
        path = tmp_path / "tree.db"
        pages = save_tree(tree, path)
        assert pages == tree.node_count() + 1  # nodes + metadata page
        loaded = load_tree(path)
        validate_tree(loaded)
        assert loaded.size == tree.size
        assert sorted(o.oid for o in loaded.iter_objects()) == sorted(
            o.oid for o in tree.iter_objects()
        )

    def test_roundtrip_preserves_structure(self, tmp_path):
        points = make_uniform_points(300, seed=1)
        tree = RStarTree.bulk_load(points, max_entries=8)
        path = tmp_path / "tree.db"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.height == tree.height
        assert loaded.max_entries == tree.max_entries
        assert loaded.min_entries == tree.min_entries
        assert loaded.root.mbr == tree.root.mbr

    def test_loaded_tree_answers_queries(self, tmp_path):
        points = make_uniform_points(500, seed=23)
        tree = RStarTree.bulk_load(points, max_entries=16)
        path = tmp_path / "tree.db"
        save_tree(tree, path)
        loaded = load_tree(path)
        rng = random.Random(6)
        for _ in range(10):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            rect = Rect(x, y, x + 80, y + 80)
            got = sorted(o.oid for o in loaded.window_query(rect, io=None))
            expect = sorted(p.oid for p in points if rect.contains_object(p))
            assert got == expect

    def test_load_counts_page_reads(self, tmp_path):
        points = make_uniform_points(200, seed=3)
        tree = RStarTree.bulk_load(points, max_entries=8)
        path = tmp_path / "tree.db"
        save_tree(tree, path)
        stats = IOStats()
        load_tree(path, stats=stats)
        assert stats.page_reads == tree.node_count() + 1

    def test_dynamic_tree_roundtrip(self, tmp_path):
        points = make_uniform_points(250, seed=31)
        tree = RStarTree(max_entries=8)
        tree.extend(points)
        path = tmp_path / "tree.db"
        save_tree(tree, path)
        loaded = load_tree(path)
        validate_tree(loaded)
        assert loaded.size == 250

    def test_loaded_tree_is_updatable(self, tmp_path):
        points = make_uniform_points(200, seed=41)
        tree = RStarTree.bulk_load(points[:150], max_entries=8)
        path = tmp_path / "tree.db"
        save_tree(tree, path)
        loaded = load_tree(path)
        loaded.extend(points[150:])
        for p in points[:50]:
            assert loaded.delete(p)
        validate_tree(loaded)

    def test_missing_root_rejected(self, tmp_path):
        import struct

        from repro.storage import CorruptPageError, PageFile

        path = tmp_path / "empty.db"
        with PageFile(path, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, struct.pack("<qqq", 8, 3, 0))
        with pytest.raises(CorruptPageError):
            load_tree(path)
