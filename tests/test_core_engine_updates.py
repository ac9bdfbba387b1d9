"""Tests for dynamic updates through the engine (insert/delete with DEP
grid maintenance and lazy IWP rebuild)."""

import math

import pytest

from repro.core import (
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    OptimizationFlags,
    Scheme,
    nwc_sweep,
)
from repro.geometry import PointObject, Rect
from repro.grid import DensityGrid
from repro.index import FlatRTree, RStarTree, load_tree, save_tree, validate_tree
from tests.conftest import (make_clustered_points, make_uniform_points,
                            pooled_points)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) or a == b == float("inf")


def _bits(objects) -> list[tuple]:
    """Objects by oid and the bits of their coordinates."""
    return [(p.oid, math.copysign(1.0, p.x), p.x, math.copysign(1.0, p.y), p.y)
            for p in objects]


def build_engine(scheme, points):
    tree = RStarTree.bulk_load(points, max_entries=16)
    return NWCEngine(tree, scheme, grid_cell_size=50.0)


class TestInsert:
    @pytest.mark.parametrize("scheme", [Scheme.NWC_PLUS, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_inserted_cluster_becomes_answer(self, scheme):
        pts = make_uniform_points(300, seed=61)
        engine = build_engine(scheme, pts)
        query = NWCQuery(500, 500, 20, 20, 4)
        before = engine.nwc(query)
        # Plant a tight cluster right next to the query point.
        planted = [PointObject(10_000 + i, 505.0 + i, 505.0) for i in range(4)]
        for p in planted:
            engine.insert(p)
        after = engine.nwc(query)
        assert after.found
        assert after.distance < before.distance
        assert {p.oid for p in after.objects} == {p.oid for p in planted}
        validate_tree(engine.tree)

    def test_insert_keeps_answers_exact(self):
        pts = make_clustered_points(250, clusters=3, seed=63)
        engine = build_engine(Scheme.NWC_STAR, pts)
        extra = make_uniform_points(60, seed=64)
        all_points = list(pts)
        for i, p in enumerate(extra):
            obj = PointObject(20_000 + i, p.x, p.y)
            engine.insert(obj)
            all_points.append(obj)
        query = NWCQuery(400, 600, 80, 80, 5)
        assert _close(engine.nwc(query).distance, nwc_sweep(all_points, query).distance)

    def test_insert_outside_grid_extent_stays_correct(self):
        # The auto-built grid covers the root MBR at build time; inserts
        # beyond it must trigger a rebuild, not an unsafe prune.
        pts = make_uniform_points(200, seed=65)
        engine = build_engine(Scheme.NWC_STAR, pts)
        planted = [PointObject(30_000 + i, 1500.0 + i, 1500.0) for i in range(4)]
        for p in planted:
            engine.insert(p)
        query = NWCQuery(1500, 1500, 20, 20, 4)
        result = engine.nwc(query)
        assert result.found
        assert {p.oid for p in result.objects} == {p.oid for p in planted}

    def test_prebuilt_grid_cell_size_survives_rebuild(self):
        """A pre-built grid's cell size (not the constructor default) must be
        used when updates force a lazy grid rebuild."""
        tree = RStarTree.bulk_load(make_clustered_points(600, seed=23),
                                   max_entries=16)
        grid = DensityGrid.build(tree.iter_objects(), Rect(0, 0, 1100, 1100), 80.0)
        engine = NWCEngine(tree, OptimizationFlags(dep=True), grid=grid)
        assert engine._grid_cell_size == 80.0
        outsider = PointObject(999_999, 2000.0, 2000.0)
        engine.insert(outsider)  # outside the grid extent -> dirty rebuild
        engine.nwc(NWCQuery(500.0, 500.0, 60.0, 60.0, 3))
        assert engine.grid.cell_size == 80.0
        assert engine.grid is not grid  # actually rebuilt
        assert engine.delete(outsider)


class TestDelete:
    @pytest.mark.parametrize("scheme", [Scheme.NWC_PLUS, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_deleting_answer_changes_result(self, scheme):
        pts = make_clustered_points(400, clusters=3, seed=67)
        engine = build_engine(scheme, pts)
        query = NWCQuery(500, 500, 60, 60, 4)
        first = engine.nwc(query)
        assert first.found
        for p in first.objects:
            assert engine.delete(p)
        second = engine.nwc(query)
        if second.found:
            assert second.distance >= first.distance
            assert not (set(p.oid for p in second.objects)
                        & set(p.oid for p in first.objects))
        remaining = [p for p in pts if p not in first.objects]
        assert _close(second.distance, nwc_sweep(remaining, query).distance)

    def test_delete_missing_returns_false(self):
        pts = make_uniform_points(100, seed=69)
        engine = build_engine(Scheme.NWC_STAR, pts)
        assert not engine.delete(PointObject(999_999, -5.0, -5.0))

    def test_grid_counts_follow_deletes(self):
        pts = make_uniform_points(200, seed=71)
        engine = build_engine(Scheme.DEP, pts)
        total_before = engine.grid.total
        assert engine.delete(pts[0])
        engine.nwc(NWCQuery(500, 500, 50, 50, 2))  # triggers refresh path
        assert engine.grid.total == total_before - 1


class TestIWPRebuild:
    def test_iwp_refreshed_lazily(self):
        # Scalar executions rebuild the object-graph pointer index lazily.
        pts = make_uniform_points(500, seed=73)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=50.0,
                           execution="python")
        old_iwp = engine.iwp
        engine.insert(PointObject(40_000, 123.0, 456.0))
        assert engine._iwp_dirty
        engine.nwc(NWCQuery(100, 400, 40, 40, 2))
        assert engine.iwp is not old_iwp
        assert not engine._iwp_dirty

    def test_flat_snapshot_refreshed_lazily(self):
        # Columnar execution (the default) refreshes the flat snapshot
        # and its FlatIWP instead of the scalar pointer index.
        pts = make_uniform_points(500, seed=73)
        engine = build_engine(Scheme.NWC_STAR, pts)
        engine.nwc(NWCQuery(100, 400, 40, 40, 2))
        old_flat = engine._flat
        old_flat_iwp = engine._flat_iwp
        assert old_flat is not None and old_flat_iwp is not None
        engine.insert(PointObject(40_000, 123.0, 456.0))
        assert engine._flat_edit
        engine.nwc(NWCQuery(100, 400, 40, 40, 2))
        assert engine._flat is not old_flat
        assert engine._flat_iwp is not old_flat_iwp
        assert not engine._flat_edit


class TestSnapshotSplice:
    """Updates splice the flat snapshot; ``FlatRTree.from_tree`` runs only
    after a structural edit."""

    @staticmethod
    def _count_from_tree(monkeypatch) -> list:
        calls = []
        real = FlatRTree.from_tree.__func__

        def counted(cls, tree):
            calls.append(tree)
            return real(cls, tree)

        monkeypatch.setattr(FlatRTree, "from_tree", classmethod(counted))
        return calls

    @staticmethod
    def _update_both(engines, op, obj):
        for engine in engines:
            assert getattr(engine, op)(obj) is not False

    @staticmethod
    def _assert_same(oracle, columnar, query):
        """Same answer and counters; the objects bit for bit, so a
        ``-0.0`` built from the columns is checked as ``-0.0``."""
        a, b = oracle.nwc(query), columnar.nwc(query)
        assert (a.found, a.distance, _bits(a.objects)) == \
            (b.found, b.distance, _bits(b.objects))
        assert a.stats == b.stats

    def test_non_structural_updates_never_rebuild(self, monkeypatch):
        pts = make_clustered_points(400, clusters=3, seed=87)
        oracle, columnar = (
            NWCEngine(RStarTree.bulk_load(pts, max_entries=16),
                      Scheme.NWC_STAR, grid_cell_size=50.0, execution=mode)
            for mode in ("python", "columnar"))
        query = NWCQuery(500, 500, 60, 60, 4)
        self._assert_same(oracle, columnar, query)
        calls = self._count_from_tree(monkeypatch)
        for i, p in enumerate(pts[:40:4]):
            extra = PointObject(70_000 + i, p.x + 1.0, p.y - 1.0)
            self._update_both((oracle, columnar), "insert", extra)
            assert columnar.tree.last_edit  # leaves only
            self._assert_same(oracle, columnar, query)
            self._update_both((oracle, columnar), "delete", p)
            assert columnar.tree.last_edit
            self._assert_same(oracle, columnar, query)
        assert calls == []
        # Inserts piling into one leaf: forced reinsertion, then a split.
        for i in range(40):
            self._update_both((oracle, columnar), "insert",
                              PointObject(71_000 + i, 500.0 + i / 8, 500.0))
            self._assert_same(oracle, columnar, query)
            if columnar.tree.last_edit is None:
                break
        assert columnar.tree.last_edit is None
        assert len(calls) == 1

    @pytest.mark.parametrize("points,query,inserts", [
        (make_uniform_points(400, seed=89), NWCQuery(300, 300, 50, 50, 3),
         [(300.0, 310.0), (301.0, 310.0), (302.0, 310.0)]),
        # Duplicates and both signs of zero, in answers and in inserts.
        (pooled_points(400, seed=89), NWCQuery(0.5, 0.5, 1.0, 1.0, 3),
         [(0.5, -0.0), (-0.0, 0.5), (-0.0, -0.0)]),
    ], ids=["uniform", "pooled"])
    def test_page_file_snapshot_splices_from_its_first_update(
            self, tmp_path, monkeypatch, points, query, inserts):
        """A page-file snapshot is ``from_tree`` of a loaded tree, so it
        carries a node map like any other: no update rebuilds it."""
        path = tmp_path / "tree.pages"
        save_tree(RStarTree.bulk_load(points, max_entries=16), path)
        oracle = NWCEngine(load_tree(path), Scheme.NWC_STAR,
                           grid_cell_size=50.0, execution="python")
        columnar = NWCEngine(
            load_tree(path), Scheme.NWC_STAR, grid_cell_size=50.0,
            flat=FlatRTree.from_page_file(path))
        calls = self._count_from_tree(monkeypatch)
        self._assert_same(oracle, columnar, query)
        for i, (x, y) in enumerate(inserts):
            self._update_both((oracle, columnar), "insert",
                              PointObject(72_000 + i, x, y))
            assert columnar.tree.last_edit
            self._assert_same(oracle, columnar, query)
        assert calls == []

    def test_shard_worker_splices_from_its_first_update(self, tmp_path,
                                                         monkeypatch):
        """A worker booted from its partition file reads it once, and its
        snapshot carries the node map: no update rebuilds it."""
        from repro.shard import make_shard_engine, partition_dataset

        manifest = partition_dataset(
            make_uniform_points(600, seed=91), 2, 60.0, tmp_path,
            Rect(0.0, 0.0, 1000.0, 1000.0), cell_size=50.0)
        page_reads = []
        real_page_file = FlatRTree.from_page_file.__func__
        monkeypatch.setattr(FlatRTree, "from_page_file", classmethod(
            lambda cls, *a, **k: page_reads.append(a) or
            real_page_file(cls, *a, **k)))
        worker = make_shard_engine(manifest, str(tmp_path), 0)
        assert page_reads == []
        oracle = NWCEngine(load_tree(manifest.shard_path(str(tmp_path), 0)),
                           Scheme.NWC_STAR, extent=manifest.extent,
                           execution="python")
        calls = self._count_from_tree(monkeypatch)
        _lo, hi = manifest.owned_interval(0)
        query = NWCQuery(hi - 40.0, 310.0, 50, 50, 3)
        self._assert_same(oracle, worker, query)
        for i in range(3):
            self._update_both((oracle, worker), "insert",
                              PointObject(73_000 + i, hi - 30.0 - i, 310.0))
            assert worker.tree.last_edit
            self._assert_same(oracle, worker, query)
        assert calls == []


class TestMutationEdges:
    """Edge cases at the boundaries of the mutable engine: draining the
    dataset, refilling it, and n at/over the dataset size."""

    @pytest.mark.parametrize("scheme", [Scheme.DEP, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_delete_last_object_then_query(self, scheme):
        pts = make_uniform_points(6, seed=75)
        engine = build_engine(scheme, pts)
        for p in pts:
            assert engine.delete(p)
        assert engine.tree.size == 0
        result = engine.nwc(NWCQuery(500, 500, 50, 50, 1))
        assert not result.found
        assert result.reason == "n exceeds dataset size"
        assert result.node_accesses == 0

    @pytest.mark.parametrize("scheme", [Scheme.DEP, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_insert_after_draining_rebuilds_structures(self, scheme):
        pts = make_uniform_points(40, seed=77)
        engine = build_engine(scheme, pts)
        for p in pts:
            assert engine.delete(p)
        fresh = [PointObject(50_000 + i, 480.0 + 5 * i, 510.0) for i in range(4)]
        for p in fresh:
            engine.insert(p)
        query = NWCQuery(500, 500, 40, 40, 3)
        result = engine.nwc(query)
        assert result.found
        assert result.reason is None
        assert _close(result.distance, nwc_sweep(fresh, query).distance)
        validate_tree(engine.tree)

    @pytest.mark.parametrize("scheme", [Scheme.DEP, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_insert_after_delete_stays_exact(self, scheme):
        pts = make_clustered_points(120, clusters=3, seed=79)
        engine = build_engine(scheme, pts)
        removed = pts[:30]
        for p in removed:
            assert engine.delete(p)
        added = [PointObject(60_000 + i, p.x + 3.0, p.y - 3.0)
                 for i, p in enumerate(removed[:10])]
        for p in added:
            engine.insert(p)
        current = [p for p in pts if p not in removed] + added
        query = NWCQuery(450, 550, 70, 70, 4)
        assert _close(engine.nwc(query).distance,
                      nwc_sweep(current, query).distance)

    @pytest.mark.parametrize("execution", ["python", "columnar"])
    def test_n_equal_to_dataset_size(self, execution):
        pts = make_uniform_points(8, seed=81)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=50.0,
                           execution=execution)
        query = NWCQuery(500, 500, 1000, 1000, len(pts))
        result = engine.nwc(query)
        assert result.reason is None  # satisfiable: runs the real search
        assert _close(result.distance, nwc_sweep(pts, query).distance)

    @pytest.mark.parametrize("execution", ["python", "columnar"])
    def test_n_exceeding_dataset_size_is_explicit_empty(self, execution):
        pts = make_uniform_points(8, seed=83)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=50.0,
                           execution=execution)
        query = NWCQuery(500, 500, 1000, 1000, len(pts) + 1)
        result = engine.nwc(query)
        assert not result.found
        assert result.objects == ()
        assert result.distance == float("inf")
        assert result.reason == "n exceeds dataset size"
        assert result.node_accesses == 0  # proved without touching the index
        knwc = engine.knwc(KNWCQuery(query, k=2, m=1))
        assert knwc.groups == ()
        assert knwc.reason == "n exceeds dataset size"

    def test_scalar_and_columnar_agree_on_edge_n(self):
        pts = make_clustered_points(30, clusters=2, seed=85)
        tree_a = RStarTree.bulk_load(pts, max_entries=16)
        tree_b = RStarTree.bulk_load(pts, max_entries=16)
        scalar = NWCEngine(tree_a, Scheme.NWC_STAR, grid_cell_size=50.0,
                           execution="python")
        vector = NWCEngine(tree_b, Scheme.NWC_STAR, grid_cell_size=50.0,
                           execution="columnar")
        for n in (len(pts) - 1, len(pts), len(pts) + 1, len(pts) + 10):
            query = NWCQuery(500, 500, 1000, 1000, n)
            a, b = scalar.nwc(query), vector.nwc(query)
            assert a.found == b.found
            assert a.reason == b.reason
            assert _close(a.distance, b.distance)
