"""Fault-injection tests: the acceptance criteria of the robustness layer.

Uses :mod:`tests.faults` to corrupt page files, break read paths and
kill sweep workers, then asserts the system's contract: corruption is
*always* detected and raised as a typed :class:`StorageError` (never a
silently wrong answer), a crashed worker aborts its sweep without
journaling a row it did not finish, and a killed sweep resumes from its
checkpoint without recomputing.
"""

from __future__ import annotations

import os
import random
import shutil
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.eval.experiments as experiments
from repro.eval import SweepCheckpoint, SweepTask, run_tasks
from repro.eval.experiments import DatasetSpec, run_sweep_task
from repro.index import FlatRTree, RStarTree, load_tree, save_tree, validate_tree
from repro.storage import (
    DEFAULT_PAGE_SIZE,
    CorruptPageError,
    PageFile,
    RepairFailedError,
    StorageError,
)
from repro.workloads import SweepPoint
from tests import faults
from tests.conftest import make_uniform_points

from repro.core import Scheme


# ----------------------------------------------------------------------
# Tree fixtures
# ----------------------------------------------------------------------
def _saved_tree(tmp_path, count=400, seed=7, max_entries=16):
    points = make_uniform_points(count, seed=seed)
    tree = RStarTree.bulk_load(points, max_entries=max_entries)
    path = tmp_path / "tree.db"
    save_tree(tree, path)
    return tree, path


def _oids(tree):
    return sorted(o.oid for o in tree.iter_objects())


#: Every way to read a page file: the tree, and a columnar snapshot.
LOADERS = (load_tree, FlatRTree.from_page_file)


# ----------------------------------------------------------------------
# Acceptance: every single-page corruption is detected on load
# ----------------------------------------------------------------------
class TestCorruptionDetection:
    def test_every_data_page_bit_flip_raises(self, tmp_path):
        """≥100 seeded single-bit corruptions of data pages: every
        loader must raise a typed StorageError every single time — zero
        silent wrong answers."""
        tree, path = _saved_tree(tmp_path)
        pristine = tmp_path / "pristine.db"
        shutil.copyfile(path, pristine)
        pages_hit = set()
        for seed in range(120):
            shutil.copyfile(pristine, path)
            rng = random.Random(seed)
            page_id, _, _ = faults.corrupt_random_bit(
                path, rng, DEFAULT_PAGE_SIZE, first_page=1
            )
            pages_hit.add(page_id)
            for load in LOADERS:
                with pytest.raises(StorageError):
                    load(path)
        # The sweep actually exercised many distinct pages.
        assert len(pages_hit) > 5

    def test_header_page_bit_flip_detected_or_harmless(self, tmp_path):
        """Header-page flips either raise (a flip inside the 32 header
        bytes breaks the header CRC) or land in the zero padding, in
        which case the loaded tree must be byte-for-byte equivalent."""
        tree, path = _saved_tree(tmp_path)
        expected = _oids(tree)
        pristine = tmp_path / "pristine.db"
        shutil.copyfile(path, pristine)
        rng = random.Random(1000)
        # Flips inside the 32 CRC-protected header bytes must raise.
        for _ in range(20):
            shutil.copyfile(pristine, path)
            faults.flip_bit(path, rng.randrange(32), rng.randrange(8))
            with pytest.raises(StorageError):
                load_tree(path)
        # Flips in the header page's zero padding carry no information:
        # the load must succeed and be identical.
        for _ in range(20):
            shutil.copyfile(pristine, path)
            faults.flip_bit(path, rng.randrange(32, DEFAULT_PAGE_SIZE),
                            rng.randrange(8))
            assert _oids(load_tree(path)) == expected

    def test_torn_write_detected(self, tmp_path):
        tree, path = _saved_tree(tmp_path)
        with PageFile(path) as file:
            victim = file.root_page
        faults.torn_write(path, victim, DEFAULT_PAGE_SIZE, random.Random(3))
        for load in LOADERS:
            with pytest.raises(CorruptPageError):
                load(path)

    def test_truncation_detected(self, tmp_path):
        tree, path = _saved_tree(tmp_path)
        size = os.path.getsize(path)
        faults.truncate_file(path, size - DEFAULT_PAGE_SIZE // 2)
        for load in LOADERS:
            with pytest.raises(CorruptPageError):
                load(path)

    def test_in_flight_read_corruption_detected(self, tmp_path):
        """Bits flipped between disk and caller (FaultInjectingPageFile)
        are caught by the checksum even though the file is pristine."""
        tree, path = _saved_tree(tmp_path)
        file = faults.FaultInjectingPageFile(path, flip_read_bit_every=1,
                                             seed=11)
        try:
            with pytest.raises(CorruptPageError):
                for page_id in range(1, file.page_count + 1):
                    file.read_page(page_id)
        finally:
            file.close()

    def test_transient_read_errors_propagate_then_clear(self, tmp_path):
        tree, path = _saved_tree(tmp_path)
        file = faults.FaultInjectingPageFile(path, transient_read_errors=2)
        try:
            with pytest.raises(OSError):
                file.read_page(1)
            with pytest.raises(OSError):
                file.read_page(1)
            assert file.read_page(1)  # device recovered; payload verifies
        finally:
            file.close()


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
class TestRepair:
    def test_repair_recovers_all_objects_after_root_corruption(self, tmp_path):
        tree, path = _saved_tree(tmp_path, count=700)
        assert tree.height >= 2  # root is internal: no objects live there
        with PageFile(path) as file:
            root_page = file.root_page
        faults.torn_write(path, root_page, DEFAULT_PAGE_SIZE, random.Random(5))
        with pytest.raises(StorageError):
            load_tree(path)
        repaired = load_tree(path, repair=True)
        validate_tree(repaired)
        assert _oids(repaired) == _oids(tree)

    def test_repair_salvages_surviving_leaves(self, tmp_path):
        """Corrupting one leaf page loses only that leaf's objects; the
        rest are rebuilt into a valid tree."""
        tree, path = _saved_tree(tmp_path, count=700)
        # Post-order allocation: page 2 is the first node written — a leaf.
        faults.torn_write(path, 2, DEFAULT_PAGE_SIZE, random.Random(9))
        repaired = load_tree(path, repair=True)
        validate_tree(repaired)
        original = set(_oids(tree))
        salvaged = set(_oids(repaired))
        assert salvaged < original  # strictly fewer: the leaf is gone...
        assert len(salvaged) >= len(original) - tree.max_entries  # ...only it

    def test_repair_survives_corrupt_metadata_page(self, tmp_path):
        tree, path = _saved_tree(tmp_path, count=300)
        faults.torn_write(path, 1, DEFAULT_PAGE_SIZE, random.Random(2))
        repaired = load_tree(path, repair=True)
        validate_tree(repaired)
        assert _oids(repaired) == _oids(tree)

    def test_repair_of_hopeless_file_raises(self, tmp_path):
        path = tmp_path / "noise.db"
        rng = random.Random(0)
        path.write_bytes(bytes(rng.randrange(256)
                               for _ in range(3 * DEFAULT_PAGE_SIZE)))
        with pytest.raises(RepairFailedError):
            load_tree(path, repair=True)


# ----------------------------------------------------------------------
# Legacy format
# ----------------------------------------------------------------------
class TestLegacyFormat:
    def test_v1_file_is_a_typed_error(self, tmp_path):
        """The checksum-free seed format is no longer read: loading one
        fails with a typed error, with or without salvage."""
        tree = RStarTree.bulk_load(make_uniform_points(300, seed=17),
                                   max_entries=16)
        path = tmp_path / "legacy.db"
        save_tree(tree, path)
        faults.rewrite_as_v1(path, DEFAULT_PAGE_SIZE)
        with open(path, "rb") as handle:
            assert handle.read(4) == b"NWC1"
        with pytest.raises(StorageError):
            load_tree(path)
        with pytest.raises(StorageError):
            load_tree(path, repair=True)


# ----------------------------------------------------------------------
# Sweep worker crash
# ----------------------------------------------------------------------
def _sweep_tasks(queries=2):
    spec = DatasetSpec("uniform", 300, seed=5)
    tasks = []
    for scheme in (Scheme.NWC_PLUS, Scheme.NWC_STAR):
        for n in (2, 3):
            tasks.append(SweepTask(
                spec, scheme, SweepPoint(n=n, length=600.0, width=600.0),
                queries=queries,
                labels=(("scheme", scheme.value), ("n", n)),
            ))
    return tasks


class TestSweepCrash:
    def test_worker_crash_aborts_then_resume_runs_only_missing_cells(
            self, tmp_path, monkeypatch):
        """Acceptance: a worker killed mid-sweep aborts it with
        BrokenProcessPool and the journal holds only finished cells;
        rerunning with the same journal computes exactly the missing
        cells and returns the rows of an uninterrupted run."""
        tasks = _sweep_tasks()
        tasks.append(SweepTask(
            tasks[0].spec, Scheme.NWC_STAR,
            SweepPoint(n=4, length=600.0, width=600.0), queries=2,
            labels=(("scheme", Scheme.NWC_STAR.value), ("n", 4)),
        ))
        full_rows = run_tasks(tasks)
        expected = {task.key: row for task, row in zip(tasks, full_rows)}
        journal_path = tmp_path / "sweep.jsonl"

        monkeypatch.setenv(faults.CRASH_LABEL, "n=4")
        monkeypatch.setattr(experiments, "run_sweep_task", faults.exit_on_label)
        with SweepCheckpoint.load(journal_path) as journal:
            with pytest.raises(BrokenProcessPool):
                run_tasks(tasks, jobs=2, checkpoint=journal)
        with SweepCheckpoint.load(journal_path) as journal:
            finished = [task.key for task in tasks
                        if journal.completed(task.key) is not None]
            assert tasks[-1].key not in finished
            for key in finished:
                assert journal.completed(key) == expected[key]

        executed = []

        def counting(task):
            executed.append(task.key)
            return run_sweep_task(task)

        monkeypatch.setattr(experiments, "run_sweep_task", counting)
        with SweepCheckpoint.load(journal_path) as journal:
            resumed_rows = run_tasks(tasks, checkpoint=journal)
        assert resumed_rows == full_rows
        assert sorted(executed) == sorted(
            task.key for task in tasks if task.key not in finished)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_kill_and_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        """Acceptance: killing a sweep mid-run then rerunning with the
        same checkpoint produces the same rows as an uninterrupted run
        while skipping the already-journaled cells."""
        tasks = _sweep_tasks()
        journal_path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint.load(journal_path) as journal:
            full_rows = run_tasks(tasks, checkpoint=journal)
        # Simulate a kill after two cells: keep only the first 2 lines.
        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) == len(tasks)
        keep = 2
        journal_path.write_text("".join(lines[:keep]))

        executed = []

        def counting(task):
            executed.append(task.key)
            return run_sweep_task(task)

        monkeypatch.setattr(experiments, "run_sweep_task", counting)
        with SweepCheckpoint.load(journal_path) as journal:
            assert len(journal) == keep
            resumed_rows = run_tasks(tasks, checkpoint=journal)
        assert resumed_rows == full_rows
        assert len(executed) == len(tasks) - keep
        # The journal is complete again after the resumed run.
        assert len(SweepCheckpoint.load(journal_path)) == len(tasks)

    def test_torn_final_journal_line_recomputes_one_cell(self, tmp_path):
        tasks = _sweep_tasks()
        journal_path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint.load(journal_path) as journal:
            full_rows = run_tasks(tasks, checkpoint=journal)
        # Tear the last line mid-JSON, as a kill during append would.
        text = journal_path.read_text()
        journal_path.write_text(text[: len(text) - 25])
        with SweepCheckpoint.load(journal_path) as journal:
            assert len(journal) == len(tasks) - 1
            rows = run_tasks(tasks, checkpoint=journal)
        assert rows == full_rows

    def test_checkpoint_keys_distinguish_all_cells(self):
        tasks = _sweep_tasks()
        keys = {task.key for task in tasks}
        assert len(keys) == len(tasks)
