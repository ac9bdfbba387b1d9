"""Sweep task lists: determinism across worker counts, spec fidelity,
checkpoint keys and the figure runner."""

from __future__ import annotations

import csv
import dataclasses
import io

import pytest

import repro.eval.experiments as experiments
from repro.core import Scheme
from repro.eval import (
    FIGURES,
    DatasetSpec,
    SweepTask,
    run_figure,
    run_sweep_task,
    run_tasks,
    window_scale_factor,
)
from repro.workloads import SweepPoint


def _tiny_tasks():
    spec = DatasetSpec("uniform", 400, seed=3)
    tasks = []
    for scheme in (Scheme.NWC_PLUS, Scheme.NWC_STAR):
        for n in (2, 3):
            tasks.append(SweepTask(
                spec, scheme, SweepPoint(n=n, length=600.0, width=600.0),
                queries=2,
                labels=(("scheme", scheme.value), ("n", n)),
            ))
    tasks.append(SweepTask(
        spec, Scheme.NWC_STAR, SweepPoint(n=2, k=2, m=1, length=600.0, width=600.0),
        queries=2, kind="knwc",
        labels=(("scheme", "kNWC*"), ("n", 2)),
    ))
    return tasks


def _rows_as_csv(rows):
    columns = sorted({key for row in rows for key in row})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def test_jobs_1_and_jobs_4_produce_identical_csv_rows():
    tasks = _tiny_tasks()
    serial_rows = run_tasks(tasks, jobs=1)
    parallel_rows = run_tasks(tasks, jobs=4)
    assert serial_rows == parallel_rows
    assert _rows_as_csv(serial_rows) == _rows_as_csv(parallel_rows)
    # Sanity: the rows actually measured something.
    assert all(row["node_accesses"] > 0 for row in serial_rows)


def test_dataset_spec_builds_expected_dataset():
    for kind in ("ca", "ny", "gaussian", "uniform"):
        spec = DatasetSpec(kind, 200)
        dataset = spec.build()
        assert len(dataset) == 200
        assert dataset.name == spec.display_name
    gaussian_spec = DatasetSpec("gaussian", 100, std=1500.0)
    assert gaussian_spec.build().name == "Gaussian(std=1500)"
    assert gaussian_spec.display_name == "Gaussian(std=1500)"
    with pytest.raises(ValueError):
        DatasetSpec("mars", 10)
    with pytest.raises(ValueError):
        DatasetSpec("ca", 0)


def test_run_sweep_task_merges_labels_and_metrics():
    task = _tiny_tasks()[0]
    row = run_sweep_task(task)
    assert row["scheme"] == task.scheme.value
    assert row["n"] == task.point.n
    assert "node_accesses" in row and "found_fraction" in row


@pytest.mark.parametrize("name", list(FIGURES))
def test_parallel_figure_matches_serial_rows(name):
    serial = run_figure(name, scale=0.002, queries=1, jobs=1)
    parallel = run_figure(name, scale=0.002, queries=1, jobs=2)
    assert parallel.rows == serial.rows
    assert parallel.columns == serial.columns
    assert parallel.meta == serial.meta  # "jobs" is not provenance


def test_checkpoint_key_is_stable():
    """Journals written by earlier versions must keep resuming: the key
    of the first fig13 cell is pinned as a literal."""
    _, builder = FIGURES["fig13"]
    _, tasks = builder(0.002, 1, window_scale_factor(0.002))
    assert tasks[0].key == (
        '{"kind":"knwc","labels":[["dataset","CA-like"],["k",2],'
        '["scheme","kNWC+"]],"maintenance":"exact","point":{"grid_cell":25.0,'
        '"k":2,"length":178.88543819998318,"m":2,"n":8,'
        '"width":178.88543819998318},"queries":1,"query_seed":42,'
        '"scheme":"NWC+","spec":{"cardinality":125,"kind":"ca",'
        '"max_entries":50,"seed":null,"std":null}}'
    )


def test_context_memo_keeps_only_the_current_spec():
    """An in-process sweep retains one dataset's context, not every
    dataset it has visited, and reusing it does not change rows."""
    first = _tiny_tasks()
    other = DatasetSpec("uniform", 300, seed=4)
    tasks = first + [dataclasses.replace(task, spec=other) for task in first]
    fresh = []
    for task in tasks:
        experiments._CONTEXTS.clear()
        fresh.append(run_sweep_task(task))
    rows = run_tasks(tasks, jobs=1)
    assert len(experiments._CONTEXTS) <= 1
    assert rows == fresh


def test_parallel_experiment_rejects_unknown_id():
    with pytest.raises(ValueError, match="no parallel driver"):
        run_figure("table2", jobs=2)
