"""One task list per figure of the paper's evaluation (Section 5), plus
the tables.

Every function returns an :class:`ExperimentResult` whose rows carry the
same quantities the paper plots — average R*-tree node accesses per
query, per dataset, per scheme, across the paper's sweep values.  The
``scale`` / ``queries`` arguments default to the environment-configured
values (see :mod:`repro.eval.runner`); ``scale=1.0, queries=25``
reproduces the paper's exact setting.

Figures 9-14 are written down once, as lists of :class:`SweepTask`
cells (``_fig9_tasks`` .. ``_fig14_tasks``):

* :class:`DatasetSpec` — a picklable recipe from which any process
  rebuilds the dataset (and then the
  :class:`~repro.eval.runner.BenchContext`) deterministically; the
  heavyweight tree/grid/IWP structures never cross a process boundary.
* :class:`SweepTask` — one measured cell: spec + scheme + sweep point +
  query workload.  Running a task is a pure function of its fields, so
  the rows are identical for any worker count.
* :func:`run_tasks` — a ``map`` over the tasks, in this process or
  over worker processes, reusing and appending to an optional
  :class:`~repro.eval.checkpoint.SweepCheckpoint` journal.  A crashed
  worker aborts the sweep; rerunning with the same journal
  (``--resume``) computes only the missing cells.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from ..analysis import NWCCostModel, TreeProfile
from ..core import ALL_SCHEMES, Scheme
from ..datasets import (
    CA_CARDINALITY,
    GAUSSIAN_CARDINALITY,
    GAUSSIAN_STD,
    NY_CARDINALITY,
    Dataset,
    ca_like,
    gaussian,
    ny_like,
    uniform,
)
from ..workloads import (
    GAUSSIAN_STDS,
    GRID_SIZES,
    K_VALUES,
    M_VALUES,
    N_VALUES,
    WINDOW_SIZES,
    SweepPoint,
    data_biased_query_points,
)
from .checkpoint import SweepCheckpoint
from .runner import (
    BenchContext,
    experiment_query_count,
    experiment_scale,
    run_knwc_setting,
    run_nwc_setting,
    window_scale_factor,
)

#: kNWC experiments compare only the two composite schemes (Section 5.5).
KNWC_SCHEMES = (Scheme.NWC_PLUS, Scheme.NWC_STAR)

#: Query-point seed of every experiment.
DEFAULT_QUERY_SEED = 42


@dataclass
class ExperimentResult:
    """Tabular outcome of one experiment.

    Attributes:
        name: Short id (``"fig9"``, ``"table2"``, ...).
        title: Human-readable title matching the paper.
        columns: Column order for rendering.
        rows: One dict per measured cell.
        meta: Scale/queries and other provenance.
    """

    name: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def paper_datasets(scale: float | None = None) -> list[Dataset]:
    """CA-like, NY-like and Gaussian at the requested scale."""
    s = experiment_scale() if scale is None else scale
    return [spec.build() for spec in paper_specs(s)]


def _setup(scale: float | None, queries: int | None):
    s = experiment_scale() if scale is None else scale
    q = experiment_query_count() if queries is None else queries
    return s, q


def _queries_for(dataset: Dataset, count: int, seed: int = DEFAULT_QUERY_SEED):
    return data_biased_query_points(dataset, count, seed=seed)


def _meta(scale: float, queries: int, wf: float) -> dict:
    return {"scale": scale, "queries": queries, "window_factor": wf}


# ----------------------------------------------------------------------
# Sweep cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """Picklable recipe for rebuilding one dataset in any process.

    Attributes:
        kind: ``"ca"``, ``"ny"``, ``"gaussian"`` or ``"uniform"``.
        cardinality: Number of objects to generate.
        std: Gaussian standard deviation (``gaussian`` only; the
            generator default when ``None``).
        seed: Generator seed (the generator default when ``None``).
        max_entries: R*-tree fanout used when building the context.
    """

    kind: str
    cardinality: int
    std: float | None = None
    seed: int | None = None
    max_entries: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("ca", "ny", "gaussian", "uniform"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.cardinality <= 0:
            raise ValueError("cardinality must be positive")

    def build(self) -> Dataset:
        """Generate the dataset (deterministic in the spec fields)."""
        kwargs = {} if self.seed is None else {"seed": self.seed}
        if self.kind == "ca":
            return ca_like(self.cardinality, **kwargs)
        if self.kind == "ny":
            return ny_like(self.cardinality, **kwargs)
        if self.kind == "uniform":
            return uniform(self.cardinality, **kwargs)
        if self.std is not None:
            kwargs["std"] = self.std
        return gaussian(self.cardinality, **kwargs)

    @property
    def display_name(self) -> str:
        """The name the generated dataset will carry (used for row
        labels without building the dataset in the parent process)."""
        if self.kind == "ca":
            return "CA-like"
        if self.kind == "ny":
            return "NY-like"
        if self.kind == "uniform":
            return "Uniform"
        std = GAUSSIAN_STD if self.std is None else self.std
        return f"Gaussian(std={std:g})"


@dataclass(frozen=True)
class SweepTask:
    """One measured cell of a sweep.

    ``labels`` are merged into the produced row (e.g. ``dataset`` /
    ``n`` / ``scheme`` columns); the metric columns come from the
    runner.
    """

    spec: DatasetSpec
    scheme: Scheme
    point: SweepPoint
    queries: int
    query_seed: int = DEFAULT_QUERY_SEED
    kind: str = "nwc"
    maintenance: str = "exact"
    labels: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("nwc", "knwc"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.queries <= 0:
            raise ValueError("queries must be positive")

    @property
    def key(self) -> str:
        """Stable fingerprint of this cell, used as the checkpoint-
        journal key: two tasks share a key iff they are guaranteed to
        produce the same row (every field that affects the computation
        participates)."""
        payload = {
            "spec": dataclasses.asdict(self.spec),
            "scheme": self.scheme.value,
            "point": dataclasses.asdict(self.point),
            "queries": self.queries,
            "query_seed": self.query_seed,
            "kind": self.kind,
            "maintenance": self.maintenance,
            "labels": [[name, value] for name, value in self.labels],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: The context of the spec being swept.  Task lists are spec-major, so
#: one entry serves every cell of a dataset, and the previous dataset's
#: tree, grids and IWP are freed before the next one is built.
_CONTEXTS: dict[DatasetSpec, BenchContext] = {}


def _context_for(spec: DatasetSpec) -> BenchContext:
    context = _CONTEXTS.get(spec)
    if context is None:
        _CONTEXTS.clear()
        context = BenchContext.build(spec.build(), max_entries=spec.max_entries)
        _CONTEXTS[spec] = context
    return context


def run_sweep_task(task: SweepTask) -> dict:
    """Execute one cell and return its row (labels + metrics)."""
    context = _context_for(task.spec)
    query_points = _queries_for(context.dataset, task.queries, task.query_seed)
    if task.kind == "knwc":
        metrics = run_knwc_setting(
            context, task.scheme, task.point, query_points,
            maintenance=task.maintenance,
        )
    else:
        metrics = run_nwc_setting(context, task.scheme, task.point, query_points)
    row = dict(task.labels)
    row.update(metrics)
    return row


def run_tasks(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    checkpoint: SweepCheckpoint | None = None,
) -> list[dict]:
    """Execute every task; one row per task, in task order.

    Cells the ``checkpoint`` journal already holds are reused; the rest
    run in order through the builtin ``map`` (``jobs == 1``) or
    ``ProcessPoolExecutor.map`` over ``jobs`` workers, and each row is
    journaled as it comes back.  Rows do not depend on ``jobs``.  A
    crashed worker raises ``BrokenProcessPool``; the journal then holds
    every row returned before it, so rerunning with the same journal
    computes only the missing cells.
    """
    rows = [None if checkpoint is None else checkpoint.completed(task.key)
            for task in tasks]
    pending = [index for index, row in enumerate(rows) if row is None]
    todo = [tasks[index] for index in pending]
    pool = (ProcessPoolExecutor(min(jobs, len(todo)))
            if jobs > 1 and len(todo) > 1 else None)
    try:
        results = (pool.map if pool else map)(run_sweep_task, todo)
        for index, row in zip(pending, results):
            rows[index] = row
            if checkpoint is not None:
                checkpoint.record(tasks[index].key, row)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return rows


# ----------------------------------------------------------------------
# Figures 9-14 as task lists
# ----------------------------------------------------------------------
def paper_specs(scale: float) -> list[DatasetSpec]:
    """Specs of the three paper datasets at ``scale``."""
    return [
        DatasetSpec("ca", max(1, int(CA_CARDINALITY * scale))),
        DatasetSpec("ny", max(1, int(NY_CARDINALITY * scale))),
        DatasetSpec("gaussian", max(1, int(GAUSSIAN_CARDINALITY * scale))),
    ]


def _fig9_tasks(scale: float, queries: int, wf: float):
    """I/O of scheme DEP as the grid cell size grows 25 -> 400."""
    tasks = []
    for spec in paper_specs(scale):
        for cell in GRID_SIZES:
            tasks.append(SweepTask(
                spec, Scheme.DEP, SweepPoint(grid_cell=cell).scaled_window(wf),
                queries,
                labels=(("dataset", spec.display_name), ("grid_size", cell)),
            ))
    return ["dataset", "grid_size", "node_accesses"], tasks


def _fig10_tasks(scale: float, queries: int, wf: float):
    """All schemes over Gaussian datasets with std 2000 -> 1000."""
    cardinality = max(1, int(GAUSSIAN_CARDINALITY * scale))
    tasks = []
    for std in GAUSSIAN_STDS:
        spec = DatasetSpec("gaussian", cardinality, std=std)
        for scheme in ALL_SCHEMES:
            tasks.append(SweepTask(
                spec, scheme, SweepPoint().scaled_window(wf), queries,
                labels=(("std", std), ("scheme", scheme.value)),
            ))
    return ["std", "scheme", "node_accesses"], tasks


def _fig11_tasks(scale: float, queries: int, wf: float):
    """All schemes, all datasets, n = 8 -> 128."""
    tasks = []
    for spec in paper_specs(scale):
        for n in N_VALUES:
            for scheme in ALL_SCHEMES:
                tasks.append(SweepTask(
                    spec, scheme, SweepPoint(n=n).scaled_window(wf), queries,
                    labels=(("dataset", spec.display_name), ("n", n),
                            ("scheme", scheme.value)),
                ))
    return ["dataset", "n", "scheme", "node_accesses"], tasks


def _fig12_tasks(scale: float, queries: int, wf: float):
    """All schemes, all datasets, window 8 -> 128 (square)."""
    tasks = []
    for spec in paper_specs(scale):
        for size in WINDOW_SIZES:
            for scheme in ALL_SCHEMES:
                tasks.append(SweepTask(
                    spec, scheme,
                    SweepPoint(length=size, width=size).scaled_window(wf), queries,
                    labels=(("dataset", spec.display_name), ("window", size),
                            ("scheme", scheme.value)),
                ))
    return ["dataset", "window", "scheme", "node_accesses"], tasks


def _fig13_tasks(scale: float, queries: int, wf: float):
    """kNWC I/O as k grows, CA-like and NY-like datasets."""
    tasks = []
    for spec in paper_specs(scale)[:2]:  # CA-like, NY-like
        for k in K_VALUES:
            for scheme in KNWC_SCHEMES:
                tasks.append(SweepTask(
                    spec, scheme, SweepPoint(k=k, m=2).scaled_window(wf), queries,
                    kind="knwc",
                    labels=(("dataset", spec.display_name), ("k", k),
                            ("scheme", "k" + scheme.value)),
                ))
    return ["dataset", "k", "scheme", "node_accesses"], tasks


def _fig14_tasks(scale: float, queries: int, wf: float):
    """kNWC I/O as the allowed overlap m grows, CA-like and NY-like."""
    tasks = []
    for spec in paper_specs(scale)[:2]:
        for m in M_VALUES:
            for scheme in KNWC_SCHEMES:
                tasks.append(SweepTask(
                    spec, scheme, SweepPoint(k=4, m=m).scaled_window(wf), queries,
                    kind="knwc",
                    labels=(("dataset", spec.display_name), ("m", m),
                            ("scheme", "k" + scheme.value)),
                ))
    return ["dataset", "m", "scheme", "node_accesses"], tasks


#: Figure id -> (title, task-list builder).
FIGURES = {
    "fig9": ("Effect of grid size (scheme DEP)", _fig9_tasks),
    "fig10": ("Effect of object distribution (Gaussian std)", _fig10_tasks),
    "fig11": ("Effect of the number of searched objects n", _fig11_tasks),
    "fig12": ("Effect of the window size", _fig12_tasks),
    "fig13": ("Effect of k (kNWC+ vs kNWC*)", _fig13_tasks),
    "fig14": ("Effect of m (kNWC+ vs kNWC*)", _fig14_tasks),
}


def run_figure(
    name: str,
    scale: float | None = None,
    queries: int | None = None,
    jobs: int = 1,
    checkpoint: str | os.PathLike[str] | None = None,
) -> ExperimentResult:
    """Run the task list of figure ``name`` with :func:`run_tasks`.

    Args:
        jobs: Worker processes (1 = in this process).
        checkpoint: Path of a JSONL journal; cells it already holds are
            skipped (``--resume`` semantics) and new cells appended, so
            a killed sweep continues where it stopped.
    """
    if name not in FIGURES:
        raise ValueError(
            f"experiment {name!r} has no parallel driver; "
            f"choose from {', '.join(FIGURES)}"
        )
    scale, queries = _setup(scale, queries)
    wf = window_scale_factor(scale)
    title, builder = FIGURES[name]
    columns, tasks = builder(scale, queries, wf)
    meta = _meta(scale, queries, wf)
    if checkpoint is None:
        rows = run_tasks(tasks, jobs)
    else:
        with SweepCheckpoint.load(checkpoint) as journal:
            meta["resumed_cells"] = sum(
                journal.completed(task.key) is not None for task in tasks)
            rows = run_tasks(tasks, jobs, journal)
        meta["checkpoint"] = os.fspath(checkpoint)
    return ExperimentResult(name, title, columns, meta=meta, rows=[
        {column: row[column] for column in columns} for row in rows])


# ----------------------------------------------------------------------
# Tables and §5.2 storage overheads
# ----------------------------------------------------------------------
def table2_datasets(scale: float | None = None) -> ExperimentResult:
    """Table 2: dataset descriptions (at the configured scale)."""
    scale, _ = _setup(scale, 1)
    result = ExperimentResult(
        "table2",
        "Description of datasets",
        ["dataset", "cardinality", "description"],
        meta={"scale": scale},
    )
    descriptions = {
        "CA-like": "Synthetic substitute: places in California",
        "NY-like": "Synthetic substitute: places in New York",
    }
    for dataset in paper_datasets(scale):
        base = dataset.name.split("@")[0]
        result.rows.append(
            {
                "dataset": dataset.name,
                "cardinality": dataset.cardinality,
                "description": descriptions.get(
                    base, "Generated by Gaussian distribution"
                ),
            }
        )
    return result


def table3_schemes() -> ExperimentResult:
    """Table 3: which optimization each scheme enables."""
    result = ExperimentResult(
        "table3",
        "Description of schemes",
        ["scheme", "SRR", "DIP", "DEP", "IWP"],
    )
    for scheme in ALL_SCHEMES:
        flags = scheme.flags
        result.rows.append(
            {
                "scheme": scheme.value,
                "SRR": "yes" if flags.srr else "-",
                "DIP": "yes" if flags.dip else "-",
                "DEP": "yes" if flags.dep else "-",
                "IWP": "yes" if flags.iwp else "-",
            }
        )
    return result


def storage_overheads(scale: float | None = None) -> ExperimentResult:
    """Section 5.2: bytes consumed by the DEP grid and IWP pointers."""
    scale, _ = _setup(scale, 1)
    result = ExperimentResult(
        "storage",
        "Storage overheads of DEP and IWP",
        ["dataset", "grid_cells", "grid_bytes", "backward_ptrs",
         "overlapping_ptrs", "iwp_bytes"],
        meta={"scale": scale},
    )
    for dataset in paper_datasets(scale):
        context = BenchContext.build(dataset)
        grid = context.grid(25.0)
        iwp = context.pointer_index()
        result.rows.append(
            {
                "dataset": dataset.name,
                "grid_cells": grid.cell_count,
                "grid_bytes": grid.storage_overhead_bytes(),
                "backward_ptrs": iwp.backward_pointer_total(),
                "overlapping_ptrs": iwp.overlapping_pointer_total(),
                "iwp_bytes": iwp.storage_overhead_bytes(),
            }
        )
    return result


# ----------------------------------------------------------------------
# Section 4: analytic model vs measurement
# ----------------------------------------------------------------------
def cost_model_validation(
    scale: float | None = None, queries: int | None = None
) -> ExperimentResult:
    """Compare the Section 4.1 expected I/O with measured NWC+ I/O on a
    uniform (Poisson-like) dataset across n."""
    scale, queries = _setup(scale, queries)
    wf = window_scale_factor(scale)
    cardinality = max(1, int(GAUSSIAN_CARDINALITY * scale))
    dataset = uniform(cardinality, seed=7)
    context = BenchContext.build(dataset)
    profile = TreeProfile.from_tree(context.tree)
    qpts = _queries_for(dataset, queries)
    result = ExperimentResult(
        "costmodel",
        "Section 4 analytic model vs measured NWC+ I/O (uniform data)",
        ["n", "model_io", "measured_io"],
        meta=_meta(scale, queries, wf),
    )
    lam = dataset.density
    for n in (2, 4, 8):
        point = SweepPoint(n=n).scaled_window(wf)
        # Rings of size l x w must be able to cover the whole space so
        # the exhaustive tail charges a realistic worst case.
        half_extent = dataset.extent.width / 2.0
        max_level = max(4, int(half_extent / point.length) + 1)
        model = NWCCostModel(lam, point.length, point.width, n, max_level=max_level)
        expected = model.expected_io(profile.window_cost, profile.knn_cost)
        measured = run_nwc_setting(context, Scheme.NWC_PLUS, point, qpts)
        result.rows.append(
            {"n": n, "model_io": expected, "measured_io": measured["node_accesses"]}
        )
    return result


#: Registry used by the CLI and the benchmark suite.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table2": table2_datasets,
    "table3": lambda **_: table3_schemes(),
    **{name: partial(run_figure, name) for name in FIGURES},
    "storage": storage_overheads,
    "costmodel": cost_model_validation,
}
