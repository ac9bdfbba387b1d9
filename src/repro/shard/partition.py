"""Spatial partitioner: density-balanced vertical cuts with halo bands.

The dataset is split into ``s`` shards by ``s - 1`` vertical cut lines.
Shard ``i`` *owns* the half-open anchor band ``[cuts[i-1], cuts[i])``
(unbounded at the edges) and *stores* its band widened by ``halo`` on
each side.  Because every window has length at most the configured
halo, each shard materializes every window whose anchor it owns — the
invariant the scatter-gather merge (:mod:`repro.shard.merge`) relies
on.  Objects inside a halo overlap are stored by both neighbours;
ownership (and thus query-time responsibility and update routing) is
decided by :meth:`ShardManifest.route` alone.

Cut positions come from the :class:`~repro.grid.density.DensityGrid`
already maintained for DEP pruning: column masses are accumulated into
a prefix sum and cuts land on the cell boundaries where the cumulative
mass crosses each ``j/s`` quantile, so shards carry near-equal object
counts even on heavily skewed data.  Each shard's stored objects are
bulk-loaded into an R*-tree and written as one checksummed page file
(:func:`~repro.index.save_tree`), which a worker reads back with
:func:`~repro.index.load_tree` at boot and converts into its columnar
:class:`~repro.index.FlatRTree` snapshot.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..geometry import PointObject, Rect
from ..grid.density import DensityGrid
from ..index import RStarTree, save_tree

__all__ = [
    "MANIFEST_NAME",
    "ShardInfo",
    "ShardManifest",
    "choose_cuts",
    "partition_dataset",
    "shard_filename",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: Default density-grid cell size for cut selection (the paper's 25 on
#: the 10k x 10k extent; any value works — cuts just snap to cell edges).
DEFAULT_CELL_SIZE = 25.0


def shard_filename(index: int) -> str:
    return f"shard-{index:03d}.pages"


@dataclass(frozen=True, slots=True)
class ShardInfo:
    """Per-shard bookkeeping recorded in the manifest."""

    index: int
    filename: str
    owned: int    # objects whose anchor band this shard owns
    stored: int   # owned plus halo copies


@dataclass(frozen=True, slots=True)
class ShardManifest:
    """The partition layout: cuts, halo and per-shard page files."""

    cuts: tuple[float, ...]
    halo: float
    extent: Rect
    cell_size: float
    dataset: str
    shards: tuple[ShardInfo, ...]

    def __post_init__(self) -> None:
        if self.halo <= 0 or not math.isfinite(self.halo):
            raise ValueError("halo must be positive and finite")
        if len(self.cuts) != len(self.shards) - 1:
            raise ValueError("need exactly one cut fewer than shards")
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cuts must be strictly increasing")
        if not all(math.isfinite(c) for c in self.cuts):
            raise ValueError("cuts must be finite")

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def owned_interval(self, index: int) -> tuple[float, float]:
        """The half-open anchor band ``[lo, hi)`` of shard ``index``."""
        lo = -math.inf if index == 0 else self.cuts[index - 1]
        hi = math.inf if index == len(self.cuts) else self.cuts[index]
        return lo, hi

    def stored_interval(self, index: int) -> tuple[float, float]:
        """The closed x band of objects shard ``index`` materializes."""
        lo, hi = self.owned_interval(index)
        return lo - self.halo, hi + self.halo

    def anchor_region(self, index: int) -> tuple[float, float, float, float]:
        """The engine-level anchor gate of shard ``index`` (x band only;
        cuts are vertical, so shards own their band's full y range)."""
        lo, hi = self.owned_interval(index)
        return (lo, -math.inf, hi, math.inf)

    def route(self, x: float) -> int:
        """The shard owning an anchor (or update) at ``x``.

        ``bisect_right`` realizes the half-open convention: an object
        exactly on a cut belongs to the shard *right* of it.
        """
        return bisect.bisect_right(self.cuts, x)

    def affected(self, x: float) -> tuple[int, ...]:
        """Every shard storing an object at ``x`` (owner + halo copies)."""
        return tuple(
            i for i in range(self.shard_count)
            if self.stored_interval(i)[0] <= x <= self.stored_interval(i)[1]
        )

    def shard_path(self, directory: str | os.PathLike[str],
                   index: int) -> str:
        return os.path.join(os.fspath(directory), self.shards[index].filename)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "cuts": list(self.cuts),
            "halo": self.halo,
            "extent": [self.extent.x1, self.extent.y1,
                       self.extent.x2, self.extent.y2],
            "cell_size": self.cell_size,
            "dataset": self.dataset,
            "shards": [
                {"index": s.index, "filename": s.filename,
                 "owned": s.owned, "stored": s.stored}
                for s in self.shards
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardManifest":
        if payload.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported manifest format {payload.get('format')!r}")
        extent = payload["extent"]
        return cls(
            cuts=tuple(float(c) for c in payload["cuts"]),
            halo=float(payload["halo"]),
            extent=Rect(*[float(v) for v in extent]),
            cell_size=float(payload["cell_size"]),
            dataset=str(payload.get("dataset", "")),
            shards=tuple(
                ShardInfo(int(s["index"]), str(s["filename"]),
                          int(s["owned"]), int(s["stored"]))
                for s in payload["shards"]
            ),
        )

    def save(self, directory: str | os.PathLike[str]) -> str:
        """Write ``manifest.json`` atomically (tmp + fsync + rename)."""
        directory = os.fspath(directory)
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str | os.PathLike[str]) -> "ShardManifest":
        path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def choose_cuts(grid: DensityGrid, shards: int) -> tuple[float, ...]:
    """Density-balanced vertical cut positions on grid-cell boundaries.

    Walks the column-mass prefix sum and cuts where it crosses each
    ``j/s`` quantile of the total mass.  Falls back to equal-width cuts
    when the data cannot support balanced ones (empty dataset, or all
    mass concentrated in fewer columns than shards).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if shards == 1:
        return ()
    extent = grid.extent
    counts = grid.cell_counts()
    column_mass = [
        sum(counts[row * grid.cols + col] for row in range(grid.rows))
        for col in range(grid.cols)
    ]
    total = sum(column_mass)

    def equal_width() -> tuple[float, ...]:
        step = extent.width / shards
        return tuple(extent.x1 + step * j for j in range(1, shards))

    if total == 0 or grid.cols < shards:
        return equal_width()
    cuts: list[float] = []
    cumulative = 0.0
    col = 0
    for j in range(1, shards):
        target = total * j / shards
        while col < grid.cols and cumulative < target:
            cumulative += column_mass[col]
            col += 1
        boundary = extent.x1 + col * grid.cell_size
        if cuts and boundary <= cuts[-1]:
            boundary = cuts[-1] + grid.cell_size
        cuts.append(boundary)
    if cuts[-1] >= extent.x2 + shards * grid.cell_size:
        # Degenerate skew (all mass in the last columns): balanced cuts
        # would push shards past the extent; equal width is saner.
        return equal_width()
    return tuple(cuts)


def partition_dataset(
    points: Sequence[PointObject] | Iterable[PointObject],
    shards: int,
    halo: float,
    out_dir: str | os.PathLike[str],
    extent: Rect,
    cell_size: float = DEFAULT_CELL_SIZE,
    dataset_name: str = "",
    max_entries: int | None = None,
) -> ShardManifest:
    """Cut ``points`` into ``shards`` page files under ``out_dir``.

    Returns the saved :class:`ShardManifest`.  Empty shards are legal
    and get an empty (but valid) page file.
    """
    if halo <= 0 or not math.isfinite(halo):
        raise ValueError("halo must be positive and finite")
    points = list(points)
    grid = DensityGrid.build(points, extent, cell_size)
    cuts = choose_cuts(grid, shards)
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    infos: list[ShardInfo] = []
    edges = (-math.inf, *cuts, math.inf)
    for index in range(shards):
        lo, hi = edges[index], edges[index + 1]
        stored = [p for p in points if lo - halo <= p.x <= hi + halo]
        owned = sum(1 for p in stored if lo <= p.x < hi)
        kwargs = {} if max_entries is None else {"max_entries": max_entries}
        if stored:
            tree = RStarTree.bulk_load(stored, **kwargs)
        else:
            tree = RStarTree(**kwargs)
        filename = shard_filename(index)
        save_tree(tree, os.path.join(out_dir, filename))
        infos.append(ShardInfo(index, filename, owned, len(stored)))

    manifest = ShardManifest(
        cuts=cuts, halo=float(halo), extent=extent,
        cell_size=float(cell_size), dataset=dataset_name,
        shards=tuple(infos),
    )
    manifest.save(out_dir)
    return manifest
