"""Synthetic dataset generators.

``gaussian`` follows the paper exactly (mean 5000, standard deviation
2000, 250,000 points by default; Fig. 10 varies the standard deviation
from 2000 down to 1000).  ``uniform`` and ``clustered`` are the building
blocks for the CA-like and NY-like substitutes in
:mod:`repro.datasets.real_like`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry import Rect
from .dataset import PAPER_EXTENT, Dataset, from_coordinates

#: Paper defaults for the synthetic Gaussian dataset (Table 2 / §5).
GAUSSIAN_CARDINALITY = 250_000
GAUSSIAN_MEAN = 5_000.0
GAUSSIAN_STD = 2_000.0


def gaussian(
    cardinality: int = GAUSSIAN_CARDINALITY,
    mean: float = GAUSSIAN_MEAN,
    std: float = GAUSSIAN_STD,
    seed: int = 20160315,
    extent: Rect = PAPER_EXTENT,
    name: str | None = None,
) -> Dataset:
    """The paper's synthetic dataset: i.i.d. Gaussian coordinates.

    Coordinates are clamped into the extent (a negligible fraction at
    the paper's parameters).
    """
    if cardinality <= 0:
        raise ValueError("cardinality must be positive")
    if std <= 0:
        raise ValueError("std must be positive")
    rng = np.random.default_rng(seed)
    coords = rng.normal(mean, std, size=(cardinality, 2))
    label = name if name is not None else f"Gaussian(std={std:g})"
    return from_coordinates(label, coords, extent)


def uniform(
    cardinality: int,
    seed: int = 0,
    extent: Rect = PAPER_EXTENT,
    name: str = "Uniform",
) -> Dataset:
    """Uniformly distributed objects over the extent."""
    if cardinality <= 0:
        raise ValueError("cardinality must be positive")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(extent.x1, extent.x2, cardinality)
    ys = rng.uniform(extent.y1, extent.y2, cardinality)
    return from_coordinates(name, np.column_stack([xs, ys]), extent)


def clustered(
    cardinality: int,
    centers: Sequence[tuple[float, float]],
    spreads: Sequence[float],
    weights: Sequence[float] | None = None,
    background_fraction: float = 0.1,
    seed: int = 0,
    extent: Rect = PAPER_EXTENT,
    name: str = "Clustered",
) -> Dataset:
    """Mixture-of-Gaussians clusters plus uniform background noise.

    Args:
        cardinality: Total number of objects.
        centers: Cluster centres.
        spreads: Per-cluster standard deviation (same length as centers).
        weights: Relative cluster sizes; uniform when omitted.
        background_fraction: Fraction of objects drawn uniformly over
            the extent instead of from a cluster.
        seed: RNG seed.
    """
    if cardinality <= 0:
        raise ValueError("cardinality must be positive")
    if len(centers) != len(spreads) or not centers:
        raise ValueError("centers and spreads must be non-empty, equal length")
    if not 0.0 <= background_fraction < 1.0:
        raise ValueError("background_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    n_background = int(round(cardinality * background_fraction))
    n_clustered = cardinality - n_background
    if weights is None:
        probs = np.full(len(centers), 1.0 / len(centers))
    else:
        probs = np.asarray(weights, dtype=float)
        if len(probs) != len(centers) or probs.sum() <= 0:
            raise ValueError("weights must match centers and sum > 0")
        probs = probs / probs.sum()
    assignments = rng.choice(len(centers), size=n_clustered, p=probs)
    coords = np.empty((cardinality, 2), dtype=float)
    centers_arr = np.asarray(centers, dtype=float)
    spreads_arr = np.asarray(spreads, dtype=float)
    coords[:n_clustered] = centers_arr[assignments] + rng.normal(
        0.0, 1.0, size=(n_clustered, 2)
    ) * spreads_arr[assignments][:, None]
    coords[n_clustered:, 0] = rng.uniform(extent.x1, extent.x2, n_background)
    coords[n_clustered:, 1] = rng.uniform(extent.y1, extent.y2, n_background)
    # Indexing by a permutation draws exactly what ``rng.shuffle`` would
    # (same order, same generator state after) without its row-by-row swaps.
    coords = coords[rng.permutation(cardinality)]
    return from_coordinates(name, coords, extent)


def gaussian_family(
    stds: Sequence[float] = (2000.0, 1750.0, 1500.0, 1250.0, 1000.0),
    cardinality: int = GAUSSIAN_CARDINALITY,
    seed: int = 20160315,
) -> list[Dataset]:
    """The Figure 10 datasets: fixed mean 5000, varying std."""
    return [gaussian(cardinality=cardinality, std=s, seed=seed) for s in stds]
