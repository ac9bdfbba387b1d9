"""Density grid substrate for the DEP optimization."""

from .aggregate import SubtreeCountIndex
from .density import DensityGrid, PrefixSumDensityGrid

__all__ = [
    "DensityGrid",
    "PrefixSumDensityGrid",
    "SubtreeCountIndex",
]
