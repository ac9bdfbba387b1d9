"""Typed error hierarchy of the query engine.

Every failure the NWC/kNWC layer can raise on its own maps to a
subclass of :class:`NWCError`, so serving layers (the CLI, the eval
harness) can turn engine misuse into clean diagnostics without string-
matching bare builtins.  Each subclass also inherits the builtin
exception the seed code raised (``ValueError``), so existing
``except`` clauses keep working.

Note that an *unsatisfiable* query — ``n`` larger than the dataset, or
a constrained region holding no objects — is **not** an error: it
returns an explicit empty result with a ``reason`` (see
:class:`repro.core.results.NWCResult`).  Errors are reserved for
requests the engine cannot even interpret.
"""

from __future__ import annotations

__all__ = [
    "EngineConfigError",
    "NWCError",
    "QueryParameterError",
]


class NWCError(Exception):
    """Base class of every query-engine failure."""


class QueryParameterError(NWCError, ValueError):
    """A query descriptor's parameters are malformed (non-finite
    location, non-positive window or counts, ``m`` out of range)."""


class EngineConfigError(NWCError, ValueError):
    """The engine cannot be configured as requested (unknown execution
    mode, DEP grid over an empty tree, ...)."""
