"""JSONL checkpoint journal for resumable experiment sweeps.

A multi-hour sweep that dies (worker crash, OOM kill, ctrl-C) should
not recompute the cells it already finished.  :class:`SweepCheckpoint`
journals one JSON line per completed cell, keyed by the task's stable
fingerprint (see :attr:`repro.eval.experiments.SweepTask.key`), so a rerun
with the same task list skips finished cells and produces rows
identical to an uninterrupted run.

Format — one object per line, append-only::

    {"key": "<task fingerprint>", "row": {"dataset": "CA-like", ...}}

The reader tolerates a torn final line (the process may have been
killed mid-append); anything that does not parse is ignored, which at
worst recomputes that one cell.
"""

from __future__ import annotations

import json
import os
from typing import IO

__all__ = ["SweepCheckpoint"]


class SweepCheckpoint:
    """Append-only journal of completed sweep cells.

    Construct via :meth:`load` (reads what a previous — possibly
    killed — run managed to journal), then :meth:`record` each newly
    finished cell.  Lookups by task key answer "was this cell already
    computed, and what was its row?".
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._rows: dict[str, dict] = {}
        self._handle: IO[str] | None = None

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "SweepCheckpoint":
        """Open a journal, replaying any lines a previous run wrote.

        A missing file is an empty journal; a torn or garbled line
        (killed mid-write) is skipped, not fatal.
        """
        checkpoint = cls(path)
        try:
            with open(checkpoint.path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        key, row = entry["key"], entry["row"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        continue
                    if isinstance(key, str) and isinstance(row, dict):
                        checkpoint._rows[key] = row
        except FileNotFoundError:
            pass
        return checkpoint

    def __len__(self) -> int:
        return len(self._rows)

    def completed(self, key: str) -> dict | None:
        """The journaled row for ``key``, or ``None`` if not finished."""
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def record(self, key: str, row: dict) -> None:
        """Journal one finished cell (flushed line-by-line so a kill
        loses at most the line being written)."""
        self._rows[key] = dict(row)
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        json.dump({"key": key, "row": row}, self._handle, sort_keys=True)
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the journal file (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
