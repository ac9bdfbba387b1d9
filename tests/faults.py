"""Fault-injection harness for the storage, index and sweep layers.

Everything here *breaks things on purpose* so the test suite can prove
the fault-tolerance layer detects — never silently survives — real
failure modes:

* file-level corruptors (:func:`flip_bit`, :func:`corrupt_random_bit`,
  :func:`torn_write`, :func:`truncate_file`) that damage a saved page
  file the way disks and crashes do, and :func:`rewrite_as_v1`;
* :class:`FaultInjectingPageFile`, a drop-in :class:`PageFile` that
  raises seeded transient ``OSError`` s and/or flips read bits in
  flight, for exercising error propagation through higher layers;
* :func:`exit_on_label`, a picklable sweep-task wrapper that kills the
  pool worker running one labelled task, the way an OOM kill or a
  segfault ends a worker mid-sweep;
* write-ahead-log corruptors (:func:`wal_record_spans`,
  :func:`garble_wal_record`, :func:`append_garbage`) that damage a WAL
  the way crashes and bit rot do, so the recovery path can prove it
  tells a torn tail (truncate and continue) from body corruption
  (refuse and surface a typed error).

The wrapper learns its target through ``os.environ`` (inherited on
fork and spawn), because closures do not cross the process boundary.
"""

from __future__ import annotations

import os
import random

from repro.eval.experiments import SweepTask, run_sweep_task
from repro.storage import PageFile
from repro.storage.pages import LEGACY_MAGIC
from repro.storage.stats import IOStats

#: Pid of the process that imported this module first — i.e. the test
#: harness itself.  Forked pool workers inherit the value but have a
#: different ``os.getpid()``, which is how :func:`exit_on_label` tells
#: "worker" from "parent".
HARNESS_PID = os.getpid()

#: Env var selecting which task :func:`exit_on_label` kills, as
#: ``"name=value"`` matched against the task's labels.
CRASH_LABEL = "REPRO_FAULT_CRASH_LABEL"


# ----------------------------------------------------------------------
# File-level corruption
# ----------------------------------------------------------------------
def flip_bit(path: str | os.PathLike[str], byte_offset: int, bit: int) -> None:
    """Flip one bit of the file in place."""
    with open(path, "r+b") as handle:
        handle.seek(byte_offset)
        (value,) = handle.read(1)
        handle.seek(byte_offset)
        handle.write(bytes([value ^ (1 << bit)]))


def corrupt_random_bit(
    path: str | os.PathLike[str],
    rng: random.Random,
    page_size: int,
    first_page: int = 1,
) -> tuple[int, int, int]:
    """Flip a seeded random bit inside a random page of the file.

    Pages before ``first_page`` (default: the header page 0 is spared)
    are never touched.  Returns ``(page_id, byte_offset, bit)`` for
    diagnostics.
    """
    file_size = os.path.getsize(path)
    page_count = file_size // page_size
    if page_count <= first_page:
        raise ValueError(f"file has no page >= {first_page} to corrupt")
    page_id = rng.randrange(first_page, page_count)
    offset = page_id * page_size + rng.randrange(page_size)
    bit = rng.randrange(8)
    flip_bit(path, offset, bit)
    return page_id, offset, bit


def torn_write(
    path: str | os.PathLike[str],
    page_id: int,
    page_size: int,
    rng: random.Random,
) -> None:
    """Simulate a torn (half-applied) write: the tail of the page is
    replaced with garbage, as if power failed mid-sector-train."""
    cut = page_size // 2 + rng.randrange(page_size // 4)
    garbage = bytes(rng.randrange(256) for _ in range(page_size - cut))
    with open(path, "r+b") as handle:
        handle.seek(page_id * page_size + cut)
        handle.write(garbage)


def truncate_file(path: str | os.PathLike[str], keep_bytes: int) -> None:
    """Cut the file short, as if a crash interrupted an append."""
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)


def rewrite_as_v1(path: str | os.PathLike[str], page_size: int) -> None:
    """Rewrite a v2 page file in place as v1: the v1 header, and each
    data page's payload without its 8-byte crc/length prefix."""
    with PageFile(path, page_size=page_size) as file:
        pages = [LEGACY_MAGIC + page_size.to_bytes(4, "little")
                 + file.page_count.to_bytes(8, "little")
                 + file.root_page.to_bytes(8, "little", signed=True)]
        pages += [file.read_page(page_id)
                  for page_id in range(1, file.page_count + 1)]
    with open(path, "wb") as handle:
        for page in pages:
            handle.write(page.ljust(page_size, b"\x00"))


# ----------------------------------------------------------------------
# Write-ahead-log corruption
# ----------------------------------------------------------------------
def wal_record_spans(path: str | os.PathLike[str]) -> list[tuple[int, int]]:
    """``(offset, length)`` of every record frame+payload in a WAL file.

    Walks the frames exactly like replay does (without checking CRCs),
    so corruptors can aim at a specific record — "the last one" for a
    torn tail, "one in the middle" for body rot.
    """
    import struct

    from repro.storage.wal import FRAME_SIZE, HEADER_SIZE

    spans: list[tuple[int, int]] = []
    with open(path, "rb") as handle:
        data = handle.read()
    offset = HEADER_SIZE
    while offset + FRAME_SIZE <= len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        total = FRAME_SIZE + length
        if offset + total > len(data):
            break
        spans.append((offset, total))
        offset += total
    return spans


def garble_wal_record(path: str | os.PathLike[str], index: int,
                      rng: random.Random) -> int:
    """Flip one seeded bit inside record ``index``'s payload (negative
    indices count from the end).  Returns the absolute byte offset."""
    from repro.storage.wal import FRAME_SIZE

    spans = wal_record_spans(path)
    offset, total = spans[index]
    payload_len = total - FRAME_SIZE
    if payload_len <= 0:
        raise ValueError(f"record {index} has no payload to garble")
    position = offset + FRAME_SIZE + rng.randrange(payload_len)
    flip_bit(path, position, rng.randrange(8))
    return position


def append_garbage(path: str | os.PathLike[str], nbytes: int,
                   rng: random.Random) -> None:
    """Append random bytes, as if a crash tore the last append."""
    with open(path, "ab") as handle:
        handle.write(bytes(rng.randrange(256) for _ in range(nbytes)))


# ----------------------------------------------------------------------
# Read-path fault injection
# ----------------------------------------------------------------------
class FaultInjectingPageFile(PageFile):
    """A :class:`PageFile` that injects read-path faults.

    Args:
        transient_read_errors: Number of initial :meth:`read_page`
            calls that raise ``OSError`` before reads start succeeding
            (models a flaky device / NFS hiccup).
        flip_read_bit_every: Flip one seeded bit of every Nth page
            *as it is read* (the stored file stays pristine) — the
            checksum layer must catch each one.
        seed: RNG seed for the injected bit positions.
    """

    def __init__(self, path, page_size: int = 4096, stats: IOStats | None = None,
                 create: bool = False, transient_read_errors: int = 0,
                 flip_read_bit_every: int = 0, seed: int = 0) -> None:
        super().__init__(path, page_size=page_size, stats=stats, create=create)
        self.transient_read_errors = transient_read_errors
        self.flip_read_bit_every = flip_read_bit_every
        self._reads = 0
        self._rng = random.Random(seed)

    def read_page(self, page_id: int) -> bytes:
        self._reads += 1
        if self.transient_read_errors > 0:
            self.transient_read_errors -= 1
            raise OSError(f"injected transient I/O error on page {page_id}")
        # Read the raw stored page, then corrupt it in flight so the
        # integrity check (not the disk) is what the test exercises.
        self._check_page_id(page_id)
        self._file.seek(page_id * self.page_size)
        raw = self._file.read(self.page_size)
        if len(raw) != self.page_size:
            return super().read_page(page_id)  # delegate the error path
        self.stats.page_reads += 1
        if self.flip_read_bit_every and self._reads % self.flip_read_bit_every == 0:
            position = self._rng.randrange(len(raw))
            bit = self._rng.randrange(8)
            raw = (raw[:position] + bytes([raw[position] ^ (1 << bit)])
                   + raw[position + 1:])
        if self.format_version == 1:
            return raw
        return self._verify_page(raw, page_id)


# ----------------------------------------------------------------------
# Sweep-worker fault injection (picklable, env-configured)
# ----------------------------------------------------------------------
def exit_on_label(task: SweepTask) -> dict:
    """Kill the pool worker running the task whose labels match
    ``$REPRO_FAULT_CRASH_LABEL`` (``"name=value"``); run every other
    task normally.

    Installed in place of ``repro.eval.experiments.run_sweep_task``, it
    ends the worker with ``os._exit`` — no exception, no cleanup — so
    the pool breaks the way it does when a worker is OOM-killed.  The
    harness process itself is never killed.
    """
    target = os.environ.get(CRASH_LABEL)
    if target and os.getpid() != HARNESS_PID:
        name, _, value = target.partition("=")
        if any(label == name and str(current) == value
               for label, current in task.labels):
            os._exit(1)
    return run_sweep_task(task)
