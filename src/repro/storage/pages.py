"""A fixed-size page abstraction over a binary file.

The paper stores the R*-tree on 4096-byte pages (Section 5).  The
in-memory tree is what the algorithms run against; this module provides
the disk substrate used by :mod:`repro.index.persistence` to serialize a
tree into a page file and load it back, with physical reads/writes
counted in :class:`repro.storage.stats.IOStats`.  :class:`PageFile` is
the one reader of a page file: a columnar snapshot
(:class:`~repro.index.flat.FlatRTree`) is derived from the tree that
``load_tree`` rebuilds, never decoded from the pages itself.

The on-disk format is v2 (magic ``NWCF`` + explicit version field):
the header and every data page carry a CRC32 covering the *whole* page,
so any single-bit corruption, torn write or truncation is detected on
read and raised as a typed :class:`CorruptPageError` — never returned as
silently wrong data.  Data pages are laid out as
``crc32:u32 | payload_len:u32 | payload | zero pad`` with the CRC over
everything after the CRC field (padding included).  The checksum-free
seed format (v1, magic ``NWC1``) is no longer read: such a file fails
like any other foreign file, with :class:`CorruptPageError`.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterator

from .errors import CorruptPageError, FormatVersionError, PageError
from .stats import IOStats

DEFAULT_PAGE_SIZE = 4096

#: Current (checksummed) format magic and version.
MAGIC = b"NWCF"
FORMAT_VERSION = 2

#: Per-page bytes consumed by the v2 integrity fields (crc32 + length).
PAGE_OVERHEAD = 8

_PAGE_PREFIX = struct.Struct("<II")  # crc32, payload length
# v2 header: magic, version, reserved, page_size, page_count, root_page
_HEADER_V2 = struct.Struct("<4sHHIQq")
_HEADER_V2_CRC = struct.Struct("<I")


@dataclass(frozen=True, slots=True)
class PageHeader:
    """Decoded header of a page file.

    Attributes:
        page_size: Size of every page in bytes.
        page_count: Number of allocated pages (excluding the header page).
        root_page: Page id of the tree root (``-1`` when unset).
        format_version: On-disk format (2, checksummed).
    """

    page_size: int
    page_count: int
    root_page: int
    format_version: int = FORMAT_VERSION


class PageFile:
    """Fixed-size page storage backed by a regular file.

    Page 0 is a header page; data pages are numbered from 1.  All reads
    and writes are whole pages, mirroring a disk-based system.  In the
    default v2 format every read verifies the page's CRC32; corruption
    raises :class:`CorruptPageError` instead of returning bad bytes.
    """

    def __init__(self, path: str | os.PathLike[str], page_size: int = DEFAULT_PAGE_SIZE,
                 stats: IOStats | None = None, create: bool = False,
                 metrics=None) -> None:
        """Open (or create) a page file.

        Args:
            path: Filesystem path of the backing file.
            page_size: Page size in bytes; must hold the header.
            stats: Counter sink; a private one is created when omitted.
            create: Truncate/initialize the file when True.  A new
                file is always in the current checksummed format; an
                existing file's header must be in it too.
            metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
                when given, per-page read/write wall-clock latency is
                observed into the ``page_read_seconds`` /
                ``page_write_seconds`` histograms (p50/p95/p99 in their
                summaries).  ``None`` keeps the I/O paths timer-free.
        """
        if page_size < _HEADER_V2.size + _HEADER_V2_CRC.size:
            raise PageError(f"page size too small: {page_size}")
        if metrics is not None:
            self._m_read_seconds = metrics.histogram(
                "page_read_seconds", "Physical page read latency")
            self._m_write_seconds = metrics.histogram(
                "page_write_seconds", "Physical page write latency")
        else:
            self._m_read_seconds = self._m_write_seconds = None
        self.path = os.fspath(path)
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self._header_dirty = False
        mode = "w+b" if create or not os.path.exists(self.path) else "r+b"
        self._file = open(self.path, mode)
        try:
            if mode == "w+b":
                self.format_version = FORMAT_VERSION
                self._page_count = 0
                self._root_page = -1
                self._write_header()
            else:
                header = self._read_header()
                if header.page_size != page_size:
                    raise PageError(
                        f"page size mismatch: file has {header.page_size}, "
                        f"requested {page_size}"
                    )
                self.format_version = header.format_version
                self._page_count = header.page_count
                self._root_page = header.root_page
                self._check_file_size()
        except BaseException:
            self._file.close()
            raise

    # ------------------------------------------------------------------
    # Header handling
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        body = _HEADER_V2.pack(MAGIC, self.format_version, 0, self.page_size,
                               self._page_count, self._root_page)
        payload = body + _HEADER_V2_CRC.pack(zlib.crc32(body))
        self._file.seek(0)
        self._file.write(payload.ljust(self.page_size, b"\x00"))
        self._header_dirty = False

    def _read_header(self) -> PageHeader:
        self._file.seek(0)
        raw = self._file.read(self.page_size)
        return decode_header(raw, self.path)

    def _check_file_size(self) -> None:
        expected = (self._page_count + 1) * self.page_size
        actual = os.fstat(self._file.fileno()).st_size
        if actual < expected:
            raise CorruptPageError(
                f"{self.path}: truncated file — header promises {expected} "
                f"bytes ({self._page_count} pages), found {actual}"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Number of allocated data pages."""
        return self._page_count

    @property
    def root_page(self) -> int:
        """Page id recorded as the tree root (``-1`` when unset)."""
        return self._root_page

    @property
    def payload_capacity(self) -> int:
        """Largest payload one page can hold."""
        return self.page_size - PAGE_OVERHEAD

    def set_root_page(self, page_id: int) -> None:
        """Record the root page id in the header."""
        self._check_page_id(page_id)
        self._root_page = page_id
        self._write_header()

    def allocate(self) -> int:
        """Allocate a fresh page and return its id (1-based).

        The header is rewritten lazily (on :meth:`flush` / :meth:`close`
        / :meth:`set_root_page`) rather than on every allocation.
        """
        self._page_count += 1
        self._header_dirty = True
        return self._page_count

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page; ``data`` must fit in :attr:`payload_capacity`."""
        self._check_page_id(page_id)
        if len(data) > self.payload_capacity:
            raise PageError(
                f"payload of {len(data)} bytes exceeds page capacity "
                f"{self.payload_capacity} (page size {self.page_size})"
            )
        body = struct.pack("<I", len(data)) + data
        body = body.ljust(self.page_size - _HEADER_V2_CRC.size, b"\x00")
        page = _HEADER_V2_CRC.pack(zlib.crc32(body)) + body
        timed = self._m_write_seconds is not None
        start = time.perf_counter() if timed else 0.0
        self._file.seek(page_id * self.page_size)
        self._file.write(page)
        if timed:
            self._m_write_seconds.observe(time.perf_counter() - start)
        self.stats.page_writes += 1

    def read_page(self, page_id: int) -> bytes:
        """Read one page's payload region, verifying its checksum.

        Returns the zero-padded payload area (``payload_capacity``
        bytes).

        Raises:
            CorruptPageError: Short read, checksum mismatch or an
                impossible payload length — the page cannot be trusted.
        """
        self._check_page_id(page_id)
        timed = self._m_read_seconds is not None
        start = time.perf_counter() if timed else 0.0
        self._file.seek(page_id * self.page_size)
        raw = self._file.read(self.page_size)
        if timed:
            self._m_read_seconds.observe(time.perf_counter() - start)
        if len(raw) != self.page_size:
            raise CorruptPageError(
                f"short read on page {page_id}", page_id=page_id
            )
        self.stats.page_reads += 1
        return self._verify_page(raw, page_id)

    def _verify_page(self, raw: bytes, page_id: int) -> bytes:
        stored_crc, length = _PAGE_PREFIX.unpack_from(raw, 0)
        if zlib.crc32(raw[_HEADER_V2_CRC.size:]) != stored_crc:
            raise CorruptPageError(
                f"checksum mismatch on page {page_id}", page_id=page_id
            )
        if length > self.payload_capacity:
            raise CorruptPageError(
                f"page {page_id} claims {length} payload bytes "
                f"(capacity {self.payload_capacity})", page_id=page_id
            )
        return raw[PAGE_OVERHEAD:]

    def flush(self) -> None:
        """Flush buffered writes (and any pending header) to the OS."""
        if self._header_dirty:
            self._write_header()
        self._file.flush()

    def sync(self) -> None:
        """Flush and force the file's bytes to stable storage."""
        self.flush()
        os.fsync(self._file.fileno())

    def close(self, sync: bool = False) -> None:
        """Flush and close the backing file (``sync=True`` fsyncs too)."""
        if sync:
            self.sync()
        else:
            self.flush()
        self._file.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_page_id(self, page_id: int) -> None:
        if not 1 <= page_id <= self._page_count:
            raise PageError(
                f"page id {page_id} out of range 1..{self._page_count}"
            )


def decode_header(raw: bytes, path: str = "<bytes>") -> PageHeader:
    """Decode (and for v2, CRC-verify) a page-file header.

    Accepts the raw bytes of page 0 and returns the parsed
    :class:`PageHeader`.

    Raises:
        CorruptPageError: Truncated header, bad magic or CRC mismatch.
        FormatVersionError: Recognized magic but unsupported version.
    """
    if len(raw) < _HEADER_V2.size + _HEADER_V2_CRC.size:
        raise CorruptPageError(f"{path}: truncated header", page_id=0)
    if raw[:4] != MAGIC:
        raise CorruptPageError(f"not a repro page file: {path}", page_id=0)
    body = raw[: _HEADER_V2.size]
    (stored_crc,) = _HEADER_V2_CRC.unpack_from(raw, _HEADER_V2.size)
    if zlib.crc32(body) != stored_crc:
        raise CorruptPageError(f"{path}: header checksum mismatch", page_id=0)
    magic, version, _reserved, page_size, page_count, root_page = (
        _HEADER_V2.unpack(body)
    )
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"{path}: unsupported format version {version}")
    return PageHeader(page_size, page_count, root_page, version)


def scan_pages(path: str | os.PathLike[str],
               page_size: int = DEFAULT_PAGE_SIZE) -> Iterator[tuple[int, bytes]]:
    """Best-effort scan of every *verifiable* page of a (possibly
    damaged) page file.

    Yields ``(page_id, payload)`` for each data page whose integrity
    checks pass, silently skipping damaged ones; used by the
    ``repair=True`` load path to salvage what is readable.  The header
    is not consulted, so a corrupt header does not stop the scan.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        file_size = handle.tell()
        page_count = max(0, file_size // page_size - 1)
        capacity = page_size - PAGE_OVERHEAD
        for page_id in range(1, page_count + 1):
            handle.seek(page_id * page_size)
            raw = handle.read(page_size)
            if len(raw) != page_size:
                continue
            stored_crc, length = _PAGE_PREFIX.unpack_from(raw, 0)
            if zlib.crc32(raw[_HEADER_V2_CRC.size:]) != stored_crc:
                continue
            if length > capacity:
                continue
            yield page_id, raw[PAGE_OVERHEAD:]
