"""Unit tests for repro.storage (stats, pages, serializer)."""

import os
import zlib

import pytest

from repro.geometry import PointObject, Rect
from repro.storage import (
    FORMAT_VERSION,
    LEGACY_VERSION,
    PAGE_OVERHEAD,
    CorruptPageError,
    FormatVersionError,
    IOStats,
    PageError,
    PageFile,
    SerializationError,
    StatsAggregator,
    decode,
    encode_internal,
    encode_leaf,
    max_internal_entries,
    max_leaf_entries,
    scan_pages,
)
from tests import faults


class TestIOStats:
    def test_record_node(self):
        stats = IOStats()
        stats.record_node(is_leaf=True)
        stats.record_node(is_leaf=False)
        assert stats.node_accesses == 2
        assert stats.leaf_accesses == 1

    def test_reset(self):
        stats = IOStats(node_accesses=5, window_queries=3)
        stats.reset()
        assert stats.node_accesses == 0
        assert stats.window_queries == 0

    def test_snapshot_roundtrip(self):
        stats = IOStats(node_accesses=2, page_reads=7)
        snap = stats.snapshot()
        assert snap["node_accesses"] == 2
        assert snap["page_reads"] == 7

    def test_iadd_accumulates_in_place(self):
        a = IOStats(node_accesses=2)
        b = IOStats(node_accesses=3, leaf_accesses=1)
        a += b
        assert a.node_accesses == 5
        assert a.leaf_accesses == 1
        assert b.node_accesses == 3  # unchanged

    def test_aggregator_mean_total(self):
        agg = StatsAggregator()
        agg.add(IOStats(node_accesses=10))
        agg.add(IOStats(node_accesses=20))
        assert len(agg) == 2
        assert agg.mean() == 15.0
        assert agg.total() == 30
        assert StatsAggregator().mean() == 0.0


class TestPageFile:
    def test_create_write_read(self, tmp_path):
        path = tmp_path / "pages.db"
        with PageFile(path, page_size=128, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, b"hello")
            assert file.read_page(pid).startswith(b"hello")
            assert file.read_page(pid).endswith(b"\x00")

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        with PageFile(path, page_size=128, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, b"data")
            file.set_root_page(pid)
        with PageFile(path, page_size=128) as file:
            assert file.page_count == 1
            assert file.root_page == pid
            assert file.read_page(pid).startswith(b"data")

    def test_page_size_mismatch(self, tmp_path):
        path = tmp_path / "pages.db"
        PageFile(path, page_size=128, create=True).close()
        with pytest.raises(PageError):
            PageFile(path, page_size=256)

    def test_out_of_range_page(self, tmp_path):
        with PageFile(tmp_path / "p.db", page_size=128, create=True) as file:
            with pytest.raises(PageError):
                file.read_page(1)
            with pytest.raises(PageError):
                file.write_page(0, b"")

    def test_oversized_payload(self, tmp_path):
        with PageFile(tmp_path / "p.db", page_size=64, create=True) as file:
            pid = file.allocate()
            with pytest.raises(PageError):
                file.write_page(pid, b"x" * 65)

    def test_not_a_page_file(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a page file at all" + b"\x00" * 200)
        with pytest.raises(PageError):
            PageFile(path, page_size=128)

    def test_io_is_counted(self, tmp_path):
        stats = IOStats()
        with PageFile(tmp_path / "p.db", page_size=128, stats=stats, create=True) as f:
            pid = f.allocate()
            f.write_page(pid, b"a")
            f.read_page(pid)
        assert stats.page_writes == 1
        assert stats.page_reads == 1

    def test_tiny_page_size_rejected(self, tmp_path):
        with pytest.raises(PageError):
            PageFile(tmp_path / "p.db", page_size=8, create=True)


class TestPageFormat:
    """The v2 checksummed format, the legacy v1 format, and the
    boundary between them."""

    def test_new_files_are_v2(self, tmp_path):
        path = tmp_path / "p.db"
        with PageFile(path, page_size=128, create=True) as file:
            assert file.format_version == FORMAT_VERSION
            assert file.payload_capacity == 128 - PAGE_OVERHEAD
        with open(path, "rb") as handle:
            assert handle.read(4) == b"NWCF"

    def test_legacy_v1_create_and_reopen(self, tmp_path):
        path = tmp_path / "legacy.db"
        with PageFile(path, page_size=128, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, b"raw bytes, no checksum")
        faults.rewrite_as_v1(path, 128)
        with open(path, "rb") as handle:
            assert handle.read(4) == b"NWC1"
        with PageFile(path, page_size=128) as file:  # auto-detected
            assert file.format_version == LEGACY_VERSION
            assert file.payload_capacity == 128
            assert file.read_page(pid).startswith(b"raw bytes")
            with pytest.raises(FormatVersionError):  # v1 is read-only
                file.write_page(pid, b"new bytes")

    def test_unknown_header_version_rejected(self, tmp_path):
        path = tmp_path / "p.db"
        PageFile(path, page_size=128, create=True).close()
        with open(path, "r+b") as handle:
            body = bytearray(handle.read(28))  # the CRC-covered header body
            body[4:6] = (7).to_bytes(2, "little")
            handle.seek(0)
            handle.write(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(FormatVersionError):
            PageFile(path, page_size=128)

    def test_payload_capacity_boundary(self, tmp_path):
        with PageFile(tmp_path / "p.db", page_size=64, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, b"x" * file.payload_capacity)  # exactly fits
            assert file.read_page(pid) == b"x" * file.payload_capacity
            with pytest.raises(PageError):
                file.write_page(pid, b"x" * (file.payload_capacity + 1))

    def test_corrupted_page_read_raises(self, tmp_path):
        path = tmp_path / "p.db"
        with PageFile(path, page_size=128, create=True) as file:
            pid = file.allocate()
            file.write_page(pid, b"precious")
        with open(path, "r+b") as handle:
            handle.seek(128 + 20)  # inside page 1's payload
            handle.write(b"\xff")
        with PageFile(path, page_size=128) as file:
            with pytest.raises(CorruptPageError) as excinfo:
                file.read_page(pid)
            assert excinfo.value.page_id == pid

    def test_truncated_file_rejected_on_open(self, tmp_path):
        path = tmp_path / "p.db"
        with PageFile(path, page_size=128, create=True) as file:
            file.allocate()
            file.write_page(1, b"data")
        with open(path, "r+b") as handle:
            handle.truncate(128 + 40)
        with pytest.raises(CorruptPageError):
            PageFile(path, page_size=128)

    def test_corrupted_header_rejected_on_open(self, tmp_path):
        path = tmp_path / "p.db"
        PageFile(path, page_size=128, create=True).close()
        with open(path, "r+b") as handle:
            handle.seek(10)  # inside the CRC-protected header body
            handle.write(b"\xaa")
        with pytest.raises(CorruptPageError):
            PageFile(path, page_size=128)

    def test_scan_pages_skips_damaged_pages_only(self, tmp_path):
        path = tmp_path / "p.db"
        with PageFile(path, page_size=128, create=True) as file:
            for i in range(4):
                pid = file.allocate()
                file.write_page(pid, bytes([65 + i]) * 8)
        with open(path, "r+b") as handle:
            handle.seek(2 * 128 + 30)  # damage page 2
            handle.write(b"\xff\xff")
        survivors = dict(scan_pages(path, page_size=128))
        assert sorted(survivors) == [1, 3, 4]
        assert survivors[3].startswith(b"C" * 8)


class TestSerializer:
    def test_leaf_roundtrip(self):
        objs = [PointObject(i, i * 1.5, -i) for i in range(10)]
        record = decode(encode_leaf(objs, 4096))
        assert list(record.objects) == objs

    def test_internal_roundtrip(self):
        children = [(5, Rect(0, 0, 1, 1)), (9, Rect(2, 3, 4, 5))]
        record = decode(encode_internal(children, 4096))
        assert list(record.children) == children

    def test_capacity_functions_positive(self):
        assert max_leaf_entries(4096) >= 50
        assert max_internal_entries(4096) >= 50

    def test_paper_page_capacities(self):
        # One 4096-byte page comfortably holds the paper's fanout of 50.
        assert max_leaf_entries(4096) == (4096 - 3) // 24
        assert max_internal_entries(4096) == (4096 - 3) // 40

    def test_overflow_rejected(self):
        objs = [PointObject(i, 0.0, 0.0) for i in range(max_leaf_entries(256) + 1)]
        with pytest.raises(SerializationError):
            encode_leaf(objs, 256)

    def test_truncated_decode_rejected(self):
        payload = encode_leaf([PointObject(0, 1.0, 2.0)], 4096)
        with pytest.raises(SerializationError):
            decode(payload[:10])
        with pytest.raises(SerializationError):
            decode(b"")

    def test_empty_leaf_roundtrip(self):
        record = decode(encode_leaf([], 4096))
        assert record.objects == ()
