"""Binary (de)serialization of R-tree nodes into fixed-size pages.

Record layout (little endian):

``header``  : flags:u8 | entry_count:u16
``leaf``    : entry_count x (oid:i64, x:f64, y:f64)             24 B each
``internal``: entry_count x (child_page:i64, x1,y1,x2,y2:f64)  40 B each

With the paper's 4096-byte pages a leaf holds up to 169 objects and an
internal node up to 101 children, comfortably above the paper's fanout of
50 — so one node always fits one page.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..geometry import PointObject, Rect
from .errors import SerializationError

_HEADER = struct.Struct("<BH")
_LEAF_ENTRY = struct.Struct("<qdd")
_INTERNAL_ENTRY = struct.Struct("<qdddd")
#: The same entry layouts as numpy record types, to decode a record at once.
LEAF_DTYPE = np.dtype([("oid", "<i8"), ("x", "<f8"), ("y", "<f8")])
INTERNAL_DTYPE = np.dtype(
    [("page", "<i8"), ("x1", "<f8"), ("y1", "<f8"), ("x2", "<f8"), ("y2", "<f8")]
)

_FLAG_LEAF = 0x01


@dataclass(frozen=True, slots=True)
class LeafRecord:
    """Decoded leaf node: the objects it stores."""

    objects: tuple[PointObject, ...]


@dataclass(frozen=True, slots=True)
class InternalRecord:
    """Decoded internal node: child page ids with their MBRs."""

    children: tuple[tuple[int, Rect], ...]


def max_leaf_entries(page_size: int) -> int:
    """Largest number of objects a leaf page can hold."""
    return (page_size - _HEADER.size) // _LEAF_ENTRY.size


def max_internal_entries(page_size: int) -> int:
    """Largest number of children an internal page can hold."""
    return (page_size - _HEADER.size) // _INTERNAL_ENTRY.size


def encode_leaf(objects: list[PointObject] | tuple[PointObject, ...],
                page_size: int) -> bytes:
    """Serialize a leaf node; raises when it does not fit the page."""
    if len(objects) > max_leaf_entries(page_size):
        raise SerializationError(
            f"{len(objects)} objects exceed leaf capacity "
            f"{max_leaf_entries(page_size)} for page size {page_size}"
        )
    parts = [_HEADER.pack(_FLAG_LEAF, len(objects))]
    for obj in objects:
        parts.append(_LEAF_ENTRY.pack(obj.oid, obj.x, obj.y))
    return b"".join(parts)


def encode_internal(children: list[tuple[int, Rect]], page_size: int) -> bytes:
    """Serialize an internal node as ``(child_page, mbr)`` entries."""
    if len(children) > max_internal_entries(page_size):
        raise SerializationError(
            f"{len(children)} children exceed internal capacity "
            f"{max_internal_entries(page_size)} for page size {page_size}"
        )
    parts = [_HEADER.pack(0, len(children))]
    for page_id, mbr in children:
        parts.append(_INTERNAL_ENTRY.pack(page_id, mbr.x1, mbr.y1, mbr.x2, mbr.y2))
    return b"".join(parts)


def decode_entries(data) -> tuple[bool, np.ndarray]:
    """Decode one page payload into ``(is_leaf, entries)``: a
    :data:`LEAF_DTYPE` or :data:`INTERNAL_DTYPE` record array viewing
    ``data`` (copy it to outlive the buffer)."""
    if len(data) < _HEADER.size:
        raise SerializationError("truncated node record")
    flags, count = _HEADER.unpack_from(data, 0)
    leaf = bool(flags & _FLAG_LEAF)
    dtype = LEAF_DTYPE if leaf else INTERNAL_DTYPE
    if len(data) < _HEADER.size + count * dtype.itemsize:
        raise SerializationError(
            f"truncated {'leaf' if leaf else 'internal'} record")
    return leaf, np.frombuffer(data, dtype=dtype, count=count,
                               offset=_HEADER.size)


def leaf_objects(entries: np.ndarray) -> list[PointObject]:
    """The objects of a decoded leaf record array."""
    return list(map(PointObject, entries["oid"].tolist(),
                    entries["x"].tolist(), entries["y"].tolist()))


def decode(data: bytes) -> LeafRecord | InternalRecord:
    """Decode one page payload into a leaf or internal record."""
    leaf, entries = decode_entries(data)
    if leaf:
        return LeafRecord(tuple(leaf_objects(entries)))
    return InternalRecord(tuple(zip(entries["page"].tolist(), map(
        Rect, entries["x1"].tolist(), entries["y1"].tolist(),
        entries["x2"].tolist(), entries["y2"].tolist()))))
