"""Paged persistence: serialize an R*-tree into a page file and back.

The on-disk form mirrors the paper's setting — one node per 4096-byte
page — so the storage-overhead experiments of Section 5.2 and the page
math of the serializer are grounded in real bytes.  Loading counts one
physical page read per node through the file's :class:`IOStats`.

Fault tolerance (format v2, the default):

* :func:`save_tree` is **atomic**: it writes to a temporary file in the
  same directory, fsyncs, then ``os.replace``\\ s it over the target — a
  crash mid-save leaves the previous file intact, never a torn mix.
* Every page carries a CRC32 (see :mod:`repro.storage.pages`); a
  corrupted file raises a typed :class:`StorageError` subclass on load
  instead of producing a silently wrong tree.
* The tree walkers are **iterative**, so degenerate or very deep trees
  cannot hit the interpreter's recursion limit.
* ``load_tree(path, repair=True)`` salvages every readable leaf page of
  a damaged file and rebuilds a valid tree from the surviving objects,
  cross-checked by :func:`repro.index.validate.validate_tree`.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..storage import (
    DEFAULT_PAGE_SIZE,
    CorruptPageError,
    IOStats,
    LeafRecord,
    PageFile,
    RepairFailedError,
    SerializationError,
    decode,
    decode_entries,
    encode_internal,
    encode_leaf,
    scan_pages,
)
from ..storage.serializer import LEAF_DTYPE, leaf_objects
from .node import Node
from .pack import pack_level
from .rtree import DEFAULT_MAX_ENTRIES, RStarTree

_META = struct.Struct("<qqq")  # max_entries, min_entries, size


def save_tree(tree: RStarTree, path: str | os.PathLike[str],
              page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Write the tree to ``path`` atomically; returns the pages written.

    Pages are assigned bottom-up so that every internal record refers to
    already-allocated child pages.  The bytes land in a temporary file
    first and are fsynced before an ``os.replace`` onto ``path``, so a
    crash at any point leaves either the old file or the new one —
    never a partial write.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        file = PageFile(tmp_path, page_size=page_size, create=True)
        try:
            meta_page = file.allocate()
            file.write_page(
                meta_page,
                _META.pack(tree.max_entries, tree.min_entries, tree.size),
            )
            root_page = _save_nodes(tree.root, file)
            file.set_root_page(root_page)
            pages = file.page_count
        finally:
            file.close(sync=True)
        os.replace(tmp_path, path)
        _fsync_directory(os.path.dirname(path) or ".")
        return pages
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _save_nodes(root: Node, file: PageFile) -> int:
    """Iterative post-order write of the subtree under ``root``.

    Children are written before their parent so internal records always
    reference already-allocated pages (same invariant as the old
    recursive walker, without the recursion-depth ceiling).
    """
    capacity = file.payload_capacity
    page_of: dict[int, int] = {}
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.is_leaf and not expanded:
            stack.append((node, True))
            for child in reversed(node.entries):
                stack.append((child, False))
            continue
        if node.is_leaf:
            payload = encode_leaf(node.entries, capacity)
        else:
            children = [(page_of[child.node_id], child.mbr)
                        for child in node.entries]
            payload = encode_internal(children, capacity)
        page_id = file.allocate()
        file.write_page(page_id, payload)
        page_of[node.node_id] = page_id
    return page_of[root.node_id]


def load_tree(path: str | os.PathLike[str], page_size: int = DEFAULT_PAGE_SIZE,
              stats: IOStats | None = None, repair: bool = False) -> RStarTree:
    """Reconstruct a tree saved by :func:`save_tree`.

    Args:
        path: The page file.
        page_size: Page size the file was written with.
        stats: Counter sink for physical page reads.
        repair: Salvage mode — instead of failing on the first damaged
            page, collect every leaf page that still verifies and
            rebuild a valid tree from the surviving objects (see
            :func:`repair_tree`).

    Raises:
        StorageError: Any detected corruption (checksum mismatch,
            truncation, inconsistent metadata, unreadable records) —
            a damaged file is never returned as a silently wrong tree.
    """
    if repair:
        return repair_tree(path, page_size=page_size, stats=stats)
    with PageFile(path, page_size=page_size, stats=stats) as file:
        meta = _read_meta(file, path)
        try:
            tree = RStarTree(max_entries=meta[0], min_entries=meta[1],
                             stats=stats if stats is not None else IOStats())
        except ValueError as exc:
            raise CorruptPageError(f"{path}: invalid tree metadata: {exc}",
                                   page_id=1) from exc
        if file.root_page < 0:
            raise CorruptPageError(f"{path}: no root page recorded", page_id=0)
        tree.root, loaded = _load_nodes(file, file.root_page, tree, path)
        tree.root.parent = None
        tree.size = meta[2]
        if loaded != meta[2]:
            raise CorruptPageError(
                f"{path}: metadata promises {meta[2]} objects, "
                f"found {loaded} in leaves"
            )
        return tree


def _read_meta(file: PageFile, path: str | os.PathLike[str]) -> tuple[int, int, int]:
    if file.page_count < 1:
        raise CorruptPageError(f"{path}: no metadata page")
    try:
        return decode_meta(file.read_page(1))
    except struct.error as exc:
        raise CorruptPageError(f"{path}: unreadable metadata page: {exc}",
                               page_id=1) from exc


def decode_meta(raw: bytes) -> tuple[int, int, int]:
    """Decode the metadata page into (max_entries, min_entries, size)."""
    return _META.unpack_from(raw, 0)  # type: ignore[return-value]


def _load_nodes(file: PageFile, root_page: int, tree: RStarTree,
                path: str | os.PathLike[str]) -> tuple[Node, int]:
    """Iterative depth-first reconstruction rooted at ``root_page``;
    returns the root and the number of objects in the leaves.

    Node ids follow the post-order of the page walk, as when every node
    was created after its children.

    Guards against structurally corrupt files: child pointers outside
    the data-page range, pointers into the metadata page, and pointer
    cycles all raise :class:`CorruptPageError` instead of recursing
    forever (or at all — the walk is an explicit stack).
    """
    visited: set[int] = set()

    def record_at(page_id: int) -> tuple[bool, np.ndarray]:
        if not 2 <= page_id <= file.page_count:
            raise CorruptPageError(
                f"{path}: child pointer to page {page_id} outside the "
                f"data range 2..{file.page_count}", page_id=page_id)
        if page_id in visited:
            raise CorruptPageError(
                f"{path}: page {page_id} referenced twice (pointer cycle "
                f"or shared subtree)", page_id=page_id)
        visited.add(page_id)
        try:
            return decode_entries(file.read_page(page_id))
        except SerializationError as exc:
            raise CorruptPageError(
                f"{path}: undecodable node record on page {page_id}: {exc}",
                page_id=page_id) from exc

    # Pass 1: depth-first decode, remembering the post-order so every
    # node can be assembled strictly after its children.
    leaves: dict[int, np.ndarray] = {}
    children: dict[int, list[int]] = {}
    post_order: list[int] = []
    stack: list[tuple[int, bool]] = [(root_page, False)]
    while stack:
        page_id, expanded = stack.pop()
        if expanded:
            post_order.append(page_id)
            continue
        leaf, entries = record_at(page_id)
        stack.append((page_id, True))
        if leaf:
            leaves[page_id] = entries
        else:
            children[page_id] = entries["page"].tolist()
            stack.extend((c, False) for c in reversed(children[page_id]))
    # Pass 2: every leaf in one pack, then the internal nodes in
    # post-order; node ids follow the post-order.
    ids = dict(zip(post_order, tree._take_ids(len(post_order))))
    leaf_pages = [page_id for page_id in post_order if page_id in leaves]
    cols = np.concatenate([leaves[page_id] for page_id in leaf_pages]
                          or [np.empty(0, LEAF_DTYPE)])
    packed, _ = pack_level(True, np.array(leaf_objects(cols), dtype=object),
                           [len(leaves[page_id]) for page_id in leaf_pages],
                           (cols["x"], cols["y"]),
                           [ids[page_id] for page_id in leaf_pages])
    nodes = dict(zip(leaf_pages, packed))
    for page_id in post_order:
        if page_id in nodes:
            continue
        kids = [nodes[c] for c in children[page_id]]
        for child_page, kid in zip(children[page_id], kids):
            if kid.mbr is None:
                raise CorruptPageError(
                    f"{path}: internal page {page_id} references empty "
                    f"child page {child_page}", page_id=page_id)
        boxes = np.array([(k.mbr.x1, k.mbr.y1, k.mbr.x2, k.mbr.y2)
                          for k in kids]).reshape(-1, 4).T
        (nodes[page_id],), _ = pack_level(
            False, np.array(kids, dtype=object), [len(kids)], tuple(boxes),
            [ids[page_id]])
    return nodes[root_page], len(cols)


def repair_tree(path: str | os.PathLike[str],
                page_size: int = DEFAULT_PAGE_SIZE,
                stats: IOStats | None = None) -> RStarTree:
    """Salvage a damaged page file into a fresh, valid tree.

    Scans every page that still passes its integrity checks, collects
    the objects of all decodable **leaf** records (internal records only
    duplicate structure that bulk loading rebuilds anyway), and packs
    the survivors into a new R*-tree with the original fanout when the
    metadata page is readable (defaults otherwise).  The result is
    cross-checked with :func:`~repro.index.validate.validate_tree`
    before it is returned.

    Raises:
        RepairFailedError: When no leaf page survives, or the rebuilt
            tree fails validation.
    """
    from .validate import validate_tree

    max_entries, min_entries = DEFAULT_MAX_ENTRIES, None
    objects: dict[int, object] = {}
    salvaged_pages = 0
    for page_id, payload in scan_pages(path, page_size=page_size):
        if page_id == 1:
            try:
                meta = decode_meta(payload)
            except struct.error:
                continue
            if meta[0] >= 4 and 2 <= meta[1] <= meta[0] // 2:
                max_entries, min_entries = meta[0], meta[1]
            continue
        try:
            record = decode(payload)
        except SerializationError:
            continue
        if isinstance(record, LeafRecord):
            salvaged_pages += 1
            for obj in record.objects:
                objects.setdefault(obj.oid, obj)
    if not objects:
        raise RepairFailedError(
            f"{path}: repair salvaged no readable leaf pages"
        )
    salvaged = [objects[oid] for oid in sorted(objects)]
    tree = RStarTree.bulk_load(salvaged, max_entries=max_entries,
                               min_entries=min_entries, stats=stats)
    try:
        validate_tree(tree)
    except AssertionError as exc:
        raise RepairFailedError(
            f"{path}: repaired tree failed validation: {exc}"
        ) from exc
    return tree
