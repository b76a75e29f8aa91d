"""File namespace: HDFS files as append-only block collections.

The paper's CFS model (Section II-A) "uses append-only writes and stores
files as a collection of fixed-size blocks".  Facebook's HDFS performs
*inter-file encoding*: "the data blocks of a stripe may belong to different
files" (Section IV-A) — which both placement policies here support
naturally, since stripes group blocks regardless of their file.

``FileNamespace`` provides the file -> blocks mapping on the NameNode side;
``CFSClient``-level helpers in this module write and read whole files
through the replication pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.cluster.block import BlockId
from repro.cluster.topology import NodeId
from repro.hdfs.client import CFSClient
from repro.journal.records import (
    FileAppendBlock,
    FileCreate,
    FileDelete,
    Present,
    commit,
    owns,
)


class DuplicateFileError(KeyError):
    """Raised when creating a file whose name is taken."""


@dataclass
class FileMetadata:
    """NameNode-side record of one file.

    Attributes:
        name: Absolute path-style name, unique in the namespace.
        block_ids: The file's blocks in append order.
        size: Logical file size in bytes (last block may be partial).
    """

    name: str
    block_ids: List[BlockId] = field(default_factory=list)
    size: int = 0

    @property
    def num_blocks(self) -> int:
        """Blocks the file currently spans."""
        return len(self.block_ids)


@owns("namespace")
class FileNamespace:
    """The file table: name -> metadata, block -> owning file.

    Each mutator is one journal record's live path (test, journal when
    a :class:`~repro.journal.journal.MetadataJournal` is attached, apply;
    see :func:`~repro.journal.records.commit`); ``restore_file`` is the
    checkpoint-load entry point.
    """

    journal = None

    def __init__(self) -> None:
        self._files: Dict[str, FileMetadata] = {}
        self._owner: Dict[BlockId, str] = {}

    def create(self, name: str) -> FileMetadata:
        """Create an empty file.

        Raises:
            DuplicateFileError: If the name is already taken.
        """
        return commit(self, FileCreate, (name,))

    def append_block(self, name: str, block_id: BlockId, size: int) -> None:
        """Record a block appended to a file."""
        commit(self, FileAppendBlock, (name, block_id, size))

    def delete(self, name: str) -> FileMetadata:
        """Remove a file from the namespace (blocks are the caller's to
        clean up, mirroring HDFS's asynchronous block deletion)."""
        return commit(self, FileDelete, (name,))

    # -- record transitions (validity test, state change), shared by the
    # -- mutators above and by replay
    def check_file_create(self, fields):
        name, = fields
        if not name:
            return ValueError("file name cannot be empty")
        if name in self._files:
            return Present(DuplicateFileError(f"file {name!r} already exists"))
        return None

    def apply_file_create(self, fields) -> FileMetadata:
        name, = fields
        meta = FileMetadata(name)
        self._files[name] = meta
        return meta

    def check_file_append_block(self, fields):
        name, block_id, size = fields
        if name not in self._files:
            return self._no_such_file(name)
        owner = self._owner.get(block_id)
        if owner is None:
            return None
        error = ValueError(f"block {block_id} already belongs to a file")
        return Present(error) if owner == name else error

    def apply_file_append_block(self, fields) -> None:
        name, block_id, size = fields
        meta = self._files[name]
        meta.block_ids.append(block_id)
        meta.size += size
        self._owner[block_id] = name

    def check_file_delete(self, fields):
        name, = fields
        return None if name in self._files else Present(self._no_such_file(name))

    def apply_file_delete(self, fields) -> FileMetadata:
        name, = fields
        meta = self._files.pop(name)
        for block_id in meta.block_ids:
            self._owner.pop(block_id, None)
        return meta

    @staticmethod
    def _no_such_file(name: str) -> KeyError:
        return KeyError(f"no such file: {name!r}")

    def restore_file(
        self, name: str, block_ids: List[BlockId], size: int
    ) -> FileMetadata:
        """Re-register a file from a checkpoint (recovery only)."""
        if name in self._files:
            raise DuplicateFileError(f"file {name!r} already exists")
        meta = FileMetadata(name, list(block_ids), size)
        self._files[name] = meta
        for block_id in meta.block_ids:
            self._owner[block_id] = name
        return meta

    def lookup(self, name: str) -> FileMetadata:
        """Metadata of a file.

        Raises:
            KeyError: For unknown names.
        """
        try:
            return self._files[name]
        except KeyError:
            raise self._no_such_file(name) from None

    def owner_of(self, block_id: BlockId) -> Optional[str]:
        """The file a block belongs to, if any."""
        return self._owner.get(block_id)

    def exists(self, name: str) -> bool:
        """True when the name is taken."""
        return name in self._files

    def files(self) -> List[FileMetadata]:
        """All files, in creation order."""
        return list(self._files.values())

    def __len__(self) -> int:
        return len(self._files)


def write_file(
    client: CFSClient,
    namespace: FileNamespace,
    name: str,
    size: int,
    writer_node: Optional[NodeId] = None,
) -> Generator:
    """Write a whole file through the replication pipeline (generator).

    Splits ``size`` bytes into full blocks plus a final partial block, each
    written through :meth:`CFSClient.write_block` (and therefore placed by
    the active policy, joining stripes like any other block).

    Returns:
        The file's :class:`FileMetadata` (generator return value).
    """
    if not size > 0:
        raise ValueError("file size must be positive")
    namespace.create(name)
    block_size = client.namenode.block_size
    remaining = size
    while remaining > 0:
        chunk = min(remaining, block_size)
        result = yield from client.write_block(
            size=chunk, writer_node=writer_node
        )
        namespace.append_block(name, result.block.block_id, chunk)
        remaining -= chunk
    return namespace.lookup(name)


def read_file(
    client: CFSClient,
    namespace: FileNamespace,
    name: str,
    reader_node: NodeId,
) -> Generator:
    """Read every block of a file to ``reader_node`` (generator).

    Returns:
        List of source nodes, one per block (generator return value).
    """
    meta = namespace.lookup(name)
    sources: List[NodeId] = []
    for block_id in meta.block_ids:
        source = yield from client.read_block(block_id, reader_node)
        sources.append(source)
    return sources
