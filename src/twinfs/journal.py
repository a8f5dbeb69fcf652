"""Checksummed record logs: the one durable-log format of twinfs.

A log is a run of records `length(4B) + crc32(4B) + body`, where `length`
counts the body bytes and `crc32` is zlib's CRC-32 of them, in the manner of
LevelDB's log format. Blocks travel in a body as entries `block_id(4B) +
4096 bytes`. Replay stops at the first record that is torn, corrupt or
refused by its reader and truncates the log there, so a record is all or
nothing. Both durable logs are a `Log`: a checkpoint record, then the
records since, rewritten as a new checkpoint once those outgrow the
geometry's image (PROTOCOL.md, "Durable logs").
"""

from __future__ import annotations

import os
import struct
import zlib

from twinfs.blockstore import BLOCK_SIZE
from twinfs.wire import DecodeError

HEAD = struct.Struct("<II")  # body length, CRC-32 of the body
_BLOCK_ID = struct.Struct("<I")
_ENTRY = _BLOCK_ID.size + BLOCK_SIZE


def pack_blocks(blocks) -> bytes:
    """Entries for (block id, 4096 bytes) pairs, in the order given."""
    return b"".join(_BLOCK_ID.pack(bid) + data for bid, data in blocks)


def unpack_blocks(raw: bytes) -> dict[int, bytes]:
    """The blocks of a run of entries; DecodeError if it ends in a partial one."""
    if len(raw) % _ENTRY:
        raise DecodeError("%d bytes of block entries" % len(raw))
    return {
        _BLOCK_ID.unpack_from(raw, at)[0]: raw[at + _BLOCK_ID.size : at + _ENTRY]
        for at in range(0, len(raw), _ENTRY)
    }


def _write(f, bodies, sync: bool) -> int:
    data = b"".join(HEAD.pack(len(body), zlib.crc32(body)) + body for body in bodies)
    f.write(data)
    if sync:
        f.flush()
        os.fsync(f.fileno())
    return len(data)


def _fsync_dir(path: str) -> None:
    """fsync the directory holding `path`, so a rename into it is durable."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append(path: str, body: bytes, sync: bool = False) -> int:
    """Append one record; return its length. With `sync` it is fsynced."""
    with open(path, "ab") as f:
        return _write(f, [body], sync)


def replay(path: str, parse) -> int:
    """Hand each record body to `parse` in order, until a record is torn
    (shorter than its header or its length), fails its CRC, or `parse`
    refuses it by returning False or raising DecodeError. Truncate the log
    there and return its length. A record for which `parse` returns None is
    kept only if a later record is kept, so an uncommitted tail is truncated
    too. A log of which no record is kept is left as it is, and the result
    is 0.
    """
    with open(path, "r+b") as f:
        good = 0
        while len(head := f.read(HEAD.size)) == HEAD.size:
            length, crc = HEAD.unpack(head)
            body = f.read(length)
            try:
                kept = len(body) == length and zlib.crc32(body) == crc and parse(body)
            except DecodeError:
                kept = False
            if kept is False:
                break
            if kept:
                good = f.tell()
        if good:
            f.truncate(good)
    return good


class Log:
    """A durable log laid out as a checkpoint record, which holds the whole
    committed state, then the records since; with its length and its
    checkpoint's length in bytes."""

    def __init__(self, path: str):
        self.path = path
        # 0 until the log is loaded or rewritten.
        self.size = self.checkpoint = 0

    def load(self, parse) -> bool:
        """Replay the log through `parse`, as `replay` does; `parse` keeps
        the first record only if it is a checkpoint. False, with the log left
        as it is, when no record is kept."""

        def step(body: bytes):
            self.checkpoint = self.checkpoint or HEAD.size + len(body)
            return parse(body)

        self.checkpoint = 0
        self.size = replay(self.path, step)
        return self.size > 0

    def append(self, body: bytes, sync: bool = False) -> None:
        self.size += append(self.path, body, sync)

    def rewrite(self, checkpoint: bytes, bodies=()) -> None:
        """Replace the log with the checkpoint record and one record per body,
        through `<path>.tmp`, fsynced, a rename and an fsync of the directory."""
        with open(self.path + ".tmp", "wb") as f:
            self.size = _write(f, [checkpoint, *bodies], sync=True)
        os.replace(self.path + ".tmp", self.path)
        _fsync_dir(self.path)
        self.checkpoint = HEAD.size + len(checkpoint)

    def outgrown(self, total_blocks: int) -> bool:
        """The one compaction rule of both logs: the records after the
        checkpoint are longer than the geometry's image."""
        return self.size - self.checkpoint > total_blocks * BLOCK_SIZE
