"""Checksummed record logs: the one durable-log format of twinfs.

A log is a run of records `length(4B) + crc32(4B) + body`, where `length`
counts the body bytes and `crc32` is zlib's CRC-32 of them, in the manner of
LevelDB's log format. Blocks travel in a body as entries `block_id(4B) +
4096 bytes`. Replay stops at the first record that is torn, corrupt or
refused by its reader and truncates the log there, so a record is all or
nothing (PROTOCOL.md, "Durable logs").
"""

from __future__ import annotations

import os
import struct
import zlib

from twinfs.blockstore import BLOCK_SIZE, fsync_dir
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


def append(path: str, body: bytes, sync: bool = False) -> int:
    """Append one record; return its length. With `sync` it is fsynced."""
    with open(path, "ab") as f:
        return _write(f, [body], sync)


def rewrite(path: str, bodies, sync: bool = False) -> int:
    """Replace the log with one record per body through a tmp file and a
    rename; return its length. With `sync` the new file is fsynced before
    the rename and the directory after it."""
    with open(path + ".tmp", "wb") as f:
        size = _write(f, bodies, sync)
    os.replace(path + ".tmp", path)
    if sync:
        fsync_dir(path)
    return size


def replay(path: str, parse, required: bool = False) -> int | None:
    """Hand each record body to `parse` in order, until a record is torn
    (shorter than its header or its length), fails its CRC, or `parse`
    refuses it by returning False or raising DecodeError. Truncate the log
    there and return its length. A record for which `parse` returns None is
    kept only if a later record is kept, so an uncommitted tail is truncated
    too.

    With `required` the first record must be whole and accepted; otherwise
    the log is left as it was and the result is None.
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
        if required and not good:
            return None
        f.truncate(good)
    return good
