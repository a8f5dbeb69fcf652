"""Fixed-geometry block array owned by the device core.

Backing is an in-memory sparse map holding only non-zero blocks; every other
block reads as zeros. Checkpoints capture pre-images eagerly
so speculative execution of unvalidated operations can be rolled back exactly.
The store also tracks which blocks changed since their last save, so a durable
copy can be kept up to date from deltas.
"""

from __future__ import annotations

import hashlib

BLOCK_SIZE = 4096
ZERO_BLOCK = bytes(BLOCK_SIZE)


class OutOfRangeError(Exception):
    """Block id is outside the store geometry."""


class StaleCheckpointError(Exception):
    """Checkpoint was already consumed by a rollback."""


class Checkpoint:
    """Pre-images of the blocks an unvalidated operation is about to modify.

    add() keeps the first capture per block, so a checkpoint can grow lazily
    while an operation discovers its write set.
    """

    def __init__(self, store: "BlockStore", ids):
        self._store = store
        self.saved: dict[int, bytes] = {}
        self.consumed = False
        for bid in ids:
            self.add(bid)

    def add(self, block_id: int) -> None:
        if self.consumed:
            raise StaleCheckpointError("checkpoint already consumed")
        if block_id not in self.saved:
            self.saved[block_id] = self._store.read_block(block_id)


class BlockStore:
    """In-memory block device with checkpoint/rollback support.

    Single-writer: all mutation happens on the verification/execution
    sequence. Geometry never changes after construction.

    A new store has every block unsaved: `take_unsaved` first hands over the
    whole store, and after that only the blocks written or rolled back since.
    """

    def __init__(self, total_blocks: int, blocks: dict[int, bytes] | None = None):
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        self.total_blocks = total_blocks
        self._blocks: dict[int, bytes] = {}
        if blocks:
            for bid, data in blocks.items():
                self._check(bid)
                if len(data) != BLOCK_SIZE:
                    raise ValueError("block %d is not %d bytes" % (bid, BLOCK_SIZE))
                if data != ZERO_BLOCK:
                    self._blocks[bid] = bytes(data)
        # Ids changed since the last take_unsaved; None while every block is
        # unsaved, so a store nothing is saved from records nothing.
        self._unsaved: set[int] | None = None
        # A set its owner may hand in and empty; every written or rolled-back
        # id is added to it.
        self.touched: set[int] | None = None

    def _check(self, block_id: int) -> None:
        if not 0 <= block_id < self.total_blocks:
            raise OutOfRangeError(
                "block %d out of range (geometry %d)" % (block_id, self.total_blocks)
            )

    def read_block(self, block_id: int) -> bytes:
        self._check(block_id)
        return self._blocks.get(block_id, ZERO_BLOCK)

    def write_block(self, block_id: int, data: bytes) -> None:
        self._check(block_id)
        if len(data) != BLOCK_SIZE:
            raise ValueError("block write must be exactly %d bytes" % BLOCK_SIZE)
        if data == ZERO_BLOCK:
            self._blocks.pop(block_id, None)
        else:
            self._blocks[block_id] = bytes(data)
        if self._unsaved is not None:
            self._unsaved.add(block_id)
        if self.touched is not None:
            self.touched.add(block_id)

    def checkpoint(self, ids) -> Checkpoint:
        for bid in ids:
            self._check(bid)
        return Checkpoint(self, ids)

    def rollback(self, cp: Checkpoint) -> None:
        if cp.consumed:
            raise StaleCheckpointError("checkpoint already consumed")
        for bid, data in cp.saved.items():
            if data == ZERO_BLOCK:
                self._blocks.pop(bid, None)
            else:
                self._blocks[bid] = data
        if self._unsaved is not None:
            self._unsaved.update(cp.saved)
        if self.touched is not None:
            self.touched.update(cp.saved)
        cp.consumed = True

    def discard(self, cp: Checkpoint) -> None:
        """Drop a checkpoint after its operation validated."""
        cp.consumed = True
        cp.saved.clear()

    def digest(self) -> str:
        h = hashlib.sha256()
        for bid in range(self.total_blocks):
            h.update(self._blocks.get(bid, ZERO_BLOCK))
        return h.hexdigest()

    def snapshot(self) -> dict[int, bytes]:
        return dict(self._blocks)

    def take_unsaved(self, ids=None) -> dict[int, bytes]:
        """The blocks changed since the last call, in id order, and mark them
        saved. A block back at zeros is handed over as ZERO_BLOCK, so the
        result applied to the last saved copy gives `snapshot()`. With `ids`,
        only those blocks are handed over and marked, except on a store's
        first call, which hands over every block."""
        if self._unsaved is None:
            ids = range(self.total_blocks)
            self._unsaved = set()
        elif ids is None:
            ids, self._unsaved = sorted(self._unsaved), set()
        else:
            ids = sorted(ids)
            self._unsaved.difference_update(ids)
        return {bid: self._blocks.get(bid, ZERO_BLOCK) for bid in ids}

    def mark_saved(self) -> None:
        """Treat the current contents as saved (a store loaded from its sink)."""
        self._unsaved = set()
