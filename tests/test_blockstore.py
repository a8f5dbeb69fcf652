import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfs.blockstore import (
    BLOCK_SIZE,
    BlockStore,
    OutOfRangeError,
    StaleCheckpointError,
    ZERO_BLOCK,
)


def filled(byte, n=BLOCK_SIZE):
    return bytes([byte]) * n


class TestBasics:
    def test_fresh_store_reads_zeros(self):
        store = BlockStore(16)
        assert store.read_block(0) == bytes(4096)

    def test_read_after_write(self):
        store = BlockStore(16)
        store.write_block(7, filled(0xAB))
        assert store.read_block(7) == filled(0xAB)

    def test_last_write_wins(self):
        store = BlockStore(16)
        store.write_block(3, filled(0x01))
        store.write_block(3, filled(0xFF))
        assert store.read_block(3) == filled(0xFF)

    def test_out_of_range(self):
        store = BlockStore(16)
        with pytest.raises(OutOfRangeError):
            store.read_block(16)
        with pytest.raises(OutOfRangeError):
            store.write_block(16, filled(0))
        with pytest.raises(OutOfRangeError):
            store.checkpoint({16})

    def test_bad_block_size(self):
        store = BlockStore(16)
        with pytest.raises(ValueError):
            store.write_block(0, b"short")


class TestCheckpoints:
    def test_empty_checkpoint_rollback_is_noop(self):
        store = BlockStore(16)
        store.write_block(1, filled(0x11))
        before = store.digest()
        cp = store.checkpoint(set())
        store.rollback(cp)
        assert store.digest() == before

    def test_rollback_restores_preimage(self):
        store = BlockStore(16)
        cp = store.checkpoint({5})
        store.write_block(5, filled(0x55))
        store.rollback(cp)
        assert store.read_block(5) == ZERO_BLOCK

    def test_rollback_only_checkpointed_ids(self):
        store = BlockStore(16)
        cp = store.checkpoint({5})
        store.write_block(5, filled(0x55))
        store.write_block(6, filled(0x66))
        store.rollback(cp)
        assert store.read_block(5) == ZERO_BLOCK
        assert store.read_block(6) == filled(0x66)

    def test_double_rollback_is_stale(self):
        store = BlockStore(16)
        cp = store.checkpoint({1})
        store.rollback(cp)
        with pytest.raises(StaleCheckpointError):
            store.rollback(cp)

    def test_lazy_add_keeps_first_preimage(self):
        store = BlockStore(16)
        store.write_block(2, filled(0x22))
        cp = store.checkpoint(set())
        cp.add(2)
        store.write_block(2, filled(0x33))
        cp.add(2)  # must not overwrite the captured pre-image
        store.rollback(cp)
        assert store.read_block(2) == filled(0x22)

    def test_geometry_never_changes(self):
        store = BlockStore(16)
        store.write_block(15, filled(1))
        cp = store.checkpoint({15})
        store.rollback(cp)
        assert store.total_blocks == 16


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_overlapping_checkpoints_lifo_matches_shadow(seed):
    """Randomized write/checkpoint/rollback sequences against a full-copy shadow."""
    rng = random.Random(seed)
    store = BlockStore(12)
    shadow = {i: bytes(BLOCK_SIZE) for i in range(12)}
    stack = []  # (checkpoint, shadow snapshot)
    for _ in range(rng.randrange(5, 25)):
        action = rng.random()
        if action < 0.5:
            bid = rng.randrange(12)
            data = bytes([rng.randrange(256)]) * BLOCK_SIZE
            for cp, _ in stack:
                cp.add(bid)
            store.write_block(bid, data)
            shadow[bid] = data
        elif action < 0.75:
            stack.append((store.checkpoint(set()), dict(shadow)))
        elif stack:
            cp, snap = stack.pop()
            store.rollback(cp)
            shadow = snap
    for bid in range(12):
        assert store.read_block(bid) == shadow[bid]
