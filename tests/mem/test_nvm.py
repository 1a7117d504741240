"""NVM flash model: storage, wear counters, checkpoint slot."""

import pytest

from repro.mem.nvm import NvmFlash


@pytest.fixture
def flash():
    return NvmFlash(1 << 16)


def test_reads_zero_when_erased(flash):
    assert flash.read_word(0x100) == 0


def test_write_read_roundtrip(flash):
    flash.write_word(0x40, 0xDEADBEEF)
    assert flash.read_word(0x40) == 0xDEADBEEF


def test_unaligned_access_uses_containing_word(flash):
    flash.write_word(0x40, 0x11223344)
    assert flash.read_word(0x42) == 0x11223344


def test_value_wraps_to_32_bits(flash):
    flash.write_word(0, 0x1_0000_0002)
    assert flash.read_word(0) == 2


def test_out_of_range_rejected(flash):
    with pytest.raises(ValueError):
        flash.read_word(1 << 16)
    with pytest.raises(ValueError):
        flash.write_word(-4, 0)


def test_access_counters(flash):
    flash.write_word(0, 1)
    flash.write_word(4, 2)
    flash.read_word(0)
    assert flash.writes == 2
    assert flash.reads == 1


def test_wear_tracking(flash):
    for _ in range(5):
        flash.write_word(0x10, 7)
    flash.write_word(0x20, 1)
    assert flash.max_wear == 5
    assert flash.wear_histogram() == {5: 1, 1: 1}


def test_peek_poke_do_not_count(flash):
    flash.poke_word(0, 42)
    assert flash.peek_word(0) == 42
    assert flash.reads == 0 and flash.writes == 0
    assert flash.max_wear == 0


def test_load_image_and_peek_bytes(flash):
    flash.load_image(0x101, b"\x01\x02\x03\x04\x05")
    assert flash.peek_bytes(0x101, 5) == b"\x01\x02\x03\x04\x05"
    # surrounding bytes untouched
    assert flash.peek_bytes(0x100, 1) == b"\x00"


def test_block_io(flash):
    words = [0x03020100, 0x07060504, 0x0B0A0908, 0x0F0E0D0C]
    flash.write_block(0x80, words)
    block = flash.read_block(0x80, 16)
    assert block == words
    assert block is not words  # a fill gets its own list
    assert flash.writes == 4
    assert flash.reads == 4
    assert flash.write_counts == {0x80: 1, 0x84: 1, 0x88: 1, 0x8C: 1}
    # Words are stored with little-endian byte lanes.
    assert flash.peek_bytes(0x80, 16) == bytes(range(16))
    assert flash.peek_word(0x8C) == 0x0F0E0D0C


def test_block_io_bounds(flash):
    with pytest.raises(ValueError):
        flash.read_block(flash.size - 8, 16)
    with pytest.raises(ValueError):
        flash.write_block(flash.size - 8, [1, 2, 3, 4])
    flash.write_block(0, [])
    assert flash.writes == 0 and flash.reads == 0


def test_checkpoint_slot(flash):
    assert flash.committed_checkpoint() is None
    flash.commit_checkpoint({"pc": 4})
    assert flash.committed_checkpoint() == {"pc": 4}
    flash.commit_checkpoint({"pc": 8})
    assert flash.committed_checkpoint() == {"pc": 8}
