"""Write-back cache: geometry, LRU, eviction, and a shadow-model property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import WriteBackCache


def make_cache(**kwargs):
    defaults = dict(size_bytes=256, assoc=8, block_size=16)
    defaults.update(kwargs)
    return WriteBackCache(**defaults)


def test_geometry_table2():
    cache = make_cache()
    assert cache.num_sets == 2
    assert cache.words_per_block == 4


def test_geometry_validation():
    with pytest.raises(ValueError):
        WriteBackCache(100, 8, 16)
    with pytest.raises(ValueError):
        WriteBackCache(256, 8, 10)


def test_block_address_and_word_index():
    cache = make_cache()
    assert cache.block_address(0x123) == 0x120
    assert cache.word_index(0x120) == 0
    assert cache.word_index(0x12C) == 3


def test_miss_then_hit():
    cache = make_cache()
    assert cache.lookup(0x100) is None
    assert cache.peek_victim(0x100) is None
    line = cache.allocate(0x100)
    assert cache.lookup(0x100) is line
    assert cache.hits == 1 and cache.misses == 1


def test_lru_eviction_order():
    cache = make_cache(size_bytes=64, assoc=2, block_size=16)  # 2 sets x 2 ways
    # Fill set 0 (blocks 0x00, 0x20 map to set 0; 0x10, 0x30 to set 1).
    cache.allocate(0x00)
    cache.allocate(0x40)
    cache.lookup(0x00)  # make 0x00 MRU
    victim = cache.peek_victim(0x80)
    assert victim.block_addr == 0x40
    line = cache.allocate(0x80)
    assert line is victim  # the LRU way is reused for the new block
    assert cache.evictions == 1
    assert cache.peek(0x40) is None and cache.peek(0x00) is not None
    assert cache.peek(0x80) is line and line.block_addr == 0x80


def test_peek_victim_none_when_free_way():
    cache = make_cache(size_bytes=64, assoc=2, block_size=16)
    cache.allocate(0x00)
    assert cache.peek_victim(0x40) is None


def test_victim_carries_dirty_data():
    cache = make_cache(size_bytes=32, assoc=1, block_size=16)
    line = cache.allocate(0x00)
    cache.write_word(line, 0x4, 0xABCD)
    assert line.dirty
    victim = cache.peek_victim(0x40)  # same set: 0x00 would be evicted
    assert victim is line
    assert victim.dirty
    assert victim.block_addr == 0x00
    assert cache.read_word(victim, 0x4) == 0xABCD


def test_allocate_requires_clean_victim():
    cache = make_cache(size_bytes=32, assoc=1, block_size=16)
    line = cache.allocate(0x00)
    cache.write_word(line, 0x4, 0xABCD)
    with pytest.raises(AssertionError, match="victim must be clean"):
        cache.allocate(0x40)
    line.dirty = False  # written back by the caller
    assert cache.allocate(0x40) is line
    assert line.block_addr == 0x40 and not line.dirty


def test_word_and_byte_io():
    cache = make_cache()
    line = cache.allocate(0x100)
    cache.write_word(line, 0x104, 0x11223344)
    assert cache.read_word(line, 0x104) == 0x11223344
    assert cache.read_byte(line, 0x105) == 0x33
    # Little-endian byte lanes: byte i of a word is bits 8*i .. 8*i+7.
    assert [cache.read_byte(line, 0x104 + i) for i in range(4)] == [
        0x44, 0x33, 0x22, 0x11,
    ]
    cache.write_byte(line, 0x106, 0xEE)
    assert cache.read_word(line, 0x104) == 0x11EE3344
    cache.write_byte(line, 0x107, 0x1FF)  # only the low byte is kept
    assert line.words == [0, 0xFFEE3344, 0, 0]


def test_dirty_lines_listing():
    cache = make_cache()
    a = cache.allocate(0x00)
    b = cache.allocate(0x10)
    cache.write_word(b, 0x10, 5)
    dirty = cache.dirty_lines()
    assert dirty == [b]
    assert set(cache.valid_lines()) == {a, b}


def test_clear_invalidates_everything():
    cache = make_cache()
    line = cache.allocate(0x00)
    cache.write_word(line, 0x0, 1)
    cache.clear()
    assert cache.lookup(0x00) is None
    assert cache.dirty_lines() == []


def test_meta_reset_on_allocate():
    cache = make_cache()
    line = cache.allocate(0x00)
    line.meta = "tracking"
    cache.clear()
    line2 = cache.allocate(0x00)
    assert line2.meta is None


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # write?
            st.integers(0, 63),  # word index within a 256B region
            st.integers(0, 0xFFFFFFFF),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_cache_with_writeback_equals_flat_memory(ops):
    """A WBWA cache over a backing store must be semantically invisible."""
    cache = make_cache(size_bytes=64, assoc=2, block_size=16)
    backing = {}
    shadow = {}

    def fetch(block_addr):
        peek = cache.peek_victim(block_addr)
        if peek is not None and peek.valid and peek.dirty:
            for i in range(4):
                backing[peek.block_addr + 4 * i] = cache.read_word(
                    peek, peek.block_addr + 4 * i
                )
            peek.dirty = False
        line = cache.allocate(block_addr)
        assert peek is None or line is peek
        for i in range(4):
            cache.write_word(line, block_addr + 4 * i, backing.get(block_addr + 4 * i, 0))
        line.dirty = False
        return line

    for is_write, word, value in ops:
        addr = word * 4
        block = cache.block_address(addr)
        line = cache.lookup(block)
        if line is None:
            line = fetch(block)
        if is_write:
            cache.write_word(line, addr, value)
            shadow[addr] = value
        else:
            assert cache.read_word(line, addr) == shadow.get(addr, 0)
    # Flush and compare the full image.
    for line in cache.dirty_lines():
        for i in range(4):
            backing[line.block_addr + 4 * i] = cache.read_word(
                line, line.block_addr + 4 * i
            )
    for addr, value in shadow.items():
        assert backing.get(addr, 0) == value
