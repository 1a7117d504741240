"""Cache lines and NVM blocks hold u32 words with little-endian byte lanes.

A property test drives word and byte loads and stores (store values
include negatives and values of 2**32 and above) through the cached
architectures, over more set-conflicting blocks than the cache has
ways, with backups (and power failures after some of them) in between.
A flat little-endian ``bytearray`` is the model: every load must read
it, every backup must leave it as the committed view, and every word
the cache or the NVM holds must be a Python int in [0, 2**32).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.base import BackupReason
from repro.asm.program import MemoryLayout

from tests.arch.conftest import make_arch

BASE = MemoryLayout().data_base
#: Blocks 32 bytes apart all land in one set of the 2-set, 8-way
#: Table 2 cache; ten of them force evictions.
BLOCKS = 10
STRIDE = 32
BLOCK = 16

values = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([-1, 2**32, 2**32 + 5, -(2**31), 0xFF, 0x100]),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("sw"), st.integers(0, BLOCKS - 1), st.integers(0, 3), values),
        st.tuples(st.just("sb"), st.integers(0, BLOCKS - 1), st.integers(0, 15), values),
        st.tuples(st.just("lw"), st.integers(0, BLOCKS - 1), st.integers(0, 3)),
        st.tuples(st.just("lb"), st.integers(0, BLOCKS - 1), st.integers(0, 15)),
        st.tuples(st.just("backup"), st.booleans()),
    ),
    min_size=1,
    max_size=150,
)


def _word(model, offset):
    return int.from_bytes(model[offset : offset + 4], "little")


def _is_u32(value):
    return type(value) is int and 0 <= value <= 0xFFFFFFFF


def _check_u32(arch):
    assert all(_is_u32(v) for v in arch.nvm._words.values())
    for lines in arch.cache._sets:
        for line in lines:
            if line.valid:
                assert len(line.words) == arch.cache.words_per_block
                assert all(_is_u32(v) for v in line.words)


def _nvm_home(arch, tag):
    """The NVM block holding ``tag``'s committed contents, or None while
    they sit in HOOP's redo log (applied home by garbage collection)."""
    if arch.name == "nvmr":
        mapping = arch.map_table.peek(tag)
        return tag if mapping is None else mapping
    if arch.name == "hoop" and any(
        tag <= addr < tag + BLOCK for addr in arch.committed_log
    ):
        return None
    return tag


def _check_committed(arch, model):
    for b in range(BLOCKS):
        tag = BASE + b * STRIDE
        offset = b * STRIDE
        for w in range(4):
            assert arch.debug_read_word(tag + 4 * w) == _word(model, offset + 4 * w)
        home = _nvm_home(arch, tag)
        if home is not None:
            assert arch.nvm.peek_bytes(home, BLOCK) == bytes(
                model[offset : offset + BLOCK]
            )


@pytest.mark.parametrize("arch_name", ["clank", "nvmr", "hoop", "ideal"])
@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_byte_lanes_and_u32_range(arch_name, ops):
    arch = make_arch(arch_name)
    arch.backup(BackupReason.INITIAL)
    model = bytearray(BLOCKS * STRIDE)
    for op in ops:
        kind = op[0]
        if kind == "backup":
            arch.backup(BackupReason.POLICY)
            if op[1]:
                arch.on_power_failure()
                arch.restore()
            _check_committed(arch, model)
        elif kind == "sw":
            _, b, w, value = op
            offset = b * STRIDE + 4 * w
            arch.store(BASE + offset, value, 4)
            model[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        elif kind == "sb":
            _, b, i, value = op
            offset = b * STRIDE + i
            arch.store(BASE + offset, value, 1)
            model[offset] = value & 0xFF
        elif kind == "lw":
            _, b, w = op
            offset = b * STRIDE + 4 * w
            assert arch.load(BASE + offset, 4)[0] == _word(model, offset)
        else:
            _, b, i = op
            offset = b * STRIDE + i
            assert arch.load(BASE + offset, 1)[0] == model[offset]
        _check_u32(arch)
    arch.backup(BackupReason.FINAL)
    _check_committed(arch, model)
    _check_u32(arch)
