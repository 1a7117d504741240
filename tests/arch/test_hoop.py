"""HOOP: out-of-place redo logging, OOP buffer/region, GC."""

from hypothesis import Phase, example, given, settings, strategies as st

from repro.arch.base import BackupReason
from repro.asm.program import MemoryLayout
from repro.cpu.state import Checkpoint

from tests.arch.conftest import load_word, make_arch, store_word


def fill_set0(arch, base, count=8, write=False):
    for i in range(count):
        addr = base + i * 32
        if write:
            store_word(arch, addr, addr)
        else:
            load_word(arch, addr)


def test_dirty_eviction_never_touches_home(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base, 0xAB)
    fill_set0(arch, data_base + 32, 8)  # evict it
    assert arch.nvm.peek_word(data_base) == 0  # home untouched
    assert arch.oop_buffer[data_base] == 0xAB  # parked in the buffer


def test_buffer_word_visible_on_refetch(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base, 0xAB)
    fill_set0(arch, data_base + 32, 8)
    assert load_word(arch, data_base) == 0xAB


def test_only_written_words_logged(data_base):
    arch = make_arch("hoop")
    arch.backup(BackupReason.INITIAL)
    store_word(arch, data_base + 4, 1)  # word 1 of the block only
    fill_set0(arch, data_base + 32, 8)
    assert data_base + 4 in arch.oop_buffer
    assert data_base not in arch.oop_buffer


def test_backup_moves_updates_to_committed_log(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 7)
    arch.backup(BackupReason.POLICY)
    assert arch.oop_buffer == {}
    assert arch.committed_log[data_base] == 7
    assert arch.nvm.peek_word(data_base) == 0  # still out of place
    assert arch.debug_read_word(data_base) == 7


def test_power_failure_drops_buffer_keeps_log(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 7)
    arch.backup(BackupReason.POLICY)
    store_word(arch, data_base + 64, 9)  # uncommitted
    arch.on_power_failure()
    # Restore garbage-collects: committed updates land at home.
    arch.restore()
    assert arch.nvm.peek_word(data_base) == 7
    assert arch.committed_log == {}
    assert load_word(arch, data_base) == 7
    assert load_word(arch, data_base + 64) == 0  # lost, as expected


def test_buffer_full_triggers_structural_backup(data_base):
    arch = make_arch("hoop", oop_buffer_entries=4)
    arch.backup(BackupReason.INITIAL)
    before = arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0)
    # Dirty 3 whole blocks (1 word each... use full blocks): write one
    # word in each of 5 set-0 blocks, then stream to evict them all.
    for i in range(5):
        store_word(arch, data_base + i * 32, i + 1)
    fill_set0(arch, data_base + 4096, 8)
    assert arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0) >= before + 1


def test_region_full_forces_gc(data_base):
    arch = make_arch("hoop", oop_region_slots=8)
    gc_before = arch.gc_count
    # Each backup writes 1 slice header + 1 word = 2 slots.
    for i in range(6):
        store_word(arch, data_base + i * 4096, i)
        arch.backup(BackupReason.POLICY)
    assert arch.gc_count > gc_before
    # After GC the region was compacted; log reflects the latest state.
    for i in range(6):
        assert arch.debug_read_word(data_base + i * 4096) == i


def test_slice_packing_counts_blocks():
    arch = make_arch("hoop")
    updates = {0x100: 1, 0x104: 2, 0x108: 3, 0x200: 4}
    assert arch._slice_count(updates, 16) == 2
    assert arch._slots_needed(updates) == 4 + 2


def test_store_locality_packs_into_fewer_slices(data_base):
    """Words of one block share a slice header (HOOP's advantage on
    store-local benchmarks, Section 6.2)."""
    arch_local = make_arch("hoop")
    for i in range(4):
        store_word(arch_local, data_base + 4 * i, i)  # one block
    scattered = make_arch("hoop")
    for i in range(4):
        store_word(scattered, data_base + 32 * i, i)  # four blocks
    assert arch_local.estimate_backup_cost() < scattered.estimate_backup_cost()


def test_estimate_covers_actual(data_base):
    arch = make_arch("hoop")
    for i in range(5):
        store_word(arch, data_base + i * 32, i)
    estimate = arch.estimate_backup_cost()
    spent = arch.ledger.total_spent
    arch.backup(BackupReason.POLICY)
    assert arch.ledger.total_spent - spent <= estimate + 1e-9


def test_multiple_updates_same_word_keep_latest(data_base):
    arch = make_arch("hoop")
    store_word(arch, data_base, 1)
    arch.backup(BackupReason.POLICY)
    store_word(arch, data_base, 2)
    arch.backup(BackupReason.POLICY)
    arch.on_power_failure()
    arch.restore()
    assert load_word(arch, data_base) == 2


# ------------------------------------------- pending-slot counter oracle
def recounted_estimate(arch):
    """The backup price from a full recount of the pending updates,
    which the incremental counters behind ``estimate_backup_cost`` must
    reproduce bit-exactly."""
    energy = arch.energy
    slots = arch._slots_needed(arch._pending_updates())
    cost = (
        slots * energy.nvm_write_word
        + Checkpoint.WORDS * energy.nvm_write_word
        + energy.backup_commit
    )
    if arch.region_used + slots > arch.region_slots:
        cost += arch._gc_cost()
    return cost


#: Blocks that all map to cache set 0 (2 sets x 16 B blocks); the
#: oracle's ops draw from the first six, ``evict`` streams the next eight
#: through the eight-way set.
_BLOCKS = 6
_SET0_STRIDE = 32

#: Op kinds, weighted so backups and power failures are rare enough for
#: blocks to cycle through the buffer between them.  ``evict`` streams
#: eight fresh set-0 blocks through the cache, parking every dirty line
#: in the OOP buffer, so later stores rewrite parked words and blocks.
_KINDS = ["load"] * 6 + ["store"] * 8 + ["evict"] * 2 + ["backup", "fail"]

_ops = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.integers(0, _BLOCKS - 1),  # block
        st.integers(0, 15),  # byte offset within the block
        st.sampled_from([1, 4]),  # access size
        st.integers(0, 0xFFFFFFFF),  # store value
    ),
    min_size=20,
    max_size=60,
)


def _apply(arch, base, op):
    kind, block, offset, size, value = op
    addr = base + block * _SET0_STRIDE + (offset & ~3 if size == 4 else offset)
    if kind == "backup":
        arch.backup(BackupReason.POLICY)
    elif kind == "fail":
        arch.on_power_failure()
        arch.restore()
    elif kind == "evict":
        for i in range(_BLOCKS, _BLOCKS + 8):
            arch.load(base + i * _SET0_STRIDE, 4)
    elif kind == "load":
        arch.load(addr, size)
    else:
        arch.store(addr, value & (0xFFFFFFFF if size == 4 else 0xFF), size)


_EVICT = ("evict", 0, 0, 4, 0)

# Scripted: dirty block 0 word 1 and park it in the buffer, then write a
# byte of a fresh word of the parked block (its block is already
# pending) and rewrite the parked word (already pending); then a power
# failure.
_REWRITE_PARKED = [("store", 0, 4, 4, 1), _EVICT]
_REWRITE_PARKED += [("store", 0, 9, 1, 3), ("store", 0, 4, 4, 2)]
_REWRITE_PARKED += [("fail", 0, 0, 4, 0)]

# Scripted for a 2-entry buffer and 6-slot region: three dirty blocks
# evicted in turn overflow the buffer (STRUCTURAL backup filling the
# region), and the next backup must garbage-collect.
_STRUCTURAL_THEN_GC = [("store", b, 0, 4, b + 1) for b in range(3)]
_STRUCTURAL_THEN_GC += [_EVICT, ("store", 0, 0, 4, 9), ("backup", 0, 0, 4, 0)]


# The explain phase is skipped: on a failing op list it runs for minutes
# and only annotates the (already shrunk) counterexample.
@settings(
    max_examples=60,
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
@given(
    ops=_ops,
    buffer_entries=st.sampled_from([2, 4, 8, 32]),
    region_slots=st.sampled_from([6, 12, 24, 512]),
)
@example(ops=_REWRITE_PARKED, buffer_entries=32, region_slots=512)
@example(ops=_STRUCTURAL_THEN_GC, buffer_entries=2, region_slots=6)
def test_estimate_counters_match_full_recount(ops, buffer_entries, region_slots):
    """After every op, the O(1) estimate equals the full-recount price:
    word/byte traffic over conflicting blocks, rewrites of buffered
    words, buffer-full STRUCTURAL backups, region-full GC, and power
    failures followed by restore."""
    arch = make_arch(
        "hoop", oop_buffer_entries=buffer_entries, oop_region_slots=region_slots
    )
    arch.backup(BackupReason.INITIAL)
    assert arch.estimate_backup_cost() == recounted_estimate(arch)
    base = MemoryLayout().data_base
    for op in ops:
        _apply(arch, base, op)
        assert arch.estimate_backup_cost() == recounted_estimate(arch)
        assert arch._pend_words == len(arch._pending_updates())


def test_oracle_exercises_structural_backups_and_gc(data_base):
    """The oracle's scripted example does reach the buffer-full and
    region-full paths."""
    arch = make_arch("hoop", oop_buffer_entries=2, oop_region_slots=6)
    arch.backup(BackupReason.INITIAL)
    for op in _STRUCTURAL_THEN_GC:
        _apply(arch, data_base, op)
    assert arch.stats.backups_by_reason.get(BackupReason.STRUCTURAL, 0) >= 1
    assert arch.gc_count >= 1
