"""A simplified HOOP [6], adapted as a transaction-based intermittent
architecture (paper Section 2.1 / 6.2, Table 4).

HOOP performs *out-of-place* updates: dirty words evicted from the data
cache collect in a volatile **OOP buffer**, which a backup packs into
block-grouped *slices* and appends to the NVM **OOP region**.  A
mapping table redirects subsequent reads of those words to the region.
No idempotency tracking is needed — home addresses are only overwritten
during garbage collection, which applies *committed* updates and is
therefore always consistent with the last checkpoint.

Per Table 4, the mapping table is idealised (infinite, zero energy and
area); the OOP buffer and region are sized to match NvMR's
on-chip/memory footprint — 128 word entries / 2048 word slots for the
paper's full-size workloads, scaled 4x down here (32 / 512) along with
the benchmark working sets so buffer-full backup pressure is preserved
(see EXPERIMENTS.md).  GC runs during restore and whenever the region
would overflow.

Backups trigger on: the policy, and the OOP buffer filling up.
"""

from repro.arch.base import BackupReason, IntermittentArchitecture
from repro.cpu.state import Checkpoint
from repro.mem.cache import WriteBackCache

_WORD = 4


class _DirtyMask:
    """Per-line metadata: which words of the block were written."""

    __slots__ = ("mask",)

    def __init__(self):
        self.mask = 0


class HoopArchitecture(IntermittentArchitecture):
    name = "hoop"

    def __init__(
        self,
        nvm,
        ledger,
        energy,
        layout,
        cache_size=256,
        cache_assoc=8,
        block_size=16,
        oop_buffer_entries=32,
        oop_region_slots=512,
    ):
        super().__init__(nvm, ledger, energy, layout)
        self.cache = WriteBackCache(cache_size, cache_assoc, block_size)
        self.words_per_block = self.cache.words_per_block
        self.buffer_capacity = oop_buffer_entries
        self.region_slots = oop_region_slots
        # Volatile OOP buffer: word address -> value.
        self.oop_buffer = {}
        # Committed redo state: word address -> value as of the last
        # backup.  The value conceptually lives in an OOP-region slot;
        # the idealised mapping table resolves the indirection for free,
        # so we track (mapping, value) jointly and count slot usage.
        self.committed_log = {}
        self.region_used = 0
        self.gc_count = 0
        # Incremental pending-slot accounting so estimate_backup_cost()
        # avoids rebuilding _pending_updates() after every instruction:
        # how many distinct words a backup would persist (OOP buffer
        # plus masked words of dirty lines), how many distinct blocks
        # they span, and which blocks have words in the buffer.
        # backup() asserts these against the full plan.
        self._pend_words = 0
        self._pend_blocks = 0
        self._buffer_blocks = set()

    def leakage_per_cycle(self):
        return self.energy.cache_leak_cycle

    # ------------------------------------------------------ cache path
    def _fetch_word(self, word_addr, charge_category="forward"):
        """Latest value of a word: OOP buffer > committed log > home."""
        if word_addr in self.oop_buffer:
            self.charge(charge_category, self.energy.cache_access)
            return self.oop_buffer[word_addr]
        if word_addr in self.committed_log:
            self.charge(charge_category, self.energy.nvm_read_word)
            self.nvm.reads += 1  # region slot read
            return self.committed_log[word_addr]
        self.charge(charge_category, self.energy.nvm_read_word)
        return self.nvm.read_word(word_addr)

    def _miss(self, block_addr):
        victim = self.cache.peek_victim(block_addr)
        if victim is not None and victim.valid and victim.dirty:
            self._evict_to_buffer(victim)
        line = self.cache.allocate(block_addr)
        line.words = [
            self._fetch_word(block_addr + i * _WORD)
            for i in range(self.words_per_block)
        ]
        line.meta = _DirtyMask()
        return line

    def _evict_to_buffer(self, line):
        """Move a dirty line's written words into the volatile OOP buffer."""
        mask = line.meta.mask if line.meta else (1 << self.words_per_block) - 1
        words = [i for i in range(self.words_per_block) if mask & (1 << i)]
        new_words = [
            i for i in words if line.block_addr + i * _WORD not in self.oop_buffer
        ]
        if len(self.oop_buffer) + len(new_words) > self.buffer_capacity:
            # OOP buffer full: flush via a backup, which cleans this
            # still-resident line too — nothing left to insert.
            self.backup(BackupReason.STRUCTURAL)
            return
        for i in words:
            addr = line.block_addr + i * _WORD
            self.charge("forward", self.energy.cache_access)
            self.oop_buffer[addr] = line.words[i]
        # The words only change place: pending counts are unchanged.
        self._buffer_blocks.add(line.block_addr)
        line.dirty = False

    def load(self, addr, size):
        self.stats.loads += 1
        block_addr = self.cache.block_address(addr)
        self.charge("forward", self.energy.cache_access)
        line = self.cache.lookup(block_addr)
        cycles = 1
        if line is None:
            line = self._miss(block_addr)
            cycles += 4 * self.words_per_block
        if size == 4:
            return self.cache.read_word(line, addr), cycles
        return self.cache.read_byte(line, addr), cycles

    def store(self, addr, value, size):
        self.stats.stores += 1
        block_addr = self.cache.block_address(addr)
        self.charge("forward", self.energy.cache_access)
        line = self.cache.lookup(block_addr)
        cycles = 1
        if line is None:
            line = self._miss(block_addr)
            cycles += 4 * self.words_per_block
        index = self.cache.word_index(addr)
        meta = line.meta
        mask = meta.mask
        bit = 1 << index
        if not mask & bit:
            # First write to this word since the line was filled or
            # backed up: it is newly pending unless the buffer already
            # holds an older update of it.
            if block_addr + index * _WORD not in self.oop_buffer:
                self._pend_words += 1
                if not mask and block_addr not in self._buffer_blocks:
                    self._pend_blocks += 1
            meta.mask = mask | bit
        if size == 4:
            self.cache.write_word(line, addr, value)
        else:
            self.cache.write_byte(line, addr, value)
        return cycles

    # --------------------------------------------------------- backup
    def _pending_updates(self):
        """All word updates a backup must persist: buffer + dirty lines."""
        updates = dict(self.oop_buffer)
        for line in self.cache.dirty_lines():
            mask = line.meta.mask if line.meta else (1 << self.words_per_block) - 1
            for i in range(self.words_per_block):
                if mask & (1 << i):
                    addr = line.block_addr + i * _WORD
                    updates[addr] = line.words[i]
        return updates

    @staticmethod
    def _slice_count(updates, block_size):
        """Number of slices: updates grouped by block (store locality
        packs words of one block into one slice -> one header)."""
        return len({addr & ~(block_size - 1) for addr in updates})

    def _slots_needed(self, updates):
        return len(updates) + self._slice_count(updates, self.cache.block_size)

    def _gc_cost(self):
        """Applying every committed log word home: read + write each."""
        return len(self.committed_log) * (
            self.energy.nvm_read_word + self.energy.nvm_write_word
        )

    def estimate_backup_cost(self):
        """Exact backup cost in O(1), from the pending-slot counters.

        Prices the same integer slot count as :meth:`backup`'s full
        plan, with the same float expression, so the result is
        bit-identical; :meth:`backup` asserts the counters agree.
        """
        slots = self._pend_words + self._pend_blocks
        cost = (
            slots * self.energy.nvm_write_word
            + Checkpoint.WORDS * self.energy.nvm_write_word
            + self.energy.backup_commit
        )
        if self.region_used + slots > self.region_slots:
            cost += self._gc_cost()
        return cost

    def _collect_garbage(self, category):
        """Apply the committed log to home addresses and clear the region."""
        self.charge(category, self._gc_cost())
        for addr, value in self.committed_log.items():
            self.nvm.reads += 1  # region slot read
            self.nvm.write_word(addr, value)
        self.committed_log = {}
        self.region_used = 0
        self.gc_count += 1

    def backup(self, reason):
        updates = self._pending_updates()
        slots = self._slots_needed(updates)
        assert len(updates) == self._pend_words, "pending-word count drift"
        assert slots == self._pend_words + self._pend_blocks, "pending-block count drift"
        if self.region_used + slots > self.region_slots:
            self._collect_garbage("forward_overhead")
        cost = (
            slots * self.energy.nvm_write_word
            + Checkpoint.WORDS * self.energy.nvm_write_word
            + self.energy.backup_commit
        )
        self.charge("backup", cost)
        for addr, value in updates.items():
            self.committed_log[addr] = value
            self.nvm.writes += 1  # region slot write
        self.region_used += slots
        for line in self.cache.dirty_lines():
            line.dirty = False
            line.meta.mask = 0
        self.oop_buffer = {}
        self._reset_pending()
        self.nvm.commit_checkpoint(self.snapshot_payload())
        self.ledger.commit_epoch()
        self.stats.count_backup(reason)

    # ------------------------------------------------------ lifecycle
    def _reset_pending(self):
        self._pend_words = 0
        self._pend_blocks = 0
        self._buffer_blocks = set()

    def on_power_failure(self):
        self.cache.clear()
        self.oop_buffer = {}
        self._reset_pending()

    def restore(self):
        super().restore()
        # HOOP garbage-collects during restore: committed out-of-place
        # updates are applied to their home addresses.
        if self.committed_log:
            self._collect_garbage("restore_overhead")

    def debug_read_word(self, addr):
        """Committed view: the redo log shadows home addresses."""
        aligned = addr & ~3
        if aligned in self.committed_log:
            return self.committed_log[aligned]
        return self.nvm.peek_word(aligned)
