"""NvMR: the non-volatile memory renaming architecture (paper Section 4).

NvMR keeps Clank's cache + GBF/LBF violation *detection* but replaces
the violation-triggered backup with **renaming**: a read-dominated dirty
block is persisted to a fresh mapping from the compiler-reserved NVM
region instead of its home address, leaving the checkpoint-consistent
copy untouched.  This makes every address effectively write-dominated
(Figure 4), so backups are needed only for data/code progress — i.e.
when the *policy* wants one — plus three structural occasions:

1. a dirty map-table-cache entry would be evicted (the NVM map table
   must always hold the mappings of the most recent backup);
2. an idempotency violation occurs while the map table is full and
   reclamation is disabled/impossible;
3. an idempotency violation occurs while the free list is empty (never
   happens with the worst-case free-list sizing of Table 2).

Atomic commit points are backups and reclaims: the NVM map table and
the free-list pointers only change there, so a power failure at any
other instant simply reverts to the committed mapping state.
"""

from repro.arch.base import BackupReason, CachedArchitecture
from repro.cpu.state import Checkpoint
from repro.mem.maptable import FreeList, MapTable, MapTableCache, MapTableEntry


class NvmrArchitecture(CachedArchitecture):
    name = "nvmr"

    #: The backup-cost accumulation is grouped by term value (see
    #: _backup_plan), so the price depends only on the dirty-line and
    #: map-probe *counts* — reordering dirty lines cannot move it.
    estimate_reorder_sensitive = False

    #: NVM words read by a map-table probe (tag word, then mapping).
    MAP_ENTRY_WORDS = 2
    #: NVM words written to commit one map-table entry (tag and mapping
    #: pack into a single word-write: block-granular mappings need only
    #: 17+17 bits of the 32-bit word's two halves at 2 MB flash).
    MAP_COMMIT_WORDS = 1
    #: NVM words for the persisted free-list read/write pointers.
    FREE_PTR_WORDS = 2

    def __init__(
        self,
        nvm,
        ledger,
        energy,
        layout,
        cache_size=256,
        cache_assoc=8,
        block_size=16,
        gbf_bits=8,
        mtc_entries=512,
        mtc_assoc=8,
        map_table_entries=4096,
        free_list_size=None,
        reclaim=True,
        free_list_mode="fifo",
    ):
        super().__init__(
            nvm, ledger, energy, layout, cache_size, cache_assoc, block_size, gbf_bits
        )
        if free_list_size is None:
            # Worst-case sizing (Table 2): one mapping can be in flight
            # per map-table entry, per MTC entry, plus one being popped.
            free_list_size = map_table_entries + mtc_entries + 1
        self.map_table = MapTable(map_table_entries)
        self.mtc = MapTableCache(mtc_entries, mtc_assoc)
        self.free_list = FreeList(
            layout.reserved_mappings(free_list_size, block_size),
            mode=free_list_mode,
        )
        if free_list_mode != "fifo" and reclaim:
            raise ValueError("reclamation requires the fifo free list")
        self.reclaim_enabled = reclaim
        # Dirty MTC entries whose tag has no committed map-table entry
        # yet; they will need map-table slots at the next backup, so
        # renaming must leave room for them ("NvMR can allocate a new
        # map table cache entry only if there is at least one empty
        # entry in the map table").
        self._pending_new = 0
        # Incremental dirty-MTC accounting so estimate_backup_cost()
        # avoids scanning the whole MTC: how many entries are dirty, and
        # how many of those have a reserved-region committed mapping
        # (their old mapping returns to the free list at backup, costing
        # one extra slot write).  backup() asserts these against the
        # full plan.
        self._mtc_dirty_count = 0
        self._mtc_dirty_reserved = 0

    def _is_reserved(self, addr):
        return addr >= self.layout.reserved_base

    def leakage_per_cycle(self):
        return self.energy.cache_leak_cycle  # MTC leakage charged separately

    def overhead_leakage_per_cycle(self):
        return self.energy.mtc_leak_cycle

    # ------------------------------------------------------ miss path
    def _fetch_block(self, block_addr):
        """Fetch from the block's latest mapping (Figure 8's store miss)."""
        self._charge_overhead(self.energy.mtc_access)
        entry = self.mtc.lookup(block_addr)
        if entry is not None:
            source = entry.new
        else:
            self._charge_overhead(
                self.MAP_ENTRY_WORDS * self.energy.nvm_read_word
            )
            mapping = self.map_table.lookup(block_addr)
            if mapping is not None:
                self._install_clean_entry(block_addr, mapping)
            source = mapping if mapping is not None else block_addr
        self._charge_forward(self.energy.block_read(self.words_per_block))
        return self.nvm.read_block(source, self.cache.block_size)

    def _install_clean_entry(self, tag, mapping):
        """Cache a committed mapping in the MTC (backup first if the
        victim way holds an uncommitted rename)."""
        victim = self.mtc.victim_for(tag)
        if victim is not None and victim.dirty:
            self.backup(BackupReason.STRUCTURAL)
        self._charge_overhead(self.energy.mtc_access)
        self.mtc.insert(MapTableEntry(tag, mapping, mapping, dirty=False))

    # ------------------------------------------------------- evictions
    def _handle_dirty_eviction(self, line):
        composite = line.meta.composite if line.meta else 0
        if composite:
            self.stats.violations += 1
            self._rename_and_persist(line)
        else:
            self._persist_to_latest(line)

    def _persist_to_latest(self, line):
        """Write-dominated dirty eviction: persist in place at the
        block's latest mapping — safe without renaming (Section 3.5)."""
        tag = line.block_addr
        self._charge_overhead(self.energy.mtc_access)
        entry = self.mtc.lookup(tag)
        if entry is not None:
            dest = entry.new
        else:
            self._charge_overhead(
                self.MAP_ENTRY_WORDS * self.energy.nvm_read_word
            )
            mapping = self.map_table.lookup(tag)
            if mapping is not None:
                self._install_clean_entry(tag, mapping)
                if not line.dirty:
                    return  # the install's backup already persisted us
            dest = mapping if mapping is not None else tag
        self._charge_forward(self.energy.block_write(self.words_per_block))
        self.nvm.write_block(dest, line.data)
        line.dirty = False

    def _rename_and_persist(self, line):
        """Idempotency violation: persist the block to a *fresh* mapping.

        Falls back to a backup when renaming is structurally impossible
        (map table full and reclamation fails, free list empty, or the
        MTC victim way is dirty).  A backup always resolves the
        violation: it persists this still-resident line atomically with
        the checkpoint.
        """
        tag = line.block_addr
        self._charge_overhead(self.energy.mtc_access)
        entry = self.mtc.lookup(tag)

        if entry is not None and entry.dirty:
            # Renamed earlier in this section; the uncommitted mapping
            # is not covered by any checkpoint, so rewriting it is safe.
            self._charge_forward(self.energy.block_write(self.words_per_block))
            self.nvm.write_block(entry.new, line.data)
            line.dirty = False
            return

        if entry is not None:
            # Clean entry: the committed mapping holds checkpoint data —
            # rename to a fresh mapping.
            if self.free_list.is_empty:
                self.backup(BackupReason.STRUCTURAL)
                return
            self._charge_overhead(self.energy.nvm_read_word)  # list slot
            new = self.free_list.pop()
            entry.new = new
            entry.dirty = True
            self._mtc_dirty_count += 1
            if self._is_reserved(entry.old):
                self._mtc_dirty_reserved += 1
            self.stats.renames += 1
            self._charge_forward(self.energy.block_write(self.words_per_block))
            self.nvm.write_block(new, line.data)
            line.dirty = False
            return

        # MTC miss: probe the committed map table.
        self._charge_overhead(
            self.MAP_ENTRY_WORDS * self.energy.nvm_read_word
        )
        mapping = self.map_table.lookup(tag)
        if mapping is None and (
            len(self.map_table) + self._pending_new >= self.map_table.capacity
        ):
            # No committed slot will be available for this rename.
            if not (self.reclaim_enabled and self._try_reclaim()):
                self.backup(BackupReason.STRUCTURAL)
                return
        if self.free_list.is_empty:
            self.backup(BackupReason.STRUCTURAL)
            return
        victim = self.mtc.victim_for(tag)
        if victim is not None and victim.dirty:
            # Dirty MTC eviction forces a backup — which also persists
            # this line, resolving the violation.
            self.backup(BackupReason.STRUCTURAL)
            return
        self._charge_overhead(self.energy.nvm_read_word)  # list slot
        new = self.free_list.pop()
        old = mapping if mapping is not None else tag
        self._charge_overhead(self.energy.mtc_access)
        self.mtc.insert(MapTableEntry(tag, old, new, dirty=True))
        self._mtc_dirty_count += 1
        if self._is_reserved(old):
            self._mtc_dirty_reserved += 1
        if mapping is None:
            self._pending_new += 1
        self.stats.renames += 1
        self._charge_forward(self.energy.block_write(self.words_per_block))
        self.nvm.write_block(new, line.data)
        line.dirty = False

    # ------------------------------------------------------- reclaim
    def _try_reclaim(self):
        """Reclaim the LRU committed mapping (Section 4.8).

        Copies the committed data back to the block's home address,
        frees the reserved mapping, and atomically commits.  Only tags
        without an uncommitted (dirty) MTC rename are eligible; the
        reserved mapping returns to the free list, home addresses never
        enter it (see DESIGN.md's free-list discipline).
        """
        victim_tag = None
        victim_mapping = None
        for tag, mapping in self.map_table.items():
            entry = self.mtc.peek(tag)
            if entry is None or not entry.dirty:
                victim_tag, victim_mapping = tag, mapping
                break
        if victim_tag is None:
            return False
        words = self.words_per_block
        cost = (
            self.energy.block_read(words)
            + self.energy.block_write(words)
            + self.MAP_ENTRY_WORDS * self.energy.nvm_write_word
            + self.energy.nvm_write_word  # free-list slot write
            + self.FREE_PTR_WORDS * self.energy.nvm_write_word
        )
        self.charge("reclaim", cost)
        data = self.nvm.read_block(victim_mapping, self.cache.block_size)
        self.nvm.write_block(victim_tag, data)
        self.map_table.remove(victim_tag)
        self.mtc.invalidate(victim_tag)
        self.free_list.push(victim_mapping)
        self.free_list.commit_push()
        self.stats.reclaims += 1
        return True

    # --------------------------------------------------------- backup
    def _backup_plan(self, promote=True):
        """Resolve each dirty line's destination and the backup's cost.

        Returns ``(destinations, data_cost, overhead_cost)``.  Uses
        non-mutating peeks so :meth:`estimate_backup_cost` can share it.
        """
        energy = self.energy
        words = self.words_per_block
        destinations = []
        overhead = self.FREE_PTR_WORDS * energy.nvm_write_word
        dirty = self.cache.dirty_lines()
        # Canonical accumulation order: every per-line MTC charge
        # first, then every map-probe charge.  Each group repeatedly
        # adds one constant, so the float sum depends only on the two
        # counts — never on dirty-line order.  That makes the plan's
        # price invariant under LRU promotions, which lets
        # ``estimate_reorder_sensitive`` stay False (a trace replayer
        # may hold an event-revoked guard's floor static).
        for _ in dirty:
            overhead += energy.mtc_access
        probe = self.MAP_ENTRY_WORDS * energy.nvm_read_word
        for line in dirty:
            entry = self.mtc.peek(line.block_addr)
            if entry is not None:
                dest = entry.new
            else:
                overhead += probe
                if promote:
                    mapping = self.map_table.lookup(line.block_addr)
                else:  # estimate path: peek without refreshing LRU order
                    mapping = self._map_peek(line.block_addr)
                dest = mapping if mapping is not None else line.block_addr
            destinations.append((line, dest))
        dirty_entries = self.mtc.dirty_entries()
        for entry in dirty_entries:
            overhead += self.MAP_COMMIT_WORDS * energy.nvm_write_word
            if self._is_reserved(entry.old):
                overhead += energy.nvm_write_word  # free-list push slot
        data_cost = (
            len(destinations) * energy.block_write(words)
            + Checkpoint.WORDS * energy.nvm_write_word
            + energy.backup_commit
        )
        return destinations, dirty_entries, data_cost, overhead

    def _map_peek(self, tag):
        return self.map_table.peek(tag)

    def estimate_backup_cost(self):
        """Exact backup cost, in O(dirty lines) instead of O(MTC).

        Mathematically equal to pricing ``_backup_plan(promote=False)``:
        the per-dirty-MTC-entry terms are exactly-representable word
        multiples, so the incremental counters replace the full MTC scan
        (this is the JIT policy's per-check cost, the simulator's
        hottest non-core work).  :meth:`backup` still prices from the
        full plan and asserts the counters agree.
        """
        energy = self.energy
        mtc_access = energy.mtc_access
        probe = self.MAP_ENTRY_WORDS * energy.nvm_read_word
        mtc_peek = self.mtc.peek
        overhead = self.FREE_PTR_WORDS * energy.nvm_write_word
        dirty = 0
        probes = 0
        for line in self.cache.dirty_lines():
            dirty += 1
            if mtc_peek(line.block_addr) is None:
                probes += 1
        # Same canonical grouped order as _backup_plan — bit-identical
        # to its price, and invariant under dirty-line reordering.
        for _ in range(dirty):
            overhead += mtc_access
        for _ in range(probes):
            overhead += probe
        overhead += (
            self._mtc_dirty_count * (self.MAP_COMMIT_WORDS * energy.nvm_write_word)
            + self._mtc_dirty_reserved * energy.nvm_write_word
        )
        return (
            dirty * energy.block_write(self.words_per_block)
            + Checkpoint.WORDS * energy.nvm_write_word
            + energy.backup_commit
            + overhead
        )

    def estimate_growth_per_step(self):
        """Per-step growth bound for the backup-cost estimate.

        A backup-free instruction can raise the estimate through:

        * one newly dirty cache line (one store per instruction): its
          block write, its per-line MTC probe, and — if its tag misses
          the MTC — a map-table probe;
        * one newly dirty MTC entry (one rename per eviction, one
          eviction per miss): its commit write plus a free-list push
          slot when the old mapping is reserved;
        * up to two MTC inserts (rename + clean install on the fetch
          path), each of which can evict a clean entry covering some
          other dirty line, turning that line's probe into a map-table
          probe.

        Three MAP_ENTRY_WORDS reads cover the map-probe terms.
        """
        energy = self.energy
        return (
            energy.block_write(self.words_per_block)
            + energy.mtc_access
            + 3 * self.MAP_ENTRY_WORDS * energy.nvm_read_word
            + (self.MAP_COMMIT_WORDS + 1) * energy.nvm_write_word
        )

    def backup(self, reason):
        destinations, dirty_entries, data_cost, overhead = self._backup_plan()
        assert len(dirty_entries) == self._mtc_dirty_count, "dirty-MTC count drift"
        # Charge everything before mutating NVM: an unaffordable backup
        # raises PowerFailure with the previous checkpoint intact.
        self.charge("backup", data_cost)
        self.charge("backup_overhead", overhead)
        for line, dest in destinations:
            self.nvm.write_block(dest, line.data)
            line.dirty = False
        for entry in dirty_entries:
            self.map_table.commit(entry.tag, entry.new)
            if self._is_reserved(entry.old):
                self.free_list.push(entry.old)
        self.mtc.clean_after_backup()
        self._pending_new = 0
        self._mtc_dirty_count = 0
        self._mtc_dirty_reserved = 0
        self.free_list.commit()
        self.nvm.commit_checkpoint(self.snapshot_payload())
        self._reset_section_tracking()
        self.ledger.commit_epoch()
        self.stats.count_backup(reason)

    # ------------------------------------------------------ lifecycle
    def on_power_failure(self):
        super().on_power_failure()
        self.mtc.clear()
        self.free_list.restore()
        self._pending_new = 0
        self._mtc_dirty_count = 0
        self._mtc_dirty_reserved = 0

    def restore(self):
        super().restore()
        # Reload the persisted free-list read/write pointers.
        self.charge(
            "restore_overhead", self.FREE_PTR_WORDS * self.energy.nvm_read_word
        )

    def debug_read_word(self, addr):
        """Committed view: read through the committed map table."""
        tag = self.cache.block_address(addr)
        mapping = self.map_table.peek(tag)
        if mapping is None:
            return self.nvm.peek_word(addr)
        return self.nvm.peek_word(mapping + (addr - tag))
