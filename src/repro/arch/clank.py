"""The paper's version of Clank [16].

Original Clank tracked read-first/write-first *addresses* in small
buffers and backed up when a store hit a read-first address (or a buffer
filled).  The paper's version — reproduced here — replaces the buffers
with a GBF + per-line LBFs and adds a write-back data cache, which it
reports saves 11% more energy than original Clank for the same on-chip
storage.

With a write-back cache the hazard moves from the store itself to the
moment dirty data is *persisted*: a dirty block whose composite LBF
state is read-dominated cannot be written to NVM without first
persisting a backup (paper Requirement 3 / Figure 3a's atomicity
constraint).  So Clank's rule is simple:

* dirty eviction of a write-dominated block -> write it home (safe);
* dirty eviction of a read-dominated block -> **idempotency violation**:
  trigger a backup first.  The backup persists all dirty blocks
  atomically with the register checkpoint, after which the eviction
  proceeds trivially (the line is clean).
"""

from repro.arch.base import BackupReason, CachedArchitecture
from repro.cpu.state import Checkpoint


class ClankArchitecture(CachedArchitecture):
    name = "clank"

    #: estimate_backup_cost depends only on the dirty-line *count*, so
    #: reordering dirty lines (an LRU promotion) cannot move it — a
    #: trace replayer may hold an event-revoked guard's floor static.
    estimate_reorder_sensitive = False

    def _handle_dirty_eviction(self, line):
        if line.meta is not None and line.meta.composite:
            # Idempotency violation: persisting this block would corrupt
            # re-execution from the last checkpoint.  Back up first —
            # the backup persists this line (it is still resident).
            self.stats.violations += 1
            self.backup(BackupReason.VIOLATION)
            return  # line is now clean
        self._charge_forward(self.energy.block_write(self.words_per_block))
        self.nvm.write_block(line.block_addr, line.words)
        line.dirty = False

    def _fetch_block(self, block_addr):
        self._charge_forward(self.energy.block_read(self.words_per_block))
        return self.nvm.read_block(block_addr, self.cache.block_size)

    # --------------------------------------------------------- backup
    def estimate_backup_cost(self):
        dirty = self.cache.dirty_count()
        return (
            dirty * self.energy.block_write(self.words_per_block)
            + Checkpoint.WORDS * self.energy.nvm_write_word
            + self.energy.backup_commit
        )

    def estimate_growth_per_step(self):
        # The estimate only depends on the dirty-line count, and a single
        # instruction performs at most one store, dirtying at most one
        # clean line (evictions only ever shrink the count).
        return self.energy.block_write(self.words_per_block)

    def backup(self, reason):
        """Atomically persist registers + all dirty blocks (double-buffered).

        Energy is charged *before* any NVM mutation: if the capacitor
        cannot pay, :class:`~repro.energy.accounting.PowerFailure`
        propagates and NVM is untouched — the previous checkpoint stays
        committed, exactly like an interrupted double-buffered backup.
        """
        dirty = self.cache.dirty_lines()
        cost = (
            len(dirty) * self.energy.block_write(self.words_per_block)
            + Checkpoint.WORDS * self.energy.nvm_write_word
            + self.energy.backup_commit
        )
        self.charge("backup", cost)
        for line in dirty:
            self.nvm.write_block(line.block_addr, line.words)
            line.dirty = False
        self.nvm.commit_checkpoint(self.snapshot_payload())
        self._reset_section_tracking()
        self.ledger.commit_epoch()
        self.stats.count_backup(reason)
