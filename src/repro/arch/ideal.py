"""The ideal (oracle) architecture used for Table 3.

The paper's violation counts "are obtained by simulations with an ideal
architecture where backups occur due to the JIT scheme and not because
of any structural hazards".  This architecture therefore:

* persists dirty evictions to their home addresses immediately,
* counts an idempotency violation whenever the evicted dirty block is
  read-dominated (GBF/LBF composite = 1), but takes no corrective
  action, and
* only backs up when the policy asks.

It is a *measurement device*: it is not crash-consistent (persisting a
read-dominated block before the next backup is exactly the hazard the
real architectures exist to avoid), so it is excluded from the
crash-consistency test suite and run only to count events.
"""

from repro.arch.base import CachedArchitecture
from repro.cpu.state import Checkpoint


class IdealArchitecture(CachedArchitecture):
    name = "ideal"

    # ------------------------------------------------------- eviction
    def _handle_dirty_eviction(self, line):
        if line.meta is not None and line.meta.composite:
            self.stats.violations += 1
        self.charge("forward", self.energy.block_write(self.words_per_block))
        self.nvm.write_block(line.block_addr, line.words)
        line.dirty = False

    def _fetch_block(self, block_addr):
        self.charge("forward", self.energy.block_read(self.words_per_block))
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
        # Same argument as Clank: one store dirties at most one line.
        return self.energy.block_write(self.words_per_block)

    def backup(self, reason):
        dirty = self.cache.dirty_lines()
        # Count violations that a backup flush would otherwise hide:
        # a read-dominated dirty block being persisted at a *policy*
        # backup is not a violation (it persists atomically with the
        # checkpoint), so only evictions count — nothing extra here.
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
