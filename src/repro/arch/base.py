"""Base classes shared by the intermittent architectures.

:class:`IntermittentArchitecture` defines the lifecycle every
architecture implements (load/store, backup, power failure, restore) and
owns the common counters.  :class:`CachedArchitecture` adds the shared
write-back data cache plus GBF/LBF dominance tracking used by Ideal,
Clank and NvMR (the paper gives its version of Clank the same GBF/LBF
and cache as NvMR so the comparison isolates renaming).
"""

from dataclasses import dataclass, field

from repro.cpu.core import MemorySystem
from repro.cpu.state import Checkpoint
from repro.mem.bloom import GlobalBloomFilter, LocalBloomFilter, WordState
from repro.mem.cache import _NATIVE_WORDS, WriteBackCache

#: Local aliases for the hand-inlined hot paths below.
_UNKNOWN = WordState.UNKNOWN
_READ = WordState.READ
_WRITE = WordState.WRITE


class BackupReason:
    """Why a backup was invoked (the paper's three occasions + lifecycle)."""

    POLICY = "policy"  # the backup policy asked (JIT / watchdog / NN)
    VIOLATION = "violation"  # Clank: idempotency violation detected
    STRUCTURAL = "structural"  # NvMR: map table full / free list empty / MTC dirty evict
    FINAL = "final"  # program completed; flush outputs
    INITIAL = "initial"  # first checkpoint before execution starts

    ALL = (POLICY, VIOLATION, STRUCTURAL, FINAL, INITIAL)


@dataclass
class ArchStats:
    """Event counters reported by every architecture."""

    backups: int = 0
    backups_by_reason: dict = field(default_factory=dict)
    restores: int = 0
    violations: int = 0
    renames: int = 0
    reclaims: int = 0
    loads: int = 0
    stores: int = 0

    def count_backup(self, reason):
        self.backups += 1
        self.backups_by_reason[reason] = self.backups_by_reason.get(reason, 0) + 1


class IntermittentArchitecture(MemorySystem):
    """Common lifecycle for all intermittent architectures.

    Subclasses implement the :class:`~repro.cpu.core.MemorySystem`
    interface (``load``/``store``), backups, and volatile-state wipes.
    The platform wires in the NVM, the energy ledger/model and (later)
    the core via :meth:`attach_core`.
    """

    name = "base"

    #: Whether :meth:`estimate_backup_cost` can move when dirty cache
    #: lines are merely *reordered* (an LRU promotion) — true for
    #: estimates that accumulate heterogeneous per-dirty-line float
    #: terms in ``dirty_lines()`` order, where reassociation can shift
    #: the sum by ULPs.  Architectures whose estimate depends only on
    #: the dirty-line count may set this False, letting a trace
    #: replayer hold an event-revoked guard's floor static between
    #: dirty-set events; True (the safe default) keeps the growing
    #: floor the fast engine uses.
    estimate_reorder_sensitive = True

    def __init__(self, nvm, ledger, energy, layout):
        self.nvm = nvm
        self.ledger = ledger
        self.energy = energy
        self.layout = layout
        self.core = None
        self.stats = ArchStats()
        # Hot path: bind charge() straight to the ledger, skipping one
        # call frame per energy event.  Subclasses that override
        # charge() keep their override.
        if type(self).charge is IntermittentArchitecture.charge:
            self.charge = ledger.charge
        # Direct entry points for the two hot categories: the per-access
        # load/store paths charge through these, skipping the category
        # dispatch (same ledger functions, same values).
        self._charge_forward = ledger.charge_forward
        self._charge_overhead = ledger.charge_forward_overhead
        self._worst_step_cost = (
            6 * energy.block_write(4)
            + 4 * energy.block_read(4)
            + 20 * energy.nvm_read_word
            + 10.0
        )

    def attach_core(self, core):
        self.core = core

    # ----------------------------------------------------------- energy
    def charge(self, category, amount):
        self.ledger.charge(category, amount)

    # -------------------------------------------------------- lifecycle
    def backup(self, reason):  # pragma: no cover - interface
        """Atomically persist a checkpoint (registers + dirty data)."""
        raise NotImplementedError

    def estimate_backup_cost(self):  # pragma: no cover - interface
        """Exact energy a backup invoked right now would cost."""
        raise NotImplementedError

    def worst_step_cost(self):
        """Upper bound on the energy one instruction can consume.

        The JIT policy subtracts this from the remaining charge so that
        a backup is always affordable when triggered between steps.
        Constant per run, so precomputed at construction (JIT reads it
        on every threshold check).
        """
        return self._worst_step_cost

    def estimate_growth_per_step(self):
        """Upper bound on how much :meth:`estimate_backup_cost` can rise
        while one instruction executes.

        ``None`` means no bound is known, which disables the JIT quantum
        guard (the policy then re-estimates after every step, as the
        reference loop does).  The bound must hold for backup-free
        steps; a backup mid-step only *lowers* the estimate (it cleans
        every dirty structure), so the guard's growing floor stays an
        upper bound on the true threshold across backups too.
        """
        return None

    def on_power_failure(self):  # pragma: no cover - interface
        """Wipe volatile state (cache, filters, SRAM tables)."""
        raise NotImplementedError

    def restore(self):
        """Reload processor state from the committed checkpoint."""
        payload = self.nvm.committed_checkpoint()
        if payload is None:
            raise RuntimeError("restore with no committed checkpoint")
        self.charge(
            "restore",
            Checkpoint.WORDS * self.energy.nvm_read_word + self.energy.restore_fixed,
        )
        self.core.resume(payload)
        self.stats.restores += 1

    def snapshot_payload(self):
        """The checkpoint payload, built by the attached core: registers
        + PC + flags + halted flag, plus whatever its step source needs
        to resume (a trace replayer's cursor)."""
        return self.core.checkpoint()

    def debug_read_word(self, addr):
        """The *committed* (post-power-loss) value of a program address.

        Resolves whatever indirection the architecture maintains (NvMR's
        map table, HOOP's redo log).  Harness/test use only; charges no
        energy and counts no accesses.
        """
        return self.nvm.peek_word(addr)


class CachedArchitecture(IntermittentArchitecture):
    """Adds the WBWA data cache and GBF/LBF dominance tracking.

    Subclasses override :meth:`_handle_dirty_eviction` (which must leave
    the line clean — by persisting it or by triggering a backup) and
    :meth:`_fetch_block` (where block data comes from on a miss).
    """

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
    ):
        super().__init__(nvm, ledger, energy, layout)
        self.cache = WriteBackCache(cache_size, cache_assoc, block_size)
        self.gbf = GlobalBloomFilter(gbf_bits)
        self.words_per_block = self.cache.words_per_block
        self._block_mask = block_size - 1
        # Every access charges the cache probe plus the LBF update; the
        # sum is constant, so it is drawn as one fused charge.
        self._access_energy = energy.cache_access + energy.bloom_access
        # Set-selection geometry, packed into one tuple so the inlined
        # load/store paths pay a single attribute read.  ``_sets`` is
        # never rebound by the cache (clear() invalidates in place), and
        # ``block_size`` is a power of two (the ``_block_mask`` paths
        # already rely on that); ``num_sets`` may not be, in which case
        # the mask slot is None and accesses fall back to div/mod.
        num_sets = self.cache.num_sets
        self._set_geom = (
            self.cache._sets,
            block_size.bit_length() - 1,
            num_sets - 1 if num_sets & (num_sets - 1) == 0 else None,
        )

    # ------------------------------------------------------ leak energy
    def leakage_per_cycle(self):
        return self.energy.cache_leak_cycle

    # ------------------------------------------------------ miss path
    def _fetch_block(self, block_addr):  # pragma: no cover - interface
        """Return ``bytes`` for the block and charge the fetch energy."""
        raise NotImplementedError

    def _handle_dirty_eviction(self, line):  # pragma: no cover - interface
        """Persist (or rename, or back up) a dirty line; leave it clean."""
        raise NotImplementedError

    def _miss(self, block_addr):
        """Service a miss: resolve the victim, then fill a line."""
        victim = self.cache.peek_victim(block_addr)
        if victim is not None and victim.valid:
            if victim.dirty:
                self._handle_dirty_eviction(victim)
            if victim.valid:
                # Log dominance of the outgoing block so a refetch within
                # this section remembers it (GBF).
                composite = victim.meta.composite if victim.meta else 0
                self._charge_forward(self.energy.bloom_access)
                self.gbf.log_eviction(victim.block_addr, composite)
        line, evicted = self.cache.allocate(block_addr)
        assert evicted is None or not evicted.dirty, "victim must be clean"
        data = self._fetch_block(block_addr)
        line.data[:] = data
        lbf = LocalBloomFilter(self.words_per_block)
        self._charge_forward(self.energy.bloom_access)
        if self.gbf.was_read_dominated(block_addr):
            # Conservative: the block was read-dominated when evicted
            # earlier in this section.
            lbf.mark_all_read()
        line.meta = lbf
        return line

    # ------------------------------------------------------- load/store
    # The load/store bodies hand-inline their callees (the fused access
    # charge, WriteBackCache.lookup, LocalBloomFilter.on_read/on_write
    # and the word I/O) — these two methods execute for roughly half of
    # all simulated instructions, and each avoided call frame is
    # measurable.  Every inlined step performs the identical state
    # transition to the method it replaces; the miss and byte paths
    # still go through the normal calls.
    def load(self, addr, size):
        self.stats.loads += 1
        cache = self.cache
        mask = self._block_mask
        block_addr = addr & ~mask
        amount = self._access_energy
        ledger = self.ledger
        capacitor = ledger.capacitor
        energy = capacitor.energy
        if ledger._fwd_touched and energy >= amount:
            capacitor.energy = energy - amount
            ledger._fwd_pending += amount
        else:
            self._charge_forward(amount)
        sets, shift, smask = self._set_geom
        if smask is None:
            lines = cache._set_for(block_addr)
        else:
            lines = sets[(block_addr >> shift) & smask]
        i = 0
        for line in lines:
            if line.valid and line.block_addr == block_addr:
                if i:
                    lines.insert(0, lines.pop(i))
                cache.hits += 1
                break
            i += 1
        else:
            cache.misses += 1
            return self._load_miss(block_addr, addr, size)
        word = (addr & mask) >> 2
        states = line.meta.states
        if states[word] == _UNKNOWN:
            states[word] = _READ
        if size == 4:
            if _NATIVE_WORDS:
                return line.words[word], 1
            return cache.read_word(line, addr), 1
        return cache.read_byte(line, addr), 1

    def store(self, addr, value, size):
        self.stats.stores += 1
        cache = self.cache
        mask = self._block_mask
        block_addr = addr & ~mask
        amount = self._access_energy
        ledger = self.ledger
        capacitor = ledger.capacitor
        energy = capacitor.energy
        if ledger._fwd_touched and energy >= amount:
            capacitor.energy = energy - amount
            ledger._fwd_pending += amount
        else:
            self._charge_forward(amount)
        sets, shift, smask = self._set_geom
        if smask is None:
            lines = cache._set_for(block_addr)
        else:
            lines = sets[(block_addr >> shift) & smask]
        i = 0
        for line in lines:
            if line.valid and line.block_addr == block_addr:
                if i:
                    lines.insert(0, lines.pop(i))
                cache.hits += 1
                break
            i += 1
        else:
            cache.misses += 1
            return self._store_miss(block_addr, addr, value, size)
        word = (addr & mask) >> 2
        states = line.meta.states
        if states[word] == _UNKNOWN:
            states[word] = _WRITE
        if size == 4:
            if _NATIVE_WORDS:
                line.words[word] = value & 0xFFFFFFFF
                line.dirty = True
            else:
                cache.write_word(line, addr, value)
        else:
            cache.write_byte(line, addr, value)
        return 1

    def _load_miss(self, block_addr, addr, size):
        """Miss continuation of :meth:`load` (after stats/charge/probe).

        Shared by the inlined method above and the pre-decoded memory
        closures (:mod:`repro.cpu.fastcore`), which perform the same
        stats/charge/probe sequence before landing here.
        """
        line = self._miss(block_addr)
        word = (addr & self._block_mask) >> 2
        states = line.meta.states
        if states[word] == _UNKNOWN:
            states[word] = _READ
        if size == 4:
            return self.cache.read_word(line, addr), 1 + self.miss_cycles()
        return self.cache.read_byte(line, addr), 1 + self.miss_cycles()

    def _store_miss(self, block_addr, addr, value, size):
        """Miss continuation of :meth:`store` — see :meth:`_load_miss`."""
        line = self._miss(block_addr)
        word = (addr & self._block_mask) >> 2
        states = line.meta.states
        if states[word] == _UNKNOWN:
            states[word] = _WRITE
        if size == 4:
            self.cache.write_word(line, addr, value)
        else:
            self.cache.write_byte(line, addr, value)
        return 1 + self.miss_cycles()

    def miss_cycles(self):
        """Latency of an NVM block fill (flash read, word-serial)."""
        return 4 * self.words_per_block

    # ------------------------------------------------------- lifecycle
    def _reset_section_tracking(self):
        """A backup starts a new intermittent section: reset GBF/LBF."""
        self.gbf.reset()
        for line in self.cache.valid_lines():
            if line.meta is not None:
                line.meta.reset()

    def on_power_failure(self):
        self.cache.clear()
        self.gbf.reset()
