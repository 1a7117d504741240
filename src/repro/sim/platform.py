"""The intermittent platform: CPU + architecture + policy + power supply.

The run loop models the paper's execution environment:

* an **active period** starts with the supercapacitor charged to the
  budget the harvest trace allows, restores the last checkpoint, and
  executes instructions;
* every energy event draws from the capacitor; when a draw cannot be
  paid, :class:`~repro.energy.accounting.PowerFailure` unwinds the
  current instruction — volatile state is lost, everything charged
  since the last persisted backup becomes *dead energy*, and the device
  recharges and restores;
* policies may back up mid-period (watchdog) or back up and shut down
  cleanly (JIT / Spendthrift);
* architectures may back up for structural reasons at any point;
* the run ends when the program halts *and* a final backup has
  persisted its outputs.
"""

from dataclasses import dataclass, field

from repro.arch import make_architecture
from repro.arch.base import BackupReason
from repro.energy.accounting import EnergyLedger, PowerFailure
from repro.energy.capacitor import CAPACITOR_PRESETS, Supercapacitor
from repro.energy.model import NVM_TECHNOLOGIES, EnergyModel
from repro.energy.traces import HarvestTrace
from repro.cpu.core import Core
from repro.cpu.fastcore import FastCore
from repro.mem.nvm import NvmFlash
from repro.policies import make_policy
from repro.policies.base import BackupPolicy, PolicyAction
from repro.sim.results import RunResult


class SimulationError(Exception):
    """The simulation could not make progress (timeout / livelock)."""


@dataclass
class PlatformConfig:
    """All knobs of one experiment configuration (Table 2 defaults)."""

    arch: str = "clank"
    policy: str = "jit"
    #: NVM technology preset: "flash" (default) or "fram" (footnote 8).
    nvm_technology: str = "flash"
    capacitor: str = "100mF"
    capacitor_energy: float = None  # overrides the preset when set
    cache_size: int = 256
    cache_assoc: int = 8
    block_size: int = 16
    gbf_bits: int = 8
    # NvMR structures
    mtc_entries: int = 512
    mtc_assoc: int = 8
    map_table_entries: int = 4096
    free_list_size: int = None  # None -> worst case
    free_list_mode: str = "fifo"  # "lifo" only for the wear ablation
    reclaim: bool = True
    # HOOP structures (Table 4 lists 128 / 2048 for the paper's
    # full-size workloads; scaled 4x down with our working sets so the
    # buffer exerts the same backup pressure — see EXPERIMENTS.md)
    oop_buffer_entries: int = 32
    oop_region_slots: int = 512
    # Hibernus SRAM model (extension architecture)
    sram_limit_words: int = 4096
    sram_floor_words: int = 256
    # Original Clank structures (footnote 6 comparison)
    read_first_entries: int = 24
    write_first_entries: int = 24
    write_buffer_entries: int = 16
    # Policy parameters
    watchdog_period: int = 8000
    policy_kwargs: dict = field(default_factory=dict)
    # Limits
    max_steps: int = 5_000_000
    max_periods: int = 200_000
    #: Use the fast-path execution engine (pre-decoded dispatch + policy
    #: quanta + batched ledger classification).  Results are bit-identical
    #: to the reference interpreter; set ``fast=False`` to run the seed
    #: per-instruction loop (the differential suite compares both).
    fast: bool = True

    def arch_kwargs(self):
        common = dict(
            cache_size=self.cache_size,
            cache_assoc=self.cache_assoc,
            block_size=self.block_size,
        )
        if self.arch in ("clank", "ideal"):
            return dict(common, gbf_bits=self.gbf_bits)
        if self.arch == "nvmr":
            return dict(
                common,
                gbf_bits=self.gbf_bits,
                mtc_entries=self.mtc_entries,
                mtc_assoc=self.mtc_assoc,
                map_table_entries=self.map_table_entries,
                free_list_size=self.free_list_size,
                free_list_mode=self.free_list_mode,
                reclaim=self.reclaim,
            )
        if self.arch == "hoop":
            return dict(
                common,
                oop_buffer_entries=self.oop_buffer_entries,
                oop_region_slots=self.oop_region_slots,
            )
        if self.arch == "hibernus":
            return dict(
                sram_limit_words=self.sram_limit_words,
                sram_floor_words=self.sram_floor_words,
            )
        if self.arch == "clank_original":
            return dict(
                read_first_entries=self.read_first_entries,
                write_first_entries=self.write_first_entries,
                write_buffer_entries=self.write_buffer_entries,
            )
        return common

    def make_policy(self):
        if not isinstance(self.policy, str):
            # A user-supplied BackupPolicy instance (see
            # examples/custom_policy.py).
            return self.policy
        kwargs = dict(self.policy_kwargs)
        if self.policy == "watchdog" and "period" not in kwargs:
            kwargs["period"] = self.watchdog_period
        return make_policy(self.policy, **kwargs)

    def capacitor_budget(self):
        if self.capacitor_energy is not None:
            return self.capacitor_energy
        return CAPACITOR_PRESETS[self.capacitor]


class Platform:
    """One program wired to one architecture/policy/trace combination."""

    __slots__ = (
        "program",
        "config",
        "trace",
        "benchmark_name",
        "nvm",
        "capacitor",
        "ledger",
        "energy",
        "arch",
        "core",
        "policy",
        "active_cycles",
        "off_cycles",
        "active_periods",
        "power_failures",
        "shutdowns",
        "events",
        "_cpu_cycle_energy",
        "_leak",
        "_overhead_leak",
        "_injector",
    )

    def __init__(self, program, config=None, trace=None, benchmark_name=""):
        self.program = program
        self.config = config or PlatformConfig()
        self.trace = trace if trace is not None else HarvestTrace(0)
        # A fault-injecting trace (repro.energy.faultinject) doubles as
        # an execution-boundary observer: the run loops call its on_*
        # hooks, which raise PowerFailure at scheduled boundaries.
        self._injector = (
            self.trace
            if getattr(self.trace, "is_fault_injector", False)
            else None
        )
        self.benchmark_name = benchmark_name or "program"
        layout = program.layout

        self.nvm = NvmFlash(layout.flash_size)
        self.nvm.load_image(layout.data_base, program.data)
        self.capacitor = Supercapacitor(self.config.capacitor_budget())
        self.ledger = EnergyLedger(self.capacitor)
        try:
            self.energy = NVM_TECHNOLOGIES[self.config.nvm_technology]()
        except KeyError:
            raise ValueError(
                f"unknown NVM technology {self.config.nvm_technology!r}; "
                f"options: {sorted(NVM_TECHNOLOGIES)}"
            ) from None
        self.arch = make_architecture(
            self.config.arch,
            self.nvm,
            self.ledger,
            self.energy,
            layout,
            **self.config.arch_kwargs(),
        )
        self.core = self._make_core(program)
        self.arch.attach_core(self.core)
        self.policy = self.config.make_policy()

        self.active_cycles = 0
        self.off_cycles = 0
        self.active_periods = 0
        self.power_failures = 0
        self.shutdowns = 0
        #: Chronological run events: (active_cycle, kind, detail).
        #: kinds: period / backup:<reason> / failure / shutdown / halt.
        self.events = []
        self._install_event_recorder()

        self._cpu_cycle_energy = self.energy.cpu_cycle
        self._leak = self.arch.leakage_per_cycle()
        self._overhead_leak = getattr(self.arch, "overhead_leakage_per_cycle", None)
        self._overhead_leak = self._overhead_leak() if self._overhead_leak else 0.0

    def _make_core(self, program):
        """The step source: pre-decoded on the fast path, the seed
        interpreter otherwise."""
        core_cls = FastCore if self.config.fast else Core
        return core_cls(program, self.arch)

    def _install_event_recorder(self):
        original_backup = self.arch.backup
        injector = self._injector

        if injector is None:

            def recorded_backup(reason):
                original_backup(reason)
                self.events.append((self.active_cycles, "backup", reason))

        else:
            # Mid-backup injection: every backup charges its full cost
            # before mutating NVM (interrupted double-buffered commit),
            # so failing the attempt *before* the call models a power
            # loss at any point inside the backup — the previous
            # checkpoint stays committed either way.
            def recorded_backup(reason):
                injector.on_backup_attempt()
                original_backup(reason)
                self.events.append((self.active_cycles, "backup", reason))

        self.arch.backup = recorded_backup

    # ------------------------------------------------------ power loop
    def _start_period(self):
        if self.active_periods >= self.config.max_periods:
            raise SimulationError(
                f"exceeded {self.config.max_periods} active periods; "
                "the configuration cannot make forward progress"
            )
        conditions = self.trace.next_period()
        self.capacitor.recharge(self.capacitor.capacity * conditions.budget_fraction)
        self.off_cycles += conditions.recharge_cycles
        self.active_periods += 1
        self.events.append(
            (self.active_cycles, "period", round(conditions.budget_fraction, 3))
        )
        self.policy.on_period_start(self, conditions)

    def _recharge_and_restore(self):
        """Sleep through recharge, then restore the last checkpoint.

        A pathologically small budget can fail mid-restore; the device
        then sleeps again (the period guard bounds this).
        """
        while True:
            self._start_period()
            try:
                self.arch.restore()
                if self._injector is not None:
                    # First-instant-after-restore injection: the restore
                    # completed, but power dies before anything retires.
                    self._injector.on_restore()
                self.ledger.commit_epoch()
                return
            except PowerFailure:
                self.ledger.fail_epoch()
                self.arch.on_power_failure()

    def _power_failure(self):
        self.power_failures += 1
        self.events.append((self.active_cycles, "failure", None))
        self.ledger.fail_epoch()
        self.arch.on_power_failure()
        self._recharge_and_restore()

    def _shutdown(self):
        """Graceful end of an active period (after a policy backup)."""
        self.shutdowns += 1
        self.events.append((self.active_cycles, "shutdown", None))
        self.arch.on_power_failure()  # volatile state is lost while off
        self._recharge_and_restore()

    # ------------------------------------------------------------ run
    def run(self):
        """Execute the program to completion; returns a RunResult."""
        return self._execute(
            self._run_fast if self.config.fast else self._run_reference
        )

    def _execute(self, loop):
        """Power the device up, run ``loop`` to completion and return
        the RunResult."""
        arch = self.arch
        self.policy.reset(self)
        # Flashing the device includes its entry state: commit a free
        # factory checkpoint so a restore target always exists, then
        # charge a real initial backup once powered.
        self.nvm.commit_checkpoint(arch.snapshot_payload())
        self._start_period()
        try:
            arch.backup(BackupReason.INITIAL)
        except PowerFailure:
            self._power_failure()
        loop()
        return self._result()

    def _run_reference(self):
        """The seed per-instruction loop: policy consulted every step."""
        core = self.core
        policy = self.policy
        ledger = self.ledger
        arch = self.arch
        injector = self._injector
        step_energy = self._cpu_cycle_energy + self._leak
        steps = 0
        max_steps = self.config.max_steps
        while True:
            if core.halted:
                try:
                    arch.backup(BackupReason.FINAL)
                    break
                except PowerFailure:
                    self._power_failure()
                    continue
            if steps >= max_steps:
                raise SimulationError(f"exceeded {max_steps} instructions")
            try:
                cycles = core.step()
                steps += 1
                self.active_cycles += cycles
                ledger.charge("forward", cycles * step_energy)
                if self._overhead_leak:
                    ledger.charge("forward_overhead", cycles * self._overhead_leak)
                if injector is not None:
                    injector.on_step()
                action = policy.after_step(self, cycles)
                if action == PolicyAction.BACKUP:
                    arch.backup(BackupReason.POLICY)
                    policy.on_backup(self)
                elif action == PolicyAction.SHUTDOWN:
                    arch.backup(BackupReason.POLICY)
                    policy.on_backup(self)
                    self._shutdown()
            except PowerFailure:
                self._power_failure()

    def _consults_decide(self):
        """Whether the fast loop asks ``policy.decide`` (which may grant
        quantum guards) instead of ``policy.after_step``.

        Only policies that override ``decide`` are asked, and only
        while no retire hook is installed: a hooked core (instruction
        tracing, the task policy's call detector) is consulted through
        ``after_step`` on every step and never skips one, exactly like
        the reference loop.
        """
        policy = self.policy
        return (
            self.core.on_retire is None
            and getattr(type(policy), "decide", None) is not BackupPolicy.decide
            and getattr(policy, "decide", None) is not None
        )

    def _run_fast(self):
        """The fast loop: identical observable behavior to
        :meth:`_run_reference`, restructured for speed.

        The loop is the whole power state machine — charge, injector,
        guard, decide, backup, shutdown, failure and restore — and takes
        its instructions from ``core.step()``, so the core is the step
        source: :class:`~repro.cpu.fastcore.FastCore` executes
        pre-decoded instructions, and a trace replayer's cursor
        (:class:`~repro.sim.replay.TraceCursor`) streams recorded ones.
        Either way every step flows through the same charge and policy
        code below.

        * the per-step CPU + leakage charge, and the per-cycle overhead
          leakage charge of architectures that have one (NvMR's MTC),
          run on a local copy of the capacitor level when the ledger's
          hot categories are pinned and affordable — the same compares
          and subtractions as two sequential ``charge()`` calls;
          anything else delegates to the ledger's direct entry points;
        * when the policy grants a quantum guard (see
          :meth:`~repro.policies.base.BackupPolicy.decide`) the
          per-step policy call is skipped.  Energy-floor guards (JIT)
          keep a per-step safety test: skip while the post-charge
          capacitor energy stays above a floor that grows by the
          architecture's estimate-growth bound per step, so a
          violation backup that drains charge mid-window revokes the
          guard immediately.  Cycle-budget guards (watchdog,
          Spendthrift) ignore energy entirely: they skip on a pure
          cycle count until the granted budget is exhausted, then
          resync the policy's counter with the fully skipped steps and
          consult it exactly for the revoking step.  Revocation (or a
          power failure) returns to the exact per-instruction path, so
          decisions near any boundary match the reference loop bit for
          bit;
        * while a guard is active, a step source with a quantum-window
          executor (:meth:`~repro.cpu.core.Core.begin_run`) retires
          whole runs of guarded steps at once; it stops before any step
          it cannot commit, which the loop then executes one by one.
        """
        core = self.core
        step = core.step
        policy = self.policy
        ledger = self.ledger
        capacitor = self.capacitor
        backup = self.arch.backup
        injector = self._injector
        charge_forward = ledger.charge_forward
        charge_overhead = ledger.charge_forward_overhead
        after_step = policy.after_step
        window = core.begin_run(self)
        decide = policy.decide if self._consults_decide() else None
        step_energy = self._cpu_cycle_energy + self._leak
        overhead_leak = self._overhead_leak
        steps = 0
        # Guard mode: 0 = consult the policy every step, 1 = energy
        # floor (per-step safety test), 2 = cycle budget (blind count).
        gmode = 0
        floor = 0.0
        growth = 0.0
        budget = 0
        skipped = 0
        resync = None
        inf = float("inf")
        max_steps = self.config.max_steps
        none_action = PolicyAction.NONE
        backup_action = PolicyAction.BACKUP
        shutdown_action = PolicyAction.SHUTDOWN
        try:
            while True:
                if gmode and window is not None:
                    wsteps, wcycles, floor, skipped, revoke = window(
                        gmode, floor, growth, skipped, budget,
                        max_steps - steps,
                    )
                    steps += wsteps
                    self.active_cycles += wcycles
                    if revoke:
                        gmode = 0
                if core.halted:
                    try:
                        backup(BackupReason.FINAL)
                        break
                    except PowerFailure:
                        self._power_failure()
                        gmode = 0
                        continue
                if steps >= max_steps:
                    raise SimulationError(f"exceeded {max_steps} instructions")
                try:
                    cycles = step()
                    steps += 1
                    self.active_cycles += cycles
                    # Forward charge then overhead charge, each inlined
                    # from its ledger fast path; the overhead draw must
                    # observe the capacitor level left by the forward
                    # draw, exactly as two sequential charge() calls do.
                    energy = capacitor.energy
                    amount = cycles * step_energy
                    if ledger._fwd_touched and energy >= amount:
                        ledger._fwd_pending += amount
                        energy -= amount
                        if overhead_leak:
                            amount = cycles * overhead_leak
                            if ledger._ovh_touched and energy >= amount:
                                ledger._ovh_pending += amount
                                energy -= amount
                            else:
                                capacitor.energy = energy
                                charge_overhead(amount)
                                energy = capacitor.energy
                        capacitor.energy = energy
                    else:
                        charge_forward(amount)
                        if overhead_leak:
                            charge_overhead(cycles * overhead_leak)
                        energy = capacitor.energy
                    if injector is not None:
                        injector.on_step()
                    if gmode:
                        if gmode == 1:
                            # Energy floor: the post-charge test is the
                            # safety net — any mid-window drain (a
                            # violation or structural backup) revokes
                            # the guard, and the revoking step gets the
                            # exact decide().  ``energy`` equals the
                            # post-charge capacitor level on every path
                            # out of the charge block above.
                            floor += growth
                            if energy > floor:
                                continue
                        else:
                            # Cycle budget: every skipped step was
                            # provably a NONE decision; at revoke,
                            # catch the policy's counters up with the
                            # fully skipped steps (the revoking step's
                            # cycles flow through decide() below).
                            skipped += cycles
                            if skipped < budget:
                                continue
                            resync(skipped - cycles)
                        gmode = 0
                    if decide is not None:
                        action, guard = decide(self, cycles)
                    else:
                        action = after_step(self, cycles)
                        guard = None
                    if action is none_action:
                        if guard is not None:
                            floor, growth, budget, resync = guard
                            if budget == inf:
                                gmode = 1
                            elif resync is not None:
                                skipped = 0
                                gmode = 2
                    elif action is backup_action:
                        backup(BackupReason.POLICY)
                        policy.on_backup(self)
                    elif action is shutdown_action:
                        backup(BackupReason.POLICY)
                        policy.on_backup(self)
                        self._shutdown()
                except PowerFailure:
                    self._power_failure()
                    gmode = 0
        finally:
            core.end_run()

    # ---------------------------------------------------------- result
    def _result(self):
        stats = self.arch.stats
        cache = getattr(self.arch, "cache", None)
        policy_name = (
            self.config.policy
            if isinstance(self.config.policy, str)
            else getattr(self.policy, "name", type(self.policy).__name__)
        )
        return RunResult(
            benchmark=self.benchmark_name,
            arch=self.config.arch,
            policy=policy_name,
            breakdown=self.ledger.committed,
            instructions=self.core.instructions_retired,
            active_cycles=self.active_cycles,
            off_cycles=self.off_cycles,
            active_periods=self.active_periods,
            power_failures=self.power_failures,
            shutdowns=self.shutdowns,
            backups=stats.backups,
            backups_by_reason=dict(stats.backups_by_reason),
            restores=stats.restores,
            violations=stats.violations,
            renames=stats.renames,
            reclaims=stats.reclaims,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            nvm_reads=self.nvm.reads,
            nvm_writes=self.nvm.writes,
            max_wear=self.nvm.max_wear,
        )

    # ----------------------------------------------------- inspection
    def read_word(self, addr):
        """Read program-visible memory after a run, resolving any
        renaming/redo indirection (harness use; no energy charged)."""
        return self.arch.debug_read_word(addr)

    def read_words(self, addr, count):
        return [self.read_word(addr + 4 * i) for i in range(count)]
