"""Backup-policy interface."""

from typing import NamedTuple


class TunableSpec(NamedTuple):
    """One tunable policy parameter and its sweep grid.

    Declared as class attributes on each :class:`BackupPolicy`
    subclass (``tunables``); the Pareto auto-tuner
    (:mod:`repro.analysis.pareto`) reads these declarations to build
    its threshold sweep grids, and applies each value through
    ``PlatformConfig.policy_kwargs`` — so a tunable's ``name`` must be
    a keyword the policy's ``__init__`` accepts.
    """

    #: Keyword name in the policy constructor / ``policy_kwargs``.
    name: str
    #: The hand-picked value the paper's experiments use.
    default: object
    #: Values the auto-tuner sweeps (should include sensible extremes;
    #: need not include the default — it is always evaluated).
    grid: tuple
    #: One line on what the knob trades off.
    description: str


class PolicyAction:
    """What the policy wants after an instruction retires."""

    NONE = "none"
    #: Back up now and keep executing (watchdog style).
    BACKUP = "backup"
    #: Back up now and end the active period (JIT / predictive style):
    #: the device sleeps until the capacitor recharges.
    SHUTDOWN = "shutdown"


class BackupPolicy:
    """Decides when backups happen, based on operating conditions only.

    This is the decoupling the paper argues for: with NvMR the policy is
    free to track the environment; with Clank the program's violations
    dominate regardless of what the policy wants.
    """

    #: Declares that this policy's quantum-guard ``growth`` bound (see
    #: :meth:`decide`) is only ever *consumed* by events a trace
    #: replayer can observe directly: a cache miss, a clean line being
    #: dirtied, or a memory access outside the inlined hit path.  A
    #: replayer may then hold the guard floor static between such
    #: events — provided it revokes the guard (forcing a fresh
    #: ``decide``) whenever one occurs.  Skipped decisions stay
    #: provably ``NONE`` and extra decisions are side-effect free, so
    #: results are bit-identical either way; revoking on events instead
    #: of on conservative floor growth just consults the policy far
    #: less often.
    guard_event_revoke = False

    #: Upper bound, in cycles, on any quantum-guard budget this policy
    #: will ever issue (None = unbounded / not declared).  A replay
    #: executor uses it to size its batching: a policy whose windows
    #: are structurally capped below the vectorization breakeven (e.g.
    #: Spendthrift's ``check_interval``) gets the scalar window with
    #: zero per-window overhead instead of a compiled one that would
    #: fall back on every single call.
    quantum_budget_hint = None

    #: Tunable parameters the Pareto auto-tuner may sweep
    #: (:class:`TunableSpec` tuple); empty means nothing to tune.
    tunables = ()

    name = "base"

    def reset(self, platform):
        """Called once before a run starts."""

    def on_period_start(self, platform, conditions):
        """Called at the start of every active period.

        ``conditions`` is the trace's
        :class:`~repro.energy.traces.PeriodConditions`.
        """

    def on_backup(self, platform):
        """Called after any backup (policy-driven or structural)."""

    def after_step(self, platform, cycles):
        """Called after each retired instruction; returns a PolicyAction."""
        return PolicyAction.NONE

    def decide(self, platform, cycles):
        """Fast-run-loop entry point: ``(action, quantum_guard)``.

        ``quantum_guard`` is ``None`` or a ``(floor, growth,
        cycle_budget, resync)`` tuple that lets the loop skip consulting
        the policy while the skips are provably unobservable.  After
        each subsequent step the loop advances ``floor += growth`` and
        accumulates the step's cycles into ``skipped``; the policy stays
        skipped while **both** the post-charge capacitor energy exceeds
        ``floor`` (energy-threshold policies: the floor's growth bounds
        how fast the policy's threshold can rise) and ``skipped <
        cycle_budget`` (cycle-counter policies: every skipped decision
        would still be under the counter's period).  Either test failing
        revokes the guard: the loop calls ``resync(skipped_cycles)``
        (if not None) with the cycles of all *fully skipped* steps so a
        counter policy can catch up its state, then consults the policy
        exactly for the revoking step.  A power failure or shutdown
        drops the guard without resync (``on_period_start`` re-bases the
        policy's state, exactly as in the reference loop).

        A policy may only grant a guard when every skipped call would
        provably return :data:`PolicyAction.NONE` with no side effects
        beyond what ``resync`` reconstructs.  Policies that keep the
        default (task, user policies) are consulted after every
        instruction, exactly as the reference loop does.
        """
        return self.after_step(platform, cycles), None


class NeverPolicy(BackupPolicy):
    """No policy backups; only the architecture's structural backups.

    With a JIT-less schedule the device fails whenever the budget runs
    out, which exercises the dead-energy and restore paths — useful in
    tests, not used in the paper's experiments.
    """

    name = "never"
