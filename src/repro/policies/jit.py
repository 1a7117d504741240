"""The Just-In-Time (JIT) oracle backup policy.

"The JIT scheme accurately estimates when a power loss will happen and
triggers a backup just before it" (paper Section 5.2).  Our model makes
this exact: after every instruction the policy compares the remaining
stored energy against the architecture's current backup cost plus a
worst-case single-instruction bound.  When the margin is gone it backs
up and shuts the device down for the rest of the period.

Because the check runs between instructions and the margin covers any
single instruction, a JIT run never suffers an unexpected power failure
and therefore has zero dead energy — matching Section 6.1.4.
"""

from repro.policies.base import BackupPolicy, PolicyAction, TunableSpec

#: JIT's guard is energy-bounded only — no cycle budget.
_NO_BUDGET = float("inf")

DEFAULT_MARGIN = 1.0


class JitPolicy(BackupPolicy):
    name = "jit"

    tunables = (
        TunableSpec(
            name="margin",
            default=DEFAULT_MARGIN,
            grid=(1.0, 2.0, 4.0, 8.0),
            description=(
                "safety multiplier on the worst-single-step pad; larger "
                "margins shut down earlier (more backups, less progress "
                "per charge) but tolerate cruder energy estimates"
            ),
        ),
    )

    #: The growth bound below is only consumed by dirty-set events
    #: (estimate_growth_per_step documents them: a clean line dirtied,
    #: a miss's eviction/rename traffic) — between such events the
    #: threshold is constant, so a trace replayer may hold the guard
    #: floor static and revoke on the events themselves.
    guard_event_revoke = True

    def __init__(self, margin=DEFAULT_MARGIN):
        if margin <= 0:
            raise ValueError("jit margin must be positive")
        self.margin = margin
        self._estimate = None
        self._step_pad = 0.0
        self._growth = None

    def reset(self, platform):
        # Per-run constants, re-bound here because the same policy
        # instance may be reused across platforms.  Only decide() uses
        # them; after_step stays the reference implementation.
        arch = platform.arch
        self._estimate = arch.estimate_backup_cost
        self._step_pad = self._pad(arch)
        self._growth = arch.estimate_growth_per_step()

    def _pad(self, arch):
        # margin == 1.0 keeps the pad (and every downstream comparison)
        # bit-identical to the pre-tunable policy.
        pad = arch.worst_step_cost()
        return pad if self.margin == 1.0 else self.margin * pad

    def after_step(self, platform, cycles):
        capacitor = platform.capacitor
        arch = platform.arch
        threshold = arch.estimate_backup_cost() + self._pad(arch)
        if capacitor.energy <= threshold:
            return PolicyAction.SHUTDOWN
        return PolicyAction.NONE

    def decide(self, platform, cycles):
        """Threshold test plus a quantum guard from one estimate.

        JIT is stateless and its decision is a pure threshold test, so
        consulting it can be skipped while the margin is provably
        positive: over ``j`` backup-free steps the threshold rises by at
        most ``j * estimate_growth_per_step()``, so a floor that starts
        at today's threshold and grows by that bound per step keeps
        every skipped decision provably NONE (the loop compares the
        *actual* post-charge capacitor energy against the floor, so no
        per-step draw bound is needed).  Architectures without a growth
        bound get per-step checks, exactly like the reference loop.
        """
        threshold = self._estimate() + self._step_pad
        if platform.capacitor.energy <= threshold:
            return PolicyAction.SHUTDOWN, None
        growth = self._growth
        if growth is None:
            return PolicyAction.NONE, None
        return PolicyAction.NONE, (threshold, growth, _NO_BUDGET, None)
