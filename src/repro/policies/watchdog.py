"""The watchdog-timer backup policy.

Backs up every ``period`` cycles (8000 in Clank [16] and in the paper).
It never shuts the device down, so active periods end in genuine power
failures and the energy spent since the last timer backup is dead
(re-executed) energy — the paper's "most naive" scheme.
"""

from repro.policies.base import BackupPolicy, PolicyAction, TunableSpec

DEFAULT_PERIOD_CYCLES = 8000

#: The watchdog ignores energy: its guard never fails the floor test.
_NO_FLOOR = float("-inf")


class WatchdogPolicy(BackupPolicy):
    name = "watchdog"

    tunables = (
        TunableSpec(
            name="period",
            default=DEFAULT_PERIOD_CYCLES,
            grid=(1000, 2000, 4000, 16000),
            description=(
                "cycles between timer backups; short periods pay more "
                "backup energy, long periods lose more dead (re-executed) "
                "energy to power failures (a period outlasting one full "
                "charge livelocks the device, so the grid stops at 2x "
                "the default)"
            ),
        ),
    )

    def __init__(self, period=DEFAULT_PERIOD_CYCLES):
        if period <= 0:
            raise ValueError("watchdog period must be positive")
        self.period = period
        self._elapsed = 0

    def reset(self, platform):
        self._elapsed = 0

    def on_period_start(self, platform, conditions):
        self._elapsed = 0

    def on_backup(self, platform):
        # Any backup (including structural ones) restarts the timer —
        # the data is freshly persisted either way.
        self._elapsed = 0

    def after_step(self, platform, cycles):
        self._elapsed += cycles
        if self._elapsed >= self.period:
            return PolicyAction.BACKUP
        return PolicyAction.NONE

    def decide(self, platform, cycles):
        """Timer test plus a cycle-budget guard.

        The decision is a pure cycle-counter compare, so the loop may
        skip consulting it while fewer than ``period - _elapsed`` cycles
        have accumulated — every skipped call would provably return NONE
        and only advance the counter, which ``_resync`` reconstructs at
        revoke.  Structural backups don't touch the timer (``on_backup``
        only fires for policy backups, which can't happen while the
        policy is skipped), and a power failure drops the guard without
        resync (``on_period_start`` zeroes the timer anyway).
        """
        action = self.after_step(platform, cycles)
        if action == PolicyAction.NONE:
            return action, (
                _NO_FLOOR, 0.0, self.period - self._elapsed, self._resync
            )
        return action, None

    def _resync(self, skipped_cycles):
        self._elapsed += skipped_cycles
