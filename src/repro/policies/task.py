"""A task-boundary backup policy (paper Section 2.2 / Figure 2c).

Software systems such as DINO and Chain [7, 22, 26] decompose programs
into programmer-defined atomic tasks and checkpoint at task boundaries.
We approximate task boundaries with *function-call* boundaries: a
backup is taken when a ``bl`` (call) retires, rate-limited by a minimum
inter-backup distance so that leaf-helper-heavy code does not
checkpoint every few instructions — mirroring the paper's observation
that "tasks are sized much smaller than the available energy supply",
which is exactly why these schemes back up more than necessary.

Correctness is the architecture's job (Clank/NvMR/HOOP are crash-
consistent under *any* backup placement); the policy only decides the
energy bill, like every other policy here.
"""

from repro.isa.instructions import Opcode
from repro.policies.base import BackupPolicy, PolicyAction, TunableSpec

#: Minimum cycles between task backups (task granularity knob).
DEFAULT_MIN_TASK_CYCLES = 1500
#: Maximum task length: a call-free stretch longer than this backs up
#: anyway.  Task systems *require* the programmer to split such code
#: ("task decomposition is static and often needs detailed knowledge of
#: the intermittent hardware"); a task that outlives the energy supply
#: can never commit, so this models the mandatory loop splitting.
DEFAULT_MAX_TASK_CYCLES = 6000


class TaskBoundaryPolicy(BackupPolicy):
    name = "task"

    #: Opcodes whose retirement marks a task boundary.  The retire hook
    #: inspects nothing else, so a trace replayer can precompute the
    #: boundary positions from these and call :meth:`note_boundary`
    #: at them instead of running the hook on every instruction.
    boundary_opcodes = (Opcode.BL,)

    tunables = (
        TunableSpec(
            name="min_task_cycles",
            default=DEFAULT_MIN_TASK_CYCLES,
            grid=(500, 1000, 3000, 6000),
            description=(
                "minimum cycles between task backups (task granularity); "
                "small values checkpoint at almost every call, large "
                "values coalesce helper-heavy code into bigger tasks"
            ),
        ),
        TunableSpec(
            name="max_task_cycles",
            default=DEFAULT_MAX_TASK_CYCLES,
            grid=(3000, 12000),
            description=(
                "forced loop-split bound: a call-free stretch longer "
                "than this backs up anyway, modeling mandatory task "
                "decomposition of long loops"
            ),
        ),
    )

    def __init__(
        self,
        min_task_cycles=DEFAULT_MIN_TASK_CYCLES,
        max_task_cycles=DEFAULT_MAX_TASK_CYCLES,
    ):
        if min_task_cycles <= 0:
            raise ValueError("min_task_cycles must be positive")
        if max_task_cycles < min_task_cycles:
            raise ValueError("max_task_cycles must be >= min_task_cycles")
        self.min_task_cycles = min_task_cycles
        self.max_task_cycles = max_task_cycles
        self._since_backup = 0
        self._boundary_seen = False

    def reset(self, platform):
        self._since_backup = 0
        self._boundary_seen = False
        # Chain rather than replace any existing retire hook (e.g. an
        # attached InstructionTracer).
        previous = platform.core.on_retire
        if previous is None:
            platform.core.on_retire = self._on_retire
        else:
            def chained(pc, instr, cycles, _prev=previous, _mine=self._on_retire):
                _prev(pc, instr, cycles)
                _mine(pc, instr, cycles)

            platform.core.on_retire = chained

    def _on_retire(self, pc, instr, cycles):
        if instr.op in self.boundary_opcodes:
            self.note_boundary()

    def note_boundary(self):
        """A boundary instruction retired."""
        self._boundary_seen = True

    def on_period_start(self, platform, conditions):
        self._since_backup = 0
        self._boundary_seen = False

    def on_backup(self, platform):
        self._since_backup = 0
        self._boundary_seen = False

    def after_step(self, platform, cycles):
        self._since_backup += cycles
        if self._boundary_seen and self._since_backup >= self.min_task_cycles:
            return PolicyAction.BACKUP
        if self._since_backup >= self.max_task_cycles:
            return PolicyAction.BACKUP  # forced loop split
        return PolicyAction.NONE
