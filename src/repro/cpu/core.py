"""The in-order TinyRISC core.

The core executes decoded instructions one at a time.  Data accesses go
through a :class:`MemorySystem` (implemented by the intermittent
architectures), which returns the extra cycles the access took — cache
hit latency, NVM latency on a miss, renaming traffic, and so on.

Timing model (Cortex M0+-like 3-stage pipeline):

* ALU / move / compare: 1 cycle.
* Multiply: 1 cycle (single-cycle multiplier option).
* Divide/remainder: 18 cycles (software-division stand-in; the M0+ has
  no hardware divider).
* Loads/stores: 2 cycles base + memory-system latency.
* Taken branches: +1 cycle pipeline refill; ``bl``/``bx`` cost 2 cycles.
"""

from repro.cpu.state import RegisterFile
from repro.isa.instructions import Opcode, TAKEN_BRANCH_PENALTY, base_cycles
from repro.isa.registers import LR, s32, u32


class MemorySystem:
    """Interface the core uses for data accesses.

    ``size`` is 1 (byte) or 4 (word).  Loads return ``(value, cycles)``
    with the value zero-extended to 32 bits; stores return the cycles
    taken.  Implementations charge their own energy.
    """

    def load(self, addr, size):  # pragma: no cover - interface
        raise NotImplementedError

    def store(self, addr, value, size):  # pragma: no cover - interface
        raise NotImplementedError


class ExecutionError(Exception):
    """A program performed an architecturally invalid operation."""


class Core:
    """Executes a :class:`~repro.asm.program.Program` against a memory system.

    The core itself is purely volatile: on a power failure the platform
    discards it and rebuilds register state from the last checkpoint via
    :meth:`resume`.  The core is also the fast run loop's step source
    (:meth:`step`, :meth:`begin_run`), and builds the checkpoint
    payloads backups persist (:meth:`checkpoint`).
    """

    __slots__ = (
        "program",
        "memory",
        "rf",
        "halted",
        "instructions_retired",
        "on_retire",
        "_code",
        "_code_base",
    )

    def __init__(self, program, memory):
        self.program = program
        self.memory = memory
        self.rf = RegisterFile()
        self.halted = False
        self.instructions_retired = 0
        #: Optional hook called after each retired instruction with
        #: ``(pc, instruction, cycles)`` — used by
        #: :class:`repro.sim.tracing.InstructionTracer`.
        self.on_retire = None
        self._code = program.instructions
        self._code_base = program.layout.code_base
        self.reset()

    def reset(self):
        """Power-on reset: zero registers, point PC at the entry."""
        self.rf.reset()
        self.rf.pc = self.program.entry
        self.rf.regs[13] = self.program.layout.stack_top  # sp
        self.halted = False

    # ------------------------------------------------------ checkpoints
    def checkpoint(self):
        """The payload a backup persists: registers + PC + flags, plus
        the halted flag (architectures commit it via
        ``snapshot_payload``)."""
        return {"checkpoint": self.rf.snapshot(), "halted": self.halted}

    def resume(self, payload):
        """Rewind to a committed :meth:`checkpoint` payload (what a
        post-power-loss restore does)."""
        self.rf.restore(payload["checkpoint"])
        self.halted = payload.get("halted", False)

    # ------------------------------------------------------- run hooks
    def begin_run(self, platform):
        """Called by the fast run loop before its first step.

        Returns the source's quantum-window executor — a callable the
        loop hands each active policy guard, which retires whole runs
        of steps at once (see ``repro.sim.replay.TraceCursor.window``)
        — or None when every step goes through :meth:`step`.
        """
        return None

    def end_run(self):
        """Called by the fast run loop on every exit (undo
        :meth:`begin_run`)."""

    # ------------------------------------------------------------------
    def _branch_taken(self, op):
        flags = self.rf.flags
        if op is Opcode.B:
            return True
        if op is Opcode.BEQ:
            return flags.z
        if op is Opcode.BNE:
            return not flags.z
        if op is Opcode.BLT:
            return flags.n != flags.v
        if op is Opcode.BGE:
            return flags.n == flags.v
        if op is Opcode.BGT:
            return not flags.z and flags.n == flags.v
        if op is Opcode.BLE:
            return flags.z or flags.n != flags.v
        if op is Opcode.BLO:
            return not flags.c
        if op is Opcode.BHS:
            return flags.c
        if op is Opcode.BHI:
            return flags.c and not flags.z
        if op is Opcode.BLS:
            return not flags.c or flags.z
        raise ExecutionError(f"not a branch: {op}")  # pragma: no cover

    def _set_flags_sub(self, a, b):
        """Set NZCV from ``a - b`` (both unsigned 32-bit views)."""
        diff = u32(a - b)
        flags = self.rf.flags
        flags.n = bool(diff & 0x80000000)
        flags.z = diff == 0
        flags.c = a >= b  # no borrow
        flags.v = bool(((a ^ b) & (a ^ diff)) & 0x80000000)

    def step(self):
        """Execute one instruction; return the cycles it consumed."""
        if self.halted:
            raise ExecutionError("core is halted")
        rf = self.rf
        regs = rf.regs
        index = (rf.pc - self._code_base) >> 2
        try:
            instr = self._code[index]
        except IndexError:
            raise ExecutionError(f"pc outside code: {rf.pc:#x}") from None
        op = instr.op
        cycles = base_cycles(op)
        next_pc = rf.pc + 4
        opn = int(op)

        if opn <= 12:  # three-register ALU
            a = regs[instr.ra]
            b = regs[instr.rb]
            regs[instr.rd] = _ALU_REG[opn](a, b)
        elif opn <= 22:  # register-immediate ALU
            a = regs[instr.ra]
            regs[instr.rd] = _ALU_IMM[opn](a, instr.imm)
        elif op is Opcode.MOV:
            regs[instr.rd] = regs[instr.ra]
        elif op is Opcode.MVN:
            regs[instr.rd] = u32(~regs[instr.ra])
        elif op is Opcode.MOVW:
            regs[instr.rd] = instr.imm & 0xFFFF
        elif op is Opcode.MOVT:
            regs[instr.rd] = (regs[instr.rd] & 0xFFFF) | ((instr.imm & 0xFFFF) << 16)
        elif op is Opcode.CMP:
            self._set_flags_sub(regs[instr.ra], regs[instr.rb])
        elif op is Opcode.CMPI:
            self._set_flags_sub(regs[instr.ra], u32(instr.imm))
        elif opn <= 32:  # loads
            if op is Opcode.LDR or op is Opcode.LDRB:
                addr = u32(regs[instr.ra] + instr.imm)
            else:
                addr = u32(regs[instr.ra] + regs[instr.rb])
            size = 4 if opn <= 30 else 1
            value, extra = self.memory.load(addr, size)
            regs[instr.rd] = value
            cycles += extra
        elif opn <= 36:  # stores
            if op is Opcode.STR or op is Opcode.STRB:
                addr = u32(regs[instr.ra] + instr.imm)
            else:
                addr = u32(regs[instr.ra] + regs[instr.rb])
            size = 4 if opn <= 34 else 1
            value = regs[instr.rd] if size == 4 else regs[instr.rd] & 0xFF
            cycles += self.memory.store(addr, value, size)
        elif opn <= 47:  # conditional / unconditional branches
            if self._branch_taken(op):
                next_pc = rf.pc + 4 + instr.imm * 4
                cycles += TAKEN_BRANCH_PENALTY
        elif op is Opcode.BL:
            regs[LR] = next_pc
            next_pc = rf.pc + 4 + instr.imm * 4
        elif op is Opcode.BX:
            next_pc = regs[instr.ra]
        elif op is Opcode.HALT:
            self.halted = True
        # NOP: nothing

        pc_before = rf.pc
        rf.pc = next_pc
        self.instructions_retired += 1
        if self.on_retire is not None:
            self.on_retire(pc_before, instr, cycles)
        return cycles


def _shift_amount(b):
    return b & 31


_ALU_REG = {
    int(Opcode.ADD): lambda a, b: u32(a + b),
    int(Opcode.SUB): lambda a, b: u32(a - b),
    int(Opcode.RSB): lambda a, b: u32(b - a),
    int(Opcode.MUL): lambda a, b: u32(a * b),
    int(Opcode.AND): lambda a, b: a & b,
    int(Opcode.ORR): lambda a, b: a | b,
    int(Opcode.EOR): lambda a, b: a ^ b,
    int(Opcode.LSL): lambda a, b: u32(a << _shift_amount(b)),
    int(Opcode.LSR): lambda a, b: a >> _shift_amount(b),
    int(Opcode.ASR): lambda a, b: u32(s32(a) >> _shift_amount(b)),
    int(Opcode.SDIV): lambda a, b: _sdiv(a, b),
    int(Opcode.UDIV): lambda a, b: a // b if b else 0,
    int(Opcode.SREM): lambda a, b: _srem(a, b),
}

_ALU_IMM = {
    int(Opcode.ADDI): lambda a, imm: u32(a + imm),
    int(Opcode.SUBI): lambda a, imm: u32(a - imm),
    int(Opcode.RSBI): lambda a, imm: u32(imm - a),
    int(Opcode.MULI): lambda a, imm: u32(a * imm),
    int(Opcode.ANDI): lambda a, imm: a & u32(imm),
    int(Opcode.ORRI): lambda a, imm: a | u32(imm),
    int(Opcode.EORI): lambda a, imm: a ^ u32(imm),
    int(Opcode.LSLI): lambda a, imm: u32(a << _shift_amount(imm)),
    int(Opcode.LSRI): lambda a, imm: a >> _shift_amount(imm),
    int(Opcode.ASRI): lambda a, imm: u32(s32(a) >> _shift_amount(imm)),
}


def _sdiv(a, b):
    """ARM-style signed division: truncate toward zero, x/0 == 0."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return u32(quotient)


def _srem(a, b):
    """Signed remainder matching C semantics: sign follows the dividend."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return u32(remainder)
