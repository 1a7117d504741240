"""Pre-decoded (threaded-code) execution fast path.

:class:`FastCore` is a drop-in replacement for :class:`repro.cpu.core.Core`
that translates every instruction into a *specialized bound closure* at
program load.  The seed interpreter re-resolves the opcode class, the
branch condition, the addressing mode and the base cycle cost through
``if``/``elif`` chains and dict lookups on **every** step; the fast path
resolves all of that exactly once per instruction:

* register indices, immediates and base cycle counts become captured
  constants;
* the program counter is known statically per code index, so ``pc``,
  ``next_pc`` and branch targets are precomputed integers;
* the register list, the flags object and the memory system are bound
  directly into each closure (``RegisterFile`` keeps their identities
  stable across restores for exactly this reason).

The translation is purely a *dispatch* optimisation: every closure
performs the same state updates, the same memory-system calls and the
same cycle arithmetic as ``Core.step``, in the same order, so an
execution is bit-identical to the reference interpreter (the
differential test in ``tests/sim/test_fastpath_differential.py`` is the
gate).  When a retire hook (``on_retire``) is installed — instruction
tracing, the task-boundary policy — :meth:`FastCore.step` transparently
falls back to the reference implementation, which is the only place the
hook's ``(pc, instr, cycles)`` contract is honoured.

One modelled restriction: the fast path assumes word-aligned program
counters (the assembler and mini-C compiler can only produce aligned
control flow).  The reference interpreter silently truncates a
misaligned PC to its enclosing instruction; set ``fast=False`` to get
that legacy behaviour for hand-crafted adversarial programs.
"""

from repro.cpu.core import Core, ExecutionError, _ALU_IMM, _ALU_REG
from repro.isa.instructions import Opcode, TAKEN_BRANCH_PENALTY, base_cycles
from repro.isa.registers import LR
from repro.mem.bloom import WordState

_MASK32 = 0xFFFFFFFF
_UNKNOWN = WordState.UNKNOWN
_READ = WordState.READ
_WRITE = WordState.WRITE


# ----------------------------------------------------------- factories
#
# Each factory returns a zero-argument closure that executes one decoded
# instruction: it mutates ``regs``/``flags``/memory, stores the
# successor PC into ``rf.pc`` and returns the cycles consumed.  The
# factories receive everything resolved: constants stay constants, and
# the per-class work is written out straight-line.

def _alu_reg(regs, rf, instr, next_pc, cycles):
    op_fn = _ALU_REG[int(instr.op)]
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def fn():
        regs[rd] = op_fn(regs[ra], regs[rb])
        rf.pc = next_pc
        return cycles

    return fn


def _alu_imm(regs, rf, instr, next_pc, cycles):
    op_fn = _ALU_IMM[int(instr.op)]
    rd, ra, imm = instr.rd, instr.ra, instr.imm

    def fn():
        regs[rd] = op_fn(regs[ra], imm)
        rf.pc = next_pc
        return cycles

    return fn


def _add(regs, rf, instr, next_pc, cycles):
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def fn():
        regs[rd] = (regs[ra] + regs[rb]) & _MASK32
        rf.pc = next_pc
        return cycles

    return fn


def _sub(regs, rf, instr, next_pc, cycles):
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def fn():
        regs[rd] = (regs[ra] - regs[rb]) & _MASK32
        rf.pc = next_pc
        return cycles

    return fn


def _addi(regs, rf, instr, next_pc, cycles):
    rd, ra, imm = instr.rd, instr.ra, instr.imm

    def fn():
        regs[rd] = (regs[ra] + imm) & _MASK32
        rf.pc = next_pc
        return cycles

    return fn


def _subi(regs, rf, instr, next_pc, cycles):
    rd, ra, imm = instr.rd, instr.ra, instr.imm

    def fn():
        regs[rd] = (regs[ra] - imm) & _MASK32
        rf.pc = next_pc
        return cycles

    return fn


def _mov(regs, rf, instr, next_pc, cycles):
    rd, ra = instr.rd, instr.ra

    def fn():
        regs[rd] = regs[ra]
        rf.pc = next_pc
        return cycles

    return fn


def _mvn(regs, rf, instr, next_pc, cycles):
    rd, ra = instr.rd, instr.ra

    def fn():
        regs[rd] = ~regs[ra] & _MASK32
        rf.pc = next_pc
        return cycles

    return fn


def _movw(regs, rf, instr, next_pc, cycles):
    rd = instr.rd
    value = instr.imm & 0xFFFF

    def fn():
        regs[rd] = value
        rf.pc = next_pc
        return cycles

    return fn


def _movt(regs, rf, instr, next_pc, cycles):
    rd = instr.rd
    high = (instr.imm & 0xFFFF) << 16

    def fn():
        regs[rd] = (regs[rd] & 0xFFFF) | high
        rf.pc = next_pc
        return cycles

    return fn


def _cmp(regs, rf, instr, next_pc, cycles, flags):
    ra, rb = instr.ra, instr.rb

    def fn():
        a = regs[ra]
        b = regs[rb]
        diff = (a - b) & _MASK32
        flags.n = bool(diff & 0x80000000)
        flags.z = diff == 0
        flags.c = a >= b
        flags.v = bool(((a ^ b) & (a ^ diff)) & 0x80000000)
        rf.pc = next_pc
        return cycles

    return fn


def _cmpi(regs, rf, instr, next_pc, cycles, flags):
    ra = instr.ra
    b = instr.imm & _MASK32

    def fn():
        a = regs[ra]
        diff = (a - b) & _MASK32
        flags.n = bool(diff & 0x80000000)
        flags.z = diff == 0
        flags.c = a >= b
        flags.v = bool(((a ^ b) & (a ^ diff)) & 0x80000000)
        rf.pc = next_pc
        return cycles

    return fn


def _load_imm(regs, rf, instr, next_pc, cycles, mem_load, size):
    rd, ra, imm = instr.rd, instr.ra, instr.imm

    def fn():
        value, extra = mem_load((regs[ra] + imm) & _MASK32, size)
        regs[rd] = value
        rf.pc = next_pc
        return cycles + extra

    return fn


def _load_reg(regs, rf, instr, next_pc, cycles, mem_load, size):
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def fn():
        value, extra = mem_load((regs[ra] + regs[rb]) & _MASK32, size)
        regs[rd] = value
        rf.pc = next_pc
        return cycles + extra

    return fn


def _load_word_cached(regs, rf, instr, next_pc, cycles, arch, use_rb):
    """Word load with the :class:`CachedArchitecture` hit path inlined.

    Replicates ``CachedArchitecture.load(addr, 4)`` state transition for
    state transition, in the same order (stats, fused forward charge,
    LRU probe/promote, LBF read-marking, word read), with every object
    captured once at translation time; the miss continuation delegates
    to the same ``_load_miss`` the reference method uses.  Only selected
    when the architecture's load/store are the stock cached versions.
    """
    rd, ra = instr.rd, instr.ra
    rb, imm = instr.rb, instr.imm
    stats = arch.stats
    ledger = arch.ledger
    capacitor = ledger.capacitor
    charge_forward = arch._charge_forward
    amount = arch._access_energy
    bmask = arch._block_mask
    sets, shift, smask = arch._set_geom
    cache = arch.cache
    load_miss = arch._load_miss
    hit_cycles = cycles + 1

    if use_rb:
        def fn():
            addr = (regs[ra] + regs[rb]) & _MASK32
            stats.loads += 1
            block_addr = addr & ~bmask
            energy = capacitor.energy
            if ledger._fwd_touched and energy >= amount:
                capacitor.energy = energy - amount
                ledger._fwd_pending += amount
            else:
                charge_forward(amount)
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
                value, extra = load_miss(block_addr, addr, 4)
                regs[rd] = value
                rf.pc = next_pc
                return cycles + extra
            word = (addr & bmask) >> 2
            states = line.meta.states
            if states[word] == _UNKNOWN:
                states[word] = _READ
            regs[rd] = line.words[word]
            rf.pc = next_pc
            return hit_cycles
    else:
        def fn():
            addr = (regs[ra] + imm) & _MASK32
            stats.loads += 1
            block_addr = addr & ~bmask
            energy = capacitor.energy
            if ledger._fwd_touched and energy >= amount:
                capacitor.energy = energy - amount
                ledger._fwd_pending += amount
            else:
                charge_forward(amount)
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
                value, extra = load_miss(block_addr, addr, 4)
                regs[rd] = value
                rf.pc = next_pc
                return cycles + extra
            word = (addr & bmask) >> 2
            states = line.meta.states
            if states[word] == _UNKNOWN:
                states[word] = _READ
            regs[rd] = line.words[word]
            rf.pc = next_pc
            return hit_cycles

    return fn


def _store_word_cached(regs, rf, instr, next_pc, cycles, arch, use_rb):
    """Word store twin of :func:`_load_word_cached` (WRITE marking,
    in-place word write + dirty bit on a hit)."""
    rd, ra = instr.rd, instr.ra
    rb, imm = instr.rb, instr.imm
    stats = arch.stats
    ledger = arch.ledger
    capacitor = ledger.capacitor
    charge_forward = arch._charge_forward
    amount = arch._access_energy
    bmask = arch._block_mask
    sets, shift, smask = arch._set_geom
    cache = arch.cache
    store_miss = arch._store_miss
    hit_cycles = cycles + 1

    if use_rb:
        def fn():
            addr = (regs[ra] + regs[rb]) & _MASK32
            stats.stores += 1
            block_addr = addr & ~bmask
            energy = capacitor.energy
            if ledger._fwd_touched and energy >= amount:
                capacitor.energy = energy - amount
                ledger._fwd_pending += amount
            else:
                charge_forward(amount)
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
                extra = store_miss(block_addr, addr, regs[rd], 4)
                rf.pc = next_pc
                return cycles + extra
            word = (addr & bmask) >> 2
            states = line.meta.states
            if states[word] == _UNKNOWN:
                states[word] = _WRITE
            line.words[word] = regs[rd] & _MASK32
            line.dirty = True
            rf.pc = next_pc
            return hit_cycles
    else:
        def fn():
            addr = (regs[ra] + imm) & _MASK32
            stats.stores += 1
            block_addr = addr & ~bmask
            energy = capacitor.energy
            if ledger._fwd_touched and energy >= amount:
                capacitor.energy = energy - amount
                ledger._fwd_pending += amount
            else:
                charge_forward(amount)
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
                extra = store_miss(block_addr, addr, regs[rd], 4)
                rf.pc = next_pc
                return cycles + extra
            word = (addr & bmask) >> 2
            states = line.meta.states
            if states[word] == _UNKNOWN:
                states[word] = _WRITE
            line.words[word] = regs[rd] & _MASK32
            line.dirty = True
            rf.pc = next_pc
            return hit_cycles

    return fn


def _store_imm(regs, rf, instr, next_pc, cycles, mem_store, size):
    rd, ra, imm = instr.rd, instr.ra, instr.imm
    if size == 4:
        def fn():
            extra = mem_store((regs[ra] + imm) & _MASK32, regs[rd], 4)
            rf.pc = next_pc
            return cycles + extra
    else:
        def fn():
            extra = mem_store((regs[ra] + imm) & _MASK32, regs[rd] & 0xFF, 1)
            rf.pc = next_pc
            return cycles + extra

    return fn


def _store_reg(regs, rf, instr, next_pc, cycles, mem_store, size):
    rd, ra, rb = instr.rd, instr.ra, instr.rb
    if size == 4:
        def fn():
            extra = mem_store((regs[ra] + regs[rb]) & _MASK32, regs[rd], 4)
            rf.pc = next_pc
            return cycles + extra
    else:
        def fn():
            extra = mem_store((regs[ra] + regs[rb]) & _MASK32, regs[rd] & 0xFF, 1)
            rf.pc = next_pc
            return cycles + extra

    return fn


# Branch-condition closures, specialized per opcode.  Each factory gets
# the resolved taken/fall-through PCs and both cycle costs as constants.

def _branch(rf, flags, taken_pc, next_pc, taken_cycles, cycles, op):
    if op is Opcode.B:
        def fn():
            rf.pc = taken_pc
            return taken_cycles
    elif op is Opcode.BEQ:
        def fn():
            if flags.z:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BNE:
        def fn():
            if flags.z:
                rf.pc = next_pc
                return cycles
            rf.pc = taken_pc
            return taken_cycles
    elif op is Opcode.BLT:
        def fn():
            if flags.n != flags.v:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BGE:
        def fn():
            if flags.n == flags.v:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BGT:
        def fn():
            if not flags.z and flags.n == flags.v:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BLE:
        def fn():
            if flags.z or flags.n != flags.v:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BLO:
        def fn():
            if flags.c:
                rf.pc = next_pc
                return cycles
            rf.pc = taken_pc
            return taken_cycles
    elif op is Opcode.BHS:
        def fn():
            if flags.c:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BHI:
        def fn():
            if flags.c and not flags.z:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    elif op is Opcode.BLS:
        def fn():
            if not flags.c or flags.z:
                rf.pc = taken_pc
                return taken_cycles
            rf.pc = next_pc
            return cycles
    else:  # pragma: no cover - the translator only passes branches
        raise ExecutionError(f"not a branch: {op}")
    return fn


def _bl(regs, rf, taken_pc, next_pc, cycles):
    def fn():
        regs[LR] = next_pc
        rf.pc = taken_pc
        return cycles

    return fn


def _bx(regs, rf, instr, cycles):
    ra = instr.ra

    def fn():
        rf.pc = regs[ra]
        return cycles

    return fn


def _halt(core, rf, next_pc, cycles):
    def fn():
        core.halted = True
        rf.pc = next_pc
        return cycles

    return fn


def _nop(rf, next_pc, cycles):
    def fn():
        rf.pc = next_pc
        return cycles

    return fn


#: ALU opcodes with a hand-inlined factory (the rest go through the
#: shared ``_ALU_REG``/``_ALU_IMM`` operator tables, which is still one
#: resolved call instead of a dispatch chain).
_INLINE_ALU = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.ADDI: _addi,
    Opcode.SUBI: _subi,
}


def inlines_cache_hits(memory):
    """Whether word-sized loads/stores may run the cached-architecture
    hit path inline instead of calling ``memory.load``/``store``.

    Only when the memory system uses the stock CachedArchitecture
    load/store (no subclass override) and the set count is a power of
    two (the inlined path uses the shift/mask geometry).  Everything
    else keeps the generic call-out form.  A trace replayer inlines
    under the same predicate.
    """
    from repro.arch.base import CachedArchitecture

    return bool(
        isinstance(memory, CachedArchitecture)
        and type(memory).load is CachedArchitecture.load
        and type(memory).store is CachedArchitecture.store
        and memory._set_geom[2] is not None
    )


class FastCore(Core):
    """A :class:`Core` whose program is translated to bound closures.

    State, counters and the public API are identical to ``Core``; only
    the dispatch mechanism differs.  ``self._ops[i]`` executes the
    instruction at ``code_base + 4*i`` and returns its cycle count.
    """

    __slots__ = ("_ops",)

    def __init__(self, program, memory):
        super().__init__(program, memory)
        self._ops = self._translate()

    # ------------------------------------------------------ translation
    def _translate(self):
        rf = self.rf
        regs = rf.regs
        flags = rf.flags
        memory = self.memory
        mem_load = memory.load
        mem_store = memory.store
        code_base = self._code_base
        inline_mem = inlines_cache_hits(memory)
        ops = []
        for index, instr in enumerate(self._code):
            pc = code_base + 4 * index
            next_pc = pc + 4
            op = instr.op
            cycles = base_cycles(op)
            opn = int(op)
            if opn <= 12:
                factory = _INLINE_ALU.get(op, _alu_reg)
                fn = factory(regs, rf, instr, next_pc, cycles)
            elif opn <= 22:
                factory = _INLINE_ALU.get(op, _alu_imm)
                fn = factory(regs, rf, instr, next_pc, cycles)
            elif op is Opcode.MOV:
                fn = _mov(regs, rf, instr, next_pc, cycles)
            elif op is Opcode.MVN:
                fn = _mvn(regs, rf, instr, next_pc, cycles)
            elif op is Opcode.MOVW:
                fn = _movw(regs, rf, instr, next_pc, cycles)
            elif op is Opcode.MOVT:
                fn = _movt(regs, rf, instr, next_pc, cycles)
            elif op is Opcode.CMP:
                fn = _cmp(regs, rf, instr, next_pc, cycles, flags)
            elif op is Opcode.CMPI:
                fn = _cmpi(regs, rf, instr, next_pc, cycles, flags)
            elif opn <= 32:  # loads
                size = 4 if opn <= 30 else 1
                if inline_mem and size == 4:
                    fn = _load_word_cached(
                        regs, rf, instr, next_pc, cycles, memory,
                        op is Opcode.LDRR,
                    )
                elif op is Opcode.LDR or op is Opcode.LDRB:
                    fn = _load_imm(regs, rf, instr, next_pc, cycles, mem_load, size)
                else:
                    fn = _load_reg(regs, rf, instr, next_pc, cycles, mem_load, size)
            elif opn <= 36:  # stores
                size = 4 if opn <= 34 else 1
                if inline_mem and size == 4:
                    fn = _store_word_cached(
                        regs, rf, instr, next_pc, cycles, memory,
                        op is Opcode.STRR,
                    )
                elif op is Opcode.STR or op is Opcode.STRB:
                    fn = _store_imm(regs, rf, instr, next_pc, cycles, mem_store, size)
                else:
                    fn = _store_reg(regs, rf, instr, next_pc, cycles, mem_store, size)
            elif opn <= 47:  # PC-relative branches
                taken_pc = pc + 4 + instr.imm * 4
                fn = _branch(
                    rf, flags, taken_pc, next_pc,
                    cycles + TAKEN_BRANCH_PENALTY, cycles, op,
                )
            elif op is Opcode.BL:
                fn = _bl(regs, rf, pc + 4 + instr.imm * 4, next_pc, cycles)
            elif op is Opcode.BX:
                fn = _bx(regs, rf, instr, cycles)
            elif op is Opcode.HALT:
                fn = _halt(self, rf, next_pc, cycles)
            else:  # NOP
                fn = _nop(rf, next_pc, cycles)
            ops.append(fn)
        return ops

    # -------------------------------------------------------- execution
    def step(self):
        """Execute one instruction via its pre-decoded closure."""
        if self.on_retire is not None:
            # Retire hooks receive (pc, instr, cycles); only the
            # reference interpreter threads those through.
            return Core.step(self)
        if self.halted:
            raise ExecutionError("core is halted")
        rf = self.rf
        try:
            fn = self._ops[(rf.pc - self._code_base) >> 2]
        except IndexError:
            raise ExecutionError(f"pc outside code: {rf.pc:#x}") from None
        cycles = fn()
        self.instructions_retired += 1
        return cycles
