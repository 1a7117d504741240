"""Execution-trace recording for trace-once / replay-many sweeps.

NvMR's own key observation — idempotency violations are a property of
the *memory-reference stream*, not of the microarchitecture — cuts the
other way too: the instruction stream a program executes is
bit-identical across every architecture, backup policy and capacitor
configuration the experiments sweep.  Every architecture restores the
exact register/flag state the checkpoint captured, so after any power
failure execution rejoins the same *natural* (failure-free) instruction
stream at an earlier index.  That makes the expensive part of a sweep —
interpreting instructions in :mod:`repro.cpu.fastcore` — recordable
once per program and replayable for every configuration.

:func:`record_trace` runs the program once over flat memory (the same
execution :func:`repro.sim.reference.run_reference` performs) through
the pre-decoded closure table, capturing a compact, delta-encodable
event stream:

* the per-step **code index** (everything static about the instruction
  — opcode class, base cycles, whether it touches memory — is recovered
  from the program at load time);
* the per-memory-op **address** and, for stores, the **value** exactly
  as passed to the memory system.

Per-step cycle counts are *derived*, not stored: taken branches are
exactly the steps whose successor index is not ``index + 1`` (plus
unconditional ``B``, which always pays the refill penalty).  The one
ambiguous encoding — a conditional branch with ``imm == 0``, whose
taken and fall-through successors coincide — is detected statically and
flips the recording into an explicit per-step cycle stream.

:class:`ReplayImage` preprocesses a trace into the flat Python lists
the replay loops index: per-step cycles, per-step memory operations,
per-step PCs, and a per-``step_energy`` cache of precomputed charge
amounts (the products are formed exactly as the simulator forms them,
so replays stay bit-identical).
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cpu.core import ExecutionError
from repro.cpu.fastcore import FastCore
from repro.isa.instructions import TAKEN_BRANCH_PENALTY, base_cycles
from repro.sim.reference import FlatMemory

#: Bumped whenever the trace encoding or its execution semantics
#: change; stale stored traces are ignored, never silently replayed.
TRACE_VERSION = 1

#: Recording bound for registry workloads (natural runs are far
#: shorter; the cap guards against a diverging custom workload).
DEFAULT_RECORD_MAX_STEPS = 20_000_000

#: Memory-operation kinds in :attr:`ReplayImage.memops` tuples.
LOAD_WORD, STORE_WORD, LOAD_BYTE, STORE_BYTE = 0, 1, 2, 3


class TraceUnsupported(Exception):
    """The program cannot be recorded (cap exceeded / malformed)."""


@dataclass
class ExecutionTrace:
    """One recorded natural (failure-free) execution.

    ``indices`` is the per-step code index stream; ``mem_addrs`` holds
    one address per load/store in step order; ``store_values`` one
    value per store in step order.  ``cycles`` is only populated when
    the program contains a cycle-ambiguous branch (see module
    docstring); otherwise per-step cycles are derived.  ``halted`` is
    False for a truncated recording (the stream hit ``max_steps``),
    which a replay can still consume up to the simulator's own
    instruction bound.
    """

    version: int
    steps: int
    halted: bool
    indices: np.ndarray
    mem_addrs: np.ndarray
    store_values: np.ndarray
    cycles: Optional[np.ndarray] = None

    def digest_material(self):
        """The byte stream identifying this trace's content."""
        parts = [
            b"repro-trace-v%d;%d;%d;" % (self.version, self.steps, int(self.halted)),
            np.ascontiguousarray(self.indices).tobytes(),
            np.ascontiguousarray(self.mem_addrs).tobytes(),
            np.ascontiguousarray(self.store_values).tobytes(),
        ]
        if self.cycles is not None:
            parts.append(np.ascontiguousarray(self.cycles).tobytes())
        return b"".join(parts)


class _RecordingMemory(FlatMemory):
    """Flat memory that captures the address/value streams."""

    def __init__(self, size):
        super().__init__(size)
        self.addrs = []
        self.values = []

    def load(self, addr, size):
        self.addrs.append(addr)
        return FlatMemory.load(self, addr, size)

    def store(self, addr, value, size):
        self.addrs.append(addr)
        self.values.append(value)
        return FlatMemory.store(self, addr, value, size)


def _has_ambiguous_branch(program):
    """Whether any conditional branch targets its own fall-through
    (``imm == 0``), making taken-ness underivable from the index
    stream."""
    for instr in program.instructions:
        opn = int(instr.op)
        if 38 <= opn <= 47 and instr.imm == 0:
            return True
    return False


def record_trace(program, max_steps=DEFAULT_RECORD_MAX_STEPS, allow_partial=False):
    """Record ``program``'s natural execution as an :class:`ExecutionTrace`.

    Drives the pre-decoded closure table over flat memory (extra memory
    cycles are zero there, so closure return values are base cycles).
    Raises :class:`TraceUnsupported` when the cap is hit with
    ``allow_partial=False``, and :class:`~repro.cpu.core.ExecutionError`
    if the program escapes its code region.
    """
    memory = _RecordingMemory(program.layout.flash_size)
    memory.load_image(program.layout.data_base, program.data)
    # load_image goes through store(); drop the image-writing capture.
    memory.addrs.clear()
    memory.values.clear()
    core = FastCore(program, memory)
    ops = core._ops
    n_ops = len(ops)
    rf = core.rf
    code_base = core._code_base
    indices = []
    append = indices.append
    explicit = _has_ambiguous_branch(program)
    cycles_list = [] if explicit else None
    steps = 0
    while not core.halted:
        if steps >= max_steps:
            if allow_partial:
                break
            raise TraceUnsupported(
                f"recording exceeded {max_steps} instructions"
            )
        index = (rf.pc - code_base) >> 2
        if not 0 <= index < n_ops:
            raise ExecutionError(f"pc outside code: {rf.pc:#x}")
        append(index)
        if explicit:
            cycles_list.append(ops[index]())
        else:
            ops[index]()
        steps += 1
    return ExecutionTrace(
        version=TRACE_VERSION,
        steps=steps,
        halted=core.halted,
        indices=np.asarray(indices, dtype=np.uint32),
        mem_addrs=np.asarray(memory.addrs, dtype=np.uint32),
        store_values=np.asarray(memory.values, dtype=np.uint32),
        cycles=(
            np.asarray(cycles_list, dtype=np.uint8) if explicit else None
        ),
    )


class ReplayImage:
    """A trace preprocessed into the flat structures replay loops index.

    All per-step data is plain Python lists (the loops run tighter on
    list indexing than on numpy scalars, and every element is consumed
    as a Python object anyway).
    """

    __slots__ = (
        "steps", "halted", "indices", "cycles", "memops", "pcs",
        "cum_cycles", "_fwd_amounts", "_ovh_amounts", "_cyc_array",
        "_mem_positions", "_mem_kinds", "_mem_addrs", "_mem_values",
        "_geom_layouts", "_span_support", "_span_geoms", "_span_tables",
        "_content_digest", "_epoch_scripts", "_boundary_masks",
    )

    def __init__(self, program, trace):
        if trace.version != TRACE_VERSION:
            raise TraceUnsupported(
                f"trace version {trace.version} != {TRACE_VERSION}"
            )
        n = trace.steps
        code = program.instructions
        idx = trace.indices.astype(np.int64)
        if n:
            if int(idx.max()) >= len(code) or int(idx.min()) < 0:
                raise TraceUnsupported("trace index outside program code")
        copn = np.fromiter(
            (int(instr.op) for instr in code), dtype=np.int64, count=len(code)
        )
        cbase = np.fromiter(
            (base_cycles(instr.op) for instr in code),
            dtype=np.int64,
            count=len(code),
        )
        ops_at = copn[idx]
        if trace.cycles is not None:
            cyc = trace.cycles.astype(np.int64)
        else:
            cyc = cbase[idx]
            if n:
                nxt = np.empty(n, dtype=np.int64)
                nxt[:-1] = idx[1:]
                nxt[-1] = idx[-1] + 1  # the final HALT falls through
                penalty = (ops_at == 37) | (
                    (ops_at >= 38) & (ops_at <= 47) & (nxt != idx + 1)
                )
                cyc = cyc + penalty * TAKEN_BRANCH_PENALTY
        is_mem = (ops_at >= 29) & (ops_at <= 36)
        mem_positions = np.nonzero(is_mem)[0]
        if len(mem_positions) != len(trace.mem_addrs):
            raise TraceUnsupported(
                "trace memory-op count disagrees with its index stream"
            )
        mem_ops_at = ops_at[mem_positions]
        kinds = np.where(
            mem_ops_at <= 30,
            LOAD_WORD,
            np.where(
                mem_ops_at <= 32,
                LOAD_BYTE,
                np.where(mem_ops_at <= 34, STORE_WORD, STORE_BYTE),
            ),
        )
        store_mask = (kinds == STORE_WORD) | (kinds == STORE_BYTE)
        if int(store_mask.sum()) != len(trace.store_values):
            raise TraceUnsupported(
                "trace store-value count disagrees with its index stream"
            )
        # One value slot per memory op (zero for loads, which never
        # read it).  Going through uint32 masks store values exactly as
        # the cache commits them.
        values = np.zeros(len(mem_positions), dtype=np.uint32)
        values[store_mask] = trace.store_values
        positions = mem_positions.tolist()
        memops = [None] * n
        for pos, tup in zip(
            positions,
            zip(kinds.tolist(), trace.mem_addrs.tolist(), values.tolist()),
        ):
            memops[pos] = tup
        code_base = program.layout.code_base
        pcs_arr = code_base + 4 * idx
        pcs = pcs_arr.tolist()
        # pcs[n]: the PC after the final step (HALT's fall-through) —
        # what a FINAL-backup checkpoint records.
        pcs.append(int(code_base + 4 * (idx[-1] + 1)) if n else code_base)
        self.steps = n
        self.halted = trace.halted
        self.indices = idx.tolist()
        self._cyc_array = cyc
        self.cycles = cyc.tolist()
        # Exact int64 prefix sum of base cycles: cum_cycles[j] is the
        # active-cycle total after steps [0, j) — quantum windows use
        # it to reconstruct ``active_cycles`` at their boundaries
        # instead of accumulating per step.
        cum = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(cyc, out=cum[1:])
        self.cum_cycles = cum
        self.memops = memops
        self.pcs = pcs
        self._mem_positions = positions
        self._mem_kinds = kinds
        self._mem_addrs = trace.mem_addrs.astype(np.int64)
        self._mem_values = values
        self._geom_layouts = {}
        self._fwd_amounts = {}
        self._ovh_amounts = {}
        self._span_support = None
        self._span_geoms = {}
        self._span_tables = {}
        # Computed here (the trace itself is not retained): names this
        # image's derived artifacts, e.g. on-disk epoch scripts.
        self._content_digest = hashlib.sha256(
            trace.digest_material()
        ).hexdigest()
        self._epoch_scripts = {}
        self._boundary_masks = {}

    def boundary_steps(self, program, opcodes):
        """Per-step ``True`` where the retired opcode is in ``opcodes``.

        Replay consults this mask for policies that declare
        ``boundary_opcodes`` (the task policy's call-site detector)
        instead of running their per-retire core hook: the trace
        already fixes which instruction retires at every step, so the
        hook's opcode test is a table lookup.
        Cached per opcode set.
        """
        key = tuple(sorted(int(op) for op in opcodes))
        cached = self._boundary_masks.get(key)
        if cached is None:
            opset = {int(op) for op in opcodes}
            hits = [
                int(instr.op) in opset for instr in program.instructions
            ]
            cached = [hits[i] for i in self.indices]
            self._boundary_masks[key] = cached
        return cached

    def content_digest(self):
        """SHA-256 of the recorded trace's content (the same digest the
        trace store names blobs by) — the anchor for content-addressed
        derived artifacts such as epoch scripts."""
        return self._content_digest

    def mem_layout(self, block_mask, set_shift, set_mask):
        """Per-step memory ops with cache geometry precomputed.

        For a cached architecture's ``(block_mask, set_shift,
        set_mask)`` geometry, returns a per-step list whose memory
        entries are ``(kind, addr, block_addr, set_index, word_index,
        value)`` — the fields the turbo hit path would otherwise
        recompute per access.  Cached per geometry; every architecture
        of a sweep with the same cache shape shares one layout.
        """
        key = (block_mask, set_shift, set_mask)
        cached = self._geom_layouts.get(key)
        if cached is not None:
            return cached
        addrs = self._mem_addrs
        blocks = addrs & ~int(block_mask)
        set_idx = (blocks >> set_shift) & set_mask
        words = (addrs & block_mask) >> 2
        layout = [None] * self.steps
        for pos, tup in zip(
            self._mem_positions,
            zip(
                self._mem_kinds.tolist(),
                addrs.tolist(),
                blocks.tolist(),
                set_idx.tolist(),
                words.tolist(),
                self._mem_values.tolist(),
            ),
        ):
            layout[pos] = tup
        self._geom_layouts[key] = layout
        return layout

    def span_support(self):
        """Geometry-independent arrays for vectorized span replay.

        Returns ``(mprefix, cycb)``: ``mprefix[k]`` counts memory ops
        before step ``k`` (int64, length ``steps + 1``), and ``cycb``
        is the per-step cycle count with the +1 hit bonus already added
        on memory steps (within a span every memory op is a hit).
        ``mpos`` (element 5) is the step position of each memory op.
        """
        cached = self._span_support
        if cached is None:
            n = self.steps
            is_mem = np.zeros(n, dtype=bool)
            if self._mem_positions:
                is_mem[self._mem_positions] = True
            mprefix = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(is_mem, out=mprefix[1:])
            cycb = self._cyc_array + is_mem
            mpos = np.asarray(self._mem_positions, dtype=np.int64)
            # Python-list mirrors for the scalar window prefix, where
            # per-element numpy indexing from the interpreter would
            # dominate the step cost.
            cached = self._span_support = (
                mprefix, cycb, is_mem, mprefix.tolist(), cycb.tolist(),
                mpos,
            )
        return cached

    def span_geometry(self, block_mask, set_shift, set_mask):
        """Per-memory-op arrays for one cache geometry.

        Returns a dict with ``blk`` (int64 block id per memory op),
        ``nblocks``, ``id_of_block`` (block address -> id),
        ``is_byte`` / ``is_store`` masks, and ``mtups`` — a list of
        ``(kind, block_id, set_index, word_index, value)`` tuples the
        post-commit state pass iterates.
        """
        key = (block_mask, set_shift, set_mask)
        cached = self._span_geoms.get(key)
        if cached is not None:
            return cached
        addrs = self._mem_addrs
        blocks = addrs & ~int(block_mask)
        uniq, blk = np.unique(blocks, return_inverse=True)
        blk = blk.astype(np.int64)
        set_idx = (blocks >> set_shift) & set_mask
        words = (addrs & block_mask) >> 2
        kinds = self._mem_kinds
        mtups = list(
            zip(
                kinds.tolist(),
                blk.tolist(),
                set_idx.tolist(),
                words.tolist(),
                self._mem_values.tolist(),
            )
        )
        # Per-step memory tuple (or None): the scalar window loop pays
        # one list index per step instead of two prefix probes.
        mstep = [None] * self.steps
        for pos, tup in zip(self._mem_positions, mtups):
            mstep[pos] = tup
        is_store = (kinds == STORE_WORD) | (kinds == STORE_BYTE)
        store_prefix = np.zeros(len(kinds) + 1, dtype=np.int64)
        np.cumsum(is_store, out=store_prefix[1:])
        cached = {
            "blk": blk,
            "nblocks": len(uniq),
            "id_of_block": {int(b): i for i, b in enumerate(uniq)},
            "is_byte": kinds > 1,
            "is_store": is_store,
            "store_prefix": store_prefix,
            "sidx": set_idx.astype(np.int64),
            "word": words.astype(np.int64),
            "val": self._mem_values.astype(np.int64),
            "mtups": mtups,
            "mstep": mstep,
        }
        self._span_geoms[key] = cached
        return cached

    def span_tables(self, step_energy, access_amount, hit_amount,
                    overhead_leak=None, hit_ovh=None):
        """Flattened per-charge arrays for vectorized span replay.

        Every simulator charge inside a quantum window is one binary
        float64 subtraction preceded by one ``<`` affordability test,
        so a span's energy series is exactly
        ``np.subtract.accumulate`` over this flat charge sequence.
        Non-memory steps charge ``(amount,)`` (forward loop) or
        ``(amount, ovh_amount)`` (overhead loop); memory hits charge
        ``(access, hit)`` or ``(access, hit, hit_ovh)``.  Returns
        ``(starts, flat, ovh_add)``: ``starts[k]`` is the flat offset
        of step ``k``'s first charge and ``ovh_add`` (overhead loop
        only, else None) is the per-step overhead-ledger increment.
        """
        key = (step_energy, access_amount, hit_amount,
               overhead_leak, hit_ovh)
        cached = self._span_tables.get(key)
        if cached is not None:
            # LRU: refresh on hit, so an alternating access pattern over
            # a handful of cost tables never thrashes the 4-entry cap.
            self._span_tables[key] = self._span_tables.pop(key)
            return cached
        n = self.steps
        is_mem = self.span_support()[2]
        amounts = self._cyc_array.astype(np.float64) * step_energy
        per = np.where(is_mem, 2, 1) if overhead_leak is None else (
            np.where(is_mem, 3, 2)
        )
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per, out=starts[1:])
        flat = np.empty(int(starts[n]), dtype=np.float64)
        nm = starts[:-1][~is_mem]
        mm = starts[:-1][is_mem]
        flat[nm] = amounts[~is_mem]
        flat[mm] = access_amount
        flat[mm + 1] = hit_amount
        ovh_add = None
        if overhead_leak is not None:
            ovh_amounts = self._cyc_array.astype(np.float64) * overhead_leak
            flat[nm + 1] = ovh_amounts[~is_mem]
            flat[mm + 2] = hit_ovh
            ovh_add = np.where(is_mem, hit_ovh, ovh_amounts)
        if len(self._span_tables) >= 4:
            self._span_tables.pop(next(iter(self._span_tables)))
        cached = (starts, flat, ovh_add)
        self._span_tables[key] = cached
        return cached

    def amounts(self, step_energy):
        """Per-step ``cycles * step_energy`` products (non-memory steps;
        memory steps recompute after their extra cycles are known).
        The products are formed as float64 multiplies of exactly the
        operands the simulator multiplies, so they are bit-identical."""
        cached = self._fwd_amounts.get(step_energy)
        if cached is None:
            cached = np.multiply(
                self._cyc_array.astype(np.float64), step_energy
            ).tolist()
            self._fwd_amounts[step_energy] = cached
        return cached

    def overhead_amounts(self, overhead_leak):
        cached = self._ovh_amounts.get(overhead_leak)
        if cached is None:
            cached = np.multiply(
                self._cyc_array.astype(np.float64), overhead_leak
            ).tolist()
            self._ovh_amounts[overhead_leak] = cached
        return cached
