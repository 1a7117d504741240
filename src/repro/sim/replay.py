"""Analytical replay engine: run N configurations from one trace.

A :class:`ReplayPlatform` is a :class:`~repro.sim.platform.Platform`
whose step source is a recorded execution trace
(:mod:`repro.sim.trace`) instead of the instruction interpreter: its
core is a :class:`TraceCursor`, and it runs the simulator's own fast
loop (``Platform._run_fast``).  Charging, guards, policy decisions,
backups, failures and restores are therefore the simulator's code, and
every architectural side effect of a step — cache state transitions,
bloom dominance tracking, NVM traffic, energy draws — comes from
streaming the recorded events through the *same* architecture, policy,
ledger and capacitor objects, in the same order, with the same
floating-point operations.  Results are bit-identical to the fast
engine (the differential suite asserts this for every registered
architecture and policy); only register-file *contents* are not
simulated, because no registered model observes them.

Power failures rewind replay the way they rewind the simulator: the
core builds every checkpoint payload, so each carries the trace cursor
of the step it was taken at (``replay_k``), and a restore resumes the
event stream from that cursor — re-streaming the same events the
re-executed instructions would re-issue.

Replay is used when:

* ``REPRO_REPLAY`` is not ``0`` (the knob disables it process-wide);
* the configuration requests the fast engine (``config.fast`` — with
  ``REPRO_FAST=0`` both layers fall back to the reference
  interpreter, preserving its A/B debugging role).

Quantum windows run through the compiled-epoch executor
(:mod:`repro.sim.epochs`) by default — whole failure-free epochs as
array ops over a precompiled per-(geometry, cost-table) script, bit
identical to the scalar window; per-run coverage is recorded in
:attr:`ReplayPlatform.stats`.  ``REPRO_REPLAY_COMPILED=0`` (or
``ReplayPlatform(..., compiled=False)``) forces the scalar
:class:`_SpanState`; compiled-script construction failures fall back
automatically.

Fault injectors (:mod:`repro.energy.faultinject`) work under replay —
their hooks fire at the same execution boundaries — which the
crash-consistency fuzzer uses to cross-check the replayer.  The
experiment engine, however, only routes pure :class:`HarvestTrace`
sweeps through replay.
"""

import gc
import os

import numpy as np

from repro.cpu.core import Core
from repro.cpu.fastcore import inlines_cache_hits
from repro.cpu.state import Checkpoint
from repro.energy.traces import HarvestTrace
from repro.mem.bloom import WordState
from repro.sim import tracestore
from repro.sim.platform import Platform, PlatformConfig, SimulationError
from repro.sim.trace import ReplayImage, record_trace

_UNKNOWN = WordState.UNKNOWN
_READ = WordState.READ
_WRITE = WordState.WRITE

#: Per-process caches: benchmark name -> (program, trace) / (program,
#: image).  Traces are seed-independent, so one entry serves every
#: seed; the program identity check invalidates on re-registration.
_trace_cache = {}
_image_cache = {}
_stored_seeds = set()


def replay_enabled():
    """Whether replay integration is on (``REPRO_REPLAY=0`` disables)."""
    return os.environ.get("REPRO_REPLAY", "1") not in ("0", "")


def replay_supported(config):
    """Whether this configuration may be served by replay.

    Replay relies on re-execution equivalence: after a power failure
    the architecture restores a state from which the program re-traces
    its natural instruction stream.  Every crash-consistent
    architecture guarantees exactly that; the Ideal architecture is
    *intentionally* not crash-consistent (it exists to count the
    violations the others prevent — the same reason ``run_workload``
    exempts it from output verification), so its re-executed sections
    observe corrupted memory and genuinely diverge from the trace.
    Ideal runs therefore always use the full simulator.

    ``fast=False`` (directly or via ``REPRO_FAST=0``) also opts the
    run out of every accelerated path, replay included.
    """
    return bool(config.fast) and config.arch != "ideal"


def clear_replay_caches():
    """Drop the in-process trace/image caches (benchmark helpers)."""
    _trace_cache.clear()
    _image_cache.clear()
    _stored_seeds.clear()


def retain_benchmark(benchmark):
    """Drop every other benchmark's cached trace and image — and with
    the image its derived layouts and epoch scripts.  Long-lived pool
    workers call this per job, so their memory holds one benchmark's
    replay state, not one per benchmark they ever ran."""
    dropped = False
    for cache in (_trace_cache, _image_cache):
        for name in [name for name in cache if name != benchmark]:
            del cache[name]
            dropped = True
    if dropped:
        # A finished platform is a reference cycle (core <-> arch) that
        # keeps its image alive until a full collection, which a busy
        # worker rarely reaches on its own.
        gc.collect()


def ensure_trace(benchmark, trace_seed=0):
    """Fetch-or-record the natural execution trace of ``benchmark``.

    The trace content does not depend on the harvest seed, so the
    in-process cache is per benchmark; the on-disk store is still keyed
    per (program hash, seed, version) — entries for other seeds of the
    same program are one small key file pointing at the shared blob.
    """
    from repro.workloads import load_program

    program = load_program(benchmark)
    # Store-publication memo keyed by the *resolved* store directory:
    # harnesses repoint REPRO_CACHE_DIR mid-process, and the new store
    # must still be seeded for sibling workers.
    stored_key = (str(tracestore.store_dir()), benchmark, trace_seed)
    cached = _trace_cache.get(benchmark)
    if cached is not None and cached[0] is program:
        trace = cached[1]
    else:
        program_hash = tracestore.program_hash(benchmark)
        trace = tracestore.fetch(program_hash, trace_seed)
        if trace is None:
            trace = record_trace(program)
            tracestore.store(program_hash, trace_seed, trace)
            _stored_seeds.add(stored_key)
        _trace_cache[benchmark] = (program, trace)
    if stored_key not in _stored_seeds:
        # Publish this seed's key entry (blob already deduplicated) so
        # sibling worker processes fetch instead of re-recording.
        if not tracestore.contains(tracestore.program_hash(benchmark), trace_seed):
            tracestore.store(tracestore.program_hash(benchmark), trace_seed, trace)
        _stored_seeds.add(stored_key)
    return trace


def get_image(benchmark, trace_seed=0):
    """The preprocessed :class:`ReplayImage` for ``benchmark``."""
    from repro.workloads import load_program

    program = load_program(benchmark)
    cached = _image_cache.get(benchmark)
    if cached is not None and cached[0] is program:
        return cached[1]
    image = ReplayImage(program, ensure_trace(benchmark, trace_seed))
    _image_cache[benchmark] = (program, image)
    return image


def replay_workload(
    name,
    arch="nvmr",
    policy="jit",
    trace_seed=0,
    trace=None,
    config=None,
    verify=True,
    **config_overrides,
):
    """Replay benchmark ``name``; drop-in for
    :func:`repro.workloads.run_workload` with identical results."""
    from repro.workloads import load_program, verify_platform

    program = load_program(name)
    image = get_image(name, trace_seed)
    if config is None:
        config = PlatformConfig(arch=arch, policy=policy, **config_overrides)
    if trace is None:
        trace = HarvestTrace(trace_seed)
    platform = ReplayPlatform(
        program, image, config, trace=trace, benchmark_name=name
    )
    result = platform.run()
    if verify and config.arch != "ideal":
        verify_platform(name, platform)
    return result


class _SpanState:
    """Scalar quantum-window executor for turbo replays.

    Inside a quantum window every simulator charge is one binary
    float64 subtraction preceded by one ``<`` affordability test, and
    every guard update is one binary add/compare — the loops below
    perform exactly those operations in the simulator's order, so the
    results are bit-identical to the fast engine by construction.

    Hits need no per-step cache probe: between misses no line is ever
    evicted, so an access hits iff its block is mapped in ``line_of``
    at span start.  The block->line map is rebuilt lazily (``stale``)
    or patched per set (:meth:`rescan_set`) whenever the general body
    serviced a miss.  The recorded benchmarks issue a memory op every
    ~2.4 steps and windows typically end within a few dozen steps (at
    a miss or a guard revoke), which is far below the break-even of
    any vectorised formulation — batching the energy arithmetic with
    ``np.subtract.accumulate`` was measured strictly slower than this
    scalar loop at every chunk size, so the window stays scalar.
    """

    __slots__ = (
        "sets", "mstep", "id_of_block", "cycb_py", "amt_py", "ovh_py",
        "access_amount", "hit_amount", "hit_ovh",
        "line_of", "hz_bm", "set_bids",
        "jstatic", "order_tag", "dirty_reorder", "stale",
    )

    def __init__(self, image, arch, jstatic, dirty_reorder,
                 step_energy, access_amount, hit_amount,
                 overhead_leak=None, hit_ovh=None):
        sets, shift, smask = arch._set_geom
        geom = image.span_geometry(arch._block_mask, shift, smask)
        self.sets = sets
        self.mstep = geom["mstep"]
        self.id_of_block = geom["id_of_block"]
        self.cycb_py = image.span_support()[4]
        self.amt_py = image.amounts(step_energy)
        self.ovh_py = (
            image.overhead_amounts(overhead_leak)
            if overhead_leak is not None else None
        )
        self.access_amount = access_amount
        self.hit_amount = hit_amount
        self.hit_ovh = hit_ovh
        self.line_of = {}
        self.hz_bm = np.zeros(geom["nblocks"], dtype=bool)
        self.set_bids = [[] for _ in self.sets]
        self.jstatic = jstatic
        self.order_tag = (
            getattr(arch, "estimate_order_tag", None)
            if jstatic and dirty_reorder else None
        )
        self.dirty_reorder = dirty_reorder
        self.stale = True

    def _rebuild(self):
        id_of = self.id_of_block
        line_of = self.line_of
        line_of.clear()
        hz = []
        sensitive = self.jstatic and self.dirty_reorder
        tag = self.order_tag
        set_bids = self.set_bids
        for sidx, lines in enumerate(self.sets):
            set_dirty = None
            cur = []
            for line in lines:
                if not line.valid:
                    continue
                bid = id_of[line.block_addr]
                line_of[bid] = line
                cur.append(bid)
                if sensitive and line.dirty:
                    if set_dirty is None:
                        set_dirty = [(bid, line)]
                    else:
                        set_dirty.append((bid, line))
            if sensitive and set_dirty is not None and len(set_dirty) > 1:
                # Promoting a dirty line past other dirty lines of its
                # set reorders the per-line terms of a
                # reorder-sensitive backup estimate.  If every dirty
                # line of the set contributes an identical term
                # sequence (equal order tags), any permutation sums
                # bit-identically and promotions are safe; otherwise
                # every access to one of these blocks conservatively
                # ends the span with a revoke (extra decides are
                # side-effect free for guard_event_revoke policies).
                if tag is None:
                    hz.extend(bid for bid, _ in set_dirty)
                else:
                    t0 = tag(set_dirty[0][1])
                    if any(tag(ln) != t0 for _, ln in set_dirty[1:]):
                        hz.extend(bid for bid, _ in set_dirty)
            set_bids[sidx] = cur
        self.hz_bm[:] = False
        if hz:
            self.hz_bm[hz] = True
        self.stale = False

    def note_memop(self, k):
        """General body is about to replay the memory op at step ``k``.

        A hit only promotes the line within its set — and, on a store,
        possibly dirties it — so the block->line map survives most
        general-body ops.  A miss (eviction + install) returns the set
        index so the caller can :meth:`rescan_set` once the op has
        executed; reorder-sensitive estimates fall back to a full
        rebuild (their hazard view is global, and a store to a clean
        line changes it too).  Called *before* the op executes:
        ``line_of`` still reflects the pre-op mapping.  Returns -1
        when no post-op rescan is needed.
        """
        if self.stale:
            return -1
        kind, bid, sidx, _w, _val = self.mstep[k]
        line = self.line_of.get(bid)
        if line is None:
            if self.jstatic and self.dirty_reorder:
                self.stale = True
                return -1
            return sidx
        if (
            kind & 1 and not line.dirty
            and self.jstatic and self.dirty_reorder
        ):
            self.stale = True
        return -1

    def rescan_set(self, sidx, cleaned):
        """Refresh the block->line map for one set after a miss.

        A miss only rewrites its own set (victim out, fill in) — unless
        it escalated into a backup (``cleaned``: a violation or
        structural backup ran inside the miss), which additionally
        cleaned every dirty line globally.
        """
        if self.stale:
            return
        if cleaned:
            self.hz_bm[:] = False
        line_of = self.line_of
        for bid in self.set_bids[sidx]:
            del line_of[bid]
        id_of = self.id_of_block
        cur = []
        for line in self.sets[sidx]:
            if not line.valid:
                continue
            bid = id_of[line.block_addr]
            line_of[bid] = line
            cur.append(bid)
        self.set_bids[sidx] = cur

    def note_backup(self):
        """A policy-action backup cleaned every dirty line in place.

        Backups never evict (each architecture persists dirty lines
        and clears their dirty flags; residency and the block->line
        mapping are untouched), so only the hazard view resets.
        """
        if not self.stale:
            self.hz_bm[:] = False

    def window(self, k, stop, gmode, energy, fwd_pending, ovh_pending,
               floor, growth, skipped, budget):
        """Run one quantum window; returns the exit state.

        ``(k, energy, fwd_pending, ovh_pending, floor, skipped,
        wextra, wloads, wstores, revoke)`` — the breaking step is never
        committed, and within a step the simulator's check order
        decides which break wins (kind > 1, per-charge affordability,
        miss, guard, clean store, reorder hazard).

        One loop per guard regime — cycle budget (watchdog /
        spendthrift), static floor (event-revoked guard), growing
        floor — so the per-step path carries no dead regime checks.
        """
        if self.stale:
            self._rebuild()
        ovh_amt = self.ovh_py
        ovh = ovh_amt is not None
        wextra = wloads = wstores = 0
        rank = 9
        mstep = self.mstep
        amt = self.amt_py
        line_of = self.line_of
        sets = self.sets
        access_amount = self.access_amount
        hit_amount = self.hit_amount
        hit_ovh = self.hit_ovh
        if gmode == 2:
            cycb = self.cycb_py
            while k < stop:
                tup = mstep[k]
                if tup is not None:
                    kind, bid, sidx, w, val = tup
                    if kind > 1:
                        rank = 0
                        break
                    if energy < access_amount:
                        rank = 1
                        break
                    line = line_of.get(bid)
                    if line is None:
                        rank = 2
                        break
                    e1 = energy - access_amount
                    if e1 < hit_amount:
                        rank = 3
                        break
                    e1 = e1 - hit_amount
                    if ovh:
                        if e1 < hit_ovh:
                            rank = 4
                            break
                        e1 = e1 - hit_ovh
                    c2 = skipped + cycb[k]
                    if c2 >= budget:
                        rank = 5
                        break
                    energy = e1
                    skipped = c2
                    fwd_pending = fwd_pending + access_amount
                    fwd_pending = fwd_pending + hit_amount
                    if ovh:
                        ovh_pending = ovh_pending + hit_ovh
                    states = line.meta.states
                    if kind:
                        if states[w] == _UNKNOWN:
                            states[w] = _WRITE
                        line.words[w] = val
                        line.dirty = True
                        wstores += 1
                    else:
                        if states[w] == _UNKNOWN:
                            states[w] = _READ
                        wloads += 1
                    wextra += 1
                    lines = sets[sidx]
                    if lines[0] is not line:
                        lines.remove(line)
                        lines.insert(0, line)
                else:
                    a = amt[k]
                    if energy < a:
                        rank = 1
                        break
                    e1 = energy - a
                    if ovh:
                        oa = ovh_amt[k]
                        if e1 < oa:
                            rank = 3
                            break
                        e1 = e1 - oa
                    c2 = skipped + cycb[k]
                    if c2 >= budget:
                        rank = 5
                        break
                    energy = e1
                    skipped = c2
                    fwd_pending = fwd_pending + a
                    if ovh:
                        ovh_pending = ovh_pending + oa
                k += 1
        elif self.jstatic:
            check_hz = self.dirty_reorder
            hz_bm = self.hz_bm
            while k < stop:
                tup = mstep[k]
                if tup is not None:
                    kind, bid, sidx, w, val = tup
                    if kind > 1:
                        rank = 0
                        break
                    if energy < access_amount:
                        rank = 1
                        break
                    line = line_of.get(bid)
                    if line is None:
                        rank = 2
                        break
                    e1 = energy - access_amount
                    if e1 < hit_amount:
                        rank = 3
                        break
                    e1 = e1 - hit_amount
                    if ovh:
                        if e1 < hit_ovh:
                            rank = 4
                            break
                        e1 = e1 - hit_ovh
                    if e1 <= floor:
                        rank = 5
                        break
                    if kind and not line.dirty:
                        rank = 6
                        break
                    if check_hz and line.dirty and hz_bm[bid]:
                        rank = 7
                        break
                    energy = e1
                    fwd_pending = fwd_pending + access_amount
                    fwd_pending = fwd_pending + hit_amount
                    if ovh:
                        ovh_pending = ovh_pending + hit_ovh
                    states = line.meta.states
                    if kind:
                        if states[w] == _UNKNOWN:
                            states[w] = _WRITE
                        line.words[w] = val
                        line.dirty = True
                        wstores += 1
                    else:
                        if states[w] == _UNKNOWN:
                            states[w] = _READ
                        wloads += 1
                    wextra += 1
                    lines = sets[sidx]
                    if lines[0] is not line:
                        lines.remove(line)
                        lines.insert(0, line)
                else:
                    a = amt[k]
                    if energy < a:
                        rank = 1
                        break
                    e1 = energy - a
                    if ovh:
                        oa = ovh_amt[k]
                        if e1 < oa:
                            rank = 3
                            break
                        e1 = e1 - oa
                    if e1 <= floor:
                        rank = 5
                        break
                    energy = e1
                    fwd_pending = fwd_pending + a
                    if ovh:
                        ovh_pending = ovh_pending + oa
                k += 1
        else:
            while k < stop:
                tup = mstep[k]
                if tup is not None:
                    kind, bid, sidx, w, val = tup
                    if kind > 1:
                        rank = 0
                        break
                    if energy < access_amount:
                        rank = 1
                        break
                    line = line_of.get(bid)
                    if line is None:
                        rank = 2
                        break
                    e1 = energy - access_amount
                    if e1 < hit_amount:
                        rank = 3
                        break
                    e1 = e1 - hit_amount
                    if ovh:
                        if e1 < hit_ovh:
                            rank = 4
                            break
                        e1 = e1 - hit_ovh
                    f2 = floor + growth
                    if e1 <= f2:
                        rank = 5
                        break
                    energy = e1
                    floor = f2
                    fwd_pending = fwd_pending + access_amount
                    fwd_pending = fwd_pending + hit_amount
                    if ovh:
                        ovh_pending = ovh_pending + hit_ovh
                    states = line.meta.states
                    if kind:
                        if states[w] == _UNKNOWN:
                            states[w] = _WRITE
                        line.words[w] = val
                        line.dirty = True
                        wstores += 1
                    else:
                        if states[w] == _UNKNOWN:
                            states[w] = _READ
                        wloads += 1
                    wextra += 1
                    lines = sets[sidx]
                    if lines[0] is not line:
                        lines.remove(line)
                        lines.insert(0, line)
                else:
                    a = amt[k]
                    if energy < a:
                        rank = 1
                        break
                    e1 = energy - a
                    if ovh:
                        oa = ovh_amt[k]
                        if e1 < oa:
                            rank = 3
                            break
                        e1 = e1 - oa
                    f2 = floor + growth
                    if e1 <= f2:
                        rank = 5
                        break
                    energy = e1
                    floor = f2
                    fwd_pending = fwd_pending + a
                    if ovh:
                        ovh_pending = ovh_pending + oa
                k += 1
        revoke = self.jstatic and rank in (0, 2, 5, 6, 7)
        return (k, energy, fwd_pending, ovh_pending, floor, skipped,
                wextra, wloads, wstores, revoke)


class ReplayStats:
    """Per-run replay instrumentation.

    Counts every quantum window the run executes and how many of them
    (and of their steps) the compiled executor served, and a histogram
    of why windows fell back to the scalar path.  Cheap enough to stay on unconditionally
    (two integer adds per window); perfbench sums these fields into its
    ``sim.replay.*`` counters.
    """

    __slots__ = ("windows", "window_steps", "compiled_windows",
                 "compiled_steps", "fallbacks")

    def __init__(self):
        self.windows = 0
        self.window_steps = 0
        self.compiled_windows = 0
        self.compiled_steps = 0
        self.fallbacks = {}

    def note_fallback(self, reason):
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    @property
    def compiled_hit_rate(self):
        """Fraction of windows the compiled executor carried past its
        scalar prefix."""
        return self.compiled_windows / self.windows if self.windows else 0.0

    @property
    def mean_window_steps(self):
        return self.window_steps / self.windows if self.windows else 0.0

    @property
    def mean_compiled_steps(self):
        """Mean steps committed per compiled window (span length)."""
        return (self.compiled_steps / self.compiled_windows
                if self.compiled_windows else 0.0)

    def to_dict(self):
        return {
            "windows": self.windows,
            "window_steps": self.window_steps,
            "compiled_windows": self.compiled_windows,
            "compiled_steps": self.compiled_steps,
            "compiled_hit_rate": self.compiled_hit_rate,
            "mean_window_steps": self.mean_window_steps,
            "mean_compiled_steps": self.mean_compiled_steps,
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }


class TraceCursor(Core):
    """A step source that streams a recorded trace instead of executing.

    The fast run loop (:meth:`Platform._run_fast
    <repro.sim.platform.Platform._run_fast>`) drives it exactly as it
    drives :class:`~repro.cpu.fastcore.FastCore`: :meth:`step` retires
    the instruction at the cursor — replaying its recorded memory
    operation through the real architecture, with the same inline
    cache-hit path ``FastCore`` uses — and returns its cycles.

    The cursor plays the program counter's role.  During a step it
    names the step in flight, afterwards the next one, so the
    checkpoint a backup takes (:meth:`checkpoint`) records the trace
    position execution resumes from (``replay_k``) and :meth:`resume`
    rewinds the cursor there — re-streaming the same events the
    re-executed instructions would re-issue.

    It also owns what only a trace can offer: the task policy's
    call-boundary mask (:meth:`begin_run`) and the quantum window
    (:meth:`window`).
    """

    __slots__ = (
        "k", "_image", "_win_limit", "_stream", "_words", "_stats",
        "_span", "_note_boundary", "_masked_hook", "_ovh", "_amounts",
        "_ovh_amounts",
    )

    def __init__(self, program, memory, image):
        super().__init__(program, memory)
        #: Trace position of the step in flight / the next step.
        self.k = 0
        self._image = image
        n = image.steps
        # Quantum windows never consume the final (HALT) step: step()
        # must set ``halted``.
        self._win_limit = n - 1 if image.halted else n
        if inlines_cache_hits(memory):
            ledger = memory.ledger
            sets, shift, smask = memory._set_geom
            memops = image.mem_layout(memory._block_mask, shift, smask)
            #: What the inline word-access path touches, or None when
            #: every access calls the architecture.
            self._words = (
                memory.stats, ledger, ledger.capacitor,
                memory._access_energy, memory.cache, sets,
            )
        else:
            memops = image.memops
            self._words = None
        self._span = None
        #: What every step reads: (memory ops, cycles, halt position,
        #: boundary mask, span) — one attribute load per step.
        self._stream = (
            memops, image.cycles, n if image.halted else -1, None, None,
        )
        self._masked_hook = None

    # ------------------------------------------------------ checkpoints
    def checkpoint(self):
        k = self.k
        span = self._span
        if span is not None:
            # Backups clean dirty lines in place and never evict.
            span.note_backup()
        rf = self.rf
        return {
            "checkpoint": Checkpoint(
                tuple(rf.regs), self._image.pcs[k], rf.flags.copy()
            ),
            "halted": self.halted,
            "replay_k": k,
        }

    def resume(self, payload):
        super().resume(payload)
        self.k = payload["replay_k"]
        if self._span is not None:
            # The cache was wiped: rebuild the block->line map lazily.
            self._span.stale = True

    # ------------------------------------------------------- run hooks
    def begin_run(self, platform):
        """Install the task mask and build the quantum window.

        A policy whose retire hook only inspects opcodes
        (``boundary_opcodes``) has them at fixed trace positions: a
        precomputed per-step mask replaces the hook for the run, and
        :meth:`step` calls the policy's ``note_boundary`` at exactly
        the retire points the hook would have seen — so the run keeps
        the policy's guards a hooked run gives up.
        """
        policy = platform.policy
        image = self._image
        boundary = None
        hook = self.on_retire
        opcodes = getattr(policy, "boundary_opcodes", None)
        if opcodes and getattr(hook, "__self__", None) is policy:
            boundary = image.boundary_steps(self.program, opcodes)
            self._note_boundary = policy.note_boundary
            self._masked_hook = hook
            self.on_retire = None
        self._stats = platform.stats
        span = None
        window = None
        # Windows only ever run under a policy guard; fault injectors
        # observe every step, so they get none.
        if platform._injector is None and platform._consults_decide():
            window = self.window
            step_energy = platform._cpu_cycle_energy + platform._leak
            overhead_leak = platform._overhead_leak
            ovh = self._ovh = bool(overhead_leak)
            if self._words is not None:
                span = platform._make_span(
                    policy.guard_event_revoke,
                    getattr(self.memory, "estimate_reorder_sensitive", True),
                    step_energy, self._words[3], 3 * step_energy,
                    overhead_leak if ovh else None,
                    3 * overhead_leak if ovh else None,
                )
            else:
                self._amounts = image.amounts(step_energy)
                self._ovh_amounts = (
                    image.overhead_amounts(overhead_leak) if ovh else None
                )
        self._span = span
        memops, cycles, halt_at = self._stream[:3]
        self._stream = (memops, cycles, halt_at, boundary, span)
        return window

    def end_run(self):
        if self._masked_hook is not None:
            self.on_retire = self._masked_hook
            self._masked_hook = None
            self._stream = self._stream[:3] + (None, self._span)

    # -------------------------------------------------------- execution
    def step(self):
        """Replay the step at the cursor; returns its cycles."""
        k = self.k
        memops, cycles_at, halt_at, boundary, span = self._stream
        try:
            op = memops[k]
        except IndexError:
            raise SimulationError(
                "execution trace exhausted before the instruction bound"
            ) from None
        if op is None:
            cycles = cycles_at[k]
        else:
            msid = -1 if span is None else span.note_memop(k)
            if msid >= 0:
                backups = self.memory.stats.backups
            kind = op[0]
            words = self._words
            if kind < 2 and words is not None:
                # Word access: FastCore's inlined hit path, on the
                # recorded address with its precomputed geometry
                # (kind, addr, block, set, word, value).
                astats, ledger, capacitor, amount, cache, sets = words
                if kind:
                    astats.stores += 1
                else:
                    astats.loads += 1
                energy = capacitor.energy
                if ledger._fwd_touched and energy >= amount:
                    capacitor.energy = energy - amount
                    ledger._fwd_pending += amount
                else:
                    ledger.charge_forward(amount)
                block_addr = op[2]
                lines = sets[op[3]]
                i = 0
                for line in lines:
                    if line.valid and line.block_addr == block_addr:
                        if i:
                            lines.insert(0, lines.pop(i))
                        cache.hits += 1
                        word = op[4]
                        states = line.meta.states
                        if kind:
                            if states[word] == _UNKNOWN:
                                states[word] = _WRITE
                            line.words[word] = op[5]
                            line.dirty = True
                        elif states[word] == _UNKNOWN:
                            states[word] = _READ
                        extra = 1
                        break
                    i += 1
                else:
                    cache.misses += 1
                    if kind:
                        extra = self.memory._store_miss(
                            block_addr, op[1], op[5], 4
                        )
                    else:
                        extra = self.memory._load_miss(block_addr, op[1], 4)[1]
            elif kind == 0:
                extra = self.memory.load(op[1], 4)[1]
            elif kind == 1:
                extra = self.memory.store(op[1], op[-1], 4)
            elif kind == 2:
                extra = self.memory.load(op[1], 1)[1]
            else:
                extra = self.memory.store(op[1], op[-1], 1)
            cycles = cycles_at[k] + extra
            if msid >= 0:
                span.rescan_set(msid, self.memory.stats.backups != backups)
        self.k = k + 1
        if k + 1 == halt_at:
            self.halted = True
        self.instructions_retired += 1
        if self.on_retire is not None:
            image = self._image
            self.on_retire(
                image.pcs[k], self._code[image.indices[k]], cycles
            )
        elif boundary is not None and boundary[k]:
            self._note_boundary()
        return cycles

    def window(self, gmode, floor, growth, skipped, budget, cap):
        """Retire guarded steps from the cursor in one batch.

        Called by the run loop while a policy guard is active (``gmode``
        1: energy floor growing by ``growth`` per step, 2: cycle
        budget), for at most ``cap`` steps.  Inside a window the only
        per-step effects are the charge stream and the guard test, so
        plain steps run through a tight loop — the span executor
        (:class:`_SpanState` or the compiled one) when the
        architecture has the inline hit path, else a memop-free loop.
        A step that would miss the cache, take a slow charge path,
        revoke the guard or halt is *peeked* and never committed — the
        loop executes it through :meth:`step` bit-identically.  Hit
        counters are accumulated locally and synced at exit.

        Returns ``(steps, cycles, floor, skipped, revoke)``; ``revoke``
        drops the guard so the next step consults the policy.
        """
        memory = self.memory
        ledger = memory.ledger
        ovh = self._ovh
        if not ledger._fwd_touched or (ovh and not ledger._ovh_touched):
            return 0, 0, floor, skipped, False
        capacitor = ledger.capacitor
        k = kw = self.k
        stop = self._win_limit
        if stop - k > cap:
            stop = k + cap
        span = self._span
        if span is not None:
            (k, energy, fwd_pending, ovh_pending, floor, skipped,
             wextra, wloads, wstores, revoke) = span.window(
                k, stop, gmode, capacitor.energy, ledger._fwd_pending,
                ledger._ovh_pending if ovh else 0.0,
                floor, growth, skipped, budget,
            )
        else:
            # No inline hit path: windows stop at every memory op and
            # never hold an event-revoked (static) floor.
            wextra = 0
            revoke = False
            memops, cyc = self._stream[:2]
            amounts = self._amounts
            ovh_amounts = self._ovh_amounts
            energy = capacitor.energy
            fwd_pending = ledger._fwd_pending
            ovh_pending = ledger._ovh_pending if ovh else 0.0
            while k < stop:
                if memops[k] is not None:
                    break
                amount = amounts[k]
                if energy < amount:
                    break
                e1 = energy - amount
                if ovh:
                    ovh_amount = ovh_amounts[k]
                    if e1 < ovh_amount:
                        break
                    e1 = e1 - ovh_amount
                if gmode == 2:
                    s2 = skipped + cyc[k]
                    if s2 >= budget:
                        break
                    skipped = s2
                else:
                    f2 = floor + growth
                    if e1 <= f2:
                        break
                    floor = f2
                energy = e1
                fwd_pending += amount
                if ovh:
                    ovh_pending += ovh_amount
                k += 1
        stats = self._stats
        stats.windows += 1
        stats.window_steps += k - kw
        if k == kw:
            return 0, 0, floor, skipped, revoke
        capacitor.energy = energy
        ledger._fwd_pending = fwd_pending
        if ovh:
            ledger._ovh_pending = ovh_pending
        self.k = k
        self.instructions_retired += k - kw
        if wextra:
            memory.cache.hits += wextra
            memory.stats.loads += wloads
            memory.stats.stores += wstores
        ccyc = self._image.cum_cycles
        return k - kw, int(ccyc[k] - ccyc[kw]) + wextra, floor, skipped, revoke


class ReplayPlatform(Platform):
    """A platform whose step source is a recorded trace.

    It runs the simulator's own fast loop (:meth:`Platform._run_fast
    <repro.sim.platform.Platform._run_fast>`) with a
    :class:`TraceCursor` as its core, so everything but instruction
    dispatch — charging, guards, policy decisions, backups, failures
    and restores — is the simulator's code, not a copy of it.
    """

    __slots__ = ("_image", "_compiled", "stats")

    def __init__(self, program, image, config=None, trace=None,
                 benchmark_name="", compiled=None):
        self._image = image
        #: Compiled-epoch windows: True/False force, None = the
        #: ``REPRO_REPLAY_COMPILED`` knob (resolved per run).
        self._compiled = compiled
        #: Per-run :class:`ReplayStats` (reset at each ``run``).
        self.stats = ReplayStats()
        super().__init__(
            program, config, trace=trace, benchmark_name=benchmark_name
        )

    def _make_core(self, program):
        return TraceCursor(program, self.arch, self._image)

    # ------------------------------------------------------------ run
    def run(self):
        """Replay the trace to completion; returns a RunResult."""
        self.stats = ReplayStats()
        return self._execute(self._run_fast)

    def _make_span(self, jstatic, dirty_reorder, step_energy,
                   access_amount, hit_amount,
                   overhead_leak=None, hit_ovh=None):
        """The quantum-window executor for this run.

        Compiled-epoch (:mod:`repro.sim.epochs`) when enabled — by the
        ``compiled=`` override or the ``REPRO_REPLAY_COMPILED`` knob —
        with automatic fallback to the scalar :class:`_SpanState` when
        construction fails; scalar otherwise.  Both are bit-identical;
        only the batching differs.  ``jstatic`` selects the
        event-revoked guard (see ``BackupPolicy.guard_event_revoke``):
        the policy's threshold only moves on dirty-set events, so the
        window holds the floor static and revokes — forcing a fresh
        decide — on the events themselves instead of on every
        conservative floor-growth crossing.  Reorder-sensitive
        estimates (``dirty_reorder``, see
        ``estimate_reorder_sensitive``) additionally revoke when an LRU
        promotion reorders dirty lines.
        """
        from repro.sim import epochs

        stats = self.stats
        use_compiled = self._compiled
        if use_compiled is None:
            use_compiled = epochs.compiled_enabled()
        if not use_compiled:
            stats.note_fallback("compiled_disabled")
        else:
            # A policy whose guard budgets are structurally capped below
            # the vectorization breakeven (Spendthrift's check_interval)
            # can never profit from a compiled span — every window would
            # fall back scalar and pay the delegation for nothing.
            hint = getattr(self.policy, "quantum_budget_hint", None)
            if hint is not None and hint < epochs._GM2_MIN_SPAN:
                stats.note_fallback("policy_hint")
                use_compiled = False
        if use_compiled:
            span = epochs.make_span(
                self._image, self.arch, jstatic, dirty_reorder,
                step_energy, access_amount, hit_amount,
                overhead_leak, hit_ovh, stats=stats,
            )
            if span is not None:
                return span
            stats.note_fallback("construction")
        return _SpanState(
            self._image, self.arch, jstatic, dirty_reorder,
            step_energy, access_amount, hit_amount,
            overhead_leak, hit_ovh,
        )
