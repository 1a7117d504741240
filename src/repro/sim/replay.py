"""Analytical replay engine: run N configurations from one trace.

A :class:`ReplayPlatform` is a :class:`~repro.sim.platform.Platform`
whose run loop is driven by a recorded execution trace
(:mod:`repro.sim.trace`) instead of the instruction interpreter.  Every
architectural side effect of a step — cache state transitions, bloom
dominance tracking, NVM traffic, energy draws, policy decisions, backup
and restore events — is produced by streaming the recorded events
through the *same* architecture, policy, ledger and capacitor objects
the simulator uses, in the same order, with the same floating-point
operations.  Results are bit-identical to the fast engine (the
differential suite asserts this for every registered architecture and
policy); only register-file *contents* are not simulated, because no
registered model observes them.

Power failures rewind replay the way they rewind the simulator: each
checkpoint payload carries the trace cursor of the step it was taken
at (``replay_k``), and a restore resumes the event stream from that
cursor — re-streaming the same events the re-executed instructions
would re-issue.

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

import os
from dataclasses import replace

import numpy as np

from repro.arch.base import BackupReason, CachedArchitecture
from repro.energy.accounting import PowerFailure
from repro.energy.traces import HarvestTrace
from repro.mem.bloom import WordState
from repro.mem.cache import _NATIVE_WORDS
from repro.policies.base import BackupPolicy, PolicyAction
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
    (two integer adds per window); surfaced by ``bench_replay.py
    --profile`` and recorded in ``BENCH_replay.json``.
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


class ReplayPlatform(Platform):
    """A platform whose run loop streams a recorded trace.

    The loops below mirror the simulator's loops statement for
    statement (``_replay_stream`` ↔ ``_run_fast_forward`` /
    ``_run_fast_overhead``, ``_replay_hooked`` ↔ ``_run_reference``);
    instruction dispatch is replaced by indexing the trace, and memory
    operations replay the recorded address/value through the real
    architecture.  Keep them in sync with :mod:`repro.sim.platform` —
    the differential suite compares both.
    """

    __slots__ = ("_image", "_mark", "_k", "_compiled", "stats")

    def __init__(self, program, image, config=None, trace=None,
                 benchmark_name="", compiled=None):
        config = config or PlatformConfig()
        # A plain Core: replay never dispatches instructions, so paying
        # FastCore's closure translation per replay would be waste.
        super().__init__(
            program,
            replace(config, fast=False),
            trace=trace,
            benchmark_name=benchmark_name,
        )
        self._image = image
        #: Compiled-epoch windows: True/False force, None = the
        #: ``REPRO_REPLAY_COMPILED`` knob (resolved per run).
        self._compiled = compiled
        #: Per-run :class:`ReplayStats` (reset at each ``run``).
        self.stats = ReplayStats()
        #: Trace cursor a backup taken *now* would checkpoint.
        self._mark = 0
        #: Trace cursor execution resumes from (set by restores).
        self._k = 0
        arch = self.arch
        pcs = image.pcs
        original_payload = arch.snapshot_payload

        def replay_payload():
            payload = dict(original_payload())
            checkpoint = payload["checkpoint"]
            payload["checkpoint"] = replace(checkpoint, pc=pcs[self._mark])
            payload["replay_k"] = self._mark
            return payload

        arch.snapshot_payload = replay_payload
        original_restore = arch.restore

        def replay_restore():
            original_restore()
            payload = self.nvm.committed_checkpoint()
            self._k = payload.get("replay_k", 0)

        arch.restore = replay_restore

    # ------------------------------------------------------------ run
    def run(self):
        """Replay the trace to completion; returns a RunResult."""
        arch = self.arch
        self.policy.reset(self)
        self.stats = ReplayStats()
        self._mark = 0
        self._k = 0
        self.nvm.commit_checkpoint(arch.snapshot_payload())
        self._start_period()
        try:
            arch.backup(BackupReason.INITIAL)
        except PowerFailure:
            self._power_failure()
        hook = self.core.on_retire
        if hook is not None:
            opcodes = getattr(self.policy, "boundary_opcodes", None)
            if opcodes and getattr(hook, "__self__", None) is self.policy:
                # The policy's retire hook only inspects instruction
                # opcodes, and those sit at fixed trace positions: a
                # precomputed per-step mask replaces the hook and the
                # run keeps the turbo stream loop (inline hit path)
                # instead of dropping to the hooked reference mirror.
                boundary = self._image.boundary_steps(self.program, opcodes)
                self.core.on_retire = None
                try:
                    self._replay_stream(boundary=boundary)
                finally:
                    self.core.on_retire = hook
            else:
                self._replay_hooked()
        else:
            self._replay_stream()
        return self._result()

    def _make_span(self, jstatic, dirty_reorder, step_energy,
                   access_amount, hit_amount,
                   overhead_leak=None, hit_ovh=None):
        """The quantum-window executor for this run.

        Compiled-epoch (:mod:`repro.sim.epochs`) when enabled — by the
        ``compiled=`` override or the ``REPRO_REPLAY_COMPILED`` knob —
        with automatic fallback to the scalar :class:`_SpanState` when
        construction fails; scalar otherwise.  Both are bit-identical;
        only the batching differs.
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

    def _turbo(self):
        """The exact predicate the fast engine uses to inline the cache
        hit path (see ``FastCore`` ``inline_mem``)."""
        arch = self.arch
        return (
            _NATIVE_WORDS
            and isinstance(arch, CachedArchitecture)
            and type(arch).load is CachedArchitecture.load
            and type(arch).store is CachedArchitecture.store
            and arch._set_geom[2] is not None
        )

    def _replay_stream(self, boundary=None):
        """Mirror of ``Platform._run_fast_forward`` /
        ``_run_fast_overhead`` driven by the trace — one loop serving
        both ledger shapes (``ovh`` selects the nested per-cycle
        overhead charge the nvmr MTC adds to every step; the merged
        float chains are each original's, bit for bit).

        ``boundary``, when given, is a per-step boolean mask standing
        in for the policy's retire hook (see ``run``): the policy's
        ``note_boundary`` fires at exactly the retire points the hook
        would have seen, and the run keeps this loop's turbo inline
        hit path.
        """
        image = self._image
        cyc = image.cycles
        core = self.core
        policy = self.policy
        ledger = self.ledger
        arch = self.arch
        capacitor = self.capacitor
        backup = arch.backup
        injector = self._injector
        charge_forward = ledger.charge_forward
        overhead_leak = self._overhead_leak
        ovh = bool(overhead_leak)
        charge_overhead = ledger.charge_forward_overhead if ovh else None
        after_step = policy.after_step
        use_decide = (
            getattr(type(policy), "decide", None) is not BackupPolicy.decide
            and getattr(policy, "decide", None) is not None
        )
        decide = policy.decide if use_decide else None
        step_energy = self._cpu_cycle_energy + self._leak
        amounts = image.amounts(step_energy)
        ovh_amounts = image.overhead_amounts(overhead_leak) if ovh else None
        n = image.steps
        halt_at = n if image.halted else -1
        ccyc = image.cum_cycles
        # Quantum windows never consume the final (HALT) step: the
        # general body must set ``core.halted``.
        win_limit = n - 1 if image.halted else n
        turbo = self._turbo()
        if turbo:
            stats = arch.stats
            cache = arch.cache
            sets, shift, smask = arch._set_geom
            bmask = arch._block_mask
            access_amount = arch._access_energy
            load_miss = arch._load_miss
            store_miss = arch._store_miss
            hit_amount = 3 * step_energy
            hit_ovh = 3 * overhead_leak if ovh else 0.0
            memops = image.mem_layout(bmask, shift, smask)
        else:
            memops = image.memops
        # Event-revoked guard (see BackupPolicy.guard_event_revoke):
        # the policy's threshold only moves on dirty-set events, so the
        # window holds the floor static and revokes — forcing a fresh
        # decide — on the events themselves instead of on every
        # conservative floor-growth crossing.  Reorder-sensitive
        # estimates (see estimate_reorder_sensitive) additionally
        # revoke when an LRU promotion reorders dirty lines.
        jstatic = turbo and use_decide and policy.guard_event_revoke
        dirty_reorder = getattr(arch, "estimate_reorder_sensitive", True)
        arch_load = arch.load
        arch_store = arch.store
        note_boundary = (
            policy.note_boundary if boundary is not None else None
        )
        rstats = self.stats
        span = None
        if turbo and injector is None and use_decide:
            # Policies without a decide() never grant guards, so no
            # window ever runs — skip building (or loading) the span.
            span = self._make_span(
                jstatic, dirty_reorder,
                step_energy, access_amount, hit_amount,
                overhead_leak if ovh else None,
                hit_ovh if ovh else None,
            )
        steps = 0
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
        k = self._k
        try:
            while True:
                if (
                    gmode and injector is None and ledger._fwd_touched
                    and (not ovh or ledger._ovh_touched)
                ):
                    # -------------------------------- quantum window
                    # While a policy guard is active the only per-step
                    # effects are the charge stream and the guard test,
                    # so batches of plain steps run through this tight
                    # loop.  A step that would miss the cache, take a
                    # slow charge path, revoke the guard or halt is
                    # *peeked* and never committed — the general body
                    # below re-executes it bit-identically.  Hit
                    # counters are accumulated locally and synced at
                    # window exit (``wextra`` is both the +1-cycle and
                    # the cache.hits count; nothing reads them
                    # mid-window).  Memory tuples carry precomputed
                    # geometry: (kind, addr, block, set, word, value).
                    kw = k
                    stop = win_limit
                    rem = max_steps - steps
                    if stop - k > rem:
                        stop = k + rem
                    if span is not None:
                        (k, energy, fwd_pending, ovh_pending, floor,
                         skipped, wextra, wloads, wstores,
                         revoke) = span.window(
                            k, stop, gmode, capacitor.energy,
                            ledger._fwd_pending,
                            ledger._ovh_pending if ovh else 0.0,
                            floor, growth, skipped, budget,
                        )
                    else:
                        wextra = wloads = wstores = 0
                        revoke = False
                        energy = capacitor.energy
                        fwd_pending = ledger._fwd_pending
                        ovh_pending = ledger._ovh_pending if ovh else 0.0
                        while k < stop:
                            op = memops[k]
                            if op is not None:
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
                            elif jstatic:
                                if e1 <= floor:
                                    revoke = True
                                    break
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
                    rstats.windows += 1
                    rstats.window_steps += k - kw
                    if k != kw:
                        capacitor.energy = energy
                        ledger._fwd_pending = fwd_pending
                        if ovh:
                            ledger._ovh_pending = ovh_pending
                        steps += k - kw
                        self.active_cycles += int(ccyc[k] - ccyc[kw]) + wextra
                        if wextra:
                            cache.hits += wextra
                            stats.loads += wloads
                            stats.stores += wstores
                    if revoke:
                        gmode = 0
                if core.halted:
                    self._mark = k
                    try:
                        backup(BackupReason.FINAL)
                        break
                    except PowerFailure:
                        self._power_failure()
                        if span is not None:
                            span.stale = True
                        gmode = 0
                        k = self._k
                        continue
                if steps >= max_steps:
                    raise SimulationError(f"exceeded {max_steps} instructions")
                if k >= n:
                    raise SimulationError(
                        "execution trace exhausted before the instruction bound"
                    )
                try:
                    op = memops[k]
                    if op is None:
                        cycles = cyc[k]
                        amount = amounts[k]
                        if ovh:
                            ovh_amount = ovh_amounts[k]
                    else:
                        self._mark = k
                        if span is not None:
                            msid = span.note_memop(k)
                            if msid >= 0:
                                b0 = stats.backups
                        else:
                            msid = -1
                        kind = op[0]
                        addr = op[1]
                        if kind == 0:  # load word
                            if turbo:
                                stats.loads += 1
                                block_addr = op[2]
                                energy = capacitor.energy
                                if ledger._fwd_touched and energy >= access_amount:
                                    capacitor.energy = energy - access_amount
                                    ledger._fwd_pending += access_amount
                                else:
                                    charge_forward(access_amount)
                                lines = sets[op[3]]
                                i = 0
                                for line in lines:
                                    if line.valid and line.block_addr == block_addr:
                                        if i:
                                            lines.insert(0, lines.pop(i))
                                        cache.hits += 1
                                        word = op[4]
                                        states = line.meta.states
                                        if states[word] == _UNKNOWN:
                                            states[word] = _READ
                                        cycles = cyc[k] + 1
                                        amount = hit_amount
                                        if ovh:
                                            ovh_amount = hit_ovh
                                        break
                                    i += 1
                                else:
                                    cache.misses += 1
                                    _value, extra = load_miss(block_addr, addr, 4)
                                    cycles = cyc[k] + extra
                                    amount = cycles * step_energy
                                    if ovh:
                                        ovh_amount = cycles * overhead_leak
                            else:
                                _value, extra = arch_load(addr, 4)
                                cycles = cyc[k] + extra
                                amount = cycles * step_energy
                                if ovh:
                                    ovh_amount = cycles * overhead_leak
                        elif kind == 1:  # store word
                            value = op[-1]
                            if turbo:
                                stats.stores += 1
                                block_addr = op[2]
                                energy = capacitor.energy
                                if ledger._fwd_touched and energy >= access_amount:
                                    capacitor.energy = energy - access_amount
                                    ledger._fwd_pending += access_amount
                                else:
                                    charge_forward(access_amount)
                                lines = sets[op[3]]
                                i = 0
                                for line in lines:
                                    if line.valid and line.block_addr == block_addr:
                                        if i:
                                            lines.insert(0, lines.pop(i))
                                        cache.hits += 1
                                        word = op[4]
                                        states = line.meta.states
                                        if states[word] == _UNKNOWN:
                                            states[word] = _WRITE
                                        line.words[word] = value
                                        line.dirty = True
                                        cycles = cyc[k] + 1
                                        amount = hit_amount
                                        if ovh:
                                            ovh_amount = hit_ovh
                                        break
                                    i += 1
                                else:
                                    cache.misses += 1
                                    extra = store_miss(block_addr, addr, value, 4)
                                    cycles = cyc[k] + extra
                                    amount = cycles * step_energy
                                    if ovh:
                                        ovh_amount = cycles * overhead_leak
                            else:
                                extra = arch_store(addr, value, 4)
                                cycles = cyc[k] + extra
                                amount = cycles * step_energy
                                if ovh:
                                    ovh_amount = cycles * overhead_leak
                        elif kind == 2:  # load byte
                            _value, extra = arch_load(addr, 1)
                            cycles = cyc[k] + extra
                            amount = cycles * step_energy
                            if ovh:
                                ovh_amount = cycles * overhead_leak
                        else:  # store byte
                            extra = arch_store(addr, op[-1], 1)
                            cycles = cyc[k] + extra
                            amount = cycles * step_energy
                            if ovh:
                                ovh_amount = cycles * overhead_leak
                        if msid >= 0:
                            span.rescan_set(msid, stats.backups != b0)
                    k += 1
                    if k == halt_at:
                        core.halted = True
                    if boundary is not None and boundary[k - 1]:
                        note_boundary()
                    steps += 1
                    self.active_cycles += cycles
                    energy = capacitor.energy
                    if ledger._fwd_touched and energy >= amount:
                        ledger._fwd_pending += amount
                        energy -= amount
                        if not ovh:
                            capacitor.energy = energy
                        elif ledger._ovh_touched and energy >= ovh_amount:
                            ledger._ovh_pending += ovh_amount
                            energy -= ovh_amount
                            capacitor.energy = energy
                        else:
                            capacitor.energy = energy
                            charge_overhead(ovh_amount)
                            energy = capacitor.energy
                    else:
                        charge_forward(amount)
                        if ovh:
                            charge_overhead(ovh_amount)
                        energy = capacitor.energy
                    if injector is not None:
                        injector.on_step()
                    if gmode:
                        if gmode == 1:
                            floor += growth
                            if energy > floor:
                                continue
                        else:
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
                        self._mark = k
                        if span is not None:
                            span.note_backup()
                        backup(BackupReason.POLICY)
                        policy.on_backup(self)
                    elif action is shutdown_action:
                        self._mark = k
                        if span is not None:
                            span.stale = True
                        backup(BackupReason.POLICY)
                        policy.on_backup(self)
                        self._shutdown()
                        k = self._k
                except PowerFailure:
                    self._power_failure()
                    if span is not None:
                        span.stale = True
                    gmode = 0
                    k = self._k
        finally:
            core.instructions_retired += steps

    def _replay_hooked(self):
        """Mirror of ``Platform._run_reference`` for runs with a retire
        hook (instruction tracers, chained hooks): the hook receives
        the same (pc, instruction, cycles) stream ``Core.step`` emits."""
        image = self._image
        memops = image.memops
        cyc = image.cycles
        idx = image.indices
        pcs = image.pcs
        code = self.program.instructions
        core = self.core
        hook = core.on_retire
        policy = self.policy
        ledger = self.ledger
        arch = self.arch
        injector = self._injector
        arch_load = arch.load
        arch_store = arch.store
        step_energy = self._cpu_cycle_energy + self._leak
        overhead_leak = self._overhead_leak
        n = image.steps
        halt_at = n if image.halted else -1
        steps = 0
        max_steps = self.config.max_steps
        k = self._k
        while True:
            if core.halted:
                self._mark = k
                try:
                    arch.backup(BackupReason.FINAL)
                    break
                except PowerFailure:
                    self._power_failure()
                    k = self._k
                    continue
            if steps >= max_steps:
                raise SimulationError(f"exceeded {max_steps} instructions")
            if k >= n:
                raise SimulationError(
                    "execution trace exhausted before the instruction bound"
                )
            try:
                op = memops[k]
                cycles = cyc[k]
                if op is not None:
                    self._mark = k
                    kind = op[0]
                    if kind == 0:
                        _value, extra = arch_load(op[1], 4)
                    elif kind == 1:
                        extra = arch_store(op[1], op[2], 4)
                    elif kind == 2:
                        _value, extra = arch_load(op[1], 1)
                    else:
                        extra = arch_store(op[1], op[2], 1)
                    cycles += extra
                pc = pcs[k]
                instr = code[idx[k]]
                k += 1
                if k == halt_at:
                    core.halted = True
                core.instructions_retired += 1
                hook(pc, instr, cycles)
                steps += 1
                self.active_cycles += cycles
                ledger.charge("forward", cycles * step_energy)
                if overhead_leak:
                    ledger.charge("forward_overhead", cycles * overhead_leak)
                if injector is not None:
                    injector.on_step()
                self._mark = k
                action = policy.after_step(self, cycles)
                if action == PolicyAction.BACKUP:
                    arch.backup(BackupReason.POLICY)
                    policy.on_backup(self)
                elif action == PolicyAction.SHUTDOWN:
                    arch.backup(BackupReason.POLICY)
                    policy.on_backup(self)
                    self._shutdown()
                    k = self._k
            except PowerFailure:
                self._power_failure()
                k = self._k
