"""Compiled-epoch replay: batch failure-free epochs into array ops.

The scalar quantum-window executor (:class:`repro.sim.replay._SpanState`)
walks every trace step even though memory ops occur only once per ~2.4
steps and most windows break at a miss or a guard event.  This module
lowers an :class:`~repro.sim.trace.ExecutionTrace` into a precompiled
**epoch script** per (cache geometry, cost table) pair — flat numpy
charge arrays, per-gap closed-form energy/cycle deltas derived from
:meth:`ReplayImage.span_tables`, and prefix-sum tables that answer
"where does the energy floor / guard budget trip inside this span?"
with a ``searchsorted`` instead of a step loop — and provides
:class:`CompiledSpanState`, a drop-in for ``_SpanState`` whose
``window`` executes whole failure-free epochs as array ops.

Bit-exactness
-------------
The compiled window produces results bit-identical to the scalar loop
(and hence to the fast engine and the reference interpreter) because
every batched operation reproduces the scalar float chain exactly:

* ``np.subtract.accumulate`` / ``np.add.accumulate`` apply their ufunc
  *sequentially*, so the energy series equals the scalar chain
  ``((e - a0) - a1) - ...`` bit for bit (Python floats are IEEE
  float64, like numpy's);
* charges are non-negative, so the energy series is non-increasing and
  "some charge was unaffordable" is one comparison on the last element;
  the first failing charge is exact because ``fl(e - a) < 0`` iff
  ``e < a`` (a float subtraction whose result falls in the subnormal
  range is exact, so the sign of the rounded difference is the sign of
  the true difference);
* cycle budgets are integers: the breaking step is
  ``searchsorted(cyc_cum, budget_target) - 1`` on an exact int64
  prefix sum;
* within a window no line is ever evicted and (for event-revoked
  guards) no clean line is ever dirtied, so the steps that can break
  a window structurally — byte ops, misses, clean stores — are a
  boolean mask over precompiled per-memop arrays, and everything
  before the first break is a pure hit run whose side effects (word
  values, first-touch states, dirty flags, LRU order) reduce to
  per-(block, word) net effects applied once at commit.

The breaking step itself is *never* committed; the general replay body
re-executes it, exactly as the scalar window behaves.  Within the
breaking step the simulator's check order decides which break wins
(byte op, per-charge affordability, miss, floor/budget, clean store) —
the candidates below carry the same rank numbers the scalar loop uses,
and the earliest (step, rank) pair wins.

Script store
------------
Scripts are content-addressed on disk beside the trace store
(``<trace store>/scripts/<key>.npz`` via :mod:`repro.store`): the key
digests the trace's *content* digest, the cache geometry, the cost
table and the script encoding version, so a ``TRACE_VERSION`` bump (a
new trace content) or an encoding change simply misses old entries.
Corrupt or stale entries read as misses and are rebuilt.  Members are
stored *uncompressed* and loaded with ``np.load(..., mmap_mode="r")``
plus an in-place ``np.memmap`` per member, so sweep workers opening
the same script share one page-cache copy instead of each inflating
its own.

``REPRO_REPLAY_COMPILED=0`` disables the compiled path process-wide;
construction failures fall back to the scalar window automatically
(see :func:`make_span`).
"""

import io
import os
import struct
import zipfile
from bisect import bisect_left

import numpy as np
from numpy.lib import format as npf

from repro.mem.bloom import WordState
from repro.sim import tracestore
from repro.sim.replay import _SpanState
from repro.sim.trace import TRACE_VERSION
from repro.store import Store, digest

_UNKNOWN = WordState.UNKNOWN
_READ = WordState.READ
_WRITE = WordState.WRITE

#: Bumped whenever the epoch-script encoding or its semantics change;
#: stale stored scripts are ignored, never silently replayed.  v2:
#: uncompressed members (memory-mappable in place).
EPOCH_SCRIPT_VERSION = 2

#: Steps run through the scalar window before the vectorized scan
#: engages: short windows (the common case at guard entry) never pay
#: numpy's fixed per-call overhead.
_SCALAR_PREFIX = 16

#: Initial / maximum vectorized chunk length (steps).  Chunks double,
#: so a long failure-free epoch costs O(log n) numpy calls.
_CHUNK = 256
_CHUNK_MAX = 8192

#: Cycle-budget windows whose closed-form budget trip lies fewer than
#: this many steps ahead run fully scalar: the budget caps the window
#: length exactly, so short-interval policies (spendthrift's
#: check_interval) never pay any vectorization overhead at all.
_GM2_MIN_SPAN = 192

#: Payoff probation: after this many vectorized phases, if the average
#: steps committed beyond the scalar prefix is below ``_ADAPT_MIN_GAIN``
#: the executor steps aside — workloads whose windows break
#: structurally every few dozen steps (byte-heavy traces, frequent
#: misses) degrade to exactly the scalar path.  Probation is
#: *recoverable*: a failed batch only benches the vectorized scan for
#: ``_ADAPT_COOLOFF`` scalar windows, doubling up to
#: ``_ADAPT_MAX_COOLOFF`` on each consecutive failure (a successful
#: batch resets the backoff).  Window regimes are bursty — a
#: convolution row of clustered misses must not permanently disable
#: vectorization for the long failure-free rows after it, while a
#: genuinely short-window run retries only ~24 windows per 2048, under
#: 2% overhead.
_ADAPT_PHASES = 24
_ADAPT_MIN_GAIN = 256
_ADAPT_COOLOFF = 48
_ADAPT_MAX_COOLOFF = 2048

#: Spans with at most this many memops apply their side effects with
#: the scalar per-op loop — the np.unique net-effect machinery only
#: wins on long runs.
_SCALAR_EFFECTS = 160

#: Affordability rank by charge slot within a step: slot 0 is the
#: access (or non-memory step) charge (rank 1), slot 1 the hit (or
#: overhead) charge (rank 3), slot 2 the hit-overhead charge (rank 4).
_SLOT_RANK = (1, 3, 4)

#: In-image script cache entries (per (geometry, cost-table) key).
#: Sized for a full arch × policy sweep: each (arch, policy) pair uses
#: up to two scripts per benchmark (the forward and overhead loops
#: carry different cost tables), so a fig10-style 2×3 grid needs 12
#: live entries — a cap below that thrashes on every run.
_IMAGE_CACHE_CAP = 32


def compiled_enabled():
    """Whether compiled-epoch windows are on
    (``REPRO_REPLAY_COMPILED=0`` disables them process-wide)."""
    return os.environ.get("REPRO_REPLAY_COMPILED", "1") not in ("0", "")


def guard_trip_step(cyc_cum, k, skipped, budget):
    """Closed-form index of the step whose cycles trip a cycle budget.

    ``cyc_cum`` is the exact int64 per-step cycle prefix sum of the
    trace (``cyc_cum[i]`` = cycles of steps ``[0, i)``), ``k`` the
    current step, ``skipped`` the cycles already accumulated against
    ``budget``.  Returns the first step ``t >= k`` with ``skipped +
    (cyc_cum[t+1] - cyc_cum[k]) >= budget`` — exactly the step at
    which the scalar guard loop's ``skipped += cycles; skipped >=
    budget`` test first fires — or ``len(cyc_cum) - 1`` when the
    budget outlives the trace.  The Hypothesis suite pins it against
    the scalar loop.
    """
    target = (budget - skipped) + cyc_cum[k]
    return bisect_left(cyc_cum, target, lo=k) - 1


class EpochScript:
    """Precompiled arrays lowering one trace for one (geometry, cost).

    Everything the vectorized window consumes, derived once from
    :meth:`ReplayImage.span_tables` / ``span_support`` /
    ``span_geometry`` and shared by every replay of the sweep:

    * ``starts`` / ``flat`` — flat per-charge energy stream
      (``starts[k]`` is the offset of step ``k``'s first charge);
    * ``estep`` — flat index of each step's *last* charge (the
      post-step energy lives there after an accumulate);
    * ``fwd_starts`` / ``fwd_flat`` — the forward-ledger subset of the
      charge stream (equal to ``starts``/``flat`` when there is no
      overhead ledger);
    * ``ovh_add`` — per-step overhead-ledger increment (or None);
    * ``cyc_cum`` — exact int64 prefix sum of per-step cycles (with
      the +1 hit bonus), for closed-form guard-budget trips;
    * ``mprefix`` / ``mpos`` — memop counts before each step / step
      position of each memop;
    * ``blk`` / ``is_byte`` / ``is_store`` / ``store_prefix`` /
      ``sidx`` / ``word`` / ``val`` — per-memop geometry and payload.
    """

    __slots__ = (
        "steps", "nblocks", "wpb", "ovh",
        "starts", "flat", "estep", "fwd_starts", "fwd_flat", "ovh_add",
        "cyc_cum", "cyc_cum_py", "mprefix", "mpos",
        "blk", "is_byte", "is_store", "store_prefix", "sidx", "word",
        "val",
    )

    @classmethod
    def build(cls, image, geom_key, cost_key):
        """Lower ``image`` for one (geometry, cost-table) pair."""
        block_mask, set_shift, set_mask = geom_key
        (step_energy, access_amount, hit_amount,
         overhead_leak, hit_ovh) = cost_key
        starts, flat, ovh_add = image.span_tables(
            step_energy, access_amount, hit_amount, overhead_leak, hit_ovh
        )
        support = image.span_support()
        mprefix, cycb, is_mem = support[0], support[1], support[2]
        mpos = support[5]
        geom = image.span_geometry(block_mask, set_shift, set_mask)
        n = image.steps
        script = cls()
        script.steps = n
        script.nblocks = geom["nblocks"]
        script.wpb = (int(block_mask) + 1) >> 2
        script.ovh = overhead_leak is not None
        script.starts = starts
        script.flat = flat
        script.estep = starts[1:] - 1
        script.ovh_add = ovh_add
        if overhead_leak is None:
            script.fwd_starts = starts
            script.fwd_flat = flat
        else:
            # Forward-ledger charges only: non-memory steps contribute
            # their step charge, memory hits (access, hit) — the
            # overhead slot is a separate ledger.  Values are copied
            # out of ``flat``, so they are the simulator's bit for bit.
            per = np.where(is_mem, 2, 1)
            fwd_starts = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(per, out=fwd_starts[1:])
            fwd_flat = np.empty(int(fwd_starts[n]), dtype=np.float64)
            nm = fwd_starts[:-1][~is_mem]
            mm = fwd_starts[:-1][is_mem]
            fwd_flat[nm] = flat[starts[:-1][~is_mem]]
            fwd_flat[mm] = access_amount
            fwd_flat[mm + 1] = hit_amount
            script.fwd_starts = fwd_starts
            script.fwd_flat = fwd_flat
        cyc_cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cycb, out=cyc_cum[1:])
        script.cyc_cum = cyc_cum
        script.cyc_cum_py = None
        script.mprefix = mprefix
        script.mpos = mpos
        script.blk = geom["blk"]
        script.is_byte = geom["is_byte"]
        script.is_store = geom["is_store"]
        script.store_prefix = geom["store_prefix"]
        script.sidx = geom["sidx"]
        script.word = geom["word"]
        script.val = geom["val"]
        return script


# --------------------------------------------------- content-addressed
def scripts_enabled():
    """The script store shares the run cache's kill switch."""
    return tracestore.enabled()


def _scripts():
    return Store(tracestore.store_dir()).namespace("scripts", suffix=".npz")


def script_key(trace_digest, geom_key, cost_key):
    """Digest naming one script: trace content + geometry + costs."""
    return digest(
        {
            "script_version": EPOCH_SCRIPT_VERSION,
            "trace_version": TRACE_VERSION,
            "trace": trace_digest,
            "geometry": [int(g) for g in geom_key],
            "cost": [None if c is None else float(c) for c in cost_key],
        }
    )


def _script_to_bytes(script):
    buffer = io.BytesIO()
    arrays = {
        "meta": np.asarray(
            [EPOCH_SCRIPT_VERSION, script.steps, script.nblocks,
             script.wpb, int(script.ovh)],
            dtype=np.int64,
        ),
        "starts": script.starts,
        "flat": script.flat,
        "cyc_cum": script.cyc_cum,
        "mprefix": script.mprefix,
        "mpos": script.mpos,
        "blk": script.blk,
        "is_byte": script.is_byte,
        "is_store": script.is_store,
        "store_prefix": script.store_prefix,
        "sidx": script.sidx,
        "word": script.word,
        "val": script.val,
    }
    if script.ovh:
        arrays["fwd_starts"] = script.fwd_starts
        arrays["fwd_flat"] = script.fwd_flat
        arrays["ovh_add"] = script.ovh_add
    # Uncompressed on purpose: members stay memory-mappable in place
    # (see _mapped_members) and the arrays are mostly incompressible
    # float streams anyway.
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _mapped_members(path):
    """True memory maps of every member of an *uncompressed* ``.npz``.

    ``np.load(..., mmap_mode="r")`` inflates npz members into fresh
    private arrays even when they were stored uncompressed, so sweep
    workers each pay a full copy of every script they open.  The
    members of an uncompressed zip are plain ``.npy`` files at known
    offsets: parse the zip local header for the payload offset and the
    npy header for (shape, order, dtype), then map the data in place —
    one shared page-cache copy per script, no matter how many workers
    replay it.  Raises on anything unexpected (compressed member,
    foreign file, malformed header); the caller then serves the
    eagerly loaded arrays instead.
    """
    out = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as f:
        for info in archive.infolist():
            name = info.filename
            if (not name.endswith(".npy")
                    or info.compress_type != zipfile.ZIP_STORED):
                raise ValueError(f"unmappable npz member: {name}")
            f.seek(info.header_offset)
            local = f.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ValueError("bad zip local header")
            nlen, elen = struct.unpack("<HH", local[26:30])
            f.seek(info.header_offset + 30 + nlen + elen)
            read_header = {
                (1, 0): npf.read_array_header_1_0,
                (2, 0): npf.read_array_header_2_0,
            }[npf.read_magic(f)]
            shape, fortran, dtype = read_header(f)
            key = name[: -len(".npy")]
            if int(np.prod(shape)) == 0:
                # Zero-length maps are rejected by mmap; the header is
                # the whole member.
                out[key] = np.empty(shape, dtype=dtype)
            else:
                out[key] = np.memmap(
                    path, mode="r", dtype=dtype, shape=shape,
                    offset=f.tell(), order="F" if fortran else "C",
                )
    return out


def _script_from_arrays(arrays):
    meta = arrays["meta"]
    if int(meta[0]) != EPOCH_SCRIPT_VERSION:
        return None  # stale encoding: a miss, never a silent replay
    # Serve plain-ndarray views over the mapped buffers: scalar
    # indexing on an np.memmap subclass pays ~3x in __array_finalize__
    # churn, and the executors index these arrays tens of thousands of
    # times per run.  The view keeps the map alive through .base —
    # still zero-copy, one shared page-cache image per script.
    arrays = {
        name: (a.view(np.ndarray) if isinstance(a, np.memmap) else a)
        for name, a in arrays.items()
    }
    script = EpochScript()
    script.steps = int(meta[1])
    script.nblocks = int(meta[2])
    script.wpb = int(meta[3])
    script.ovh = bool(meta[4])
    script.starts = arrays["starts"]
    script.flat = arrays["flat"]
    script.estep = script.starts[1:] - 1
    script.cyc_cum = arrays["cyc_cum"]
    script.cyc_cum_py = None
    script.mprefix = arrays["mprefix"]
    script.mpos = arrays["mpos"]
    script.blk = arrays["blk"]
    script.is_byte = arrays["is_byte"]
    script.is_store = arrays["is_store"]
    script.store_prefix = arrays["store_prefix"]
    script.sidx = arrays["sidx"]
    script.word = arrays["word"]
    script.val = arrays["val"]
    if script.ovh:
        script.fwd_starts = arrays["fwd_starts"]
        script.fwd_flat = arrays["fwd_flat"]
        script.ovh_add = arrays["ovh_add"]
    else:
        script.fwd_starts = script.starts
        script.fwd_flat = script.flat
        script.ovh_add = None
    return script


def fetch_script(trace_digest, geom_key, cost_key):
    """Load a stored script, or None on miss/disabled/stale/corrupt."""
    if not scripts_enabled():
        return None
    path = _scripts().path(script_key(trace_digest, geom_key, cost_key))
    try:
        with np.load(path, mmap_mode="r") as archive:
            members = list(archive.files)
            # Materialize only the (tiny) meta member up front: it
            # validates the zip and carries the version stamp.  The
            # bulk arrays are served as true memory maps below; eagerly
            # inflating them here would pay the full read the maps
            # exist to avoid.
            meta = archive["meta"]
    except (FileNotFoundError, KeyError, ValueError, OSError, EOFError,
            zipfile.BadZipFile):
        return None  # miss or corrupt entry; rebuilt by the caller
    try:
        arrays = _mapped_members(path)
        if not all(name in arrays for name in members):
            raise KeyError("npz member set mismatch")
        arrays["meta"] = meta
    except (KeyError, ValueError, OSError, EOFError, struct.error):
        # Surprising layout (compressed member, foreign writer): fall
        # back to the eager full read rather than miss.
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (KeyError, ValueError, OSError, EOFError,
                zipfile.BadZipFile):
            return None
    try:
        return _script_from_arrays(arrays)
    except KeyError:
        return None  # member missing: corrupt entry, treat as a miss


def store_script(trace_digest, geom_key, cost_key, script):
    """Persist a script; no-op when the store is disabled."""
    if not scripts_enabled():
        return
    _scripts().write_bytes(
        script_key(trace_digest, geom_key, cost_key), _script_to_bytes(script)
    )


def clear_scripts():
    """Delete every stored script; returns the number removed."""
    return _scripts().clear()


def get_script(image, geom_key, cost_key):
    """Fetch-or-build the epoch script for one (geometry, cost) pair.

    Three layers, mirroring the trace store: a small LRU on the image
    (sweeps re-enter with the same few cost tables), then the
    content-addressed disk store, then a fresh lowering (persisted for
    sibling workers).
    """
    cache = image._epoch_scripts
    key = (geom_key, cost_key)
    script = cache.get(key)
    if script is not None:
        cache[key] = cache.pop(key)  # LRU: refresh on hit
        return script
    trace_digest = image.content_digest()
    script = fetch_script(trace_digest, geom_key, cost_key)
    if script is None:
        script = EpochScript.build(image, geom_key, cost_key)
        store_script(trace_digest, geom_key, cost_key, script)
    if len(cache) >= _IMAGE_CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = script
    return script


# ------------------------------------------------------------ executor
class CompiledSpanState(_SpanState):
    """Quantum-window executor that batches failure-free epochs.

    A drop-in for ``_SpanState``: same constructor (plus an optional
    ``stats`` sink), same ``window`` contract, same bookkeeping hooks
    (``note_memop`` / ``rescan_set`` are inherited).
    ``window`` runs a short scalar prefix (cheap for the short windows
    that dominate at guard entry), then scans the remaining steps in
    doubling chunks of array ops, committing whole hit runs at once
    and dropping back to scalar semantics only at the single breaking
    step — which, exactly like the scalar loop, is never committed.
    """

    __slots__ = ("script", "_res_bm", "_dirty_bm",
                 "_phases", "_gain", "_vec_off", "_cooloff", "_backoff",
                 "stats")

    def __init__(self, image, arch, jstatic,
                 step_energy, access_amount, hit_amount,
                 overhead_leak=None, hit_ovh=None, stats=None):
        super().__init__(
            image, arch, jstatic, step_energy, access_amount, hit_amount,
            overhead_leak, hit_ovh,
        )
        sets, shift, smask = arch._set_geom
        self.script = get_script(
            image,
            (int(arch._block_mask), shift, smask),
            (step_energy, access_amount, hit_amount,
             overhead_leak, hit_ovh),
        )
        nblocks = self.script.nblocks
        self._res_bm = np.zeros(nblocks, dtype=bool)
        self._dirty_bm = np.zeros(nblocks, dtype=bool)
        self._phases = 0
        self._gain = 0
        self._vec_off = False
        self._cooloff = 0
        self._backoff = _ADAPT_COOLOFF
        self.stats = stats

    # ------------------------------------------------ shared plumbing
    def _fill_bitmaps(self, with_dirty):
        """Residency (and optionally dirtiness) bitmaps over block ids.

        Both are static between breaks — misses and (under an
        event-revoked guard) clean stores end the window.  O(cache
        lines); called after the scalar prefix so its committed stores
        are reflected.
        """
        line_of = self.line_of
        res = self._res_bm
        res[:] = False
        if line_of:
            res[np.fromiter(line_of.keys(), dtype=np.int64,
                            count=len(line_of))] = True
        if not with_dirty:
            return res, None
        dirty = self._dirty_bm
        dirty[:] = False
        dirty_bids = [bid for bid, line in line_of.items() if line.dirty]
        if dirty_bids:
            dirty[dirty_bids] = True
        return res, dirty

    def _phase_end(self, phase_start, k, fwd_pending, ovh_pending,
                   wextra, wloads, wstores):
        """Deferred ledger pendings and memory side effects over the
        whole committed phase, in one pass each — plus the payoff
        probation that turns the vectorized scan off when windows keep
        breaking right after the scalar prefix."""
        script = self.script
        if k > phase_start:
            f0 = int(script.fwd_starts[phase_start])
            f1 = int(script.fwd_starts[k])
            fbuf = np.empty(f1 - f0 + 1)
            fbuf[0] = fwd_pending
            fbuf[1:] = script.fwd_flat[f0:f1]
            np.add.accumulate(fbuf, out=fbuf)
            fwd_pending = float(fbuf[-1])
            if script.ovh:
                obuf = np.empty(k - phase_start + 1)
                obuf[0] = ovh_pending
                obuf[1:] = script.ovh_add[phase_start:k]
                np.add.accumulate(obuf, out=obuf)
                ovh_pending = float(obuf[-1])
            ma = int(script.mprefix[phase_start])
            mz = int(script.mprefix[k])
            if mz > ma:
                stores = int(
                    script.store_prefix[mz] - script.store_prefix[ma]
                )
                wextra += mz - ma
                wstores += stores
                wloads += (mz - ma) - stores
                self._apply_effects(ma, mz)
        st = self.stats
        if st is not None:
            st.compiled_windows += 1
            st.compiled_steps += k - phase_start
        # Payoff probation: evaluated on every batch of phases (not
        # once) — runs often open with a few long windows before
        # settling into a short-window regime.
        self._gain += k - phase_start
        self._phases += 1
        if self._phases == _ADAPT_PHASES:
            if self._gain < _ADAPT_PHASES * _ADAPT_MIN_GAIN:
                self._vec_off = True
                self._cooloff = self._backoff
                self._backoff = min(self._backoff * 4, _ADAPT_MAX_COOLOFF)
            else:
                self._backoff = _ADAPT_COOLOFF
            self._phases = 0
            self._gain = 0
        return fwd_pending, ovh_pending, wextra, wloads, wstores

    def _note(self, reason):
        st = self.stats
        if st is not None:
            st.note_fallback(reason)

    # ------------------------------------------------------- dispatch
    def window(self, k, stop, gmode, energy, fwd_pending, ovh_pending,
               floor, growth, skipped, budget):
        if self._vec_off:
            self._cooloff -= 1
            if self._cooloff > 0:
                self._note("probation")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending, ovh_pending,
                    floor, growth, skipped, budget,
                )
            self._vec_off = False  # cooloff served: re-probe
        script = self.script
        jb = stop
        if gmode == 2:
            # The budget trip is closed-form: the first step whose
            # exact int64 skipped-cycle total reaches the budget
            # (guard_trip_step).  Its target is invariant under
            # commits (``skipped`` and ``cyc_cum`` advance in
            # lockstep), so one bisect at window entry holds for the
            # scalar prefix and every later chunk.  A budget that
            # trips only a few dozen steps ahead caps the window
            # there — run it fully scalar.
            remaining = budget - skipped
            if remaining < _GM2_MIN_SPAN:
                # Every step costs at least one cycle, so the trip is
                # closer than the vector threshold — no lookup needed.
                self._note("tight_budget")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending,
                    ovh_pending, floor, growth, skipped, budget,
                )
            cyc_cum = script.cyc_cum_py
            if cyc_cum is None:
                # Plain-int prefix sums: ``bisect`` beats
                # ``searchsorted`` for the one lookup every
                # cycle-budget window performs.  Materialized on the
                # first budget window so floor-guard policies never
                # pay the conversion.
                cyc_cum = script.cyc_cum_py = script.cyc_cum.tolist()
            jb = guard_trip_step(cyc_cum, k, skipped, budget)
            if jb - k < _GM2_MIN_SPAN:
                self._note("tight_budget")
                return _SpanState.window(
                    self, k, stop, gmode, energy, fwd_pending,
                    ovh_pending, floor, growth, skipped, budget,
                )
        prefix_stop = k + _SCALAR_PREFIX
        if prefix_stop >= stop:
            self._note("short_window")
            return _SpanState.window(
                self, k, stop, gmode, energy, fwd_pending, ovh_pending,
                floor, growth, skipped, budget,
            )
        out = _SpanState.window(
            self, k, prefix_stop, gmode, energy, fwd_pending,
            ovh_pending, floor, growth, skipped, budget,
        )
        if out[0] < prefix_stop:
            self._note("prefix_break")
            return out
        (k, energy, fwd_pending, ovh_pending, floor, skipped,
         wextra, wloads, wstores, _revoke) = out

        starts = script.starts
        flat = script.flat
        estep = script.estep
        mprefix = script.mprefix
        jstatic = self.jstatic and gmode != 2
        res, dirty = self._fill_bitmaps(jstatic)
        phase_start = k
        rank = 9
        chunk = _CHUNK
        while k < stop:
            ce = k + chunk
            if ce > stop:
                ce = stop
            if chunk < _CHUNK_MAX:
                chunk *= 2
            # ---- structural break: first byte op / miss / clean
            # store among the chunk's memops.
            m0 = int(mprefix[k])
            m1 = int(mprefix[ce])
            bstep = ce
            brank = 9
            if m1 > m0:
                blk = script.blk[m0:m1]
                bad = script.is_byte[m0:m1] | ~res[blk]
                if jstatic:
                    bad |= script.is_store[m0:m1] & ~dirty[blk]
                if bad.any():
                    mb = m0 + int(np.argmax(bad))
                    bstep = int(script.mpos[mb])
                    bid = int(script.blk[mb])
                    if script.is_byte[mb]:
                        brank = 0
                    elif not res[bid]:
                        brank = 2
                    else:
                        brank = 6
            # The energy scan covers the earliest break candidate's own
            # step too — its charges are checked before it breaks.
            cap = min(ce, bstep + 1, jb + 1)
            c0 = int(starts[k])
            c1 = int(starts[cap])
            buf = np.empty(c1 - c0 + 1)
            buf[0] = energy
            buf[1:] = flat[c0:c1]
            np.subtract.accumulate(buf, out=buf)
            series = buf[1:]
            astep = cap
            arank = 9
            if series[-1] < 0.0:
                # Charges are non-negative so the series is
                # non-increasing; a negative tail pins the first
                # unaffordable charge (fl(e - a) < 0 iff e < a).
                ci = int(np.argmax(series < 0.0))
                astep = int(
                    np.searchsorted(starts, c0 + ci, side="right")
                ) - 1
                arank = _SLOT_RANK[c0 + ci - int(starts[astep])]
            fstep = cap
            grown = None
            if gmode != 2:
                # The last element of ``series`` is the chunk's final
                # post-step energy — its minimum, since charges are
                # non-negative.  A static (or non-decreasing grown)
                # floor therefore trips somewhere in the chunk iff it
                # tops that minimum, so one scalar compare gates the
                # whole per-step gather.
                if jstatic:
                    if series[-1] <= floor:
                        post = series[estep[k:cap] - c0]
                        fstep = k + int(np.argmax(post <= floor))
                else:
                    fbuf = np.empty(cap - k + 1)
                    fbuf[0] = floor
                    fbuf[1:] = growth
                    np.add.accumulate(fbuf, out=fbuf)
                    grown = fbuf[1:]
                    if growth < 0.0 or series[-1] <= grown[-1]:
                        post = series[estep[k:cap] - c0]
                        fm = post <= grown
                        if fm.any():
                            fstep = k + int(np.argmax(fm))
            # ---- winner: earliest step, ties by the simulator's
            # within-step check order (the rank numbers).
            wstep, wrank = astep, arank
            if fstep < wstep:
                wstep, wrank = fstep, 5
            if bstep < wstep or (bstep == wstep and brank < wrank):
                wstep, wrank = bstep, brank
            if jb < cap and jb < wstep:
                wstep, wrank = jb, 5
            # ---- commit the failure-free run [k, wstep)
            if wstep > k:
                energy = float(series[int(estep[wstep - 1]) - c0])
                if gmode == 2:
                    skipped += int(cyc_cum[wstep] - cyc_cum[k])
                elif grown is not None:
                    floor = float(grown[wstep - 1 - k])
                k = wstep
            if wrank != 9:
                rank = wrank
                break

        (fwd_pending, ovh_pending, wextra, wloads,
         wstores) = self._phase_end(
            phase_start, k, fwd_pending, ovh_pending,
            wextra, wloads, wstores,
        )
        revoke = self.jstatic and rank in (0, 2, 5, 6)
        return (k, energy, fwd_pending, ovh_pending, floor, skipped,
                wextra, wloads, wstores, revoke)

    def _apply_effects(self, ma, mz):
        """Apply the net memory side effects of committed hits [ma, mz).

        Every committed memop is a hit on a resident line, so the
        sequential per-step effects reduce to per-(block, word) net
        effects — first-touch word states, last-store values, dirty
        flags — plus one LRU reorder per touched set (touched lines by
        last access, most recent first; untouched lines keep their
        relative order).  Python work is bounded by the cache size,
        not the run length.
        """
        script = self.script
        if mz - ma <= _SCALAR_EFFECTS:
            # Short runs: the scalar per-op commit (identical to the
            # scalar window's hit path) beats the unique/argsort
            # machinery below.
            mstep = self.mstep
            line_of = self.line_of
            sets = self.sets
            for p in script.mpos[ma:mz].tolist():
                kind, bid, sx, w, val = mstep[p]
                line = line_of[bid]
                states = line.meta.states
                if kind:
                    if states[w] == _UNKNOWN:
                        states[w] = _WRITE
                    line.words[w] = val
                    line.dirty = True
                else:
                    if states[w] == _UNKNOWN:
                        states[w] = _READ
                lines = sets[sx]
                if lines[0] is not line:
                    lines.remove(line)
                    lines.insert(0, line)
            return
        wpb = script.wpb
        blk = script.blk[ma:mz]
        word = script.word[ma:mz]
        stores = script.is_store[ma:mz]
        line_of = self.line_of
        keys = blk * wpb + word
        uniq, first = np.unique(keys, return_index=True)
        first_is_store = stores[first]
        for key, is_store in zip(uniq.tolist(), first_is_store.tolist()):
            line = line_of[key // wpb]
            w = key % wpb
            states = line.meta.states
            if states[w] == _UNKNOWN:
                states[w] = _WRITE if is_store else _READ
        if stores.any():
            skeys = keys[stores][::-1]
            svals = script.val[ma:mz][stores][::-1]
            ukeys, last = np.unique(skeys, return_index=True)
            for key, value in zip(ukeys.tolist(), svals[last].tolist()):
                line = line_of[key // wpb]
                line.words[key % wpb] = value
                line.dirty = True
        # LRU: per touched set, promoted lines in recency order.
        rblk = blk[::-1]
        ublk, rlast = np.unique(rblk, return_index=True)
        last_pos = (len(blk) - 1) - rlast
        order = np.argsort(-last_pos)
        sidx = script.sidx[ma:mz]
        touched = {}
        for i in order.tolist():
            sx = int(sidx[int(last_pos[i])])
            bucket = touched.get(sx)
            if bucket is None:
                touched[sx] = bucket = []
            bucket.append(int(ublk[i]))
        sets = self.sets
        for sx, bids in touched.items():
            lines = sets[sx]
            promoted = [line_of[bid] for bid in bids]
            ids = set(map(id, promoted))
            rest = [line for line in lines if id(line) not in ids]
            lines[:] = promoted + rest


def make_span(image, arch, jstatic, step_energy, access_amount, hit_amount,
              overhead_leak=None, hit_ovh=None, stats=None):
    """A :class:`CompiledSpanState`, or None on any construction
    failure — the caller falls back to the scalar ``_SpanState``, so a
    corrupt store entry or an unexpected geometry can never take a
    replay down."""
    try:
        return CompiledSpanState(
            image, arch, jstatic, step_energy, access_amount, hit_amount,
            overhead_leak, hit_ovh, stats=stats,
        )
    except Exception:
        return None
