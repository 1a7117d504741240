"""The replayer's correctness gate: bit-identity with the simulator.

The record/replay pipeline (:mod:`repro.sim.replay`) claims its results
are indistinguishable from full simulation.  This suite holds it to
that across the *entire* registered architecture and policy matrix and
all four executors at once — the reference interpreter, the fast
engine, the scalar replay window and the compiled-epoch replay window
(:mod:`repro.sim.epochs`) must agree on the full :class:`RunResult`
(energy floats bit for bit, every counter), the platform event-log
length, every final NVM word, the committed checkpoint cursor and the
verified program outputs — including configurations where the
simulator itself fails (``never`` on an architecture that needs
backups must fail identically under replay).

Tests marked ``gate`` are left out of the default run (``pytest -m
gate tests/sim`` runs them): the full Figure 10 grid through the same
four-way compare, and the compiled executor's speed floor.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ARCHITECTURES
from repro.arch.clank import ClankArchitecture
from repro.cpu.fastcore import inlines_cache_hits
from repro.energy.traces import HarvestTrace
from repro.policies import POLICIES
from repro.policies.task import TaskBoundaryPolicy
from repro.sim import epochs
from repro.sim.epochs import guard_trip_step
from repro.sim.platform import Platform, PlatformConfig, SimulationError
from repro.sim.replay import (
    ReplayPlatform,
    get_image,
    replay_supported,
    replay_workload,
)
from repro.sim.trace import DERIVED_CACHE_ENTRIES
from repro.sim.tracing import InstructionTracer
from repro.workloads import BENCHMARKS, load_program, run_workload, verify_platform

#: Every registered architecture the replayer serves (ideal is
#: intentionally bypassed; see test_ideal_is_bypassed).
REPLAY_ARCHES = sorted(a for a in ARCHITECTURES if a != "ideal")


def _outcome(platform):
    """Run a platform, folding a simulator failure into the outcome so
    combinations that legitimately die (e.g. ``never`` without enough
    capacitor) must die identically under replay."""
    try:
        result = platform.run()
    except SimulationError as exc:
        return ("error", str(exc)), platform
    return ("ok", result), platform


def _compare(bench, config, seed=0):
    """Reference == fast == scalar replay == compiled replay; returns
    the non-fast ``(outcome, platform)`` pairs by engine tag."""
    program = load_program(bench)
    image = get_image(bench)
    sim_out, sim = _outcome(
        Platform(program, config, trace=HarvestTrace(seed), benchmark_name=bench)
    )
    others = {
        "reference": _outcome(
            Platform(
                program,
                replace(config, fast=False),
                trace=HarvestTrace(seed),
                benchmark_name=bench,
            )
        ),
        "scalar-replay": _outcome(
            ReplayPlatform(
                program, image, config,
                trace=HarvestTrace(seed), benchmark_name=bench,
                compiled=False,
            )
        ),
        "compiled-replay": _outcome(
            ReplayPlatform(
                program, image, config,
                trace=HarvestTrace(seed), benchmark_name=bench,
                compiled=True,
            )
        ),
    }
    for tag, (out, plat) in others.items():
        assert out[0] == sim_out[0], tag
        if sim_out[0] == "ok":
            sim_result, result = sim_out[1], out[1]
            # Field-by-field so a failure names exactly what diverged.
            for name in sim_result.__dataclass_fields__:
                assert getattr(result, name) == getattr(sim_result, name), (
                    tag, name,
                )
            assert len(plat.events) == len(sim.events), tag
            # Each executor must also reproduce memory *contents*, not
            # just the stats — energy and counters do not depend on
            # stored values, so this catches a whole class of
            # data-path bugs the result comparison cannot.
            assert plat.nvm._words == sim.nvm._words, tag
            verify_platform(bench, plat)
        else:
            assert out[1] == sim_out[1], tag
    if sim_out[0] == "ok":
        # Both replay modes must land on the same committed checkpoint
        # cursor — the trace position a restore would resume from.
        scalar_plat = others["scalar-replay"][1]
        compiled_plat = others["compiled-replay"][1]
        assert (
            compiled_plat.nvm.committed_checkpoint().get("replay_k")
            == scalar_plat.nvm.committed_checkpoint().get("replay_k")
        )
    return others


#: Architectures whose every access calls the architecture (no inline
#: cache-hit path): replay gives them no quantum window, because one
#: that stops at every memory op measured slower than none.
NO_INLINE_HITS = {"clank_original", "hibernus", "hoop"}


@pytest.mark.parametrize("arch", REPLAY_ARCHES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_replay_matches_simulator_across_matrix(arch, policy):
    others = _compare("hist", PlatformConfig(arch=arch, policy=policy))
    if arch in NO_INLINE_HITS:
        for tag in ("scalar-replay", "compiled-replay"):
            platform = others[tag][1]
            assert not inlines_cache_hits(platform.arch), tag
            assert platform.stats.windows == 0, tag


class _ReorderSensitiveClank(ClankArchitecture):
    """Clank with a backup estimate declared sensitive to LRU order."""

    name = "clank_reorder_sensitive"
    estimate_reorder_sensitive = True


def test_reorder_sensitive_arch_replays_with_growing_floor(monkeypatch):
    """An inline-hit architecture whose estimate LRU promotions may
    move gets no static floor under JIT's event-revoked guard, and
    still replays bit-identically."""
    name = _ReorderSensitiveClank.name
    monkeypatch.setitem(ARCHITECTURES, name, _ReorderSensitiveClank)
    config = PlatformConfig(arch=name, policy="jit")
    assert POLICIES["jit"].guard_event_revoke
    others = _compare("hist", config)
    for tag in ("scalar-replay", "compiled-replay"):
        platform = others[tag][1]
        assert inlines_cache_hits(platform.arch), tag
        assert platform.core._span.jstatic is False, tag
        assert platform.stats.windows > 0, tag


@pytest.mark.parametrize("bench", ["qsort", "dwt"])
@pytest.mark.parametrize("arch", ["clank", "nvmr"])
def test_replay_matches_simulator_across_benchmarks(bench, arch):
    _compare(bench, PlatformConfig(arch=arch, policy="jit"), seed=1)


#: The Figure 10 configurations: NvMR vs Clank under each backup
#: scheme, the paper's headline result.
FIG10_CONFIGS = [
    (arch, policy)
    for arch in ("clank", "nvmr")
    for policy in ("jit", "spendthrift", "watchdog")
]

#: The Figure 10 grid: every benchmark under two harvest traces.
FIG10_GRID = [
    (bench, seed, arch, policy)
    for bench in BENCHMARKS
    for seed in (0, 1)
    for arch, policy in FIG10_CONFIGS
]


@pytest.mark.gate
@pytest.mark.parametrize("bench,seed,arch,policy", FIG10_GRID)
def test_fig10_grid(bench, seed, arch, policy):
    _compare(bench, PlatformConfig(arch=arch, policy=policy), seed=seed)


#: A sampled sub-grid of the Pareto sweeps' tunables (one non-default
#: value per knob, from each policy's TunableSpec grid) — before the
#: tuning sweeps, replay had only ever been exercised at the default
#: thresholds.
TUNED_SUBGRID = [
    ("jit", {"margin": 4.0}),
    ("watchdog", {"period": 1000}),
    ("spendthrift", {"check_interval": 25}),
    ("task", {"min_task_cycles": 500}),
    ("task", {"max_task_cycles": 12000}),
]

_TUNED_IDS = [
    f"{policy}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
    for policy, kwargs in TUNED_SUBGRID
]


@pytest.mark.parametrize("arch", ["clank", "nvmr"])
@pytest.mark.parametrize("policy,kwargs", TUNED_SUBGRID, ids=_TUNED_IDS)
def test_replay_matches_simulator_for_tuned_thresholds(arch, policy, kwargs):
    _compare(
        "hist",
        PlatformConfig(arch=arch, policy=policy, policy_kwargs=dict(kwargs)),
    )


@pytest.mark.parametrize("policy,kwargs", TUNED_SUBGRID, ids=_TUNED_IDS)
def test_engines_agree_for_tuned_thresholds(policy, kwargs):
    """Fast engine == reference engine == replay, bit for bit, at swept
    thresholds (the quantum-guard skipping must stay unobservable when
    the thresholds move)."""
    program = load_program("hist")
    outcomes = {}
    for fast in (True, False):
        config = PlatformConfig(
            arch="nvmr", policy=policy, fast=fast, policy_kwargs=dict(kwargs)
        )
        platform = Platform(
            program, config, trace=HarvestTrace(0), benchmark_name="hist"
        )
        outcomes[fast] = (platform.run(), platform)
    fast_result, fast_platform = outcomes[True]
    ref_result, ref_platform = outcomes[False]
    for name in ref_result.__dataclass_fields__:
        assert getattr(fast_result, name) == getattr(ref_result, name), name
    assert len(fast_platform.events) == len(ref_platform.events)
    assert fast_platform.nvm._words == ref_platform.nvm._words
    verify_platform("hist", fast_platform)


def test_replay_workload_verifies_outputs():
    result = replay_workload("hist", arch="nvmr", policy="jit", trace_seed=0)
    assert result.benchmark == "hist"
    assert result.arch == "nvmr"


def test_ideal_is_bypassed():
    # Ideal is not crash-consistent (it measures the violations the
    # other architectures prevent), so its re-executed sections diverge
    # from the natural trace and replay refuses to serve it.
    assert not replay_supported(PlatformConfig(arch="ideal", policy="jit"))
    assert not replay_supported(
        PlatformConfig(arch="nvmr", policy="jit", fast=False)
    )
    assert replay_supported(PlatformConfig(arch="nvmr", policy="jit"))


def test_compiled_knob_and_fallback(monkeypatch):
    """``REPRO_REPLAY_COMPILED`` selects the window executor, and any
    construction failure falls back to the scalar window silently."""
    from repro.sim.replay import _SpanState

    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch="nvmr", policy="jit")

    def span_of(platform):
        return platform._make_span(
            jstatic=True, step_energy=1.0,
            access_amount=1.0, hit_amount=3.0,
        )

    platform = ReplayPlatform(
        program, image, config, trace=HarvestTrace(0), benchmark_name="hist"
    )
    monkeypatch.setenv("REPRO_REPLAY_COMPILED", "0")
    assert not epochs.compiled_enabled()
    assert type(span_of(platform)) is _SpanState
    monkeypatch.setenv("REPRO_REPLAY_COMPILED", "1")
    assert epochs.compiled_enabled()
    assert type(span_of(platform)) is epochs.CompiledSpanState
    # The explicit constructor override beats the environment knob.
    forced_off = ReplayPlatform(
        program, image, config, trace=HarvestTrace(0),
        benchmark_name="hist", compiled=False,
    )
    assert type(span_of(forced_off)) is _SpanState
    # Construction failure (a poisoned script store, an unexpected
    # geometry) must degrade to the scalar window, never to an error.
    def boom(*args, **kwargs):
        raise RuntimeError("poisoned script")

    monkeypatch.setattr(epochs, "get_script", boom)
    assert type(span_of(platform)) is _SpanState


@pytest.mark.parametrize("arch", ["clank", "nvmr"])
@pytest.mark.parametrize("policy", ["jit", "spendthrift", "watchdog"])
def test_compiled_replay_equals_scalar_under_adversarial_chunking(
    monkeypatch, policy, arch
):
    """Pathological chunk boundaries (prefix=1, chunk=2) must not move
    a single bit — every window exercises the chunk-edge logic, under
    each guard regime: JIT's event-revoked floor, and the cycle budgets
    of spendthrift and the watchdog."""
    monkeypatch.setattr(epochs, "_SCALAR_PREFIX", 1)
    monkeypatch.setattr(epochs, "_CHUNK", 2)
    monkeypatch.setattr(epochs, "_GM2_MIN_SPAN", 1)
    monkeypatch.setattr(epochs, "_ADAPT_MIN_GAIN", 0)
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch=arch, policy=policy)
    results = {}
    for compiled in (False, True):
        platform = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist", compiled=compiled,
        )
        results[compiled] = (platform.run(), platform)
    scalar_result, scalar_platform = results[False]
    compiled_result, compiled_platform = results[True]
    for name in scalar_result.__dataclass_fields__:
        assert getattr(compiled_result, name) == getattr(
            scalar_result, name
        ), name
    assert compiled_platform.nvm._words == scalar_platform.nvm._words
    # The compiled executor must actually have carried some windows.
    assert compiled_platform.stats.compiled_windows > 0


#: Minimum compiled/scalar replay throughput on the long-window
#: benchmarks: headroom for timing noise, not a target.
COMPILED_SPEED_FLOOR = 0.9


@pytest.mark.gate
@pytest.mark.parametrize("bench", ["basicmath", "2dconv"])
def test_compiled_replay_keeps_pace_with_scalar(bench):
    """On the two benchmarks with the longest compiled windows, where
    vectorized windows must pay for their fixed costs, compiled replay
    runs the six Figure 10 configurations at no less than 0.9x the
    scalar window's speed (CPU seconds, best of two per executor, after
    an untimed pass that builds the epoch scripts) with equal results."""
    program = load_program(bench)
    image = get_image(bench)

    def sweep(compiled):
        seconds, results = 0.0, []
        for arch, policy in FIG10_CONFIGS:
            platform = ReplayPlatform(
                program, image, PlatformConfig(arch=arch, policy=policy),
                trace=HarvestTrace(0), benchmark_name=bench,
                compiled=compiled,
            )
            start = time.process_time()
            results.append(platform.run())
            seconds += time.process_time() - start
        return seconds, results

    sweep(compiled=True)
    (scalar_s, scalar), (compiled_s, compiled) = (
        min((sweep(mode) for _ in range(2)), key=lambda run: run[0])
        for mode in (False, True)
    )
    assert compiled == scalar
    ratio = scalar_s / compiled_s
    assert ratio >= COMPILED_SPEED_FLOOR, (
        f"{bench}: compiled {compiled_s:.2f}s vs scalar {scalar_s:.2f}s "
        f"({ratio:.2f}x < {COMPILED_SPEED_FLOOR}x)"
    )


def test_task_replay_uses_boundary_mask(monkeypatch):
    """The task policy's call-boundary opcodes stand in for its retire
    hook: replay never calls the hook (the per-step mask replaced it)
    and still matches the fast engine bit for bit."""
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch="nvmr", policy="task")

    def no_hook(self, pc, instr, cycles):
        raise AssertionError("task replay ran the retire hook")

    with monkeypatch.context() as patch:
        patch.setattr(TaskBoundaryPolicy, "_on_retire", no_hook)
        replay = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist",
        )
        replay_result = replay.run()
    fast = Platform(
        program, config, trace=HarvestTrace(0), benchmark_name="hist"
    )
    fast_result = fast.run()
    for name in fast_result.__dataclass_fields__:
        assert getattr(replay_result, name) == getattr(fast_result, name), name
    assert replay.nvm._words == fast.nvm._words


@pytest.mark.parametrize("arch", ["clank", "nvmr", "hoop"])
@pytest.mark.parametrize("policy", ["jit", "watchdog", "task"])
def test_retire_hooks_see_identical_streams(arch, policy):
    """An attached instruction tracer sees the same retired stream under
    replay, the fast engine and the reference interpreter, and does not
    perturb the run.  The task cases chain the policy's own hook behind
    the tracer's, so replay cannot swap it for the boundary mask."""
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch=arch, policy=policy)
    platforms = {
        "replay": ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist",
        ),
        "fast": Platform(
            program, config, trace=HarvestTrace(0), benchmark_name="hist"
        ),
        "reference": Platform(
            program, replace(config, fast=False), trace=HarvestTrace(0),
            benchmark_name="hist",
        ),
    }
    runs = {}
    for tag, platform in platforms.items():
        tracer = InstructionTracer(capacity=None).attach(platform.core)
        runs[tag] = (platform.run(), tracer, platform)
    ref_result, ref_tracer, ref_platform = runs["reference"]
    assert ref_tracer.retired == ref_result.instructions
    for tag in ("replay", "fast"):
        result, tracer, platform = runs[tag]
        assert tracer.entries == ref_tracer.entries, tag
        assert tracer.retired == ref_tracer.retired, tag
        assert tracer.cycles == ref_tracer.cycles, tag
        assert result == ref_result, tag
        assert platform.nvm._words == ref_platform.nvm._words, tag


def test_replay_checkpoint_carries_cursor(monkeypatch):
    """The trace cursor rides in the checkpoint the core builds — no
    architecture method is shadowed per instance — and a restore after
    a power failure resumes the stream from the committed cursor."""
    program = load_program("hist")
    image = get_image("hist")
    config = PlatformConfig(arch="nvmr", policy="watchdog")
    platform = ReplayPlatform(
        program, image, config, trace=HarvestTrace(0), benchmark_name="hist"
    )
    arch = platform.arch
    restores = []
    original_restore = type(arch).restore

    def watched_restore(self):
        original_restore(self)
        payload = self.nvm.committed_checkpoint()
        restores.append((payload["replay_k"], platform.core.k))

    monkeypatch.setattr(type(arch), "restore", watched_restore)
    platform.run()
    assert platform.power_failures > 0
    for name in ("snapshot_payload", "restore"):
        assert name not in vars(arch), name
    assert restores and all(k == cursor for k, cursor in restores)
    assert any(k > 0 for k, _ in restores)
    payload = platform.nvm.committed_checkpoint()
    assert payload["checkpoint"].pc == image.pcs[payload["replay_k"]]
    assert arch.snapshot_payload()["replay_k"] == platform.core.k


# ------------------------------------------------- guard_trip_step
def _scalar_trip_step(cycles, k, skipped, budget):
    """The scalar guard loop: first step whose cycles trip the budget."""
    for t in range(k, len(cycles)):
        skipped += cycles[t]
        if skipped >= budget:
            return t
    return len(cycles)  # budget outlives the trace


@settings(max_examples=300, deadline=None)
@given(
    cycles=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=40),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    skipped=st.integers(min_value=0, max_value=30),
    budget=st.integers(min_value=1, max_value=120),
)
def test_guard_trip_step_matches_scalar_loop(cycles, k_frac, skipped, budget):
    cyc_cum = np.zeros(len(cycles) + 1, dtype=np.int64)
    np.cumsum(cycles, out=cyc_cum[1:])
    k = int(k_frac * (len(cycles) - 1))
    # The executor only ever asks with skipped < budget (a guard that
    # already tripped is revoked before any lookup).
    if skipped >= budget:
        skipped = budget - 1
    # Both forms report "budget outlives the trace" as index len(cycles)
    # (== len(cyc_cum) - 1, one past the last real step).
    assert guard_trip_step(cyc_cum, k, skipped, budget) == _scalar_trip_step(
        cycles, k, skipped, budget
    )


def test_span_tables_cache_is_lru():
    """The 4-entry ``span_tables`` cache must evict least-recently-*used*,
    not oldest-inserted — a sweep alternating between two cost tables
    (e.g. scalar vs compiled cross-checks of the same config) would
    otherwise rebuild the flat charge arrays on every window."""
    image = get_image("hist")
    image._span_tables.clear()

    def key(step_energy):
        return (step_energy, 1.0, 3.0, None, None)

    tables = {e: image.span_tables(e, 1.0, 3.0) for e in (1.0, 2.0, 3.0, 4.0)}
    # A hit returns the cached tuple (identity, not a rebuild) and
    # refreshes the entry to most-recently-used.
    assert image.span_tables(1.0, 1.0, 3.0) is tables[1.0]
    # A fifth key evicts the true LRU (2.0), not the oldest insert (1.0).
    image.span_tables(5.0, 1.0, 3.0)
    assert key(2.0) not in image._span_tables
    assert key(1.0) in image._span_tables
    assert image.span_tables(1.0, 1.0, 3.0) is tables[1.0]
    assert list(image._span_tables) == [key(3.0), key(4.0), key(5.0), key(1.0)]
    # The motivating pattern: alternating two hot keys over a full cache
    # must never thrash — every access stays a hit.
    for _ in range(8):
        assert image.span_tables(5.0, 1.0, 3.0) is not None
        assert image.span_tables(1.0, 1.0, 3.0) is tables[1.0]
    image._span_tables.clear()


def test_derived_caches_are_bounded_and_rebuild_bit_identically():
    """``amounts()`` and ``mem_layout()`` keep at most
    ``DERIVED_CACHE_ENTRIES`` keys each, so a long-lived process that
    sees many cost tables or cache geometries holds a bounded set of
    per-step lists; entries evicted and rebuilt replay identically."""
    image = get_image("qsort")
    for step_energy in range(1, 7):
        image.amounts(float(step_energy))
        image.overhead_amounts(float(step_energy))
    for set_shift in range(4, 10):
        image.mem_layout(15, set_shift, 7)
        image.span_geometry(15, set_shift, 7)
    for cache in (image._fwd_amounts, image._ovh_amounts,
                  image._geom_layouts, image._span_geoms):
        assert len(cache) <= DERIVED_CACHE_ENTRIES
    # The newest keys survived; the oldest were evicted.
    assert list(image._fwd_amounts) == [3.0, 4.0, 5.0, 6.0]
    assert (15, 4, 7) not in image._geom_layouts
    assert (15, 9, 7) in image._geom_layouts
    # Whatever this run needs was evicted above and is rebuilt.
    _compare("qsort", PlatformConfig(arch="clank", policy="jit"))
    _compare("qsort", PlatformConfig(arch="nvmr", policy="watchdog"))


def test_engine_routes_cache_misses_through_replay(monkeypatch):
    from repro.analysis.engine import _simulate

    calls = []
    import repro.sim.replay as replay_mod

    real = replay_mod.replay_workload

    def spy(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("name"))
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_mod, "replay_workload", spy)
    config = PlatformConfig(arch="clank", policy="jit")
    via_replay = _simulate("hist", config, 0)
    assert calls == ["hist"]

    via_sim = run_workload("hist", config=replace(config),
                           trace=HarvestTrace(0))
    assert via_sim == via_replay
    via_reference = _simulate("hist", replace(config, fast=False), 0)
    assert calls == ["hist"]  # fast=False: the simulator served the run
    assert via_reference == via_replay
