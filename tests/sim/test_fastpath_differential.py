"""The fast path's correctness gate: bit-identity with the reference.

Every registered workload runs under Clank and NvMR with the JIT and
watchdog policies twice — once on the seed per-instruction interpreter
(``fast=False``) and once on the fast-path engine — and the *entire*
observable outcome must match exactly: the full :class:`RunResult`
(energy breakdown floats bit-for-bit, cycle counts, backups by reason,
every event counter), the platform event log length, and every final
NVM memory word.

Any divergence — however small — means the fast path changed modeled
behaviour, not just speed, and is a bug by definition.

The ``gate``-marked speed floor (``pytest -m gate tests/sim``) checks
that the fast path still pays for itself.
"""

import time
from dataclasses import replace

import pytest

from repro.energy.faultinject import AdversarialSource, boundary_sweep
from repro.energy.traces import HarvestTrace
from repro.sim.platform import Platform, PlatformConfig
from repro.workloads import BENCHMARKS, load_program, run_workload

ARCHES = ("clank", "nvmr")
POLICIES = ("jit", "watchdog")
TRACE_SEED = 0


def _run(bench, arch, policy, fast):
    config = PlatformConfig(arch=arch, policy=policy, fast=fast)
    platform = Platform(
        load_program(bench),
        config,
        trace=HarvestTrace(TRACE_SEED),
        benchmark_name=bench,
    )
    return platform.run(), platform


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("policy", POLICIES)
def test_fast_path_is_bit_identical(bench, arch, policy):
    ref_result, ref_platform = _run(bench, arch, policy, fast=False)
    fast_result, fast_platform = _run(bench, arch, policy, fast=True)

    # Field-by-field so a failure names exactly what diverged.
    for name in ref_result.__dataclass_fields__:
        assert getattr(fast_result, name) == getattr(ref_result, name), name
    assert fast_result == ref_result

    assert len(fast_platform.events) == len(ref_platform.events)
    assert fast_platform.nvm._words == ref_platform.nvm._words


#: Minimum fast/reference speedup on the smoke Figure 10 experiment: far
#: under the ratio a quiet host measures, so only a real regression
#: trips it, not timing noise.
FAST_SPEED_FLOOR = 1.5


@pytest.mark.gate
def test_fast_engine_speeds_up_fig10_smoke():
    """The smoke Figure 10 reduce, every distinct run simulated once by
    ``run_workload`` (no replay, no run cache), takes at least 1.5x
    fewer CPU seconds on the fast engine than on the reference
    interpreter."""
    from repro.analysis.engine import ExperimentSettings, get_experiment, job_key

    settings = ExperimentSettings.smoke()
    fig10 = get_experiment("fig10")
    # One-time costs outside the timing: compilation and the
    # Spendthrift model's lazy training.
    for bench in settings.benchmarks:
        load_program(bench)
    run_workload("hist", arch="clank", policy="spendthrift", trace_seed=0)
    seconds = {}
    for fast in (True, False):
        runs = {}

        def fetch(benchmark, config, trace_seed):
            key = job_key((benchmark, config, trace_seed))
            if key not in runs:
                runs[key] = run_workload(
                    benchmark,
                    config=replace(config, fast=fast),
                    trace=HarvestTrace(trace_seed),
                )
            return runs[key]

        start = time.process_time()
        fig10.reduce(settings, fetch)
        seconds[fast] = time.process_time() - start
    speedup = seconds[False] / seconds[True]
    assert speedup >= FAST_SPEED_FLOOR, (
        f"fast {seconds[True]:.2f}s vs reference {seconds[False]:.2f}s "
        f"({speedup:.2f}x < {FAST_SPEED_FLOOR}x)"
    )


# ------------------------------------------------- adversarial schedules
def _run_injected(program, arch, policy, fast, schedule):
    config = PlatformConfig(
        arch=arch,
        policy=policy,
        capacitor_energy=1e9,
        watchdog_period=700,
        max_steps=400_000,
        fast=fast,
    )
    platform = Platform(
        program,
        config,
        trace=AdversarialSource(schedule),
        benchmark_name="inject-diff",
    )
    return platform.run(), platform


def _assert_engines_identical(program, arch, policy, schedule):
    ref_result, ref_platform = _run_injected(program, arch, policy, False, schedule)
    fast_result, fast_platform = _run_injected(program, arch, policy, True, schedule)
    for name in ref_result.__dataclass_fields__:
        assert getattr(fast_result, name) == getattr(ref_result, name), (
            name, schedule,
        )
    assert len(fast_platform.events) == len(ref_platform.events), schedule
    assert fast_platform.nvm._words == ref_platform.nvm._words, schedule


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("policy", POLICIES)
def test_fast_path_identical_under_adversarial_schedules(arch, policy):
    """The injector hooks sit at the same boundary in both engines, so
    bit-identity must survive faults at instruction, mid-backup, and
    post-restore boundaries — single faults swept plus a compound
    schedule mixing all three kinds."""
    from repro.verify.progen import generate_asm_spec

    program = generate_asm_spec(17).program()
    for source in boundary_sweep(
        step_window=(1, 2, 7, 40, 200), backups=2, restores=1
    ):
        _assert_engines_identical(program, arch, policy, source.schedule)
    _assert_engines_identical(
        program, arch, policy,
        (("step", 11), ("step", 90), ("backup", 2), ("restore", 1)),
    )
