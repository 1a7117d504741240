"""Parallel experiment prefetching."""

from dataclasses import replace

from repro.analysis import ExperimentSettings, cached_run
from repro.analysis.engine import _config_key, _run_cache, clear_run_cache, get_experiment
from repro.analysis.experiments import fig10_spec
from repro.analysis.parallel import prefetch_runs
from repro.sim.platform import PlatformConfig

SMOKE = ExperimentSettings(traces=1, benchmarks=["qsort"], sweep_benchmarks=["qsort"])


def test_job_sets_cover_expected_shape():
    jobs = fig10_spec(policies=("jit",)).jobs(SMOKE)
    assert len(jobs) == 2  # clank + nvmr, one bench, one trace
    assert {config.arch for _, config, _ in jobs} == {"clank", "nvmr"}
    assert len(get_experiment("table3").jobs(SMOKE)) == 1
    assert len(get_experiment("fig10").jobs(SMOKE)) > len(jobs)


def test_prefetch_seeds_cache_serial():
    clear_run_cache()
    jobs = fig10_spec(policies=("jit",)).jobs(SMOKE)
    fresh = prefetch_runs(jobs, workers=1)
    assert len(fresh) == 2
    # All jobs now cached: a second prefetch does nothing.
    assert prefetch_runs(jobs, workers=1) == []
    for benchmark, config, seed in jobs:
        assert (benchmark, _config_key(config), seed) in _run_cache


def test_parallel_matches_serial():
    clear_run_cache()
    config = PlatformConfig(arch="clank", policy="jit")
    prefetch_runs([("qsort", config, 0)], workers=2)
    parallel_result = cached_run("qsort", replace(config), 0)
    clear_run_cache()
    serial_result = cached_run("qsort", replace(config), 0)
    assert parallel_result.total_energy == serial_result.total_energy
    assert parallel_result.backups == serial_result.backups
