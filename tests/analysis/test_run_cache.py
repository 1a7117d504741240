"""The persistent on-disk run cache: hits, misses and invalidation."""

import dataclasses
import json
import os
import stat

import pytest

import repro
from repro.analysis import runcache
from repro.analysis.engine import (
    _config_key,
    _run_cache,
    cached_run,
    clear_run_cache,
    job_key,
    run_experiment,
)
from repro.analysis.parallel import prefetch_runs
from repro.sim.platform import PlatformConfig, SimulationError
from repro.workloads import register_workload, unregister_workload

BENCH = "hist"
CONFIG = PlatformConfig(arch="clank", policy="jit")
SEED = 0


@pytest.fixture(autouse=True)
def _enable_disk_cache(monkeypatch):
    """Turn the disk layer on (the suite-wide fixture disables it); the
    cache directory is already isolated to this test's tmp_path."""
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    clear_run_cache()
    yield
    clear_run_cache()


def _entries():
    directory = runcache.cache_dir()
    return sorted(p.name for p in directory.glob("*.json")) if directory.is_dir() else []


def test_round_trip_and_cross_process_hit():
    first = cached_run(BENCH, CONFIG, SEED)
    assert len(_entries()) == 1
    # A fresh process is simulated by clearing the in-process layer:
    # the rerun must be served from disk, bit-identical, 0 simulations.
    clear_run_cache()
    fetched = runcache.fetch(BENCH, _config_key(CONFIG), SEED)
    assert fetched == first
    assert cached_run(BENCH, CONFIG, SEED) == first
    assert len(_entries()) == 1  # hit, not a re-store under a new key


def test_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", "0")
    cached_run(BENCH, CONFIG, SEED)
    assert _entries() == []


def test_config_change_misses():
    cached_run(BENCH, CONFIG, SEED)
    cached_run(BENCH, PlatformConfig(arch="clank", policy="jit", gbf_bits=4), SEED)
    assert len(_entries()) == 2
    # Trace seed is part of the key too.
    cached_run(BENCH, CONFIG, SEED + 1)
    assert len(_entries()) == 3


#: The PlatformConfig fields a run's outcome cannot depend on: only the
#: engine choice.  The step and period caps are keyed, because a capped
#: run raises where an uncapped one returns.
UNKEYED = {"fast"}


def _other_value(value):
    """A value of the same kind as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "_other"
    if isinstance(value, dict):
        return {"margin": 0.5}
    assert value is None
    return 7


@pytest.mark.parametrize(
    "name",
    [f.name for f in dataclasses.fields(PlatformConfig) if f.name not in UNKEYED],
)
def test_every_result_field_is_in_the_key(name):
    changed = dataclasses.replace(
        CONFIG, **{name: _other_value(getattr(CONFIG, name))}
    )
    key = _config_key(changed)
    assert key != _config_key(CONFIG)
    assert runcache.entry_key(BENCH, key, SEED) != runcache.entry_key(
        BENCH, _config_key(CONFIG), SEED
    )


@pytest.mark.parametrize("name", sorted(UNKEYED))
def test_unkeyed_fields_share_the_entry(name):
    changed = dataclasses.replace(
        CONFIG, **{name: _other_value(getattr(CONFIG, name))}
    )
    assert _config_key(changed) == _config_key(CONFIG)


def test_capped_run_never_reads_an_uncapped_record():
    """A cap the run exceeds raises, whether or not the uncapped run of
    the same benchmark, config and seed is already in either layer."""
    capped = dataclasses.replace(CONFIG, max_steps=1000)
    with pytest.raises(SimulationError, match="exceeded 1000 instructions"):
        cached_run(BENCH, capped, SEED)
    cached_run(BENCH, CONFIG, SEED)
    with pytest.raises(SimulationError, match="exceeded 1000 instructions"):
        cached_run(BENCH, capped, SEED)
    clear_run_cache()  # the uncapped record now lives on disk only
    with pytest.raises(SimulationError, match="exceeded 1000 instructions"):
        cached_run(BENCH, capped, SEED)


def test_program_edit_invalidates():
    source = "int out[1]; int main() { out[0] = 41; return 0; }"
    edited = "int out[1]; int main() { out[0] = 42; return 0; }"
    register_workload("rc_probe", source, lambda: {"g_out": [41]})
    try:
        key_before = runcache.entry_key("rc_probe", _config_key(CONFIG), SEED)
        cached_run("rc_probe", CONFIG, SEED)
        assert f"{key_before}.json" in _entries()
    finally:
        unregister_workload("rc_probe")
    clear_run_cache()
    register_workload("rc_probe", edited, lambda: {"g_out": [42]})
    try:
        key_after = runcache.entry_key("rc_probe", _config_key(CONFIG), SEED)
        assert key_after != key_before
        # The stale entry is never consulted: the edited program runs
        # fresh and verifies against its own (changed) reference.
        result = cached_run("rc_probe", CONFIG, SEED)
        assert result.benchmark == "rc_probe"
        assert f"{key_after}.json" in _entries()
    finally:
        unregister_workload("rc_probe")


def test_model_version_bump_invalidates(monkeypatch):
    key_v1 = runcache.entry_key(BENCH, _config_key(CONFIG), SEED)
    monkeypatch.setattr(repro, "MODEL_VERSION", repro.MODEL_VERSION + 1)
    key_v2 = runcache.entry_key(BENCH, _config_key(CONFIG), SEED)
    assert key_v1 != key_v2


def test_policy_kwargs_are_part_of_the_key():
    # The Pareto sweeps vary configurations only through policy_kwargs;
    # without this, every swept threshold would collide with the
    # default run in both cache layers.
    default = PlatformConfig(arch="nvmr", policy="watchdog")
    tuned = PlatformConfig(
        arch="nvmr", policy="watchdog", policy_kwargs={"period": 1000}
    )
    assert _config_key(default) != _config_key(tuned)
    # Kwarg order must not matter (canonical JSON, sorted keys).
    two_a = PlatformConfig(
        arch="nvmr", policy="task",
        policy_kwargs={"min_task_cycles": 500, "max_task_cycles": 12000},
    )
    two_b = PlatformConfig(
        arch="nvmr", policy="task",
        policy_kwargs={"max_task_cycles": 12000, "min_task_cycles": 500},
    )
    assert _config_key(two_a) == _config_key(two_b)
    # Tuned runs stay disk-cacheable (the component is a primitive
    # string), under a distinct entry.
    assert runcache.entry_key(BENCH, _config_key(tuned), SEED) is not None
    assert runcache.entry_key(
        BENCH, _config_key(tuned), SEED
    ) != runcache.entry_key(BENCH, _config_key(default), SEED)
    cached_run(BENCH, default, SEED)
    cached_run(BENCH, tuned, SEED)
    assert len(_entries()) == 2


def test_non_json_policy_kwargs_skip_disk():
    # Kwargs JSON can't express (an injected model object, say) fall
    # back to a repr tuple, which the disk layer correctly refuses.
    config = PlatformConfig(
        arch="nvmr", policy="jit", policy_kwargs={"margin": object()}
    )
    key = _config_key(config)
    assert runcache.entry_key(BENCH, key, SEED) is None


def test_non_primitive_config_key_skips_disk():
    from repro.policies import make_policy

    config = PlatformConfig(arch="clank", policy=make_policy("jit"))
    assert runcache.entry_key(BENCH, _config_key(config), SEED) is None
    cached_run(BENCH, config, SEED)
    assert _entries() == []


def test_corrupt_entry_is_a_miss():
    cached_run(BENCH, CONFIG, SEED)
    (path,) = runcache.cache_dir().glob("*.json")
    path.write_text("{not json")
    clear_run_cache()
    result = cached_run(BENCH, CONFIG, SEED)  # re-simulates, no raise
    assert json.loads(path.read_text())["result"]["benchmark"] == BENCH
    assert result.benchmark == BENCH


def test_truncated_entry_is_transparently_rerecorded():
    cached_run(BENCH, CONFIG, SEED)
    (path,) = runcache.cache_dir().glob("*.json")
    intact = path.read_text()
    path.write_text(intact[: len(intact) // 2])  # crashed non-atomic writer
    clear_run_cache()
    assert runcache.fetch(BENCH, _config_key(CONFIG), SEED) is None
    result = cached_run(BENCH, CONFIG, SEED)
    assert result.benchmark == BENCH
    assert path.read_text() == intact  # deterministic re-record, same bytes


def test_format_version_mismatch_is_a_miss():
    # Regression: `store` always wrote a "format" field but `fetch`
    # never checked it — an entry recorded under a different on-disk
    # format must be a miss, not a misread.
    first = cached_run(BENCH, CONFIG, SEED)
    (path,) = runcache.cache_dir().glob("*.json")
    entry = json.loads(path.read_text())
    assert entry["format"] == runcache._FORMAT_VERSION
    entry["format"] = runcache._FORMAT_VERSION + 1
    path.write_text(json.dumps(entry, sort_keys=True))
    clear_run_cache()
    assert runcache.fetch(BENCH, _config_key(CONFIG), SEED) is None
    # The miss re-simulates and re-records at the current format.
    assert cached_run(BENCH, CONFIG, SEED) == first
    assert json.loads(path.read_text())["format"] == runcache._FORMAT_VERSION


def test_crashed_writer_tmp_is_ignored_and_cleaned():
    cached_run(BENCH, CONFIG, SEED)
    directory = runcache.cache_dir()
    dropping = directory / "tmpcrashed.tmp"
    dropping.write_text('{"format": 1, "result": {"trunc')
    clear_run_cache()
    # The dropping is invisible to reads...
    assert runcache.fetch(BENCH, _config_key(CONFIG), SEED) is not None
    assert len(_entries()) == 1
    # ...and the clear path sweeps it along with the entries.
    runcache.clear_disk_cache()
    assert not dropping.exists()
    assert _entries() == []


def test_parallel_prefetch_seeds_same_entries_as_serial():
    jobs = [
        (BENCH, PlatformConfig(arch=arch, policy="jit"), seed)
        for arch in ("clank", "nvmr")
        for seed in (0, 1)
    ]
    fresh = prefetch_runs(jobs, workers=2)
    assert sorted(fresh) == sorted(job_key(job) for job in jobs)
    parallel_mem = dict(_run_cache)
    parallel_disk = _entries()

    clear_run_cache(disk=True)
    assert _entries() == []
    for benchmark, config, seed in jobs:
        cached_run(benchmark, config, seed)
    assert _entries() == parallel_disk
    assert dict(_run_cache) == parallel_mem

    # And a prefetch over a warm disk cache executes nothing fresh.
    clear_run_cache()
    assert prefetch_runs(jobs, workers=2) == []
    assert dict(_run_cache) == parallel_mem


def test_new_entries_and_artifacts_take_the_umask_mode(tmp_path):
    """Store entries and artifacts are created like any file a plain
    ``open()`` makes (0o666 less the umask), not owner-only."""
    old = os.umask(0o022)
    try:
        cached_run(BENCH, CONFIG, SEED)
        run = run_experiment("table2", artifact_dir=tmp_path / "artifacts")
    finally:
        os.umask(old)
    written = [runcache.cache_dir() / name for name in _entries()]
    written += [run.artifact_path, run.artifact_path.with_suffix(".txt")]
    assert len(written) == 3
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
