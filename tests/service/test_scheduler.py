"""The transport-agnostic scheduler core: caching, events, dedup.

The in-flight dedup tests are the acceptance gate for the service
refactor: two concurrent callers racing on the same job key must
execute the simulation exactly once, provably (the ``dedup_hits``
counter and the single ``_execute`` call are both asserted).
"""

import os
import threading

import pytest

import repro.service.scheduler as sched
from repro.analysis.engine import _config_key, _run_cache, clear_run_cache
from repro.service import ProgressEvent, Scheduler, get_scheduler
from repro.sim.platform import PlatformConfig

BENCH = "hist"
CONFIG = PlatformConfig(arch="clank", policy="jit")
JOB = (BENCH, CONFIG, 0)
KEY = (BENCH, _config_key(CONFIG), 0)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_run_cache()
    yield
    clear_run_cache()


def test_progress_event_renders_historical_label():
    event = ProgressEvent(done=3, total=6, kind="cached",
                          detail="hist/clank/jit/seed0")
    assert event.text == "cached:hist/clank/jit/seed0"


def test_run_executes_seeds_cache_and_reports():
    scheduler = Scheduler()
    events = []
    executed = scheduler.run(
        [JOB, (BENCH, CONFIG, 1)], workers=1, on_event=events.append
    )
    assert executed == [KEY, (BENCH, _config_key(CONFIG), 1)]
    assert KEY in _run_cache
    assert (BENCH, _config_key(CONFIG), 1) in _run_cache
    # Every unit of work ticked; labels carry bench/arch/policy/seed.
    kinds = [e.kind for e in events]
    # Fresh executions label their route: "sim", "replay" (scalar
    # window) or "replay[compiled]" (epoch scripts, the default).
    fresh = [k for k in kinds if k == "sim" or k.startswith("replay")]
    assert len(fresh) == 2
    assert events[-1].done == events[-1].total == 2
    assert all(e.detail.startswith("hist/clank/jit/seed")
               for e in events if e.kind != "record")
    stats = scheduler.stats()
    assert stats["executed"] == 2
    assert stats["inflight"] == 0


def test_warm_cache_executes_nothing():
    scheduler = Scheduler()
    assert scheduler.run([JOB], workers=1) == [KEY]
    events = []
    assert scheduler.run([JOB, JOB], workers=1, on_event=events.append) == []
    assert events == []  # in-process hits are pre-filtered, not ticked


def test_concurrent_identical_jobs_execute_once(monkeypatch):
    scheduler = Scheduler()
    real_execute = sched._execute
    calls = []
    owner_entered = threading.Event()
    release_owner = threading.Event()

    def gated_execute(job):
        calls.append(job)
        owner_entered.set()
        assert release_owner.wait(30)
        return real_execute(job)

    monkeypatch.setattr(sched, "_execute", gated_execute)

    results = {}

    def run_as(name):
        results[name] = scheduler.run([JOB], workers=1)

    owner = threading.Thread(target=run_as, args=("owner",))
    owner.start()
    assert owner_entered.wait(10)  # the owner holds the job in flight

    borrower = threading.Thread(target=run_as, args=("borrower",))
    borrower.start()
    # Deterministic rendezvous: wait until the borrower has claimed the
    # in-flight key (the counter increments under the claim lock).
    for _ in range(1000):
        if scheduler.stats()["dedup_hits"] == 1:
            break
        threading.Event().wait(0.01)
    assert scheduler.stats()["dedup_hits"] == 1

    release_owner.set()
    owner.join(timeout=30)
    borrower.join(timeout=30)

    # One simulation total: the owner executed, the borrower adopted.
    assert calls == [JOB]
    assert results == {"owner": [KEY], "borrower": []}
    assert KEY in _run_cache
    stats = scheduler.stats()
    assert stats["executed"] == 1
    assert stats["dedup_hits"] == 1
    assert stats["inflight"] == 0


def test_borrower_reexecutes_when_owner_dies(monkeypatch):
    scheduler = Scheduler()
    real_execute = sched._execute
    calls = []
    owner_entered = threading.Event()
    release_owner = threading.Event()

    def gated_execute(job):
        calls.append(job)
        if len(calls) == 1:  # the owner crashes mid-job
            owner_entered.set()
            assert release_owner.wait(30)
            raise RuntimeError("owner died")
        return real_execute(job)

    monkeypatch.setattr(sched, "_execute", gated_execute)

    outcome = {}

    def run_owner():
        try:
            scheduler.run([JOB], workers=1)
        except RuntimeError as error:
            outcome["owner"] = str(error)

    owner = threading.Thread(target=run_owner)
    owner.start()
    assert owner_entered.wait(10)

    events = []
    borrower = threading.Thread(
        target=lambda: outcome.setdefault(
            "borrower",
            scheduler.run([JOB], workers=1, on_event=events.append),
        )
    )
    borrower.start()
    for _ in range(1000):
        if scheduler.stats()["dedup_hits"] == 1:
            break
        threading.Event().wait(0.01)

    release_owner.set()
    owner.join(timeout=30)
    borrower.join(timeout=30)

    # The owner's crash released the key; the borrower noticed the
    # missing result and ran the job itself rather than hanging.
    assert outcome["owner"] == "owner died"
    assert outcome["borrower"] == [KEY]
    assert len(calls) == 2
    assert KEY in _run_cache
    assert [e.kind for e in events] == ["dedup"]
    assert scheduler.stats()["inflight"] == 0


def test_get_scheduler_is_a_process_singleton():
    assert get_scheduler() is get_scheduler()


# ------------------------------------------------------- worker pool
@pytest.fixture
def pooled():
    """A fresh scheduler whose worker pool is shut down afterwards."""
    scheduler = Scheduler()
    yield scheduler
    scheduler.close()


def _jobs(bench, seeds, arches=("clank", "nvmr")):
    return [(bench, PlatformConfig(arch=arch, policy="jit"), seed)
            for arch in arches for seed in seeds]


def test_back_to_back_runs_share_one_pool(pooled):
    assert len(pooled.run(_jobs(BENCH, (0,)), workers=2)) == 2
    assert len(pooled.run(_jobs(BENCH, (1,)), workers=2)) == 2
    stats = pooled.stats()
    assert stats["pools_started"] == 1
    assert stats["executed"] == 4


def test_serial_runs_start_no_pool(pooled):
    assert len(pooled.run(_jobs(BENCH, (0,)), workers=1)) == 2
    assert pooled.stats()["pools_started"] == 0


def test_repointed_store_gets_a_new_pool(pooled, monkeypatch, tmp_path):
    """Workers inherit the environment at fork time, so repointing
    ``REPRO_CACHE_DIR`` must re-create the pool: otherwise workers
    would keep writing epoch scripts into the old store."""
    from repro.sim.replay import clear_replay_caches

    # Workers must not inherit an image whose scripts are already in
    # memory, or they would never touch either store.
    clear_replay_caches()
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(first))
    assert len(pooled.run(_jobs(BENCH, (0,)), workers=2)) == 2
    assert list((first / "traces" / "scripts").glob("*.npz"))

    monkeypatch.setenv("REPRO_CACHE_DIR", str(second))
    clear_run_cache()
    assert len(pooled.run(_jobs(BENCH, (0,)), workers=2)) == 2
    assert pooled.stats()["pools_started"] == 2
    assert list((second / "traces" / "keys").iterdir())
    assert list((second / "traces" / "scripts").glob("*.npz"))


def test_workload_registered_after_pool_start_runs_in_workers(pooled):
    from repro.workloads import register_workload, unregister_workload

    pooled.run(_jobs(BENCH, (0,)), workers=2)
    name = register_workload(
        "pool_triple",
        "int out[1]; int main() { out[0] = 14 * 3; return 0; }",
        lambda: {"g_out": [42]},
    )
    try:
        assert len(pooled.run(_jobs(name, (0, 1)), workers=2)) == 4
        assert pooled.stats()["pools_started"] == 2
        for job in _jobs(name, (0, 1)):
            key = (name, _config_key(job[1]), job[2])
            assert _run_cache[key].benchmark == name
    finally:
        unregister_workload(name)


def test_dead_worker_breaks_one_run_and_the_next_gets_a_fresh_pool(
        pooled, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    real_execute = sched._execute

    def dying_execute(job):
        if job[2] == 7:
            os._exit(1)
        return real_execute(job)

    # Workers fork lazily at the first parallel run, so they inherit
    # the patched entry point.
    monkeypatch.setattr(sched, "_execute", dying_execute)
    with pytest.raises(BrokenProcessPool):
        pooled.run(_jobs(BENCH, (7,)), workers=2)
    assert pooled.stats()["inflight"] == 0

    assert len(pooled.run(_jobs(BENCH, (0,)), workers=2)) == 2
    assert pooled.stats()["pools_started"] == 2


def test_reused_workers_match_serial_bit_for_bit(pooled):
    """Two different experiments back to back through one pool (so
    workers switch benchmarks and drop replay state between them)
    equal a serial run of the same jobs."""
    from repro.analysis import ExperimentSettings, get_experiment

    smoke = ExperimentSettings(traces=1, benchmarks=["qsort", "hist"],
                               sweep_benchmarks=["qsort"])
    specs = [get_experiment(spec_id).jobs(smoke) for spec_id in ("table3", "fig10")]
    for jobs in specs:
        pooled.run(jobs, workers=2)
    assert pooled.stats()["pools_started"] == 1
    parallel = dict(_run_cache)

    clear_run_cache()
    serial = Scheduler()
    for jobs in specs:
        serial.run(jobs, workers=1)
    assert dict(_run_cache) == parallel


@pytest.mark.parametrize("workers", [1, 2])
def test_close_stops_a_run_in_progress(pooled, workers):
    """``close()`` during a run (the service stopping on SIGTERM): the
    run starts no further job and raises; the next run starts afresh."""
    jobs = _jobs(BENCH, (0, 1, 2))

    def close_after_the_first_job(event):
        if event.done == 1:
            pooled.close()

    with pytest.raises(sched.SchedulerClosed):
        pooled.run(jobs, workers=workers, on_event=close_after_the_first_job)
    executed = pooled.stats()["executed"]
    assert 1 <= executed < len(jobs)
    assert pooled.stats()["inflight"] == 0

    assert len(pooled.run(jobs, workers=workers)) == len(jobs) - executed
