"""Transport-agnostic scheduler core for simulation jobs.

Extracted from the experiment engine's parallel path (PR 3's
``prefetch_runs``): everything about *executing* a batch of
``(benchmark, config, trace_seed)`` jobs lives here — planning against
the two cache layers, trace pre-seeding, a long-lived worker pool with
a backpressured submission window, in-flight deduplication of identical
job keys across concurrent callers, and structured
:class:`ProgressEvent`\\ s.  The synchronous callers
(:func:`repro.analysis.parallel.prefetch_runs`, and through it
:func:`repro.analysis.engine.run_experiment` and the CLI) delegate to
the process-wide scheduler and are bit-identical to the pre-service
code; the HTTP service (:mod:`repro.service.server`) drives the same
instance from worker threads, so a job submitted over HTTP and the
same job running in-process coalesce instead of simulating twice.

Concurrency model
-----------------
One :class:`Scheduler` serves any number of calling threads.  Each
:meth:`Scheduler.run` call claims its jobs in the in-flight table
under a lock; a job another caller already owns is not re-executed —
the second caller waits on the owner's completion event and reads the
result from the shared run cache (counted in ``dedup_hits``, the
counter the service smoke test asserts).  Fresh jobs go to the
scheduler's worker pool with a bounded submission window (at most
``2 x workers`` outstanding futures — backpressure: a paper-scale
grid never materializes thousands of pickled futures), drained
as-completed so one slow job never blocks collection of fast ones.

Worker pool lifetime
--------------------
A :class:`Scheduler` keeps one long-lived ``ProcessPoolExecutor`` that
every parallel :meth:`Scheduler.run` reuses, so the service's requests
share warm workers (compiled programs, Spendthrift's trained model, the
current benchmark's replay image and epoch scripts).  A ``repro
experiment`` sweep hands the union of all its specs' jobs to one run
(:func:`repro.analysis.engine.run_experiments`), ordered by benchmark.
Workers are forked, so they see module state as of pool creation.  The
pool is therefore keyed by worker count, the ``REPRO_*`` environment
and the workload registry's generation
(:func:`repro.workloads.registry.registry_generation`), and re-created
when any of them changes.  A pool is never shut down while a run uses
it; a pool a dead worker broke is discarded (that run still raises, the
next run gets a fresh pool); the pool is closed at the end of a ``repro
experiment`` command, at interpreter exit and when the HTTP service
stops (SIGTERM included).  :meth:`Scheduler.close` also stops the runs
in progress: they submit no further job, wait for the ones the workers
have begun, and raise, so a stopping server does not finish its
requests first.  To bound their memory, pool workers keep replay state for one
benchmark at a time (:func:`repro.sim.replay.retain_benchmark`).
"""

import atexit
import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass


def _execute(job):
    """Worker entry point: run one (benchmark, config, seed) job.

    Routes through the engine's replay-aware dispatcher: eligible jobs
    stream the benchmark's recorded trace (fetched from the shared
    on-disk trace store, pre-seeded parent-side by :meth:`Scheduler.
    run`) instead of re-simulating; the rest run the full simulator.
    Both produce identical results.
    """
    benchmark, config, seed = job
    from repro.analysis.engine import _simulate

    result = _simulate(benchmark, config, seed)
    return job, result


def _pool_execute(job):
    """Pool-worker entry point: drop the replay state of every other
    benchmark (a long-lived worker would otherwise keep one image per
    benchmark it ever ran), then :func:`_execute` the job."""
    from repro.sim.replay import retain_benchmark

    retain_benchmark(job[0])
    return _execute(job)


def _pool_key(workers):
    """What a forked worker pool depends on: its size, the ``REPRO_*``
    environment the workers inherited and the workload registry."""
    from repro.workloads.registry import registry_generation

    env = tuple(sorted(
        (name, value) for name, value in os.environ.items()
        if name.startswith("REPRO_")
    ))
    return workers, env, registry_generation()


def _job_kind(job):
    """How a fresh job will execute: ``"replay[compiled]"`` (epoch
    scripts, the default), ``"replay"`` (scalar window) or ``"sim"``."""
    from repro.sim.epochs import compiled_enabled
    from repro.sim.replay import replay_supported

    _benchmark, config, _seed = job
    if replay_supported(config):
        return "replay[compiled]" if compiled_enabled() else "replay"
    return "sim"


def _describe(job):
    benchmark, config, seed = job
    policy = config.policy if isinstance(config.policy, str) else "custom"
    return f"{benchmark}/{config.arch}/{policy}/seed{seed}"


class SchedulerClosed(RuntimeError):
    """:meth:`Scheduler.close` stopped a run before all its jobs ran."""


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress tick of a scheduler run.

    ``kind`` is how the unit of work was satisfied — ``"cached"``
    (disk-cache hit), ``"record"`` (trace pre-seeding; does not advance
    ``done``), ``"replay"`` / ``"sim"`` (fresh execution) or
    ``"dedup"`` (an identical in-flight job owned by a concurrent
    caller completed and its result was adopted).  ``text`` renders
    the historical ``kind:detail`` progress-line label.
    """

    done: int
    total: int
    kind: str
    detail: str

    @property
    def text(self):
        return f"{self.kind}:{self.detail}"


class Scheduler:
    """Bounded-worker, cache-aware, deduplicating job executor."""

    #: Wall-clock bound on waiting for another caller's in-flight job
    #: (a crashed owner must not hang borrowers forever; on timeout the
    #: borrower re-executes the job itself).
    DEDUP_WAIT_SECONDS = 600.0

    def __init__(self, default_workers=None):
        self.default_workers = default_workers
        self._lock = threading.Lock()
        #: job_key -> completion event of the caller executing it.
        self._inflight = {}
        #: Lifetime counters (served by the service's ``/status``).
        self.runs = 0
        self.executed = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.pools_started = 0
        #: The pool new runs use, and the :func:`_pool_key` it was
        #: forked under.
        self._pool = None
        self._pool_key = None
        #: pool -> number of runs using it (the current pool and any
        #: replaced one still draining).
        self._pool_users = {}
        #: Completed by :meth:`close`: the runs already started then
        #: execute no further job.
        self._stop = Future()

    def stats(self):
        """Lifetime counters, for ``/status`` and the smoke gates."""
        with self._lock:
            return {
                "runs": self.runs,
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "dedup_hits": self.dedup_hits,
                "pools_started": self.pools_started,
                "inflight": len(self._inflight),
            }

    # ---------------------------------------------------- worker pool
    def _acquire_pool(self, workers):
        """The current pool for ``workers`` processes (re-created when
        its key changed), counted as in use until :meth:`_release_pool`."""
        key = _pool_key(workers)
        with self._lock:
            previous = self._pool
            if self._pool_key != key:
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self._pool_key = key
                self._pool_users[self._pool] = 0
                self.pools_started += 1
            pool = self._pool
            self._pool_users[pool] += 1
            stale = self._unused(previous)
        if stale is not None:
            stale.shutdown()
        return pool

    def _release_pool(self, pool, broken=False):
        """End one run's use of ``pool``; a broken pool is discarded."""
        with self._lock:
            self._pool_users[pool] -= 1
            if broken and pool is self._pool:
                self._pool = self._pool_key = None
            stale = self._unused(pool)
        if stale is not None:
            stale.shutdown()

    def close(self):
        """Retire the worker pool; it shuts down once no run uses it,
        and the next run starts a fresh one.  A run in progress starts
        no further job: it waits for the jobs its workers have begun,
        then raises :class:`SchedulerClosed`."""
        with self._lock:
            pool = self._pool
            self._pool = self._pool_key = None
            stale = self._unused(pool)
            stop, self._stop = self._stop, Future()
        stop.set_result(None)
        if stale is not None:
            stale.shutdown()

    def _unused(self, pool):
        """``pool`` if it is retired and no run uses it — dropped from
        the books for the caller to shut down outside the lock — else
        None.  The caller holds the lock."""
        if pool is None or pool is self._pool or self._pool_users[pool]:
            return None
        del self._pool_users[pool]
        return pool

    def run(self, jobs, workers=None, on_event=None):
        """Execute ``jobs`` (iterable of ``(benchmark, config, seed)``)
        and seed the shared run cache; returns the job keys of the
        fresh simulations this call actually executed, in completion
        order (cache and dedup hits are not among them).

        ``on_event(event)`` fires a :class:`ProgressEvent` after every
        completed unit of work (and per trace recording).
        """
        from repro.analysis import engine, runcache

        with self._lock:
            self.runs += 1
            stop = self._stop

        def _check_open(left):
            if stop.done():
                raise SchedulerClosed(
                    f"scheduler closed with {left} job(s) not run"
                )

        # Dedupe by cache key (job lists from several figures overlap)
        # and drop anything the in-process cache already holds.
        pending = []
        seen = set()
        for benchmark, config, seed in jobs:
            key = (benchmark, engine._config_key(config), seed)
            if key in engine._run_cache or key in seen:
                continue
            seen.add(key)
            pending.append((key, (benchmark, config, seed)))
        total = len(pending)
        done = 0

        def _tick(kind, detail):
            if on_event is not None:
                on_event(ProgressEvent(done=done, total=total, kind=kind,
                                       detail=detail))

        # Claim jobs in the in-flight table.  Keys a concurrent caller
        # already owns are *borrowed*: not re-executed, waited on below.
        owned, borrowed = [], []
        with self._lock:
            for key, job in pending:
                holder = self._inflight.get(key)
                if holder is not None:
                    borrowed.append((key, job, holder))
                    self.dedup_hits += 1
                else:
                    self._inflight[key] = threading.Event()
                    owned.append((key, job))

        def _release(key):
            with self._lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()

        executed = []
        try:
            # Parent-side disk-cache pass: cached results are cheap to
            # load and must not occupy worker slots.
            fresh_jobs = []
            for key, job in owned:
                benchmark, _config, seed = job
                result = runcache.fetch(benchmark, key[1], seed)
                if result is not None:
                    engine._run_cache[key] = result
                    _release(key)
                    done += 1
                    with self._lock:
                        self.cache_hits += 1
                    _tick("cached", _describe(job))
                else:
                    fresh_jobs.append((key, job))

            if fresh_jobs:
                # Pre-record phase: ensure every replay-eligible
                # benchmark's trace is in the shared on-disk store
                # before dispatch, so N workers sweeping the same
                # benchmark fetch one recorded trace instead of each
                # paying the record cost.  Ticks carry a ``record:``
                # label but do not advance the job counter (recording
                # is setup, not a job).
                self._seed_traces(fresh_jobs, _tick)

                def _finish(key, job, result):
                    nonlocal done
                    benchmark, _config, seed = job
                    engine._run_cache[key] = result
                    runcache.store(benchmark, key[1], seed, result)
                    _release(key)
                    done += 1
                    executed.append(key)
                    with self._lock:
                        self.executed += 1
                    _tick(_job_kind(job), _describe(job))

                workers = (workers or self.default_workers
                           or min(os.cpu_count() or 1, 8))
                if workers <= 1 or len(fresh_jobs) == 1:
                    for index, (key, job) in enumerate(fresh_jobs):
                        _check_open(len(fresh_jobs) - index)
                        _, result = _execute(job)
                        _finish(key, job, result)
                else:
                    # Bounded submission window, drained as futures
                    # complete: a slow job (picojpeg at paper scale)
                    # never blocks collection of the fast ones, and the
                    # queue never holds more than ~2 jobs per worker.
                    queue = list(reversed(fresh_jobs))
                    window = max(workers * 2, 2)
                    pool = self._acquire_pool(workers)
                    broken = False
                    running = {}
                    try:
                        while queue or running:
                            _check_open(len(queue) + len(running))
                            while queue and len(running) < window:
                                key, job = queue.pop()
                                future = pool.submit(_pool_execute, job)
                                running[future] = (key, job)
                            completed, _ = wait(
                                [stop, *running], return_when=FIRST_COMPLETED
                            )
                            for future in completed - {stop}:
                                key, job = running.pop(future)
                                _, result = future.result()
                                _finish(key, job, result)
                    except BrokenProcessPool:
                        broken = True
                        raise
                    finally:
                        # A failed run must not leave its queued jobs
                        # running on a pool other runs share.
                        for future in running:
                            future.cancel()
                        wait(running)
                        self._release_pool(pool, broken)
        except BaseException:
            # Never leave claimed keys in flight: borrowers elsewhere
            # would block on jobs nobody is executing any more.
            for key, _job in owned:
                _release(key)
            raise

        # Adopt results of borrowed jobs once their owners finish.
        for key, job, holder in borrowed:
            holder.wait(self.DEDUP_WAIT_SECONDS)
            if key not in engine._run_cache:
                benchmark, _config, seed = job
                result = runcache.fetch(benchmark, key[1], seed)
                if result is None:  # owner died: execute it ourselves
                    _check_open(1)
                    _, result = _execute(job)
                    runcache.store(benchmark, key[1], seed, result)
                    executed.append(key)
                    with self._lock:
                        self.executed += 1
                engine._run_cache[key] = result
            done += 1
            _tick("dedup", _describe(job))
        return executed

    @staticmethod
    def _seed_traces(fresh_jobs, tick):
        """Record (or fetch) the trace of every replay-eligible
        benchmark among ``fresh_jobs`` — one record per distinct
        (benchmark, seed); after this the on-disk trace store serves
        every worker process."""
        from repro.sim.replay import ensure_trace

        seeded = set()
        for _key, job in fresh_jobs:
            benchmark, _config, seed = job
            if (
                (benchmark, seed) in seeded
                or not _job_kind(job).startswith("replay")
            ):
                continue
            seeded.add((benchmark, seed))
            tick("record", f"{benchmark}/seed{seed}")
            ensure_trace(benchmark, seed)


#: The process-wide scheduler every synchronous caller and the HTTP
#: service share — sharing is what makes cross-caller dedup possible.
_scheduler = None
_scheduler_lock = threading.Lock()


def get_scheduler():
    """The lazily created process-wide :class:`Scheduler`."""
    global _scheduler
    with _scheduler_lock:
        if _scheduler is None:
            _scheduler = Scheduler()
            atexit.register(_scheduler.close)
        return _scheduler
