"""Process-parallel experiment execution — thin caller of the scheduler.

The experiment drivers are serial (they share an in-process run cache).
For paper-scale averaging (``REPRO_FULL=1``: 10 traces x 10 benchmarks
x several configurations) that is hours of single-core simulation, so
:func:`prefetch_runs` pre-computes run results across worker processes
and seeds the cache; the drivers then find every run already cached.

Since the service refactor the execution core lives in
:mod:`repro.service.scheduler` — job planning against both cache
layers, trace pre-seeding, the long-lived backpressured worker pool and
in-flight deduplication are the process-wide scheduler's.  This module
keeps the synchronous surface the engine, benchmarks and tests call
(bit-identical to the pre-service code) and translates the scheduler's
structured :class:`~repro.service.scheduler.ProgressEvent`\\ s into the
historical ``progress(done, total, label)`` callbacks.

Usage (the engine does this for you — ``repro.analysis.engine.
run_experiment`` enumerates a spec's grid and prefetches it; call
``prefetch_runs`` directly only for custom job lists)::

    from repro.analysis.parallel import experiment_jobs, prefetch_runs

    prefetch_runs(experiment_jobs("fig10", settings), workers=8)
    results = fig10_backup_schemes(settings)   # all cache hits

Jobs already present in the persistent disk cache
(:mod:`repro.analysis.runcache`) are loaded parent-side instead of
being dispatched, and fresh results are written back to it, so a
parallel prefetch seeds exactly the entries serial execution would.

Workers are the scheduler's long-lived pool, so a worker's warm-up
(replay images, epoch scripts, Spendthrift's model) is paid once per
sweep, not once per experiment; jobs are deterministic, so parallel
and serial results are identical.
"""

from repro.analysis import experiments as exp
from repro.analysis.progress import report_progress
from repro.service.scheduler import (  # noqa: F401  (historical API)
    _execute,
    _job_kind,
    get_scheduler,
)


def prefetch_runs(jobs, workers=None, progress=None):
    """Run ``jobs`` (iterable of (benchmark, config, seed)) in parallel
    and seed the shared run cache.  Returns the number of fresh
    simulations actually executed (disk-cache hits don't count).

    ``progress(done, total, label)`` — optional callback fired after
    every completed job, in addition to the process-wide handler
    installed via :func:`repro.analysis.progress.set_progress_handler`.
    """

    def on_event(event):
        report_progress(event.done, event.total, event.text)
        if progress is not None:
            progress(event.done, event.total, event.text)

    return get_scheduler().run(jobs, workers=workers, on_event=on_event)


# ------------------------------------------------------------ job sets
# Job enumeration is owned by the experiment specs (one registry, one
# grid per experiment); everything here is a view over it.  The named
# helpers below are kept for callers of the historical API.
def experiment_jobs(experiment, settings=None):
    """The job list of a registered experiment (or a spec instance)."""
    from repro.analysis.engine import get_experiment

    if isinstance(experiment, str):
        experiment = get_experiment(experiment)
    return experiment.jobs(settings)


def fig10_jobs(settings=None, policies=("jit", "spendthrift", "watchdog")):
    """Every run Figure 10 (and by reuse Figure 11) needs."""
    return experiment_jobs(exp.fig10_spec(policies=policies), settings)


def fig12_jobs(settings=None, policies=("jit", "watchdog")):
    return experiment_jobs(exp.fig12_spec(policies=policies), settings)


def table3_jobs(settings=None):
    return experiment_jobs("table3", settings)


def all_headline_jobs(settings=None):
    """The union of every headline experiment's runs."""
    return fig10_jobs(settings) + fig12_jobs(settings) + table3_jobs(settings)
