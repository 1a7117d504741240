"""Process-parallel experiment execution — thin caller of the scheduler.

Spec reductions are serial (they share an in-process run cache).  For
paper-scale averaging (``--full``: 10 traces x 10 benchmarks x
several configurations) that is hours of single-core simulation, so
:func:`prefetch_runs` pre-computes run results across worker processes
and seeds the cache; the reduce then finds every run already cached.

Since the service refactor the execution core lives in
:mod:`repro.service.scheduler` — job planning against both cache
layers, trace pre-seeding, the long-lived backpressured worker pool and
in-flight deduplication are the process-wide scheduler's.  This module
keeps the synchronous surface the engine and tests call and translates
the scheduler's structured
:class:`~repro.service.scheduler.ProgressEvent`\\ s into
``progress(done, total, label)`` callbacks.

:func:`repro.analysis.engine.run_experiments` enumerates the grids of
a sweep's specs and prefetches their union in one call; call
``prefetch_runs`` directly only for custom job lists, such as
``get_experiment("fig10").jobs(settings)``.

Jobs already present in the persistent disk cache
(:mod:`repro.analysis.runcache`) are loaded parent-side instead of
being dispatched, and fresh results are written back to it, so a
parallel prefetch seeds exactly the entries serial execution would.

Workers are the scheduler's long-lived pool, so a worker's warm-up
(replay images, epoch scripts, Spendthrift's model) is paid once per
sweep, not once per experiment; jobs are deterministic, so parallel
and serial results are identical.
"""

from repro.analysis.progress import report_progress
from repro.service.scheduler import get_scheduler


def prefetch_runs(jobs, workers=None, progress=None):
    """Run ``jobs`` (iterable of (benchmark, config, seed)) in parallel
    and seed the shared run cache.  Returns the job keys of the fresh
    simulations actually executed (disk-cache hits are not among them).

    ``progress(done, total, label)`` — optional callback fired after
    every completed job, in addition to the process-wide handler
    installed via :func:`repro.analysis.progress.set_progress_handler`.
    """

    def on_event(event):
        report_progress(event.done, event.total, event.text)
        if progress is not None:
            progress(event.done, event.total, event.text)

    return get_scheduler().run(jobs, workers=workers, on_event=on_event)
