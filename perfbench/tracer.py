"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public functions and methods of the ``repro``
layers with wrappers that time each call on the calling thread's CPU
clock (``time.thread_time``), keep a per-thread stack of open spans and
book every span's *self* time — its duration minus the part its child
spans cover — to the span's layer.  Counters (cache hits, script builds,
replay window statistics) are recorded at the same boundaries.  Nothing
in ``src/`` changes: the wrappers are installed by the benchmark process
(or by ``traced_cli.py`` for the CLI subprocess) and live only there.

Forked pool workers inherit the wrappers.  The wrapped worker entry
point resets the inherited parent state on its first call and dumps
the worker's totals to ``<worker_dir>/worker-<token>.json`` after every
job, so the benchmark can fold worker time into the traced total.
"""

import dataclasses
import functools
import importlib
import json
import os
import resource
import sys
import threading
import time

CLOCK = time.thread_time

#: ``ReplayStats`` counters summed into ``sim.replay.*``.
REPLAY_COUNTERS = ("windows", "window_steps", "compiled_windows",
                   "compiled_steps")
#: Reasons a replay window leaves the compiled executor
#: (``ReplayStats.fallbacks``); anything else lands in ``other``.
FALLBACK_REASONS = ("compiled_disabled", "construction", "policy_hint",
                    "probation", "tight_budget", "short_window",
                    "prefix_break")

#: Modules whose names the wrappers replace.  All are imported before
#: patching, so ``from x import f`` copies are found and replaced too.
MODULES = (
    "repro.workloads", "repro.workloads.registry", "repro.sim.trace",
    "repro.sim.tracestore", "repro.sim.epochs", "repro.sim.replay",
    "repro.sim.platform", "repro.analysis.runcache",
    "repro.analysis.engine", "repro.analysis.experiments",
    "repro.analysis.parallel", "repro.service.scheduler",
    "repro.service.server", "repro.arch",
    "repro.policies", "repro.policies.spendthrift",
    "repro.energy.accounting", "repro.cli",
)


def children_cpu():
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _ThreadState:
    __slots__ = ("ident", "stack", "self_s", "counts")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.self_s = {}
        self.counts = {}


class Tracer:
    """Per-layer self time and counters for the calls it wraps."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self.pid = os.getpid()
        #: Names this process's dump file (pids recur across pools).
        self.token = f"{self.pid}-{time.monotonic_ns()}"

    # ------------------------------------------------------ recording
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name, amount=1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def add_self(self, name, seconds):
        """Book ``seconds`` measured outside any span to ``name``."""
        self_s = self._state().self_s
        self_s[name] = self_s.get(name, 0.0) + seconds

    def wrap(self, layer, fn, before=None, after=None):
        """``fn`` timed as ``layer``.  ``before(args)`` returns a token
        for ``after(token, result, args)``, which runs once the span has
        closed, on success only."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            token = before(args) if before is not None else None
            frame = [0.0]
            stack = state.stack
            stack.append(frame)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = CLOCK() - start
                stack.pop()
                self_s = state.self_s
                self_s[layer] = self_s.get(layer, 0.0) + duration - frame[0]
                counts = state.counts
                counts[layer] = counts.get(layer, 0) + 1
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(token, result, args)
            return result

        return wrapper

    # ------------------------------------------------------- patching
    @staticmethod
    def _replace(original, replacement):
        """Point every ``repro`` module attribute holding ``original``
        at ``replacement``."""
        found = False
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not bound in any module")

    def patch_function(self, module, name, layer, before=None, after=None):
        original = getattr(module, name)
        self._replace(original, self.wrap(layer, original, before, after))

    def patch_method(self, cls, name, layer, before=None, after=None):
        original = cls.__dict__.get(name)
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self.wrap(layer, original.__func__, before, after)
            )
        else:
            wrapped = self.wrap(layer, getattr(cls, name), before, after)
        setattr(cls, name, wrapped)

    # ------------------------------------------------------ reporting
    def totals(self):
        """``(self_s, counts, per_thread_self_s)`` summed over threads."""
        self_s, counts, per_thread = {}, {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            thread_total = 0.0
            for name, value in state.self_s.items():
                self_s[name] = self_s.get(name, 0.0) + value
                thread_total += value
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
            per_thread[state.ident] = (
                per_thread.get(state.ident, 0.0) + thread_total
            )
        return self_s, counts, per_thread

    def dump(self, path):
        self_s, counts, _ = self.totals()
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump({"self_s": self_s, "counts": counts}, handle)
        os.replace(tmp, path)

    def _reset_in_child(self):
        """Forget the state a forked worker inherited from its parent."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self.pid = os.getpid()
        self.token = f"{self.pid}-{time.monotonic_ns()}"


def merge(dumps):
    """Sum ``{"self_s", "counts"}`` documents."""
    self_s, counts = {}, {}
    for doc in dumps:
        for name, value in doc["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return self_s, counts


def read_dumps(directory):
    docs = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                docs.append(json.load(handle))
    return docs


def install(tracer, worker_dir=None):
    """Wrap the layer boundaries the benchmark reports.

    ``worker_dir`` is where forked scheduler workers dump their totals;
    without it worker time stays in the unattributed remainder.
    """
    for name in MODULES:
        importlib.import_module(name)

    from repro.analysis import engine, runcache
    from repro.arch import ARCHITECTURES
    from repro.energy.accounting import EnergyLedger
    from repro.policies import POLICIES, spendthrift
    from repro.service import scheduler, server
    from repro.sim import epochs, trace, tracestore
    from repro.sim.platform import Platform
    from repro.sim.replay import ReplayPlatform
    from repro.workloads import registry

    count = tracer.count

    # workloads: compilation and output verification
    tracer.patch_function(registry, "compile_minic", "workloads.compile")
    tracer.patch_function(registry, "verify_platform", "workloads.verify")

    # sim.trace / sim.tracestore: recording and the trace store
    tracer.patch_function(trace, "record_trace", "sim.trace.record")
    tracer.patch_method(trace.ReplayImage, "__init__", "sim.trace.image")

    def after_trace_fetch(_token, result, _args):
        count("sim.tracestore.hits" if result is not None
              else "sim.tracestore.misses")

    tracer.patch_function(tracestore, "fetch", "sim.tracestore.fetch",
                          after=after_trace_fetch)
    tracer.patch_function(tracestore, "store", "sim.tracestore.store")

    # sim.epochs: script fetch-or-build and the script store
    tracer.patch_function(epochs, "get_script", "sim.epochs.script")
    tracer.patch_method(epochs.EpochScript, "build", "sim.epochs.build")

    def after_script_store(_token, _result, args):
        trace_digest, geom_key, cost_key = args[:3]
        path = epochs._scripts().path(
            epochs.script_key(trace_digest, geom_key, cost_key)
        )
        try:
            count("sim.epochs.script_bytes", os.path.getsize(path))
        except OSError:
            pass

    tracer.patch_function(epochs, "store_script", "sim.epochs.store",
                          after=after_script_store)

    # sim.replay and sim.platform (the fast engine / reference loop)
    def after_replay(_token, result, args):
        stats = args[0].stats
        for field in REPLAY_COUNTERS:
            count(f"sim.replay.{field}", getattr(stats, field))
        for reason, n in stats.fallbacks.items():
            key = reason if reason in FALLBACK_REASONS else "other"
            count(f"sim.replay.fallback.{key}", n)
        count("sim.replay.steps", result.instructions)

    tracer.patch_method(ReplayPlatform, "run", "sim.replay.run",
                        after=after_replay)
    tracer.patch_method(
        Platform, "run", "sim.platform.run",
        after=lambda _t, result, _a: count("sim.platform.instructions",
                                           result.instructions),
    )

    # arch: the miss/backup/restore path, per registered architecture
    for name, cls in ARCHITECTURES.items():
        for method, op in (("backup", "backup"), ("restore", "restore"),
                           ("estimate_backup_cost", "estimate")):
            tracer.patch_method(cls, method, f"arch.{name}.{op}")

    # policies: only classes that override decide() are wrapped — the
    # run loops pick the decide() path by checking for an override.
    for name, cls in POLICIES.items():
        if "decide" in cls.__dict__:
            tracer.patch_method(cls, "decide", f"policies.{name}.decide")
    tracer.patch_function(spendthrift, "train_spendthrift_model",
                          "policies.spendthrift.train")

    # energy ledger
    for method in ("charge", "charge_forward", "charge_forward_overhead"):
        tracer.patch_method(EnergyLedger, method, "energy.charge")

    # analysis.runcache: the persistent run store
    tracer.patch_function(
        runcache, "fetch", "analysis.runcache.fetch",
        after=lambda _t, result, _a: count(
            "analysis.runcache.hits" if result is not None
            else "analysis.runcache.misses"),
    )

    def after_run_store(_token, _result, args):
        benchmark, config_key, trace_seed = args[:3]
        key = runcache.entry_key(benchmark, config_key, trace_seed)
        if key is None:
            return
        path = runcache.unified_store().namespace("").path(key)
        try:
            count("analysis.runcache.bytes", os.path.getsize(path))
        except OSError:
            pass

    tracer.patch_function(runcache, "store", "analysis.runcache.store",
                          after=after_run_store)

    # analysis.engine: reduce, render and artifact writes.  Specs are
    # frozen dataclasses, so the registry entries are replaced.
    for spec_id, spec in list(engine.EXPERIMENTS.items()):
        engine.EXPERIMENTS[spec_id] = dataclasses.replace(
            spec,
            reduce=tracer.wrap("analysis.engine.reduce", spec.reduce),
            render=tracer.wrap("analysis.engine.render", spec.render),
        )
    tracer.patch_function(engine, "write_artifact",
                          "analysis.engine.artifact")

    # service.scheduler: planning, pools and worker CPU
    def before_schedule(args):
        return args[0].stats(), children_cpu()

    def after_schedule(token, _result, args):
        stats_before, children_before = token
        stats_after = args[0].stats()
        for field in ("executed", "cache_hits", "dedup_hits"):
            count(f"service.scheduler.{field}",
                  stats_after[field] - stats_before[field])
        count("service.scheduler.child_cpu_s",
              children_cpu() - children_before)

    tracer.patch_method(scheduler.Scheduler, "run", "service.scheduler.run",
                        before=before_schedule, after=after_schedule)

    pool_class = scheduler.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        count("service.scheduler.pools")
        return pool_class(*args, **kwargs)

    scheduler.ProcessPoolExecutor = counting_pool

    execute = tracer.wrap("service.worker.execute", scheduler._execute)
    owner = os.getpid()

    @functools.wraps(scheduler._execute)
    def traced_execute(job):
        # Serial runs call this in the owning process, whose totals are
        # dumped (or read) by the owner itself.
        in_worker = os.getpid() != owner
        if in_worker and os.getpid() != tracer.pid:
            tracer._reset_in_child()
            # A forked child's CPU clock starts at the fork.
            tracer.add_self("service.worker.startup", time.process_time())
        try:
            return execute(job)
        finally:
            if in_worker and worker_dir is not None:
                tracer.dump(os.path.join(worker_dir,
                                         f"worker-{tracer.token}.json"))

    scheduler._execute = traced_execute

    # service: job execution threads
    tracer.patch_method(server.SimulationService, "_run", "service.job")
    return tracer
