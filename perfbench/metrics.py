"""What each metric of ``BENCHMARK.json`` measures.

``BENCHMARK.json`` declares every metric's name, unit and direction;
its entries may carry nothing else.  The tables below annotate the same
names: for an end-to-end metric what it is on each workload, for a
per-layer metric the layer it measures and the end-to-end metrics (and
workloads) it should move.  ``run.py`` refuses to run when a declared
metric has no annotation here.
"""

SWEEP, GRID, SERVICE = "sweep-cold", "grid-replay", "service"
_ALL = (SWEEP, GRID, SERVICE)
_SIM = (SWEEP, GRID)

#: name -> what it is
END_TO_END = {
    "setup_s": "median CPU of the workload's set-up, repeated in a run",
    "cpu_s": "median host CPU of one iteration (self plus children): a "
             "sweep, a grid pass, or a pass over the /experiment specs",
    "wall_s": "median wall time of one iteration",
    "sim_minstr_per_s": "simulated instructions per host CPU second; on "
                        "service, those the /simulate passes returned",
    "peak_rss_mb": "peak RSS of this process or a child",
    "store_mb": "private run, trace and script stores after the workload",
    "latency_p50_ms": "median operation latency: the whole command "
                      "(sweep-cold), a replay (grid-replay) or an "
                      "/experiment round trip (service)",
    "latency_tail_ms": "the highest percentile with at least ten "
                       "operations beyond it, at p90 or above; the "
                       "slowest operation where no such percentile exists",
    "requests_per_s": "operations per wall second",
}


def _arch_notes():
    notes = {}
    for arch in ("clank", "nvmr", "hoop", "hibernus", "clank_original",
                 "ideal"):
        moves = (("cpu_s", _ALL if arch in ("clank", "nvmr") else (SWEEP,)),)
        for op in ("backup", "restore", "estimate"):
            notes[f"arch.{arch}.{op}_s"] = (f"arch ({arch})", moves)
            notes[f"arch.{arch}.{op}_calls"] = (f"arch ({arch})", moves)
    return notes


def _policy_notes():
    notes = {}
    for policy in ("jit", "spendthrift", "watchdog"):
        for suffix in ("decide_s", "decide_calls"):
            notes[f"policies.{policy}.{suffix}"] = ("policies",
                                                    (("cpu_s", _SIM),))
    return notes


def _group(layer, moves, *names):
    return {name: (layer, moves) for name in names}


_REPLAY = (("cpu_s", (GRID, SWEEP)), ("sim_minstr_per_s", (GRID, SWEEP)))
_SCRIPTS = (("cpu_s", (SWEEP,)), ("store_mb", (SWEEP,)),
            ("peak_rss_mb", (SWEEP, GRID)), ("setup_s", (GRID,)))
_TRACES = (("cpu_s", (SWEEP,)), ("setup_s", (GRID,)))
_RUNCACHE = (("latency_p50_ms", (SERVICE,)), ("cpu_s", (SWEEP,)))
_SCHEDULER = (("wall_s", (SWEEP,)), ("cpu_s", (SWEEP,)))
_ENGINE = (("cpu_s", (SWEEP,)), ("latency_p50_ms", (SERVICE,)))
_SERVICE = (("latency_p50_ms", (SERVICE,)), ("latency_tail_ms", (SERVICE,)))
_COUNTS = (("cpu_s", _ALL),)

#: name -> (layer, ((end-to-end metric, workloads), ...))
PER_LAYER = {
    **_group("workloads", (("setup_s", _ALL),),
             "workloads.compile_s", "workloads.compiles"),
    "workloads.verify_s": ("workloads", (("cpu_s", _SIM),)),
    **_group("sim.trace", _TRACES, "sim.trace.record_s",
             "sim.trace.records", "sim.trace.image_s"),
    **_group("sim.tracestore", _TRACES, "sim.tracestore.fetch_s",
             "sim.tracestore.store_s", "sim.tracestore.hits",
             "sim.tracestore.misses"),
    **_group("sim.epochs", _SCRIPTS, "sim.epochs.script_s",
             "sim.epochs.build_s", "sim.epochs.store_s",
             "sim.epochs.script_builds", "sim.epochs.script_hits",
             "sim.epochs.script_bytes"),
    **_group("sim.replay", _REPLAY, "sim.replay.run_s", "sim.replay.runs",
             "sim.replay.steps", "sim.replay.windows",
             "sim.replay.window_steps", "sim.replay.compiled_windows",
             "sim.replay.compiled_steps", "sim.replay.compiled_hit_rate",
             *(f"sim.replay.fallback.{reason}"
               for reason in ("compiled_disabled", "construction",
                              "policy_hint", "probation", "tight_budget",
                              "short_window", "prefix_break", "other"))),
    **_group("sim.platform", (("cpu_s", (SWEEP,)),), "sim.platform.run_s",
             "sim.platform.runs", "sim.platform.instructions"),
    **_arch_notes(),
    **_policy_notes(),
    "policies.spendthrift.train_s": ("policies", (("cpu_s", _SIM),)),
    **_group("energy", (("cpu_s", _SIM),), "energy.charge_s",
             "energy.charge_calls"),
    **_group("analysis.runcache", _RUNCACHE, "analysis.runcache.fetch_s",
             "analysis.runcache.store_s", "analysis.runcache.hits",
             "analysis.runcache.misses", "analysis.runcache.bytes"),
    **_group("analysis.engine", _ENGINE, "analysis.engine.reduce_s",
             "analysis.engine.render_s", "analysis.engine.artifact_s"),
    **_group("service.scheduler", _SCHEDULER, "service.scheduler.run_s",
             "service.scheduler.executed", "service.scheduler.cache_hits",
             "service.scheduler.dedup_hits", "service.scheduler.pools",
             "service.scheduler.child_cpu_s", "service.worker.execute_s",
             "service.worker.startup_s"),
    "process.startup_s": ("cli", (("cpu_s", (SWEEP,)),
                                  ("setup_s", (SERVICE,)))),
    **_group("service.server", _SERVICE, "service.job_s", "service.http_s",
             "service.queue_ms", "service.exec_ms", "service.delivery_ms",
             "service.poll_wait_share"),
    "service.client_s": ("service.client", _SERVICE),
    "service.coalesced": ("service.jobs", _SERVICE),
    # /simulate round trips: measured in their own phase, beside the
    # /experiment figures rather than mixed into them.
    **_group("service.server", (), "service.simulate_p50_ms",
             "service.simulate_tail_ms", "service.simulate_per_s",
             "service.simulate_poll_wait_share"),
    **_group("RunResult", _COUNTS, "sim.instructions", "sim.active_cycles",
             "mem.cache_misses", "mem.nvm_writes", "arch.backups",
             "arch.restores", "arch.power_failures", "sim.fingerprint"),
    **_group("store", (("store_mb", _ALL),), "store.runs_mb",
             "store.traces_mb", "store.scripts_mb"),
    **_group("trace", (), "trace.total_s", "trace.unattributed_s",
             "trace.unattributed_share", "trace.overhead_s"),
}
