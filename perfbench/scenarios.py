"""The benchmark's three workloads.

``sweep-cold``
    ``python -m repro experiment --all --smoke --workers 2`` against an
    empty private store: what a user pays to regenerate every result
    from scratch at CI scale.  One operation is the whole command.
``grid-replay``
    The 120-run Figure 10 grid (10 benchmarks x {clank, nvmr} x {jit,
    spendthrift, watchdog} x the committed harvest seeds 0 and 1)
    replayed serially, in a seeded order, in this process through
    ``repro.sim.replay.replay_workload``.  Set-up compiles, records
    traces and builds epoch scripts.  One operation is one replay.
``service``
    An in-process ``BackgroundServer`` over a private store seeded in
    set-up by the CLI.  One client process (``service_client.py``) runs
    a closed loop of a fixed number of ``/simulate`` round trips over
    the store's runs, then of smoke ``/experiment`` round trips over the
    smoke registry for the rest of the run, each request awaited to its
    final snapshot through the event stream.  One operation is one ``/experiment`` round trip; the
    ``/simulate`` round trips are reported beside them.

Every workload runs in private store, trace and artifact directories
under the benchmark's work directory, with every ``REPRO_*`` knob
pinned to its default.  Host time is CPU seconds (``process_time``
plus ``RUSAGE_CHILDREN``) unless a metric says wall time.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
from tracer import children_cpu

HERE = Path(__file__).resolve().parent

ARCHES = ("clank", "nvmr")
POLICIES = ("jit", "spendthrift", "watchdog")
#: The harvest seeds of the committed ``benchmarks/results/fig10.json``.
#: Every benchmark seed replays them, so the fig10 gate holds on all.
TRACE_SEEDS = (0, 1)
#: Replays re-run on the fast engine after the grid and compared bit
#: for bit.
CROSS_CHECKS = 4
#: Specs left out of the service's ``/experiment`` round trips, which
#: otherwise cover the whole smoke registry as
#: ``benchmarks/service_smoke.py`` submits it.  ``ablation_free_list``
#: has no store-covered jobs: its reduce simulates its runs itself on
#: every request.
SERVICE_SKIP = ("ablation_free_list",)
#: ``/simulate`` passes at the start of every service run.  The job
#: table keeps every job and the server scans all of them on each
#: submission (``JobTable.active``), so a request costs more the more
#: jobs came before it; a fixed count of these short passes (42 runs
#: each) keeps the ``/simulate`` figures independent of machine speed.
SERVICE_SIMULATE_PASSES = 24
#: Passes of each phase in a traced service run.
SERVICE_TRACE_PASSES = (("simulate", SERVICE_SIMULATE_PASSES),
                        ("experiment", 2))
#: The event stream's poll interval (``repro.service.server``).  A
#: stream that stays open this long has waited out at least one poll.
POLL_S = 0.05
SUBPROCESS_TIMEOUT = 170
MB = 1024 * 1024

#: ``RunResult`` counters summed into the simulated-statistics
#: fingerprint.
COUNTER_FIELDS = (
    "instructions", "active_cycles", "off_cycles", "active_periods",
    "power_failures", "shutdowns", "backups", "restores", "violations",
    "renames", "reclaims", "cache_hits", "cache_misses", "nvm_reads",
    "nvm_writes", "max_wear",
)
#: Every knob at its default; the store locations are set per workload.
KNOB_DEFAULTS = {
    "REPRO_FAST": "1",
    "REPRO_REPLAY": "1",
    "REPRO_REPLAY_COMPILED": "1",
    "REPRO_REPLAY_GUARD_KERNELS": "1",
    "REPRO_RUN_CACHE": "1",
    "REPRO_FULL": "0",
}


# ------------------------------------------------------------ helpers
def cpu_now():
    return time.process_time() + children_cpu()


def peak_rss_mb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def tail(samples):
    """The highest percentile with at least ten samples beyond it.  With
    fewer than 100 samples that percentile falls below p90, and the
    slowest sample is the tail instead."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 100 else ordered[-1]


def record_of(result):
    """A ``RunResult`` as the plain dict the run store holds."""
    record = {field: getattr(result, field) for field in COUNTER_FIELDS}
    record["backups_by_reason"] = dict(result.backups_by_reason)
    record["breakdown"] = result.breakdown.as_dict()
    record["arch"] = result.arch
    return record


def sim_summary(records):
    """Summed counters of ``records`` and their fingerprint."""
    totals = dict.fromkeys(COUNTER_FIELDS, 0)
    reasons = {}
    energies = []
    for record in records:
        for field in COUNTER_FIELDS:
            totals[field] += record[field]
        for reason, n in record["backups_by_reason"].items():
            reasons[reason] = reasons.get(reason, 0) + n
        energies.extend(record["breakdown"].values())
    # fsum is exact, so the digest does not depend on record order.
    energy = math.fsum(energies)
    document = json.dumps(
        {"counters": totals, "backups_by_reason": reasons,
         "energy_nj": repr(energy), "runs": len(records)},
        sort_keys=True,
    )
    digest = hashlib.sha256(document.encode()).hexdigest()
    return {"totals": totals, "digest": digest,
            "fingerprint": int(digest[:12], 16)}


def footprint():
    """MB held by the pinned store: runs, trace keys+blobs, scripts."""
    from repro.analysis import runcache
    from repro.sim import epochs, tracestore

    def size(namespace):
        return namespace.stats()["bytes"] / MB

    return {
        "runs": size(runcache.unified_store().namespace("")),
        "traces": size(tracestore._keys()) + size(tracestore._blobs()),
        "scripts": size(epochs._scripts()),
    }


def stored_records():
    """Every run-store entry of the pinned store, in key order."""
    from repro.analysis import runcache

    namespace = runcache.unified_store().namespace("")
    records = []
    for key in namespace.keys():
        entry = namespace.read_json(key)
        if isinstance(entry, dict) and "result" in entry:
            records.append(entry["result"])
    return records


@contextlib.contextmanager
def split_cpus():
    """Give every thread of this (server) process all CPUs but one for
    the duration of the block; yields the CPU left for the client.

    The server's event-loop and job threads hand the GIL to each other;
    whether a job settles before the event stream's first check (or
    waits out its 50 ms poll) otherwise depends on where the OS places
    the threads, and requests per second swung by half between runs of
    the same code.  With one CPU nothing is pinned."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        yield set(allowed)
        return
    client, server = {allowed[0]}, set(allowed[1:])
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), server)
    try:
        yield client
    finally:
        for tid in os.listdir("/proc/self/task"):
            with contextlib.suppress(OSError):
                os.sched_setaffinity(int(tid), set(allowed))


class Run:
    """One benchmark invocation: private directories, pinned knobs and
    the tally of operations and correctness gates."""

    def __init__(self, root, work, seed, seconds, names):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        #: The metrics this run reports (BENCHMARK.json's, in order).
        self.names = names
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.details = {}
        self._base_env = dict(os.environ)
        self._dirs = itertools.count()

    def check(self, ok, what):
        """Count one operation or gate; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fresh_dir(self, name):
        path = self.work / f"{name}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def env(self, cache):
        env = {key: value for key, value in self._base_env.items()
               if not key.startswith("REPRO_")}
        env.update(KNOB_DEFAULTS)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_TRACE_DIR"] = str(cache / "traces")
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def pin(self, cache):
        """Point this process at ``cache`` with every knob pinned."""
        env = self.env(cache)
        for key in [key for key in os.environ if key.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(env)

    def cli(self, args, cache, cwd, dump_dir=None):
        """Run ``python -m repro args`` (under the tracer when
        ``dump_dir`` is given); returns the exit code."""
        if dump_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"),
                       str(dump_dir), *args]
        with open(cwd / "cli.out", "wb") as out, \
                open(cwd / "cli.err", "wb") as err:
            proc = subprocess.Popen(command, cwd=cwd, env=self.env(cache),
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                return proc.wait(timeout=SUBPROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return -signal.SIGKILL
            finally:
                if proc.returncode != 0:
                    sys.stderr.write((cwd / "cli.err").read_text()[-4000:])


def traced_layers(trace_tracer, dump_dirs, total, untraced, extra_self=None):
    """Merge in-process and subprocess span totals into the traced-run
    report: per-layer self time and counts, the unattributed remainder
    and the tracing overhead."""
    docs = []
    if trace_tracer is not None:
        self_s, counts, _ = trace_tracer.totals()
        docs.append({"self_s": self_s, "counts": counts})
    for directory in dump_dirs:
        docs.extend(tracing.read_dumps(directory))
    self_s, counts = tracing.merge(docs)
    for name, value in (extra_self or {}).items():
        self_s[name] = self_s.get(name, 0.0) + value
    attributed = sum(self_s.values())
    return {
        "self_s": self_s,
        "counts": counts,
        "total_s": total,
        "unattributed_s": total - attributed,
        "overhead_s": total - untraced,
    }


# -------------------------------------------------------- sweep-cold
class SweepCold:
    name = "sweep-cold"
    #: Set-ups per run (``setup_s`` is their median); this set-up is a
    #: short CLI start, so it takes more samples.
    setup_repeats = 5

    @staticmethod
    def _command(artifacts):
        return ["experiment", "--all", "--smoke", "--workers", "2",
                "--artifacts", str(artifacts)]

    def setup(self, run):
        """An empty private store, and a CLI start in the pinned
        environment (which also writes the checkout's bytecode before
        anything is timed).  Returns (cpu seconds, cache, directory)."""
        directory = run.fresh_dir("sweep")
        cache = directory / "cache"
        cache.mkdir()
        start = cpu_now()
        code = run.cli(["list"], cache, directory)
        elapsed = cpu_now() - start
        run.check(code == 0, f"repro list exited {code}")
        return elapsed, cache, directory

    def sweep(self, run, cache, directory, dump_dir=None):
        artifacts = directory / "artifacts"
        wall0 = time.perf_counter()
        cpu0 = children_cpu()
        code = run.cli(self._command(artifacts), cache, directory, dump_dir)
        cpu = children_cpu() - cpu0
        wall = time.perf_counter() - wall0
        run.check(code == 0, f"sweep exited {code}")
        return self._inspect(run, cache, artifacts, cpu, wall)

    def _inspect(self, run, cache, artifacts, cpu, wall):
        from repro.analysis.engine import all_experiments, load_artifact

        written = {path.stem: path for path in artifacts.glob("*.json")}
        for spec_id in all_experiments():
            run.check(spec_id in written, f"no artifact for {spec_id}")
        run.pin(cache)
        records = stored_records()
        if "fig10" in written:
            averages = {policy: row["average"] for policy, row in
                        load_artifact(written["fig10"])["result"].items()}
            run.details["fig10_average_saving_percent"] = averages
            run.check(all(value > 0 for value in averages.values()),
                      f"NvMR does not save energy over Clank: {averages}")
        nvmr = [r for r in records if r["arch"] == "nvmr"]
        violation_backups = sum(r["backups_by_reason"].get("violation", 0)
                                for r in nvmr)
        run.check(nvmr and violation_backups == 0,
                  f"NvMR: {len(nvmr)} runs, {violation_backups} "
                  "violation-driven backups")
        return {
            "cpu_s": cpu,
            "wall_s": wall,
            # The operation is the whole command, as a user runs it.
            # Per-experiment gaps were tried: 24 samples, the slowest
            # (fig12's two-worker HOOP section) swinging by a fifth with
            # CPU contention from run to run.
            "latencies": [wall],
            "operations": 1,
            "sim": sim_summary(records),
            "footprint": footprint(),
        }

    def measure(self, run):
        setups = [self.setup(run) for _ in range(self.setup_repeats)]
        _, cache, directory = setups[-1]
        iterations = []
        started = time.perf_counter()
        while True:
            iterations.append(self.sweep(run, cache, directory))
            if time.perf_counter() - started >= run.seconds:
                break
            setups.append(self.setup(run))
            _, cache, directory = setups[-1]
        return end_to_end(run, [s[0] for s in setups], iterations)

    def trace(self, run):
        _, cache, directory = self.setup(run)
        untraced = self.sweep(run, cache, directory)
        _, cache, directory = self.setup(run)
        dump_dir = directory / "spans"
        dump_dir.mkdir()
        traced = self.sweep(run, cache, directory, dump_dir)
        layers = traced_layers(None, [dump_dir], traced["cpu_s"],
                               untraced["cpu_s"])
        check_same_sim(run, [untraced, traced])
        return per_layer(run, layers, traced)


# ------------------------------------------------------- grid-replay
class GridReplay:
    name = "grid-replay"
    setup_repeats = 2

    def __init__(self):
        self.results = {}
        self.directory = None

    @staticmethod
    def grid(run):
        """Every fig10 job, in an order drawn from the run's seed."""
        from repro.workloads import BENCHMARKS

        jobs = [(bench, arch, policy, seed)
                for bench in BENCHMARKS
                for seed in TRACE_SEEDS
                for arch in ARCHES
                for policy in POLICIES]
        random.Random(run.seed).shuffle(jobs)
        return jobs

    def setup(self, run):
        """Compile every benchmark, record its trace and build its
        epoch scripts (one warm replay per benchmark and architecture,
        plus one Spendthrift replay that trains the policy's model)
        into a fresh private store.  Returns cpu seconds."""
        from repro.sim.replay import (clear_replay_caches, get_image,
                                      replay_workload)
        from repro.workloads import BENCHMARKS, load_program, registry

        if self.directory is not None:
            shutil.rmtree(self.directory)
        directory = self.directory = run.fresh_dir("grid")
        run.pin(directory / "cache")
        # Drop the process-wide caches so each set-up starts cold.
        registry._program_cache.clear()
        registry._reference_cache.clear()
        clear_replay_caches()
        warm_seed = TRACE_SEEDS[0]
        start = cpu_now()
        for bench in BENCHMARKS:
            load_program(bench)
            get_image(bench, warm_seed)
        for bench in BENCHMARKS:
            for arch in ARCHES:
                replay_workload(bench, arch=arch, policy="jit",
                                trace_seed=warm_seed)
        replay_workload(next(iter(BENCHMARKS)), arch="nvmr",
                        policy="spendthrift",
                        trace_seed=warm_seed)
        return cpu_now() - start

    def replay_grid(self, run):
        from repro.energy.traces import HarvestTrace
        from repro.sim.platform import PlatformConfig
        from repro.sim.replay import replay_workload

        results = {}
        latencies = []
        cpu0 = cpu_now()
        wall0 = time.perf_counter()
        for job in self.grid(run):
            bench, arch, policy, seed = job
            began = time.perf_counter()
            try:
                results[job] = replay_workload(
                    bench, trace_seed=seed, trace=HarvestTrace(seed),
                    config=PlatformConfig(arch=arch, policy=policy),
                )
            except Exception as error:  # a failed replay is a counted failure
                run.check(False, f"replay {job}: {error!r}")
                continue
            latencies.append(time.perf_counter() - began)
            run.check(True, "")
        cpu = cpu_now() - cpu0
        wall = time.perf_counter() - wall0
        records = [record_of(results[job]) for job in sorted(results)]
        self.results = results
        return {
            "cpu_s": cpu,
            "wall_s": wall,
            "latencies": latencies,
            "operations": len(latencies),
            "sim": sim_summary(records),
            "footprint": footprint(),
        }

    def gates(self, run):
        """fig10 through its spec (equal to the committed artifact), the
        paper invariants, and a fast-engine cross-check of a seeded
        sample of replays."""
        from repro.analysis.engine import (ExperimentSettings,
                                           get_experiment, load_artifact)
        from repro.energy.traces import HarvestTrace
        from repro.sim.platform import PlatformConfig
        from repro.workloads import BENCHMARKS, run_workload

        results = self.results
        if len(results) != len(self.grid(run)):
            return
        settings = ExperimentSettings(traces=len(TRACE_SEEDS),
                                      benchmarks=list(BENCHMARKS))

        def fetch(bench, config, index):
            return results[(bench, config.arch, config.policy,
                            TRACE_SEEDS[index])]

        fig10 = get_experiment("fig10").reduce(settings, fetch)
        averages = {policy: row["average"] for policy, row in fig10.items()}
        run.details["fig10_average_saving_percent"] = averages
        committed = load_artifact(
            run.root / "benchmarks" / "results" / "fig10.json")["result"]
        run.check(fig10 == committed,
                  "fig10 differs from benchmarks/results/fig10.json")
        run.check(all(value > 0 for value in averages.values()),
                  f"NvMR does not save energy over Clank: {averages}")
        violation_backups = sum(
            result.backups_by_reason.get("violation", 0)
            for (_, arch, _, _), result in results.items() if arch == "nvmr"
        )
        run.check(violation_backups == 0,
                  f"NvMR took {violation_backups} violation-driven backups")
        for job in random.Random(run.seed).sample(self.grid(run),
                                                  CROSS_CHECKS):
            bench, arch, policy, seed = job
            simulated = run_workload(
                bench, config=PlatformConfig(arch=arch, policy=policy),
                trace=HarvestTrace(seed),
            )
            run.check(simulated == results[job],
                      f"replay {job} differs from the fast engine")

    def measure(self, run):
        setups = [self.setup(run) for _ in range(self.setup_repeats)]
        iterations = []
        started = time.perf_counter()
        while True:
            iterations.append(self.replay_grid(run))
            if time.perf_counter() - started >= run.seconds:
                break
        self.gates(run)
        return end_to_end(run, setups, iterations)

    def trace(self, run):
        # An untimed set-up first, so that one-time process costs
        # (imports, the Spendthrift model) fall in neither pass.
        self.setup(run)
        cpu0 = cpu_now()
        self.setup(run)
        untraced = self.replay_grid(run)
        untraced_total = cpu_now() - cpu0
        dump_dir = run.fresh_dir("spans")
        span_tracer = tracing.install(tracing.Tracer(), str(dump_dir))
        cpu0 = cpu_now()
        self.setup(run)
        traced = self.replay_grid(run)
        total = cpu_now() - cpu0
        layers = traced_layers(span_tracer, [dump_dir], total,
                               untraced_total)
        self.gates(run)
        check_same_sim(run, [untraced, traced])
        return per_layer(run, layers, traced)


# ----------------------------------------------------------- service
def service_specs():
    """The specs the service's ``/experiment`` round trips cycle
    through, in registry order."""
    from repro.analysis.engine import all_experiments

    return [spec_id for spec_id in all_experiments()
            if spec_id not in SERVICE_SKIP]


class Service:
    name = "service"
    #: Each set-up seeds the store with a near-complete smoke sweep.
    setup_repeats = 2

    def __init__(self):
        self.server = None
        self.loop_thread = None
        self.plan = None
        #: Summed counters of the runs ``/simulate`` can serve: what
        #: every ``/simulate`` pass must return.
        self.reference = None
        #: CPU of the last client process, start-up included.
        self.client_cpu = 0.0

    def setup(self, run, dump_dir=None):
        """Seed a private store with the CLI (whose artifacts are the
        reference the service's must equal) and start the server.
        Returns cpu seconds."""
        from repro.analysis import engine
        from repro.service.server import BackgroundServer

        self.close()
        directory = run.fresh_dir("service")
        cache = directory / "cache"
        seed_artifacts = directory / "seed-artifacts"
        specs = service_specs()
        start = cpu_now()
        code = run.cli(["experiment", *specs, "--smoke", "--workers", "2",
                        "--artifacts", str(seed_artifacts)],
                       cache, directory, dump_dir)
        run.check(code == 0, f"store seeding exited {code}")
        run.pin(cache)
        engine.clear_run_cache()
        before = set(threading.enumerate())
        self.server = BackgroundServer(
            workers=2, max_active=2,
            artifact_dir=directory / "service-artifacts",
        ).__enter__()
        elapsed = cpu_now() - start
        started = [t for t in threading.enumerate() if t not in before]
        self.loop_thread = started[0]
        self.plan = self._plan(directory, cache, specs, seed_artifacts)
        return elapsed

    def _plan(self, directory, cache, specs, seed_artifacts):
        """The client's plan: every grid point of the specs a plain
        ``/simulate`` can name, with its stored result, and the seeding
        run's artifact of every spec."""
        from repro.analysis import runcache
        from repro.analysis.engine import (ExperimentSettings,
                                           get_experiment, job_key)
        from repro.sim.platform import PlatformConfig

        settings = ExperimentSettings.smoke()
        namespace = runcache.unified_store().namespace("")
        pool = {}
        for spec_id in specs:
            for job in get_experiment(spec_id).jobs(settings):
                config = job.config
                plain = PlatformConfig(arch=config.arch, policy=config.policy,
                                       policy_kwargs=config.policy_kwargs)
                key = runcache.entry_key(*job_key(job))
                entry = namespace.read_json(key) if key else None
                if config == plain and entry is not None:
                    pool[key] = {
                        "benchmark": job.benchmark, "arch": config.arch,
                        "policy": config.policy,
                        "policy_kwargs": dict(config.policy_kwargs),
                        "trace_seed": job.trace_seed,
                        "result": entry["result"],
                    }
        pool = [pool[key] for key in sorted(pool)]
        self.reference = sim_summary([point["result"] for point in pool])
        return {
            "port": self.server.port,
            "workers": 2,
            "poll_s": POLL_S,
            "pool": pool,
            "specs": {spec_id: str(seed_artifacts / f"{spec_id}.json")
                      for spec_id in specs},
            "directory": str(directory),
            "cache": str(cache),
        }

    def close(self):
        if self.server is not None:
            self.server.__exit__(None, None, None)
            self.server = None

    def requests(self, run, phases):
        """Run the client process through ``phases`` (``(kind, {"passes"
        or "until": n})`` pairs, ``until`` counting seconds from the
        start of the first phase); returns its passes by kind.  This
        process's CPU is sampled as each pass line arrives, so a pass's
        CPU is the server's share plus the client's own."""
        directory = Path(self.plan["directory"])
        plan = dict(self.plan, seed=run.seed,
                    phases=[dict(limit, kind=kind) for kind, limit in phases])
        plan_path = directory / "plan.json"
        plan_path.write_text(json.dumps(plan))
        command = [sys.executable, str(HERE / "service_client.py"),
                   str(plan_path)]
        passes = {kind: [] for kind, _ in phases}
        client_cpu = children_cpu()
        with open(directory / "client.err", "wb") as err, \
                split_cpus() as client_cpus:
            proc = subprocess.Popen(
                command, cwd=directory, env=run.env(Path(plan["cache"])),
                stdout=subprocess.PIPE, stderr=err,
            )
            try:
                # Before the client's imports finish and it reports ready.
                os.sched_setaffinity(proc.pid, client_cpus)
                server_cpu = None
                for raw in proc.stdout:
                    line = json.loads(raw)
                    now = time.process_time()
                    if server_cpu is not None:
                        passes[line["kind"]].append(
                            self._pass_of(run, line, now - server_cpu))
                    server_cpu = now
            finally:
                proc.stdout.close()
                try:
                    code = proc.wait(timeout=SUBPROCESS_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    code = proc.wait()
        if code != 0:
            sys.stderr.write((directory / "client.err").read_text()[-4000:])
        run.check(code == 0 and all(passes.values()),
                  f"service client exited {code}")
        self.client_cpu = children_cpu() - client_cpu
        store = footprint()
        for iteration in passes.get("experiment", ()):
            iteration["footprint"] = store
        return passes

    @staticmethod
    def _pass_of(run, samples, server_cpu):
        run.attempted += samples["attempted"]
        run.failed += len(samples["problems"])
        run.problems.extend(samples["problems"])
        return {
            "cpu_s": server_cpu + samples["cpu_s"],
            "wall_s": samples["wall_s"],
            "latencies": samples["latency"],
            "operations": len(samples["latency"]),
            "sim_instructions": samples["instructions"],
            "sim": samples.get("sim"),
            "samples": samples,
        }

    def _check_served(self, run, simulated):
        """Every ``/simulate`` pass returned the stored runs' counters."""
        served = {it["sim"]["digest"] for it in simulated}
        run.check(served == {self.reference["digest"]},
                  f"/simulate passes returned other runs than the store "
                  f"holds: {sorted(served)}")

    @staticmethod
    def simulate_figures(passes):
        """``/simulate`` round trips and the event stream's poll waits,
        reported beside the ``/experiment`` figures."""
        experiment, simulate = passes["experiment"], passes["simulate"]
        latencies = [x for it in simulate for x in it["latencies"]]

        def poll_share(group):
            waits = sum(it["samples"]["poll_waits"] for it in group)
            return waits / max(1, sum(it["operations"] for it in group))

        return {
            "simulate_p50_ms": 1000 * statistics.median(latencies),
            "simulate_tail_ms": 1000 * tail(latencies),
            "simulate_per_s": len(latencies) / sum(it["wall_s"]
                                                   for it in simulate),
            "simulate_poll_wait_share": poll_share(simulate),
            "poll_wait_share": poll_share(experiment),
        }

    def measure(self, run):
        try:
            setups = [self.setup(run) for _ in range(self.setup_repeats)]
            passes = self.requests(
                run, [("simulate", {"passes": SERVICE_SIMULATE_PASSES}),
                      ("experiment", {"until": run.seconds})])
        finally:
            self.close()
        experiment, simulate = passes["experiment"], passes["simulate"]
        if not (experiment and simulate):
            raise SystemExit("the service client measured nothing")
        self._check_served(run, simulate)
        run.details["service"] = self.simulate_figures(passes)
        latencies = [x for it in experiment for x in it["latencies"]]
        return end_to_end(run, setups, experiment, simulated=simulate,
                          latency_groups=[latencies])

    def _traced_pass(self, run, dump_dir=None):
        """Set-up and SERVICE_TRACE_PASSES passes; returns (cpu seconds,
        passes by kind)."""
        cpu0 = cpu_now()
        self.setup(run, dump_dir)
        passes = self.requests(run, [(kind, {"passes": n})
                                     for kind, n in SERVICE_TRACE_PASSES])
        return cpu_now() - cpu0, passes

    def trace(self, run):
        try:
            # An untimed set-up first, so that one-time process costs
            # (imports, the first server start) fall in neither pass.
            self.setup(run)
            untraced_total, untraced = self._traced_pass(run)
            dump_dir = run.fresh_dir("spans")
            span_tracer = tracing.install(tracing.Tracer(), str(dump_dir))
            total, traced = self._traced_pass(run, dump_dir)
            # The event loop thread runs the HTTP layer; its CPU outside
            # the spans recorded on it is booked to ``service.http``.
            _, _, per_thread = span_tracer.totals()
            loop = self.loop_thread
            http = (time.clock_gettime(time.pthread_getcpuclockid(loop.ident))
                    - per_thread.get(loop.ident, 0.0))
        finally:
            self.close()
        layers = traced_layers(
            span_tracer, [dump_dir], total, untraced_total,
            extra_self={"service.http": http,
                        "service.client": self.client_cpu},
        )
        simulated = untraced["simulate"] + traced["simulate"]
        check_same_sim(run, simulated)
        self._check_served(run, simulated)
        samples = [it["samples"] for kind in traced for it in traced[kind]]
        layers["service"] = {
            f"{name}_ms": 1000 * statistics.median(
                x for batch in samples for x in batch[name])
            for name in ("queue", "exec", "delivery")
        }
        layers["service"]["coalesced"] = sum(b["coalesced"] for b in samples)
        layers["service"].update(self.simulate_figures(traced))
        return per_layer(run, layers, dict(traced["experiment"][-1],
                                           sim=self.reference))


SCENARIOS = {cls.name: cls for cls in (SweepCold, GridReplay, Service)}


# ----------------------------------------------------------- reports
def check_same_sim(run, iterations):
    """The simulated-statistics fingerprint must repeat exactly."""
    digests = {it["sim"]["digest"] for it in iterations}
    run.details["sim_fingerprint"] = sorted(digests)
    run.check(len(digests) == 1,
              f"simulated statistics differ between iterations: {digests}")


def end_to_end(run, setups, iterations, simulated=None, latency_groups=None):
    """The end-to-end metrics.  Times are medians over ``iterations``.
    Latencies are taken per group of operations (by default, one group
    per iteration, so a run's percentile does not depend on how many
    iterations fit into it) and reported as medians over the groups.
    Simulated instructions come from ``simulated`` (by default the
    iterations), whose fingerprint must repeat."""
    simulated = iterations if simulated is None else simulated
    if latency_groups is None:
        latency_groups = [it["latencies"] for it in iterations]
    check_same_sim(run, simulated)
    operations = sum(it["operations"] for it in iterations)
    wall = sum(it["wall_s"] for it in iterations)

    def instructions(it):
        if "sim_instructions" in it:
            return it["sim_instructions"]
        return it["sim"]["totals"]["instructions"]

    run.details["iterations"] = len(iterations)
    run.details["setups_s"] = setups
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "sim_minstr_per_s": statistics.median(
            instructions(it) / it["cpu_s"] / 1e6 for it in simulated),
        "peak_rss_mb": peak_rss_mb(),
        "store_mb": sum(iterations[-1]["footprint"].values()),
        "latency_p50_ms": 1000 * statistics.median(
            statistics.median(group) for group in latency_groups),
        "latency_tail_ms": 1000 * statistics.median(
            tail(group) for group in latency_groups),
        "requests_per_s": operations / wall,
    }


def per_layer(run, layers, traced):
    """The traced run's metrics, one per declared per-layer metric."""
    names = run.names
    self_s = layers["self_s"]
    counts = layers["counts"]
    total = layers["total_s"]
    run.check(
        abs(sum(self_s.values()) + layers["unattributed_s"] - total) < 1e-9,
        "layer self times plus unattributed do not sum to the total")
    metrics = {f"{layer}_s": value for layer, value in self_s.items()}
    unlisted = sorted(set(metrics) - set(names))
    run.check(not unlisted, f"traced layers not declared in "
                            f"BENCHMARK.json: {unlisted}")
    calls = {
        "workloads.compile": "workloads.compiles",
        "sim.trace.record": "sim.trace.records",
        "sim.epochs.build": "sim.epochs.script_builds",
        "sim.replay.run": "sim.replay.runs",
        "sim.platform.run": "sim.platform.runs",
    }
    for name, value in counts.items():
        if name in calls:
            metrics[calls[name]] = value
        elif f"{name}_calls" in names:
            metrics[f"{name}_calls"] = value
        elif name in names:
            metrics[name] = value
    metrics["sim.epochs.script_hits"] = (
        counts.get("sim.epochs.script", 0)
        - counts.get("sim.epochs.build", 0))
    windows = counts.get("sim.replay.windows", 0)
    metrics["sim.replay.compiled_hit_rate"] = (
        counts.get("sim.replay.compiled_windows", 0) / windows
        if windows else 0.0)
    totals = traced["sim"]["totals"]
    metrics.update({
        "sim.instructions": totals["instructions"],
        "sim.active_cycles": totals["active_cycles"],
        "mem.cache_misses": totals["cache_misses"],
        "mem.nvm_writes": totals["nvm_writes"],
        "arch.backups": totals["backups"],
        "arch.restores": totals["restores"],
        "arch.power_failures": totals["power_failures"],
        "sim.fingerprint": traced["sim"]["fingerprint"],
        "store.runs_mb": traced["footprint"]["runs"],
        "store.traces_mb": traced["footprint"]["traces"],
        "store.scripts_mb": traced["footprint"]["scripts"],
        "trace.total_s": total,
        "trace.unattributed_s": layers["unattributed_s"],
        "trace.unattributed_share": (layers["unattributed_s"] / total
                                     if total else 0.0),
        "trace.overhead_s": layers["overhead_s"],
    })
    for name, value in layers.get("service", {}).items():
        metrics[f"service.{name}"] = value
    return {name: metrics.get(name, 0) for name in names}
