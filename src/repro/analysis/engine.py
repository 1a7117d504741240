"""Declarative experiment engine: one spec registry drives everything.

Every paper result (Tables 2-4, Figures 10-14, the ablations and
extension studies) is described once as an :class:`ExperimentSpec` —
an id, the paper label, a parameter grid of ``(benchmark,
PlatformConfig, trace_seed)`` :class:`Job`\\ s, a pure ``reduce(settings,
fetch)`` that folds run records into the published result, and a
``render`` turning that result into the text table.  Specs are
registered in the single :data:`EXPERIMENTS` registry (populated by
:mod:`repro.analysis.experiments`); the engine derives everything else
from the spec:

* **job enumeration** — :meth:`ExperimentSpec.jobs`, replacing the
  hand-maintained ``*_jobs`` mirrors that used to live in
  :mod:`repro.analysis.parallel` and could silently drift from the
  drivers (``tests/analysis/test_engine.py`` pins enumeration/driver
  agreement for every registered spec);
* **process-parallel execution** — jobs are prefetched through
  :func:`repro.analysis.parallel.prefetch_runs` (bounded submission
  window, as-completed progress), then the reduce runs entirely on
  cache hits;
* **caching** — the in-process run cache below plus the persistent
  disk layer (:mod:`repro.analysis.runcache`);
* **sharding** — :func:`run_experiment` takes ``shard="K/N"`` and runs
  the K-th of N deterministic slices of the job grid, so a paper-scale
  sweep splits across invocations/machines that share a disk cache;
  the final shard finds every other slice cached and reduces;
* **artifacts** — versioned JSON documents (:data:`ARTIFACT_SCHEMA`),
  each with its rendered ``<id>.txt`` beside it, written to the
  directory the caller names (the committed ones live in
  ``benchmarks/results/``), reloadable and re-renderable without any
  simulation (:func:`render_artifact`).

Adding experiment N+1 is one ~20-line spec in
:mod:`repro.analysis.experiments` — the CLI listing, ``repro
experiment``, the markdown report, job enumeration, sharding and
artifacts all pick it up from the registry.
"""

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional

from repro.analysis import runcache
from repro.energy.traces import HarvestTrace
from repro.sim.platform import PlatformConfig
from repro.store import atomic_write
from repro.workloads import BENCHMARKS, run_workload

ALL_BENCHMARKS = list(BENCHMARKS)

#: Violation-heavy subset used for structure-sensitivity sweeps.
SWEEP_BENCHMARKS = ["qsort", "dwt", "picojpeg", "blowfish"]


@dataclass
class ExperimentSettings:
    """How much averaging each experiment does."""

    traces: int = 2
    sweep_traces: int = 1
    benchmarks: list = field(default_factory=lambda: list(ALL_BENCHMARKS))
    sweep_benchmarks: list = field(default_factory=lambda: list(SWEEP_BENCHMARKS))
    #: Trace seeds per candidate in the Pareto tuning sweeps — the
    #: bootstrap CIs resample over these, so ``full()`` uses many.
    pareto_traces: int = 2
    #: NVM cost tables (see ``repro.energy.model.NVM_TECHNOLOGIES``)
    #: the Pareto sweeps compute fronts for.
    pareto_technologies: list = field(
        default_factory=lambda: ["flash", "fram"]
    )
    #: Benchmarks averaged into each Pareto candidate's objectives.
    pareto_benchmarks: list = field(default_factory=lambda: ["qsort", "dwt"])

    @classmethod
    def full(cls):
        """The paper's averaging scale: 10 traces, all benchmarks."""
        return cls(
            traces=10,
            sweep_traces=3,
            benchmarks=list(ALL_BENCHMARKS),
            sweep_benchmarks=list(ALL_BENCHMARKS),
            pareto_traces=20,
            pareto_technologies=["flash", "fram", "reram", "stt"],
            pareto_benchmarks=list(SWEEP_BENCHMARKS),
        )

    @classmethod
    def smoke(cls):
        """Minimal settings for CI smoke tests."""
        return cls(traces=1, sweep_traces=1, benchmarks=["qsort", "hist"],
                   sweep_benchmarks=["qsort"], pareto_traces=1,
                   pareto_technologies=["flash", "fram"],
                   pareto_benchmarks=["qsort"])


class Job(NamedTuple):
    """One simulation of the parameter grid: a benchmark on a platform
    configuration under one harvest trace."""

    benchmark: str
    config: PlatformConfig
    trace_seed: int


# ---------------------------------------------------------------- cache
_run_cache = {}


def _kwargs_key(kwargs):
    """A canonical, order-independent key for ``config.policy_kwargs``.

    The tuning sweeps vary configurations *only* through
    ``policy_kwargs``, so the cache identity must cover it — without
    this, every swept threshold would collide with the default run in
    both cache layers.  JSON with sorted keys keeps the component a
    primitive string (disk-cacheable); kwargs JSON can't express (e.g.
    an injected policy object) fall back to a repr tuple, which the
    disk layer correctly refuses to cache.
    """
    if not kwargs:
        return ""
    try:
        return json.dumps(kwargs, sort_keys=True)
    except TypeError:
        return tuple(sorted((k, repr(v)) for k, v in kwargs.items()))


#: PlatformConfig fields that cannot change a run's outcome: the engine
#: choice (every engine is bit-identical).  The step and period caps are
#: keyed: a capped run raises where an uncapped one returns, so they
#: must not share an entry.
_UNKEYED_FIELDS = frozenset({"fast"})

#: Every other field, in declaration order.  Deriving the list keeps a
#: new PlatformConfig knob from silently sharing cache entries.
_KEYED_FIELDS = tuple(
    f.name for f in fields(PlatformConfig) if f.name not in _UNKEYED_FIELDS
)


def _config_key(config):
    """The cache identity of ``config``: every field that can change
    the result, with ``policy_kwargs`` canonicalised by
    :func:`_kwargs_key`."""
    return tuple(
        _kwargs_key(config.policy_kwargs) if name == "policy_kwargs"
        else getattr(config, name)
        for name in _KEYED_FIELDS
    )


def job_key(job):
    """The cache identity of a job: (benchmark, config key, seed)."""
    benchmark, config, trace_seed = job
    return (benchmark, _config_key(config), trace_seed)


def cached_run(benchmark, config, trace_seed):
    """Run (or fetch) one benchmark/config/trace combination.

    Two cache layers: the process-wide dict above, then the persistent
    disk cache (:mod:`repro.analysis.runcache`) keyed by program
    content, full config, trace seed and model version — so rerunning
    an experiment script with unchanged inputs performs zero fresh
    simulations even across process restarts.
    """
    config_key = _config_key(config)
    key = (benchmark, config_key, trace_seed)
    if key not in _run_cache:
        result = runcache.fetch(benchmark, config_key, trace_seed)
        if result is None:
            result = _simulate(benchmark, config, trace_seed)
            runcache.store(benchmark, config_key, trace_seed, result)
        _run_cache[key] = result
    return _run_cache[key]


def _simulate(benchmark, config, trace_seed):
    """Produce one fresh run record, through replay when eligible.

    A cache miss reaches the replayer first: the benchmark's execution
    trace is recorded once (or fetched from the shared trace store) and
    every further configuration of the sweep streams it through the
    architecture models — bit-identical to full simulation, pinned by
    ``tests/sim/test_replay_differential.py``.  Replay itself defaults
    to compiled-epoch quantum windows (:mod:`repro.sim.epochs`;
    ``REPRO_REPLAY_COMPILED=0`` forces the scalar window — see
    ``docs/REPLAY.md``).  Runs that ``replay_supported`` rejects (the
    Ideal architecture, ``fast=False``) fall back to
    :func:`repro.workloads.run_workload` unchanged.
    """
    from repro.sim import replay

    if replay.replay_supported(config):
        return replay.replay_workload(
            benchmark,
            trace_seed=trace_seed,
            trace=HarvestTrace(trace_seed),
            config=replace(config),
        )
    return run_workload(
        benchmark,
        config=replace(config),
        trace=HarvestTrace(trace_seed),
    )


def clear_run_cache(disk=False):
    """Drop the in-process run cache; ``disk=True`` also deletes the
    persistent entries under :func:`repro.analysis.runcache.cache_dir`."""
    _run_cache.clear()
    if disk:
        runcache.clear_disk_cache()


# ------------------------------------------------------------ the spec
@dataclass(frozen=True)
class ExperimentSpec:
    """One paper experiment, declaratively.

    ``grid(settings)`` enumerates every :class:`Job` the experiment
    needs (duplicates allowed; the engine dedupes by cache key).
    ``reduce(settings, fetch)`` folds run records into the published
    result, obtaining each record only through ``fetch(benchmark,
    config, trace_seed)`` — never by simulating directly — so the
    enumeration and the reduction cannot drift (pinned per-spec by the
    agreement test).  ``render(result)`` produces the text table.

    ``static`` marks configuration tables that need no simulation
    (empty grid, fetch unused).  Experiments whose result cannot be
    expressed over cached :class:`~repro.sim.results.RunResult` records
    (e.g. the free-list wear ablation, which inspects raw per-address
    NVM write counts) also use an empty grid and document that their
    reduce simulates directly.
    """

    id: str
    title: str
    grid: Callable[[ExperimentSettings], List[Job]]
    reduce: Callable[[ExperimentSettings, Callable], Any]
    render: Callable[[Any], str]
    static: bool = False
    in_report: bool = True

    def jobs(self, settings=None):
        """The deduplicated, deterministically ordered job list."""
        settings = settings or ExperimentSettings()
        return [job for _key, job in _dedup_jobs(self.grid(settings))]


# ------------------------------------------------------------ registry
#: The single source of truth: experiment id -> spec, in paper
#: presentation order.  Populated by ``repro.analysis.experiments`` at
#: import; use :func:`all_experiments` to guarantee it is loaded.
EXPERIMENTS = {}


def register(spec):
    """Add a spec to :data:`EXPERIMENTS`; ids must be unique."""
    if spec.id in EXPERIMENTS:
        raise ValueError(f"duplicate experiment id {spec.id!r}")
    EXPERIMENTS[spec.id] = spec
    return spec


def all_experiments():
    """The registry, guaranteed populated (imports the spec module)."""
    import repro.analysis.experiments  # noqa: F401  (registers specs)

    return EXPERIMENTS


def get_experiment(experiment_id):
    """Look up one spec by id; raises KeyError listing the options."""
    registry = all_experiments()
    if experiment_id not in registry:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"options: {', '.join(registry)}"
        )
    return registry[experiment_id]


def record_jobs(spec, settings=None):
    """Run the spec's reduce with a recording fetch and return the set
    of job keys it actually requested (the enumeration/driver agreement
    probe: must equal ``{job_key(j) for j in spec.grid(settings)}``)."""
    settings = settings or ExperimentSettings()
    recorded = set()

    def fetch(benchmark, config, trace_seed):
        recorded.add((benchmark, _config_key(config), trace_seed))
        return cached_run(benchmark, config, trace_seed)

    spec.reduce(settings, fetch)
    return recorded


# ------------------------------------------------------------ sharding
def parse_shard(text):
    """Parse ``"K/N"`` into ``(K, N)``; K is 1-based."""
    try:
        k_text, n_text = text.split("/")
        k, n = int(k_text), int(n_text)
    except (AttributeError, ValueError):
        raise ValueError(f"shard must look like 'K/N', got {text!r}") from None
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"shard index out of range: {k}/{n}")
    return k, n


def _dedup_jobs(jobs):
    """Dedupe by cache key and order deterministically (by benchmark,
    then config key, then seed) so shard selection is stable across
    invocations and machines."""
    by_key = {}
    for job in jobs:
        job = Job(*job)
        by_key.setdefault(job_key(job), job)
    return sorted(
        by_key.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
    )


def select_shard(jobs, shard):
    """The deterministic ``shard=(K, N)`` slice of a job iterable.

    Jobs are deduped, ordered by cache key and dealt round-robin, so
    the N shards partition the grid and a long benchmark's jobs spread
    across shards instead of clumping into one.
    """
    ordered = _dedup_jobs(jobs)
    if shard is None:
        return [job for _key, job in ordered]
    k, n = parse_shard(shard) if isinstance(shard, str) else shard
    return [job for _key, job in ordered[k - 1::n]]


# ------------------------------------------------------------ artifacts
#: Schema tag carried by every artifact file.
ARTIFACT_SCHEMA = "repro.experiment-artifact"
#: Bumped when the artifact document format itself changes.
ARTIFACT_VERSION = 1


def _encode(value):
    """JSON-encode a result, tagging non-string-keyed mappings (the
    Figure 13 sweeps are keyed by int) so decoding restores key types."""
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode(v) for k, v in value.items()}
        return {"__pairs__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        if set(value) == {"__pairs__"}:
            return {
                _freeze(_decode(k)): _decode(v) for k, v in value["__pairs__"]
            }
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _freeze(key):
    return tuple(key) if isinstance(key, list) else key


def artifact_path(experiment_id, directory):
    return Path(directory) / f"{experiment_id}.json"


def write_artifact(spec, settings, result, directory):
    """Write the versioned JSON artifact for one reduced result.

    The document is self-describing (schema tag, format version, model
    version, settings) and atomic on disk; :func:`render_artifact`
    re-renders the report from it with zero simulation.
    """
    from repro import MODEL_VERSION

    payload = json.dumps(
        {
            "schema": ARTIFACT_SCHEMA,
            "version": ARTIFACT_VERSION,
            "model_version": MODEL_VERSION,
            "experiment": spec.id,
            "title": spec.title,
            "settings": asdict(settings),
            "result": _encode(result),
        },
        # No sort_keys: result mappings render in insertion order, and a
        # reloaded artifact must re-render identically.
        indent=1,
    )
    path = artifact_path(spec.id, directory)
    atomic_write(path, payload.encode())
    return path


def load_artifact(path):
    """Load and validate an artifact document (result keys decoded)."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(f"{path}: not an experiment artifact")
    if data.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: artifact format v{data.get('version')} "
            f"(this checkout reads v{ARTIFACT_VERSION})"
        )
    data["result"] = _decode(data["result"])
    return data


def render_artifact(artifact):
    """Re-render an experiment's text table from its artifact alone —
    no simulation.  Accepts a path or an already-loaded document."""
    if isinstance(artifact, (str, Path)):
        artifact = load_artifact(artifact)
    spec = get_experiment(artifact["experiment"])
    return spec.render(artifact["result"])


# ------------------------------------------------------------ execution
@dataclass(frozen=True)
class ExperimentRun:
    """What one :func:`run_experiment` invocation did."""

    spec_id: str
    title: str
    settings: ExperimentSettings
    shard: Optional[str]
    jobs_total: int
    jobs_selected: int
    fresh_runs: int
    complete: bool
    result: Any
    rendered: Optional[str]
    artifact_path: Optional[Path]


def run_experiment(spec, settings=None, workers=None, shard=None,
                   artifact_dir=None, progress=None):
    """Run one registered experiment end to end.

    Enumerates the spec's grid, prefetches the (shard's) jobs in
    parallel across ``workers`` processes (seeding the in-process and
    disk caches), then — if every job of the *full* grid is available —
    reduces, renders, and — when ``artifact_dir`` is given — writes the
    JSON artifact and its rendered ``<id>.txt`` there.

    ``shard="K/N"`` restricts simulation to the K-th deterministic
    slice of the grid.  A non-final shard typically returns
    ``complete=False`` with no result; the invocation that finds all
    other slices in the shared disk cache performs the reduce.  Bit
    determinism of the simulator guarantees sharded-union results equal
    a serial unsharded run.

    ``spec`` may be an id (looked up in the registry) or a spec
    instance (e.g. a parameterised variant that is not registered).
    """
    from repro.analysis.parallel import prefetch_runs

    if isinstance(spec, str):
        spec = get_experiment(spec)
    settings = settings or ExperimentSettings()
    ordered = _dedup_jobs(spec.grid(settings))
    shard_slice = parse_shard(shard) if isinstance(shard, str) else shard
    if shard_slice is not None:
        k, n = shard_slice
        selected = ordered[k - 1::n]
        shard_label = f"{k}/{n}"
    else:
        selected = ordered
        shard_label = None

    fresh = 0
    if selected:
        fresh = prefetch_runs(
            [job for _key, job in selected], workers=workers, progress=progress
        )

    complete = True
    if shard_slice is not None:
        for key, job in ordered:
            if key in _run_cache:
                continue
            if runcache.contains(job.benchmark, key[1], job.trace_seed):
                continue
            complete = False
            break

    result = rendered = path = None
    if complete:
        result = spec.reduce(settings, cached_run)
        rendered = spec.render(result)
        if artifact_dir is not None:
            path = write_artifact(spec, settings, result, artifact_dir)
            atomic_write(path.with_suffix(".txt"), (rendered + "\n").encode())
    return ExperimentRun(
        spec_id=spec.id,
        title=spec.title,
        settings=settings,
        shard=shard_label,
        jobs_total=len(ordered),
        jobs_selected=len(selected),
        fresh_runs=fresh,
        complete=complete,
        result=result,
        rendered=rendered,
        artifact_path=path,
    )
