"""The declarative experiment engine: registry, enumeration/driver
agreement, sharding, and artifact round-trips."""

import dataclasses
import json

import pytest

from repro.analysis import engine, parallel
from repro.analysis.engine import (
    ExperimentSettings,
    Job,
    all_experiments,
    clear_run_cache,
    get_experiment,
    job_key,
    load_artifact,
    parse_shard,
    record_jobs,
    render_artifact,
    run_experiment,
    run_experiments,
    select_shard,
)
from repro.cli import main
from repro.sim.platform import PlatformConfig

SMOKE = ExperimentSettings.smoke()

SPEC_IDS = list(all_experiments())


# ------------------------------------------------------------- registry
def test_registry_covers_design_doc_experiments():
    """Every DESIGN.md Section 4 table/figure is a registered spec."""
    required = {
        "table2", "table3", "table4",
        "fig10", "fig11", "fig12",
        "fig13a", "fig13b", "fig13c", "fig13d",
        "fig14", "overheads", "footnote6",
    }
    assert required <= set(SPEC_IDS)


def test_registry_ids_match_spec_ids():
    for spec_id, spec in all_experiments().items():
        assert spec.id == spec_id
        assert spec.title


def test_get_experiment_unknown_lists_options():
    with pytest.raises(KeyError, match="fig10"):
        get_experiment("nope")


def test_register_rejects_duplicate_ids():
    spec = get_experiment("table2")
    with pytest.raises(ValueError, match="duplicate"):
        engine.register(spec)


# ---------------------------------------- enumeration/driver agreement
@pytest.mark.parametrize("spec_id", SPEC_IDS)
def test_grid_agrees_with_reduce(spec_id):
    """The spec's grid enumerates exactly the runs its reduce fetches.

    This is the invariant that retired the hand-maintained ``*_jobs``
    mirrors: enumeration (what the engine prefetches/shards) and the
    reduction (what the driver actually consumes) come from one spec
    and cannot drift.
    """
    spec = get_experiment(spec_id)
    enumerated = {job_key(job) for job in spec.grid(SMOKE)}
    fetched = record_jobs(spec, SMOKE)
    assert fetched == enumerated


@pytest.mark.parametrize("spec_id", SPEC_IDS)
def test_jobs_are_deduped_and_deterministic(spec_id):
    spec = get_experiment(spec_id)
    jobs = spec.jobs(SMOKE)
    keys = [job_key(job) for job in jobs]
    assert len(keys) == len(set(keys))
    assert jobs == spec.jobs(SMOKE)
    for job in jobs:
        assert isinstance(job, Job)
        assert isinstance(job.config, PlatformConfig)


# ------------------------------------------------------------- sharding
def test_parse_shard():
    assert parse_shard("1/2") == (1, 2)
    assert parse_shard("3/3") == (3, 3)
    for bad in ("", "2", "0/2", "3/2", "a/b", "1/2/3", None):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_select_shard_partitions_the_grid():
    spec = get_experiment("fig10")
    jobs = spec.grid(SMOKE)
    full = {job_key(job) for job in select_shard(jobs, None)}
    n = 3
    pieces = [select_shard(jobs, (k, n)) for k in range(1, n + 1)]
    union = [job_key(job) for piece in pieces for job in piece]
    assert len(union) == len(set(union))  # disjoint
    assert set(union) == full  # complete
    # Round-robin deal: shard sizes differ by at most one.
    sizes = [len(piece) for piece in pieces]
    assert max(sizes) - min(sizes) <= 1


def test_sharded_run_matches_serial(monkeypatch, tmp_path):
    """Shards 1/2 + 2/2 (2 workers) over a shared disk cache reproduce
    the serial result bit-for-bit, with every fresh simulation landing
    in the cache."""
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")

    serial_dir = tmp_path / "serial"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(serial_dir))
    clear_run_cache()
    serial = run_experiment("fig10", settings=SMOKE, workers=1)
    assert serial.complete

    shared_dir = tmp_path / "shared"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared_dir))
    clear_run_cache()
    first = run_experiment("fig10", settings=SMOKE, workers=2, shard="1/2")
    assert not first.complete
    assert first.result is None and first.rendered is None
    assert first.jobs_selected < first.jobs_total

    clear_run_cache()  # force the second shard through the disk layer
    second = run_experiment("fig10", settings=SMOKE, workers=2, shard="2/2")
    assert second.complete
    assert first.jobs_selected + second.jobs_selected == second.jobs_total
    assert second.result == serial.result
    assert second.rendered == serial.rendered

    # Every fresh simulation of both shards persisted to the shared dir.
    assert len(list(shared_dir.glob("*.json"))) == second.jobs_total
    clear_run_cache()


# ------------------------------------------------------------ artifacts
@pytest.mark.parametrize("spec_id", SPEC_IDS)
def test_artifact_roundtrip(spec_id, tmp_path):
    """Write the artifact, reload it, re-render with zero simulation."""
    spec = get_experiment(spec_id)
    run = run_experiment(spec, settings=SMOKE, workers=1,
                         artifact_dir=tmp_path)
    assert run.complete
    assert run.artifact_path == tmp_path / f"{spec_id}.json"

    artifact = load_artifact(run.artifact_path)
    assert artifact["schema"] == engine.ARTIFACT_SCHEMA
    assert artifact["version"] == engine.ARTIFACT_VERSION
    assert artifact["experiment"] == spec_id
    assert artifact["settings"]["traces"] == SMOKE.traces
    assert artifact["result"] == run.result
    assert render_artifact(artifact) == run.rendered
    assert render_artifact(run.artifact_path) == run.rendered


def test_artifact_restores_non_string_keys(tmp_path):
    """Figure 13 sweeps are keyed by int; JSON must not stringify them."""
    run = run_experiment("fig13a", settings=SMOKE, workers=1,
                         artifact_dir=tmp_path)
    reloaded = load_artifact(run.artifact_path)["result"]
    assert reloaded == run.result
    assert all(isinstance(k, int) for k in reloaded)


def test_load_artifact_rejects_foreign_documents(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"schema": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="not an experiment artifact"):
        load_artifact(path)
    path.write_text(json.dumps(
        {"schema": engine.ARTIFACT_SCHEMA, "version": 999, "result": {}}
    ))
    with pytest.raises(ValueError, match="v999"):
        load_artifact(path)


# ------------------------------------------------------------ run shape
def test_run_experiment_accepts_spec_instances():
    from repro.analysis.experiments import fig10_spec

    variant = fig10_spec(policies=("jit",))
    run = run_experiment(variant, settings=SMOKE, workers=1)
    assert run.complete
    assert set(run.result) == {"jit"}


def test_static_specs_run_without_jobs():
    run = run_experiment("table2", settings=SMOKE, workers=1)
    assert run.jobs_total == 0
    assert run.fresh_runs == 0
    assert run.complete
    assert "Map Table Cache" in run.result


def test_deprecation_shims_are_gone():
    # The report/reporting shims warned for two PRs and were removed;
    # the canonical names live in repro.analysis.render.
    with pytest.raises(ModuleNotFoundError):
        import repro.analysis.report  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        import repro.analysis.reporting  # noqa: F401
    from repro.analysis.render import format_series, generate_report

    assert callable(generate_report)
    assert callable(format_series)


# ------------------------------------------------------------ sweep plan
@pytest.mark.parametrize("shard", [None, "1/2"])
def test_all_is_one_prefetch_of_the_ordered_union(monkeypatch, capsys,
                                                   shard):
    """``--all`` hands every spec's (shard's) jobs to one prefetch,
    deduplicated and ordered by benchmark.  Zero simulation: the
    prefetch and every reduce are stubbed."""
    calls = []

    def fake_prefetch(jobs, workers=None, progress=None):
        calls.append(list(jobs))
        return []

    monkeypatch.setattr(parallel, "prefetch_runs", fake_prefetch)
    for spec_id, spec in list(engine.EXPERIMENTS.items()):
        monkeypatch.setitem(engine.EXPERIMENTS, spec_id, dataclasses.replace(
            spec, reduce=lambda settings, fetch: None,
            render=lambda result, name=spec_id: name,
        ))
    argv = ["experiment", "--all", "--smoke"]
    if shard is not None:
        argv += ["--shard", shard]
    assert main(argv) == 0
    capsys.readouterr()

    assert len(calls) == 1
    keys = [job_key(job) for job in calls[0]]
    union = {
        job_key(job)
        for spec in engine.EXPERIMENTS.values()
        for job in select_shard(spec.grid(SMOKE), shard)
    }
    assert len(keys) == len(set(keys))
    assert set(keys) == union
    assert keys == [key for key, _job in engine._dedup_jobs(calls[0])]
    benchmarks = [key[0] for key in keys]
    assert benchmarks == sorted(benchmarks)
    if shard is not None:
        full = {job_key(job) for spec in engine.EXPERIMENTS.values()
                for job in spec.jobs(SMOKE)}
        assert union < full


def test_one_spec_keys_each_job_once(monkeypatch):
    """``run_experiment`` (each service request) keys its grid once, as
    before sweeps were planned: its selection is its own union."""
    keyed = []

    def counting_job_key(job):
        keyed.append(job)
        return job_key(job)

    monkeypatch.setattr(engine, "job_key", counting_job_key)
    monkeypatch.setattr(parallel, "prefetch_runs",
                        lambda jobs, workers=None, progress=None: [])
    spec = dataclasses.replace(
        get_experiment("pareto_summary"),
        reduce=lambda settings, fetch: None, render=lambda result: "",
    )
    run_experiment(spec, settings=SMOKE)
    assert len(keyed) == len(list(spec.grid(SMOKE)))


def test_sweep_counts_a_shared_job_for_the_first_spec():
    """A sweep reports the same per-spec results and ``fresh_runs`` as
    separate runs of its specs in the same order, on a cold store."""
    names = ["table2", "fig13c", "footnote6", "table3"]
    shared = ({job_key(j) for j in get_experiment("fig13c").jobs(SMOKE)}
              & {job_key(j) for j in get_experiment("footnote6").jobs(SMOKE)})
    assert shared  # the attribution below is exercised

    clear_run_cache()
    separate = [run_experiment(name, settings=SMOKE, workers=1)
                for name in names]
    clear_run_cache()
    sweep = run_experiments(names, settings=SMOKE, workers=1)
    runs = list(sweep.runs)
    clear_run_cache()

    assert [run.spec_id for run in runs] == names
    assert ([run.fresh_runs for run in runs]
            == [run.fresh_runs for run in separate])
    assert [run.result for run in runs] == [run.result for run in separate]
    assert runs[0].fresh_runs == 0  # table2 is static
    assert sweep.jobs_planned == sum(run.fresh_runs for run in runs) == len(
        {job_key(j) for name in names
         for j in get_experiment(name).jobs(SMOKE)}
    )


def test_each_report_prints_before_the_next_reduce(monkeypatch, capsys):
    """A sweep prints each report as soon as its spec is reduced, so a
    reduce that raises leaves the reports before it on stdout."""
    def fail(settings, fetch):
        raise RuntimeError("reduce failed")

    monkeypatch.setitem(engine.EXPERIMENTS, "table4", dataclasses.replace(
        engine.EXPERIMENTS["table4"], reduce=fail,
    ))
    with pytest.raises(RuntimeError, match="reduce failed"):
        main(["experiment", "table2", "table4", "--smoke"])
    assert "Map Table Cache" in capsys.readouterr().out
