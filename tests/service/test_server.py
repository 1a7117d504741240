"""The HTTP service: round trips, coalescing, artifacts, errors.

Each test boots a real :class:`BackgroundServer` (the asyncio server
on a thread, bound to an ephemeral port) and drives it through the
blocking :class:`ServiceClient` — the same pair the ``service-smoke``
CI gate and the CLI ``submit`` verb use.
"""

import json
import threading

import pytest

import repro.analysis.engine as engine
from repro.analysis.engine import clear_run_cache
from repro.service.client import JobFailed, ServiceClient, ServiceUnavailable
from repro.service.jobs import JobTable, request_key
from repro.service.server import BackgroundServer

# Smallest non-static spec: two grid jobs at smoke scale, so round
# trips are fast yet still stream real progress events.
EXPERIMENT = "table3"


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_run_cache()
    yield
    clear_run_cache()


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(workers=1, artifact_dir=tmp_path / "artifacts") as bg:
        yield bg


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port, timeout=60)


# ----------------------------------------------------------- job table
def test_request_key_is_canonical():
    a = request_key("simulate", {"benchmark": "hist", "trace_seed": 0})
    b = request_key("simulate", {"trace_seed": 0, "benchmark": "hist"})
    assert a == b
    assert request_key("experiment", {"benchmark": "hist"}) != a


def test_job_table_coalesces_active_identical_requests():
    table = JobTable()
    first, created = table.submit("simulate", {"benchmark": "hist"})
    assert created
    again, created = table.submit("simulate", {"benchmark": "hist"})
    assert not created and again is first
    assert first.coalesced == 1
    assert table.coalesced_total == 1
    # A settled record no longer coalesces: the next identical request
    # is a fresh job (it may legitimately recompute).
    first.mark_running()
    first.mark_done({"ok": True})
    fresh, created = table.submit("simulate", {"benchmark": "hist"})
    assert created and fresh is not first
    counts = table.counts()
    assert counts["total"] == 2
    assert counts["done"] == 1


def _settle(record):
    record.mark_running()
    record.mark_done({"ok": True})


def test_job_table_active_drops_settled_jobs():
    table = JobTable()
    for i in range(50):
        record, _ = table.submit("simulate", {"benchmark": "hist", "trace_seed": i})
        _settle(record)
    assert table.active() == []
    assert table._active_by_key == {}
    # In-flight jobs survive the sweep, in job-id order, even when a
    # settled key is resubmitted after a newer in-flight one.
    first, _ = table.submit("simulate", {"benchmark": "hist", "trace_seed": 1})
    second, _ = table.submit("simulate", {"benchmark": "dwt"})
    _settle(first)
    third, _ = table.submit("simulate", {"benchmark": "hist", "trace_seed": 1})
    assert table.active() == [second, third]
    assert list(table._active_by_key.values()) == [second, third]
    assert table.counts()["total"] == 53


# ------------------------------------------------------------ endpoints
def test_status_reports_jobs_scheduler_and_store(client):
    status = client.status()
    assert status["service"] == "repro-nvmr"
    assert status["jobs"]["total"] == 0
    assert set(status["scheduler"]) >= {"runs", "executed", "dedup_hits"}
    assert set(status["store"]) >= {"root", "runs", "trace_keys"}


def test_experiments_lists_the_registry(client):
    listed = client.experiments()
    assert EXPERIMENT in {spec["id"] for spec in listed}
    assert all({"id", "title", "static"} <= set(spec) for spec in listed)


def _record_requests(client, monkeypatch):
    """Every (method, path) the client sends outside the event stream."""
    sent = []
    real_request = client._request

    def spy(method, path, body=None):
        sent.append((method, path))
        return real_request(method, path, body)

    monkeypatch.setattr(client, "_request", spy)
    return sent


def test_experiment_round_trip_matches_in_process(client, server, tmp_path,
                                                  monkeypatch):
    events = []
    sent = _record_requests(client, monkeypatch)
    final = client.run(EXPERIMENT, settings="smoke", on_event=events.append)
    # The stream's final line is the whole snapshot: no re-poll.
    assert sent == [("POST", "/experiment")]
    assert final["state"] == "done"
    result = final["result"]
    assert result["experiment"] == EXPERIMENT
    assert result["complete"] is True
    assert result["rendered"].strip()
    # Progress streamed with the engine's historical labels.
    assert events
    assert all({"done", "total", "label"} <= set(e) for e in events)

    # The artifact endpoint serves exactly the document on disk, and
    # that document is byte-identical to an in-process run_experiment
    # of the same spec at the same settings.
    served = client.artifact(EXPERIMENT)
    service_path = engine.artifact_path(EXPERIMENT, server.service.artifact_dir)
    assert json.loads(service_path.read_text()) == served

    clear_run_cache()
    local_dir = tmp_path / "local"
    engine.run_experiment(
        EXPERIMENT,
        settings=engine.ExperimentSettings.smoke(),
        workers=1,
        artifact_dir=local_dir,
    )
    local_path = engine.artifact_path(EXPERIMENT, local_dir)
    assert local_path.read_bytes() == service_path.read_bytes()


def test_simulate_round_trip(client):
    submitted = client.submit_simulation("hist", arch="nvmr", policy="jit")
    final = client.wait(submitted["job"], timeout=60)
    run = final["result"]
    assert run["benchmark"] == "hist"
    assert run["total_energy_nj"] > 0
    assert run["run"]["arch"] == "nvmr"
    assert run["run"]["policy"] == "jit"


def test_identical_inflight_submissions_coalesce(client, monkeypatch):
    real_run = engine.run_experiment
    started = threading.Event()
    release = threading.Event()

    def slow_run(*args, **kwargs):
        started.set()
        assert release.wait(30)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run_experiment", slow_run)
    first = client.submit_experiment(EXPERIMENT, settings="smoke", workers=1)
    assert not first["coalesced"]
    assert started.wait(10)  # the job is provably still in flight
    second = client.submit_experiment(EXPERIMENT, settings="smoke", workers=1)
    assert second["job"] == first["job"]
    assert second["coalesced"]

    release.set()
    final = client.wait(first["job"], timeout=120)
    assert final["state"] == "done"
    assert final["coalesced"] == 1
    assert client.status()["jobs"]["coalesced"] == 1


def test_validation_and_lookup_errors(client):
    with pytest.raises(ServiceUnavailable, match="unknown experiment"):
        client.submit_experiment("fig99")
    with pytest.raises(ServiceUnavailable, match="unknown benchmark"):
        client.submit_simulation("no-such-bench")
    with pytest.raises(ServiceUnavailable, match="unknown job"):
        client.job("job-999999")
    with pytest.raises(ServiceUnavailable, match="no artifact"):
        client.artifact(EXPERIMENT)  # nothing has run yet
    with pytest.raises(ServiceUnavailable, match="no route"):
        client._request("GET", "/nope")


def test_failed_job_raises_job_failed(client, monkeypatch):
    def broken_run(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(engine, "run_experiment", broken_run)
    submitted = client.submit_experiment(EXPERIMENT, settings="smoke")
    with pytest.raises(JobFailed, match="engine exploded"):
        client.wait(submitted["job"], timeout=30)
    snapshot = client.job(submitted["job"])
    assert snapshot["state"] == "failed"
    # client.run learns the failure from the stream's final line.
    sent = _record_requests(client, monkeypatch)
    with pytest.raises(JobFailed, match="engine exploded") as failure:
        client.run(EXPERIMENT, settings="smoke", workers=1)
    assert failure.value.snapshot["state"] == "failed"
    assert sent == [("POST", "/experiment")]


def test_backpressure_refuses_when_backlog_full(tmp_path, monkeypatch):
    release = threading.Event()
    real_run = engine.run_experiment

    def slow_run(*args, **kwargs):
        assert release.wait(30)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run_experiment", slow_run)
    with BackgroundServer(workers=1, max_pending=1,
                          artifact_dir=tmp_path) as bg:
        client = ServiceClient(port=bg.port, timeout=60)
        client.submit_experiment(EXPERIMENT, settings="smoke", workers=1)
        with pytest.raises(ServiceUnavailable, match="backlog full"):
            # A *different* request (no coalescing) beyond the backlog
            # bound is refused with 503 rather than queued unboundedly.
            client.submit_experiment("fig14", settings="smoke", workers=1)
        release.set()
