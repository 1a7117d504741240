"""Asyncio JSON-over-HTTP simulation service (stdlib only).

Mounts the experiment engine as a long-running server: submissions
become :class:`~repro.service.jobs.JobRecord`\\ s executed on a bounded
thread pool whose simulations run through the process-wide
:class:`~repro.service.scheduler.Scheduler` — so identical concurrent
requests coalesce at the request level (one job record), identical
grid points across different requests coalesce at the scheduler level
(one simulation), and every result lands in the unified store exactly
as an in-process ``run_experiment`` would put it there (the
``service-smoke`` CI gate diffs the two byte for byte).

Endpoints (see docs/SERVICE.md)
-------------------------------
``GET  /status``            service, scheduler and store counters
``GET  /experiments``       the spec registry (ids + titles + grid sizes)
``POST /experiment``        ``{"experiment", "settings"?, "workers"?}``
``POST /simulate``          ``{"benchmark", "arch"?, "policy"?,
                            "trace_seed"?, "policy_kwargs"?}``
``GET  /job/<id>``          job snapshot (result included when done)
``GET  /job/<id>/events``   chunked NDJSON progress stream until settle
``GET  /artifact/<id>``     the experiment's archived JSON artifact
                            (``404`` when started without an
                            ``artifact_dir``: nothing is archived)

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 — request
line + headers + Content-Length body, one request per connection —
because the stdlib has no async HTTP server and this service must not
grow hard dependencies.
"""

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.service.jobs import _ACTIVE, JobTable
from repro.service.scheduler import get_scheduler


class ServiceError(Exception):
    """A request error with an HTTP status."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class SimulationService:
    """Transport-independent service core: submit and execute jobs.

    ``max_active`` bounds concurrently *executing* jobs (they share the
    scheduler's ``workers`` processes); ``max_pending`` bounds the total
    queued+running backlog — submissions beyond it are refused with 503
    (backpressure) rather than queued without bound.
    """

    def __init__(self, workers=None, max_active=2, max_pending=64,
                 artifact_dir=None):
        self.workers = workers
        self.max_pending = max_pending
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        self.jobs = JobTable()
        self.scheduler = get_scheduler()
        self._executor = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------ submission
    def submit(self, kind, request):
        """Validate, coalesce and enqueue one submission; returns
        ``(record, created)``."""
        request = self._validate(kind, request)
        if len(self.jobs.active()) >= self.max_pending:
            raise ServiceError(
                503, f"backlog full ({self.max_pending} jobs pending)"
            )
        record, created = self.jobs.submit(kind, request)
        if created:
            self._executor.submit(self._run, record)
        return record, created

    def _validate(self, kind, request):
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")
        if kind == "experiment":
            from repro.analysis.engine import all_experiments

            experiment = request.get("experiment")
            registry = all_experiments()
            if experiment not in registry:
                raise ServiceError(
                    400,
                    f"unknown experiment {experiment!r}; "
                    f"options: {', '.join(registry)}",
                )
            settings = request.get("settings", "default")
            if settings not in ("smoke", "default", "full"):
                raise ServiceError(
                    400, "settings must be smoke, default or full"
                )
            return {
                "experiment": experiment,
                "settings": settings,
                "workers": request.get("workers"),
            }
        if kind == "simulate":
            from repro.arch import ARCHITECTURES
            from repro.policies import POLICIES
            from repro.workloads import BENCHMARKS

            benchmark = request.get("benchmark")
            arch = request.get("arch", "nvmr")
            policy = request.get("policy", "jit")
            if benchmark not in BENCHMARKS:
                raise ServiceError(400, f"unknown benchmark {benchmark!r}")
            if arch not in ARCHITECTURES:
                raise ServiceError(400, f"unknown architecture {arch!r}")
            if policy not in POLICIES:
                raise ServiceError(400, f"unknown policy {policy!r}")
            policy_kwargs = request.get("policy_kwargs") or {}
            if not isinstance(policy_kwargs, dict):
                raise ServiceError(400, "policy_kwargs must be an object")
            return {
                "benchmark": benchmark,
                "arch": arch,
                "policy": policy,
                "trace_seed": int(request.get("trace_seed", 0)),
                "policy_kwargs": policy_kwargs,
            }
        raise ServiceError(400, f"unknown job kind {kind!r}")

    # ------------------------------------------------------- execution
    def _run(self, record):
        record.mark_running()
        try:
            if record.kind == "experiment":
                result = self._run_experiment(record)
            else:
                result = self._run_simulation(record)
        except Exception as error:  # job failure is a result, not a crash
            record.mark_failed(error)
        else:
            record.mark_done(result)

    def _settings(self, name):
        from repro.analysis.engine import ExperimentSettings

        return {
            "smoke": ExperimentSettings.smoke,
            "default": ExperimentSettings,
            "full": ExperimentSettings.full,
        }[name]()

    def _run_experiment(self, record):
        from repro.analysis import engine

        request = record.request
        run = engine.run_experiment(
            request["experiment"],
            settings=self._settings(request["settings"]),
            workers=request["workers"] or self.workers,
            artifact_dir=self.artifact_dir,
            progress=lambda done, total, label: record.add_event(
                {"done": done, "total": total, "label": label}
            ),
        )
        return {
            "experiment": run.spec_id,
            "title": run.title,
            "jobs_total": run.jobs_total,
            "fresh_runs": run.fresh_runs,
            "complete": run.complete,
            "result": engine._encode(run.result),
            "rendered": run.rendered,
            "artifact": str(run.artifact_path) if run.artifact_path else None,
        }

    def _run_simulation(self, record):
        from repro.analysis.engine import cached_run
        from repro.analysis.runcache import _result_to_dict
        from repro.sim.platform import PlatformConfig

        request = record.request
        config = PlatformConfig(
            arch=request["arch"],
            policy=request["policy"],
            policy_kwargs=dict(request["policy_kwargs"]),
        )
        record.add_event(
            {
                "done": 0,
                "total": 1,
                "label": f"sim:{request['benchmark']}/{request['arch']}"
                         f"/{request['policy']}/seed{request['trace_seed']}",
            }
        )
        result = cached_run(request["benchmark"], config,
                            request["trace_seed"])
        return {
            "benchmark": request["benchmark"],
            "run": _result_to_dict(result),
            "total_energy_nj": result.total_energy,
        }

    # ---------------------------------------------------------- status
    def status(self):
        from repro.analysis import runcache
        from repro.sim import tracestore

        store = runcache.unified_store()
        return {
            "service": "repro-nvmr",
            "jobs": self.jobs.counts(),
            "scheduler": self.scheduler.stats(),
            "store": {
                "root": str(runcache.cache_dir()),
                "enabled": runcache.enabled(),
                "runs": store.namespace("").stats(),
                "trace_keys": tracestore._keys().stats(),
                "trace_blobs": tracestore._blobs().stats(),
            },
            "artifact_dir": str(self.artifact_dir) if self.artifact_dir
            else None,
        }

    def experiments(self):
        from repro.analysis.engine import all_experiments

        return [
            {"id": spec.id, "title": spec.title, "static": spec.static}
            for spec in all_experiments().values()
        ]

    def artifact(self, experiment_id):
        from repro.analysis.engine import artifact_path

        if self.artifact_dir is None:
            raise ServiceError(404, "server has no artifact directory")
        path = artifact_path(experiment_id, self.artifact_dir)
        try:
            return json.loads(path.read_text())
        except OSError:
            raise ServiceError(
                404, f"no artifact for {experiment_id!r}"
            ) from None
        except ValueError:
            raise ServiceError(
                500, f"artifact for {experiment_id!r} is corrupt"
            ) from None

    def close(self):
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.scheduler.close()


# ------------------------------------------------------------ HTTP layer
class ServiceServer:
    """The asyncio HTTP front of a :class:`SimulationService`."""

    def __init__(self, service, host="127.0.0.1", port=8321):
        self.service = service
        self.host = host
        self.port = port
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # Ephemeral-port binds (port=0) resolve here.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.service.close()

    # ------------------------------------------------------ connection
    async def _handle(self, reader, writer):
        try:
            method, path, query, body = await self._read_request(reader)
            await self._route(writer, method, path, query, body)
        except ServiceError as error:
            await self._respond(
                writer, error.status, {"error": str(error)}
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except Exception as error:  # a handler bug must not kill the server
            try:
                await self._respond(writer, 500, {"error": repr(error)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader):
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(400, "malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        raw = await reader.readexactly(length) if length else b""
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                raise ServiceError(400, "request body is not JSON") from None
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return method, split.path.rstrip("/") or "/", query, body

    async def _route(self, writer, method, path, query, body):
        service = self.service
        if method == "GET" and path == "/status":
            return await self._respond(writer, 200, service.status())
        if method == "GET" and path == "/experiments":
            return await self._respond(
                writer, 200, {"experiments": service.experiments()}
            )
        if method == "POST" and path in ("/experiment", "/simulate"):
            record, created = service.submit(path.lstrip("/"), body or {})
            return await self._respond(
                writer,
                202 if created else 200,
                {
                    "job": record.id,
                    "state": record.state,
                    "coalesced": not created,
                },
            )
        if method == "GET" and path.startswith("/job/"):
            tail = path[len("/job/"):]
            if tail.endswith("/events"):
                record = self._record(tail[: -len("/events")])
                since = int(query.get("since", "0") or 0)
                return await self._stream_events(writer, record, since)
            record = self._record(tail)
            return await self._respond(
                writer, 200, record.snapshot(with_result=True)
            )
        if method == "GET" and path.startswith("/artifact/"):
            experiment_id = path[len("/artifact/"):]
            return await self._respond(
                writer, 200, service.artifact(experiment_id)
            )
        raise ServiceError(404, f"no route for {method} {path}")

    def _record(self, job_id):
        record = self.service.jobs.get(job_id)
        if record is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return record

    # ------------------------------------------------------- responses
    @staticmethod
    async def _respond(writer, status, payload):
        body = json.dumps(payload).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _stream_events(self, writer, record, since):
        """Stream progress as chunked NDJSON until the job settles.

        Each line is one progress event; the final line is the job
        snapshot (state + result summary), so a client that consumes
        the stream needs no follow-up poll to learn the outcome.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        def chunk(line_obj):
            line = json.dumps(line_obj).encode() + b"\n"
            return f"{len(line):x}\r\n".encode() + line + b"\r\n"

        # The job runs on an executor thread; each change it makes
        # hands a wake-up to this loop.  Subscribing before the first
        # check, and clearing before each one, means a change that
        # lands between a check and the await still ends the await.
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()

        def on_change():
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # the loop has closed: no one to wake
                pass

        record.subscribe(on_change)
        try:
            seen = since
            while True:
                wake.clear()
                # The state first: a job settles after its last event,
                # so once it reads settled no event is still to come.
                snapshot = record.snapshot(with_result=True)
                events = record.events_since(seen)
                for event in events:
                    writer.write(chunk({"event": event}))
                seen += len(events)
                if snapshot["state"] not in _ACTIVE:
                    writer.write(chunk(snapshot))
                    break
                await writer.drain()
                await wake.wait()
        finally:
            record.unsubscribe(on_change)
        writer.write(b"0\r\n\r\n")
        await writer.drain()


# ----------------------------------------------------------- entrypoints
def serve(host="127.0.0.1", port=8321, workers=None, max_active=2,
          artifact_dir=None, announce=None):
    """Run the service until interrupted (the CLI ``serve`` verb)."""
    service = SimulationService(
        workers=workers, max_active=max_active, artifact_dir=artifact_dir
    )
    server = ServiceServer(service, host=host, port=port)

    async def _main():
        await server.start()
        # SIGTERM (``kill``, CI's exit trap) stops the server as Ctrl-C
        # does, so the ``finally`` below joins the worker pool.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        if announce is not None:
            announce(server)
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        service.close()
    return 0


class BackgroundServer:
    """An in-process server on a background thread (tests + smoke).

    Usage::

        with BackgroundServer(artifact_dir=tmp) as server:
            client = ServiceClient(port=server.port)
    """

    def __init__(self, host="127.0.0.1", port=0, **service_kwargs):
        self.service = SimulationService(**service_kwargs)
        self.server = ServiceServer(self.service, host=host, port=port)
        self._loop = None
        self._task = None
        self._thread = None
        self._started = threading.Event()

    @property
    def host(self):
        return self.server.host

    @property
    def port(self):
        return self.server.port

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(10):
            raise RuntimeError("service server failed to start")
        return self

    async def _amain(self):
        await self.server.start()
        self._started.set()
        await self.server.serve_forever()

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._task = self._loop.create_task(self._amain())
        try:
            self._loop.run_until_complete(self._task)
        except asyncio.CancelledError:
            pass
        finally:
            self._loop.close()

    def __exit__(self, *exc):
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._task.cancel)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.close()
        return False
