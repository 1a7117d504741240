"""Blocking HTTP client for the simulation service (stdlib only).

The CLI ``submit`` / ``status`` verbs and the ``service-smoke`` CI gate
drive the server through this module; it speaks exactly the JSON
protocol :mod:`repro.service.server` serves, over one
``http.client.HTTPConnection`` per request (the server closes
connections after each response).
"""

import http.client
import json
import time


class ServiceUnavailable(ConnectionError):
    """The server could not be reached or refused the request."""


class JobFailed(RuntimeError):
    """The submitted job settled in the ``failed`` state."""

    def __init__(self, snapshot):
        super().__init__(snapshot.get("error") or "job failed")
        self.snapshot = snapshot


class ServiceClient:
    """A small blocking client bound to one server address."""

    def __init__(self, host="127.0.0.1", port=8321, timeout=120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------- plumbing
    def _request(self, method, path, body=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise ServiceUnavailable(
                f"{self.host}:{self.port}: {error}"
            ) from error
        finally:
            connection.close()
        try:
            decoded = json.loads(data) if data else None
        except ValueError:
            raise ServiceUnavailable(
                f"{self.host}:{self.port}: non-JSON response"
            ) from None
        if response.status >= 400:
            message = (decoded or {}).get("error", data.decode(errors="replace"))
            raise ServiceUnavailable(
                f"{method} {path} -> {response.status}: {message}"
            )
        return decoded

    # ------------------------------------------------------ endpoints
    def status(self):
        return self._request("GET", "/status")

    def experiments(self):
        return self._request("GET", "/experiments")["experiments"]

    def submit_experiment(self, experiment, settings="default",
                          workers=None):
        """Submit one experiment; returns ``{"job", "state",
        "coalesced"}`` (``coalesced`` when an identical request was
        already in flight and this submission adopted its job)."""
        return self._request(
            "POST",
            "/experiment",
            {"experiment": experiment, "settings": settings,
             "workers": workers},
        )

    def submit_simulation(self, benchmark, arch="nvmr", policy="jit",
                          trace_seed=0, policy_kwargs=None):
        return self._request(
            "POST",
            "/simulate",
            {
                "benchmark": benchmark,
                "arch": arch,
                "policy": policy,
                "trace_seed": trace_seed,
                "policy_kwargs": policy_kwargs or {},
            },
        )

    def job(self, job_id):
        """The job's snapshot (result included once done)."""
        return self._request("GET", f"/job/{job_id}")

    def artifact(self, experiment_id):
        """The experiment's archived artifact document."""
        return self._request("GET", f"/artifact/{experiment_id}")

    # ----------------------------------------------------- lifecycles
    def wait(self, job_id, timeout=600.0, on_event=None):
        """Block until the job settles; returns the final snapshot.

        Reads the job's event stream to its final line, so the answer
        arrives as the job settles, with no polling; progress goes into
        ``on_event(event_dict)`` when given.  Raises :class:`JobFailed`
        if the job failed, ``TimeoutError`` if it does not settle
        within ``timeout`` seconds.
        """
        return self._settle(
            job_id, self.stream_events(job_id, timeout=timeout), on_event
        )

    def stream_events(self, job_id, since=0, timeout=None):
        """Yield the job's progress events as they happen.

        Consumes the server's chunked NDJSON stream; every yielded item
        is a dict — progress lines look like ``{"event": {...}}`` and
        the final line is the job's full snapshot (``{"id": ...,
        "state": "done"|"failed", ...}``).  ``timeout`` bounds the whole
        stream: past it, ``TimeoutError``.  Without it, the client's
        ``timeout`` bounds the wait for each line.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/job/{job_id}/events?since={since}")
            sock = connection.sock
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode(errors="replace")
                raise ServiceUnavailable(
                    f"events for {job_id} -> {response.status}: {message}"
                )
            # http.client undoes the chunked framing; lines remain.
            while True:
                if deadline is not None:
                    # settimeout(0) would make the socket non-blocking.
                    sock.settimeout(max(deadline - time.monotonic(), 1e-3))
                raw = response.readline()
                if not raw:
                    break
                line = raw.strip()
                if line:
                    yield json.loads(line)
        except (OSError, http.client.HTTPException) as error:
            if (isinstance(error, TimeoutError) and deadline is not None
                    and time.monotonic() >= deadline):
                raise TimeoutError(
                    f"job {job_id} did not settle within {timeout:.0f}s"
                ) from None
            raise ServiceUnavailable(
                f"{self.host}:{self.port}: {error}"
            ) from error
        finally:
            connection.close()

    @staticmethod
    def _settle(job_id, lines, on_event):
        """The final snapshot of an event stream, passing progress into
        ``on_event``; raises :class:`JobFailed` if the job failed."""
        final = None
        for line in lines:
            if "event" not in line:
                final = line
            elif on_event is not None:
                on_event(line["event"])
        if final is None:
            raise ServiceUnavailable(f"events for {job_id} ended unsettled")
        if final["state"] == "failed":
            raise JobFailed(final)
        return final

    def run(self, experiment, settings="default", workers=None,
            on_event=None):
        """Submit an experiment and block until its result.

        Streams the job's events, passing progress into
        ``on_event(event_dict)`` when given, and returns the stream's
        final line: the settled job's snapshot, result included (no
        follow-up poll).  Raises :class:`JobFailed` if the job failed;
        the client's ``timeout`` bounds the wait between streamed lines.
        """
        submitted = self.submit_experiment(
            experiment, settings=settings, workers=workers
        )
        job_id = submitted["job"]
        return self._settle(job_id, self.stream_events(job_id), on_event)
