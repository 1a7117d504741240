"""Service-level job lifecycle: records, states and request coalescing.

A submission to the HTTP service becomes a :class:`JobRecord` in the
:class:`JobTable`.  Records move ``queued -> running -> done|failed``
and accumulate structured progress events; the table is the service's
unit of *request-level* deduplication — two identical requests arriving
while the first is still queued or running coalesce onto one record
(both callers follow the same job id and read the same result), counted
in :attr:`JobTable.coalesced_total`.  Job-level dedup below this —
two *different* experiments sharing grid points — is the scheduler's
(:mod:`repro.service.scheduler`).
"""

import itertools
import json
import threading
import time

#: Job states, in lifecycle order.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
_ACTIVE = (QUEUED, RUNNING)


def request_key(kind, request):
    """The canonical identity of a submission: kind + sorted-JSON
    params.  Requests that serialize identically are the same job."""
    return json.dumps({"kind": kind, "request": request}, sort_keys=True)


class JobRecord:
    """One submitted job: state, progress log, outcome."""

    def __init__(self, job_id, kind, request):
        self.id = job_id
        self.kind = kind
        self.request = request
        self.state = QUEUED
        self.created = time.time()
        self.started = None
        self.finished = None
        self.events = []
        self.result = None
        self.error = None
        #: Submissions (beyond the first) that adopted this record.
        self.coalesced = 0
        self._lock = threading.Lock()
        self._listeners = []

    # The server's executor threads mutate records; the asyncio side
    # reads snapshots.  Every mutation then calls each listener, so a
    # stream wakes when its job changes rather than on a timer.
    def subscribe(self, listener):
        """Call ``listener()`` after every later mutation.  It runs on
        the mutating thread, so it must not block."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener):
        with self._lock:
            self._listeners.remove(listener)

    def _changed(self):
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener()

    def mark_running(self):
        with self._lock:
            self.state = RUNNING
            self.started = time.time()
        self._changed()

    def mark_done(self, result):
        with self._lock:
            self.state = DONE
            self.result = result
            self.finished = time.time()
        self._changed()

    def mark_failed(self, error):
        with self._lock:
            self.state = FAILED
            self.error = str(error)
            self.finished = time.time()
        self._changed()

    def add_event(self, event):
        """Append one progress event (a JSON-ready dict)."""
        with self._lock:
            self.events.append(event)
        self._changed()

    def events_since(self, index):
        """A copy of the events appended after ``index``."""
        with self._lock:
            return list(self.events[index:])

    def snapshot(self, with_result=True, with_events=False):
        """A JSON-ready view of the record."""
        with self._lock:
            view = {
                "id": self.id,
                "kind": self.kind,
                "request": self.request,
                "state": self.state,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "events": len(self.events),
                "coalesced": self.coalesced,
                "error": self.error,
            }
            if with_result:
                view["result"] = self.result
            if with_events:
                view["event_log"] = list(self.events)
            return view


class JobTable:
    """All jobs the service has seen, with request-level coalescing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}
        self._active_by_key = {}
        self._ids = itertools.count(1)
        self.coalesced_total = 0

    def submit(self, kind, request):
        """Register a submission; returns ``(record, created)``.

        ``created`` is False when an identical request was already
        queued or running — the caller adopts that in-flight record
        instead of spawning a duplicate job.
        """
        key = request_key(kind, request)
        with self._lock:
            active = self._active_by_key.get(key)
            if active is not None and active.state in _ACTIVE:
                active.coalesced += 1
                self.coalesced_total += 1
                return active, False
            job_id = f"job-{next(self._ids):06d}"
            record = JobRecord(job_id, kind, request)
            self._jobs[job_id] = record
            # Re-insert a settled key at the end, so the map stays in
            # job-id order (active() returns records in that order).
            self._active_by_key.pop(key, None)
            self._active_by_key[key] = record
            return record, True

    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self):
        with self._lock:
            states = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for record in self._jobs.values():
                states[record.state] += 1
            states["total"] = len(self._jobs)
            states["coalesced"] = self.coalesced_total
            return states

    def active(self):
        """Queued + running records (for backpressure accounting).

        O(in-flight): scans only the coalescing map, dropping records
        that have settled, so the map holds only in-flight keys plus
        those settled since the last call.
        """
        with self._lock:
            self._active_by_key = {
                key: record
                for key, record in self._active_by_key.items()
                if record.state in _ACTIVE
            }
            return list(self._active_by_key.values())
