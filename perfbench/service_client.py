"""Closed-loop client process of the ``service`` workload.

Usage::

    python perfbench/service_client.py PLAN_JSON

``PLAN_JSON`` names the server port, the seed, the phases, the
``/simulate`` pool with each point's stored result, and the smoke specs
with the path of each one's reference artifact.  Each phase is a kind
(``experiment`` or ``simulate``) and a limit: a number of ``passes``,
or ``until`` a number of seconds after the first phase began.  A pass
sends every spec (``experiment``) or every pool point (``simulate``)
once, in an order drawn from the seed.  The client
sends one request at a time, awaits each to its final snapshot through
the event stream, checks what came back, and prints one JSON line when
it is ready and one per finished pass.
"""

import json
import random
import sys
import time

from repro.service.client import ServiceClient

from scenarios import sim_summary


class Pass:
    """The samples and checks of one pass."""

    def __init__(self, kind):
        self.doc = {"kind": kind, "latency": [], "queue": [], "exec": [],
                    "delivery": [], "poll_waits": 0, "instructions": 0,
                    "coalesced": 0, "attempted": 0, "problems": []}
        self.served = []

    def check(self, ok, what):
        self.doc["attempted"] += 1
        if not ok:
            self.doc["problems"].append(what)
        return ok


def round_trip(client, plan, samples, submit):
    """Submit a job and await its final snapshot through the event
    stream; returns the snapshot, or None when the job did not finish."""
    began = time.perf_counter()
    submitted = submit()
    opened = time.perf_counter()
    final = None
    for line in client.stream_events(submitted["job"]):
        if "event" not in line:
            final = line
    now = time.perf_counter()
    received = time.time()
    doc = samples.doc
    doc["latency"].append(now - began)
    doc["poll_waits"] += now - opened >= plan["poll_s"]
    doc["coalesced"] += bool(submitted.get("coalesced"))
    if not samples.check(final is not None and final["state"] == "done",
                         f"request {submitted['job']} did not finish"):
        return None
    doc["queue"].append(final["started"] - final["created"])
    doc["exec"].append(final["finished"] - final["started"])
    doc["delivery"].append(received - final["finished"])
    return final


def experiment_pass(client, plan, rng, artifacts):
    samples = Pass("experiment")
    order = sorted(artifacts)
    rng.shuffle(order)
    for spec_id in order:
        final = round_trip(client, plan, samples, lambda: (
            client.submit_experiment(spec_id, settings="smoke",
                                     workers=plan["workers"])))
        if final is None:
            continue
        returned = json.dumps(client.artifact(spec_id), indent=1).encode()
        samples.check(returned == artifacts[spec_id],
                      f"service artifact {spec_id} differs from the CLI's")
    return samples


def simulate_pass(client, plan, rng):
    samples = Pass("simulate")
    order = list(plan["pool"])
    rng.shuffle(order)
    for point in order:
        final = round_trip(client, plan, samples, lambda: (
            client.submit_simulation(
                point["benchmark"], arch=point["arch"],
                policy=point["policy"], trace_seed=point["trace_seed"],
                policy_kwargs=point["policy_kwargs"])))
        if final is None:
            continue
        served = final["result"]["run"]
        samples.check(served == point["result"],
                      f"service result for {point['benchmark']}/"
                      f"{point['arch']}/{point['policy']} differs from "
                      "the store")
        samples.doc["instructions"] += served["instructions"]
        samples.served.append(served)
    # What this pass returned, summed: the benchmark compares it with
    # the store's runs.
    samples.doc["sim"] = sim_summary(samples.served)
    return samples


def main():
    with open(sys.argv[1]) as handle:
        plan = json.load(handle)
    client = ServiceClient(port=plan["port"], timeout=60)
    rng = random.Random(plan["seed"])
    artifacts = {}
    for spec_id, path in plan["specs"].items():
        with open(path, "rb") as handle:
            artifacts[spec_id] = handle.read()
    print(json.dumps({"ready": True}), flush=True)
    started = time.perf_counter()
    for phase in plan["phases"]:
        passes = 0
        while True:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            if phase["kind"] == "experiment":
                samples = experiment_pass(client, plan, rng, artifacts)
            else:
                samples = simulate_pass(client, plan, rng)
            samples.doc["wall_s"] = time.perf_counter() - wall0
            samples.doc["cpu_s"] = time.process_time() - cpu0
            print(json.dumps(samples.doc), flush=True)
            passes += 1
            if "passes" in phase:
                if passes >= phase["passes"]:
                    break
            elif time.perf_counter() - started >= phase["until"]:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
