"""CI smoke gate for the HTTP simulation service.

Boots the asyncio service in-process (ephemeral port, private cache
and artifact directories), drives the **full experiment registry** at
smoke settings through the blocking HTTP client, and checks the
service's three promises:

1. **bit identity** — every artifact the service archives is
   byte-for-byte identical to the artifact an in-process
   ``run_experiment`` of the same spec writes against a second,
   private cache directory (an independent recomputation, not a
   cache read);
2. **coalescing** — a duplicate submission of a spec whose job is
   still in the backlog adopts the in-flight record instead of
   spawning a second job (the ``coalesced`` counters prove it);
3. **no losses** — every submission settles ``done``; nothing fails
   or hangs under a saturated backlog.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py --workers 2
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="engine worker processes per job")
    parser.add_argument("--max-active", type=int, default=2,
                        help="jobs the service executes concurrently")
    parser.add_argument("--experiments", nargs="*", metavar="ID",
                        help="restrict to these spec ids (default: all)")
    args = parser.parse_args(argv)

    from repro.analysis.engine import (
        ExperimentSettings,
        all_experiments,
        artifact_path,
        clear_run_cache,
        run_experiment,
    )
    from repro.service.client import ServiceClient
    from repro.service.server import BackgroundServer

    os.environ["REPRO_RUN_CACHE"] = "1"
    settings = ExperimentSettings.smoke()
    registry = all_experiments()
    names = args.experiments or list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}")
        return 2

    failures = []
    with tempfile.TemporaryDirectory(prefix="svc-smoke-") as tmp:
        service_cache = Path(tmp) / "service-cache"
        serial_cache = Path(tmp) / "serial-cache"
        service_artifacts = Path(tmp) / "service-artifacts"
        serial_artifacts = Path(tmp) / "serial-artifacts"

        # ------------------------------------------------ service pass
        os.environ["REPRO_CACHE_DIR"] = str(service_cache)
        clear_run_cache()
        with BackgroundServer(
            workers=args.workers,
            max_active=args.max_active,
            max_pending=len(names) + 8,
            artifact_dir=service_artifacts,
        ) as server:
            client = ServiceClient(port=server.port, timeout=120)
            print(f"service on 127.0.0.1:{server.port}; "
                  f"submitting {len(names)} experiments")

            submitted = {}
            for name in names:
                response = client.submit_experiment(
                    name, settings="smoke", workers=args.workers
                )
                submitted[name] = response["job"]

            # Duplicate submission while its original is still in the
            # saturated backlog (the last spec cannot have started with
            # more specs queued than executor slots): it must coalesce
            # onto the same job record, not spawn a second job.
            duplicate_checked = len(names) > args.max_active
            if duplicate_checked:
                dup = names[-1]
                response = client.submit_experiment(
                    dup, settings="smoke", workers=args.workers
                )
                if response["job"] != submitted[dup]:
                    failures.append(
                        f"duplicate {dup} spawned job {response['job']} "
                        f"instead of adopting {submitted[dup]}"
                    )
                elif not response["coalesced"]:
                    failures.append(
                        f"duplicate {dup} was not flagged as coalesced"
                    )

            for name in names:
                snapshot = client.wait(submitted[name], timeout=600)
                result = snapshot["result"]
                if not result["complete"]:
                    failures.append(f"{name}: service run did not reduce")
                print(f"service {name}: {result['jobs_total']} jobs, "
                      f"{result['fresh_runs']} fresh")

            status = client.status()
            jobs = status["jobs"]
            scheduler = status["scheduler"]
            print(f"\njobs: {jobs['done']} done, {jobs['failed']} failed, "
                  f"{jobs['coalesced']} coalesced; scheduler: "
                  f"{scheduler['executed']} executed, "
                  f"{scheduler['cache_hits']} cache hits, "
                  f"{scheduler['dedup_hits']} dedup hits")
            if jobs["failed"]:
                failures.append(f"{jobs['failed']} service jobs failed")
            if duplicate_checked and jobs["coalesced"] < 1:
                failures.append("duplicate submission did not coalesce")

        # ---------------------------------------- independent recompute
        os.environ["REPRO_CACHE_DIR"] = str(serial_cache)
        for name in names:
            clear_run_cache()
            run = run_experiment(
                name, settings=settings, workers=1,
                artifact_dir=serial_artifacts,
            )
            assert run.complete, f"{name}: serial run must reduce"

        # ------------------------------------------------ byte-for-byte
        for name in names:
            for suffix in (".json", ".txt"):
                service_path = artifact_path(name, service_artifacts)
                serial_path = artifact_path(name, serial_artifacts)
                service_bytes = service_path.with_suffix(suffix).read_bytes()
                serial_bytes = serial_path.with_suffix(suffix).read_bytes()
                if service_bytes != serial_bytes:
                    failures.append(
                        f"{name}{suffix}: service artifact != in-process"
                    )
        print(f"{len(names)} artifacts (.json and .txt) diffed byte-for-byte")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: service round trips are bit-identical to in-process runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
