"""The repository benchmark: end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the workload with tracing off and reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the
workload once untraced and once with layer spans (``tracer.py``) and
reports every per-layer metric, including the tracing overhead.  The
last line of standard output is the result object; earlier lines carry
details (gate failures, the simulated-statistics fingerprint).

Exits 2 without a result when the checkout holds no program to measure.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared(benchmark):
    """BENCHMARK.json's metrics; refuses when one has no annotation in
    ``metrics.py``."""
    import metrics

    declared = json.loads(benchmark.read_text())
    for section, notes in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        missing = [m["name"] for m in declared[section]
                   if m["name"] not in notes]
        if missing:
            raise SystemExit(f"BENCHMARK.json {section} metrics without an "
                             f"annotation in perfbench/metrics.py: {missing}")
    return declared


def _results_snapshot():
    results = ROOT / "benchmarks" / "results"
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(results.iterdir())
    } if results.is_dir() else {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import scenarios

    if args.workload not in scenarios.SCENARIOS:
        print(f"unknown workload {args.workload!r}; options: "
              f"{', '.join(scenarios.SCENARIOS)}", file=sys.stderr)
        return 2
    declared = _declared(ROOT / "BENCHMARK.json")
    reported = declared["per_layer" if args.trace else "end_to_end"]

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    tmp = work / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    before = _results_snapshot()
    run = scenarios.Run(ROOT, work, args.seed, args.seconds,
                        [metric["name"] for metric in reported])
    scenario = scenarios.SCENARIOS[args.workload]()
    try:
        values = scenario.trace(run) if args.trace else scenario.measure(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    run.check(_results_snapshot() == before,
              "benchmarks/results/ changed during the run")

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": run.details, "problems": run.problems}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
