"""Record-once / replay-many benchmark over the Figure 10 grid.

Measures the replay pipeline (:mod:`repro.sim.replay`) in isolation,
without the experiment engine around it: record each benchmark's
natural execution trace once, then run the full Figure 10 sweep —
{clank, nvmr} x {jit, spendthrift, watchdog} x benchmarks x seeds —
through every executor and compare:

* ``scalar``   — replay with the per-step ``_SpanState`` window loop
* ``compiled`` — replay with precompiled epoch scripts
  (:mod:`repro.sim.epochs`, ``REPRO_REPLAY_COMPILED``)
* ``fast``     — the fast-path simulator (no replay)
* ``reference``— the reference interpreter (``--reference``; slow)

Reports per-benchmark seconds and speedups for each pair, the per-run
costs, and the effective sweep speedup (record + N compiled replays vs
N fast simulations); ``--check`` additionally asserts every replayed
RunResult (both modes) equals its simulated twin bit for bit.

``--profile`` aggregates each compiled replay's ``ReplayStats``
(windows, compiled span lengths, fallback histogram) per (benchmark,
policy) into the report.

``--perf-sanity`` is the CI guard-rail: scalar vs compiled on the two
longest-window benchmarks only (where compiled replay must win);
exits non-zero if compiled falls below 0.9x scalar throughput.

Writes ``BENCH_replay.json`` at the repo root.  All timings use
``time.process_time()`` (CPU seconds).

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py --reference --profile
    PYTHONPATH=src python benchmarks/bench_replay.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_replay.py --perf-sanity
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

ARCHES = ("clank", "nvmr")
POLICIES = ("jit", "spendthrift", "watchdog")

#: The two benchmarks whose compiled windows are longest (hundreds to
#: thousands of steps; see the profile section of BENCH_replay.json) —
#: where vectorized window execution must pay for its fixed costs.
#: ``--perf-sanity`` gates on exactly these.
LONG_WINDOW_BENCHMARKS = ("basicmath", "2dconv")

#: Minimum compiled/scalar throughput ratio ``--perf-sanity`` accepts
#: on the long-window benchmarks (headroom for CI timing noise; the
#: measured ratio is ~1.3-2x).
PERF_SANITY_FLOOR = 0.9

#: Why the sweep falls short of the original ≥10×-over-reference
#: stretch target; recorded in the report so the number travels with
#: its explanation.
BOTTLENECK = (
    "compiled spans break at guard renewals and cache misses. JIT's "
    "floor is revoked at every clean-line store and Spendthrift's "
    "100-cycle check interval keeps it on the scalar window "
    "(policy_hint), so only the long failure-free epochs of basicmath "
    "and 2dconv run as array ops. The profile section shows the rest: "
    "on the short-window benchmarks (hist, stringsearch, blowfish, "
    "qsort) windows break every ~20-130 steps at cache misses, real "
    "architectural work (evictions, NVM traffic, MTC renames), so the "
    "payoff probation keeps them on the scalar window and per-step "
    "interpreter costs dominate the sweep. Renewing guards in-array "
    "was measured (closed-form guard kernels) and removed: it moved "
    "the grid by 1.01x. Reaching 10x over the reference would require "
    "lowering the miss path itself."
)


def _grid(benchmarks, seeds):
    return [
        (bench, arch, policy, seed)
        for bench in benchmarks
        for seed in range(seeds)
        for arch in ARCHES
        for policy in POLICIES
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="two benchmarks, one seed"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert replayed results equal simulated results bit for bit",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="also time the reference interpreter over the grid (slow)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "aggregate compiled-replay ReplayStats per (benchmark, "
            "policy)"
        ),
    )
    parser.add_argument(
        "--perf-sanity",
        action="store_true",
        help=(
            "CI gate: scalar vs compiled on the long-window benchmarks "
            f"only; fail if compiled < {PERF_SANITY_FLOOR}x scalar"
        ),
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_replay.json"
    )
    args = parser.parse_args(argv)

    from repro.energy.traces import HarvestTrace
    from repro.sim.platform import Platform, PlatformConfig
    from repro.sim.replay import ReplayPlatform, clear_replay_caches, get_image
    from repro.workloads import BENCHMARKS, load_program, run_workload

    if args.perf_sanity:
        benchmarks = list(LONG_WINDOW_BENCHMARKS)
        seeds = 1
    elif args.smoke:
        benchmarks = ["qsort", "hist"]
        seeds = 1
    else:
        benchmarks = list(BENCHMARKS)
        seeds = 2
    grid = _grid(benchmarks, seeds)

    # One-time costs outside every timing: compilation, the Spendthrift
    # model's lazy training.
    programs = {bench: load_program(bench) for bench in benchmarks}
    run_workload(benchmarks[0], arch="clank", policy="spendthrift", trace_seed=0)

    clear_replay_caches()
    record = {}
    images = {}
    for bench in benchmarks:
        start = time.process_time()
        # Hold a strong reference per benchmark: the sweep is the
        # record-once/replay-many scenario, so images (and the epoch
        # scripts cached on them) stay resident rather than churning
        # through get_image's small LRU when the grid exceeds its cap.
        images[bench] = get_image(bench)
        record[bench] = round(time.process_time() - start, 3)
    record_total = round(sum(record.values()), 2)

    def _run(factory, stats_sink=None):
        """Time the grid, attributing CPU seconds per benchmark.

        When ``stats_sink`` is given, each replay platform's
        ``ReplayStats`` counters are summed into
        ``stats_sink[(bench, policy)]`` after its run.
        """
        results = {}
        per_bench = {bench: 0.0 for bench in benchmarks}
        for bench, arch, policy, seed in grid:
            platform = factory(
                bench, PlatformConfig(arch=arch, policy=policy), seed
            )
            start = time.process_time()
            results[(bench, arch, policy, seed)] = platform.run()
            per_bench[bench] += time.process_time() - start
            if stats_sink is not None:
                stats = platform.stats
                agg = stats_sink.setdefault(
                    (bench, policy),
                    {"windows": 0, "window_steps": 0, "compiled_windows": 0,
                     "compiled_steps": 0, "fallbacks": {}},
                )
                for field in ("windows", "window_steps", "compiled_windows",
                              "compiled_steps"):
                    agg[field] += getattr(stats, field)
                for reason, count in stats.fallbacks.items():
                    agg["fallbacks"][reason] = (
                        agg["fallbacks"].get(reason, 0) + count
                    )
        total = round(sum(per_bench.values()), 2)
        return total, per_bench, results

    def _replay(compiled):
        return lambda bench, config, seed: ReplayPlatform(
            programs[bench],
            images[bench],
            config,
            trace=HarvestTrace(seed),
            benchmark_name=bench,
            compiled=compiled,
        )

    def _sim(fast):
        return lambda bench, config, seed: Platform(
            programs[bench],
            PlatformConfig(
                arch=config.arch, policy=config.policy, fast=fast
            ),
            trace=HarvestTrace(seed),
            benchmark_name=bench,
        )

    if args.perf_sanity:
        # Untimed warm pass: lower the epoch scripts once so the timed
        # comparison measures steady-state executor throughput, not the
        # one-time script builds (the full report keeps those visible;
        # this mode gates only the executor).
        for bench, arch, policy, seed in grid:
            _replay(compiled=True)(
                bench, PlatformConfig(arch=arch, policy=policy), seed
            ).run()

    seconds, bench_seconds, outputs = {}, {}, {}
    modes = [
        ("scalar", _replay(compiled=False)),
        ("compiled", _replay(compiled=True)),
    ]
    if not args.perf_sanity:
        modes.append(("fast", _sim(fast=True)))
    if args.reference:
        modes.append(("reference", _sim(fast=False)))
    compiled_stats = {}
    for mode, factory in modes:
        sink = compiled_stats if mode == "compiled" else None
        seconds[mode], bench_seconds[mode], outputs[mode] = _run(
            factory, stats_sink=sink
        )
        if args.perf_sanity:
            # Best-of-two per mode: the gate compares executors, so
            # keep scheduler noise out of the ratio.
            total2, per_bench2, _ = _run(factory)
            if total2 < seconds[mode]:
                seconds[mode] = total2
            bench_seconds[mode] = {
                bench: min(bench_seconds[mode][bench], per_bench2[bench])
                for bench in benchmarks
            }
        print(f"{mode}: {seconds[mode]}s for {len(grid)} runs")

    if args.perf_sanity:
        failures = []
        for bench in benchmarks:
            ratio = (
                bench_seconds["scalar"][bench]
                / bench_seconds["compiled"][bench]
                if bench_seconds["compiled"][bench] else 0.0
            )
            verdict = "ok" if ratio >= PERF_SANITY_FLOOR else "FAIL"
            print(
                f"perf-sanity {bench}: compiled "
                f"{bench_seconds['compiled'][bench]:.2f}s vs scalar "
                f"{bench_seconds['scalar'][bench]:.2f}s "
                f"({ratio:.2f}x, floor {PERF_SANITY_FLOOR}x) {verdict}"
            )
            if ratio < PERF_SANITY_FLOOR:
                failures.append(bench)
        mismatches = 0
        if args.check:
            for key, scalar_result in outputs["scalar"].items():
                if outputs["compiled"][key] != scalar_result:
                    mismatches += 1
                    print(f"MISMATCH compiled {key}")
            print(f"checked {len(grid)} runs, {mismatches} mismatches")
        return 1 if failures or mismatches else 0

    mismatches = 0
    if args.check:
        for key, sim_result in outputs["fast"].items():
            for mode in [m for m, _ in modes if m != "fast"]:
                if outputs[mode][key] != sim_result:
                    mismatches += 1
                    print(f"MISMATCH {mode} {key}")

    def _ratio(num, den):
        return round(num / den, 2) if den else 0.0

    per_benchmark = {}
    for bench in benchmarks:
        row = {
            f"{mode}_seconds": round(bench_seconds[mode][bench], 2)
            for mode, _ in modes
        }
        row["compiled_vs_scalar"] = _ratio(
            bench_seconds["scalar"][bench], bench_seconds["compiled"][bench]
        )
        row["compiled_vs_fast"] = _ratio(
            bench_seconds["fast"][bench], bench_seconds["compiled"][bench]
        )
        if "reference" in bench_seconds:
            row["compiled_vs_reference"] = _ratio(
                bench_seconds["reference"][bench],
                bench_seconds["compiled"][bench],
            )
        per_benchmark[bench] = row

    profile = {}
    if args.profile:
        for (bench, policy), agg in sorted(compiled_stats.items()):
            row = dict(agg)
            row["fallbacks"] = dict(sorted(agg["fallbacks"].items()))
            row["compiled_hit_rate"] = _ratio(
                agg["compiled_windows"], agg["windows"]
            )
            row["mean_window_steps"] = _ratio(
                agg["window_steps"], agg["windows"]
            )
            row["mean_compiled_steps"] = _ratio(
                agg["compiled_steps"], agg["compiled_windows"]
            )
            profile.setdefault(bench, {})[policy] = row

    end_to_end = round(record_total + seconds["compiled"], 2)
    report = {
        "smoke": args.smoke,
        "timing": "time.process_time (CPU seconds)",
        "grid": {
            "arches": list(ARCHES),
            "policies": list(POLICIES),
            "benchmarks": benchmarks,
            "seeds": seeds,
            "runs": len(grid),
        },
        "record_seconds": record,
        "record_total_seconds": record_total,
        "modes_seconds": seconds,
        "per_benchmark": per_benchmark,
        "per_replay_ms": round(1000 * seconds["compiled"] / len(grid), 1),
        "per_simulation_ms": round(1000 * seconds["fast"] / len(grid), 1),
        "end_to_end_seconds": end_to_end,
        "effective_sweep_speedup": _ratio(seconds["fast"], end_to_end),
        "compiled_vs_scalar": _ratio(seconds["scalar"], seconds["compiled"]),
    }
    if "reference" in seconds:
        report["speedup_vs_reference"] = _ratio(
            seconds["reference"], end_to_end
        )
        report["target_vs_reference"] = 10.0
        report["bottleneck"] = BOTTLENECK
    if args.profile:
        report["profile"] = profile
    if args.check:
        report["checked"] = len(grid)
        report["mismatches"] = mismatches

    print(
        f"record: {record_total}s for {len(benchmarks)} benchmarks; "
        f"compiled replay: {seconds['compiled']}s "
        f"({report['per_replay_ms']}ms each); "
        f"scalar replay: {seconds['scalar']}s; "
        f"fast sim: {seconds['fast']}s "
        f"({report['per_simulation_ms']}ms each); "
        f"effective sweep speedup {report['effective_sweep_speedup']:.2f}x"
    )
    if "reference" in seconds:
        print(
            f"reference: {seconds['reference']}s; "
            f"{report['speedup_vs_reference']:.2f}x vs reference "
            f"(target {report['target_vs_reference']:.0f}x)"
        )
    if args.check:
        print(f"checked {len(grid)} runs, {mismatches} mismatches")
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
