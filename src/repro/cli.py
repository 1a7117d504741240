"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``list``
    Show available benchmarks, architectures and backup policies.
``compile``
    Compile a mini-C source file to TinyRISC assembly (or run it on
    continuous power and dump a symbol).
``run``
    Run a benchmark on an intermittent platform and print the result
    summary and energy breakdown (``--json`` for machine-readable).
``experiment``
    Regenerate paper tables/figures from the experiment-spec registry
    (``--all`` for everything, ``--workers N`` for process-parallel
    simulation, ``--shard K/N`` to split a sweep across invocations
    sharing a run cache, ``--artifacts DIR`` for versioned JSON
    results, each with its rendered ``<id>.txt`` beside it).  The
    named experiments run as one sweep (one scheduler run over the
    union of their jobs); a cost line goes to stderr at the end.
``verify-fuzz``
    Crash-consistency fuzzing: seeded random programs under adversarial
    power-failure schedules, checked by architectural invariant oracles;
    failures shrink to ``artifacts/repro_*.s`` reproducers.
``verify-replay``
    Re-run one such reproducer.
``serve``
    Run the simulation service: an asyncio JSON-over-HTTP server
    exposing ``simulate`` / ``experiment`` / ``artifact`` / ``status``
    endpoints over the experiment engine (docs/SERVICE.md).
``submit``
    Submit experiments to a running server and optionally stream
    progress and wait for the rendered results.
``status``
    Show a running server's job/scheduler/store counters, or one job's
    state.
"""

import argparse
import json
import sys

from repro.arch import ARCHITECTURES
from repro.policies import POLICIES
from repro.workloads import BENCHMARKS


def _cmd_list(_args):
    from repro.analysis.engine import all_experiments

    print("benchmarks   :", ", ".join(sorted(BENCHMARKS)))
    print("architectures:", ", ".join(sorted(ARCHITECTURES)))
    print("policies     :", ", ".join(sorted(POLICIES)))
    print("experiments  :", ", ".join(all_experiments()))
    return 0


def _cmd_compile(args):
    from repro.minicc import compile_minic, compile_to_asm

    source = open(args.source).read()
    if args.output:
        asm = compile_to_asm(source)
        with open(args.output, "w") as handle:
            handle.write(asm)
        print(f"wrote {args.output}")
        return 0
    if args.dump_symbol:
        from repro.sim import run_reference

        program = compile_minic(source)
        result = run_reference(program)
        base = program.symbol(args.dump_symbol)
        words = result.words_at(base, args.words)
        print(f"{args.dump_symbol} @ {base:#x}: {words}")
        return 0
    print(compile_to_asm(source))
    return 0


def _cmd_disasm(args):
    from repro.isa.encoding import disassemble
    from repro.workloads import BENCHMARKS, load_program

    if args.target in BENCHMARKS:
        program = load_program(args.target)
    else:
        from repro.minicc import compile_minic

        program = compile_minic(open(args.target).read())
    labels = {}
    for name, addr in program.symbols.items():
        labels.setdefault(addr, []).append(name)
    base = program.layout.code_base
    for index, instr in enumerate(program.instructions):
        pc = base + 4 * index
        for label in labels.get(pc, []):
            print(f"{label}:")
        line = program.source_lines[index] if index < len(program.source_lines) else 0
        print(f"  {pc:#08x}:  {disassemble(instr):<32} ; line {line}")
    print(
        f"\n{len(program.instructions)} instructions, "
        f"{len(program.data)} data bytes"
    )
    return 0


def _cmd_run(args):
    from repro.energy.traces import HarvestTrace
    from repro.sim.platform import Platform, PlatformConfig
    from repro.workloads import load_program, run_workload, verify_platform

    if args.timeline:
        program = load_program(args.benchmark)
        config = PlatformConfig(arch=args.arch, policy=args.policy)
        platform = Platform(
            program, config, trace=HarvestTrace(args.trace),
            benchmark_name=args.benchmark,
        )
        result = platform.run()
        if args.arch != "ideal":
            verify_platform(args.benchmark, platform)
        from repro.analysis.timeline import render_timeline

        print(render_timeline(platform))
        print()
    else:
        result = run_workload(
            args.benchmark,
            arch=args.arch,
            policy=args.policy,
            trace_seed=args.trace,
        )
    if args.json:
        payload = {
            "benchmark": result.benchmark,
            "arch": result.arch,
            "policy": result.policy,
            "total_energy_nj": result.total_energy,
            "breakdown_nj": result.breakdown.as_dict(),
            "instructions": result.instructions,
            "active_cycles": result.active_cycles,
            "active_periods": result.active_periods,
            "backups": result.backups,
            "backups_by_reason": result.backups_by_reason,
            "violations": result.violations,
            "renames": result.renames,
            "reclaims": result.reclaims,
            "power_failures": result.power_failures,
            "restores": result.restores,
            "nvm_reads": result.nvm_reads,
            "nvm_writes": result.nvm_writes,
            "max_wear": result.max_wear,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary())
    total = result.total_energy
    for category, value in result.breakdown.as_dict().items():
        if value:
            print(f"  {category:>18}: {value / 1e3:9.2f} uJ ({100 * value / total:5.1f}%)")
    return 0


def _parse_tune(specs):
    """Parse repeated ``--tune policy.param=value`` flags into
    ``{policy: {param: value}}`` (values coerced int, then float, else
    kept as strings)."""
    overrides = {}
    for text in specs or ():
        target, sep, value_text = text.partition("=")
        policy, dot, param = target.partition(".")
        if not sep or not dot or not policy or not param or not value_text:
            raise SystemExit(
                f"--tune must look like policy.param=value, got {text!r}"
            )
        try:
            value = int(value_text)
        except ValueError:
            try:
                value = float(value_text)
            except ValueError:
                value = value_text
        overrides.setdefault(policy, {})[param] = value
    return overrides


def _cmd_verify_fuzz(args):
    from repro.verify import run_fuzz

    progress = None if args.quiet else lambda line: print(line, flush=True)
    summary = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        artifacts_dir=args.artifacts,
        max_failures=args.max_failures,
        progress=progress,
        policy_overrides=_parse_tune(args.tune) or None,
    )
    print(
        f"verify-fuzz: {summary.cases} cases, {summary.runs} runs, "
        f"{len(summary.failures)} failure(s)"
    )
    for failure in summary.failures:
        print(f"  {failure.summary()}")
        print(f"    reproducer: {failure.reproducer}")
    return 0 if summary.ok else 1


def _cmd_verify_replay(args):
    from repro.verify import replay_reproducer

    meta, record = replay_reproducer(args.reproducer)
    print(
        f"replaying {args.reproducer}: "
        f"{meta['arch']}/{meta['policy']}/{meta['engine']}, "
        f"schedule={meta['schedule']}"
    )
    if record is None:
        print("run is clean: the failure no longer reproduces")
        return 0
    print(f"reproduced: {record.kind}: {record.detail}")
    return 1


def _pick_settings(args):
    from repro.analysis import ExperimentSettings

    if getattr(args, "smoke", False):
        return ExperimentSettings.smoke()
    if getattr(args, "full", False):
        return ExperimentSettings.full()
    return ExperimentSettings()


def _cmd_report(args):
    from repro.analysis.render import write_report

    path = write_report(args.output, _pick_settings(args), sections=args.only or None)
    print(f"wrote {path}")
    return 0


def _cpu_seconds():
    """User plus system CPU time of this process and of its reaped
    children (the worker pools it has joined)."""
    import resource

    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _print_run(run):
    """Print one experiment's rendered report (or its shard note)."""
    if not run.complete:
        print(
            f"{run.spec_id}: shard {run.shard} simulated "
            f"({run.jobs_selected} of {run.jobs_total} jobs, "
            f"{run.fresh_runs} fresh); run the remaining shard(s) "
            "against the same cache, then rerun to reduce"
        )
        print()
        return
    print(run.rendered)
    if run.artifact_path is not None:
        print(f"[artifact: {run.artifact_path}]")
        if run.spec_id.startswith("pareto"):
            # The front renderer is a pure view over the artifact;
            # matplotlib is optional and its absence skips the figure
            # silently.
            from repro.analysis.plots import write_pareto_plot

            plot = write_pareto_plot(run.artifact_path)
            if plot is not None:
                print(f"[plot: {plot}]")
    print()


def _cmd_experiment(args):
    import time

    from repro.analysis import engine, set_progress_handler
    from repro.analysis.progress import console_progress
    from repro.service.scheduler import get_scheduler

    registry = engine.all_experiments()
    names = list(registry) if args.all else args.names
    if not names:
        print("no experiment names given (or use --all)")
        return 2
    for name in names:
        if name not in registry:
            print(f"unknown experiment {name!r}; options: {', '.join(registry)}")
            return 2
    settings = _pick_settings(args)
    if args.progress:
        set_progress_handler(console_progress())
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    fresh = 0
    try:
        sweep = engine.run_experiments(
            names,
            settings=settings,
            workers=args.workers,
            shard=args.shard,
            artifact_dir=args.artifacts,
        )
        # Each report prints as soon as its experiment is reduced.
        for run in sweep.runs:
            fresh += run.fresh_runs
            _print_run(run)
    finally:
        if args.progress:
            set_progress_handler(None)
        # Join the sweep's workers, so that their CPU counts below.
        get_scheduler().close()
    print(
        f"sweep: {sweep.jobs_planned} jobs planned, {fresh} fresh, "
        f"{sweep.jobs_planned - fresh} cached; "
        f"{time.perf_counter() - wall0:.2f} s wall, "
        f"{_cpu_seconds() - cpu0:.2f} s CPU with workers",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args):
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_active=args.max_active,
        artifact_dir=args.artifacts,
        announce=lambda server: print(
            f"repro service on http://{server.host}:{server.port} "
            f"(artifacts: {args.artifacts or 'none'})",
            flush=True,
        ),
    )


def _cmd_submit(args):
    from repro.service.client import JobFailed, ServiceClient

    def show(event):
        print(f"  [{event['done']}/{event['total']}] {event['label']}",
              flush=True)

    client = ServiceClient(host=args.host, port=args.port)
    settings = "smoke" if args.smoke else ("full" if args.full else "default")
    status = 0
    for name in args.names:
        submitted = client.submit_experiment(
            name, settings=settings, workers=args.workers
        )
        job_id = submitted["job"]
        coalesced = " (coalesced onto an in-flight twin)" if submitted[
            "coalesced"] else ""
        print(f"{name}: {job_id}{coalesced}")
        if not args.wait:
            continue
        try:
            # The stream's last line is the settled snapshot.
            snapshot = client.wait(job_id, timeout=args.timeout,
                                   on_event=show if args.progress else None)
        except JobFailed as failure:
            print(f"{name}: FAILED: {failure}")
            status = 1
            continue
        print(snapshot["result"]["rendered"])
        print()
    return status


def _cmd_status(args):
    from repro.service.client import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    if args.job:
        print(json.dumps(client.job(args.job), indent=2))
        return 0
    print(json.dumps(client.status(), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NvMR (ISCA 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks / architectures / policies")

    p_compile = sub.add_parser("compile", help="compile mini-C to TinyRISC asm")
    p_compile.add_argument("source", help="mini-C source file (.mc)")
    p_compile.add_argument("-o", "--output", help="write assembly to a file")
    p_compile.add_argument(
        "--dump-symbol", help="run on continuous power and dump this symbol"
    )
    p_compile.add_argument(
        "--words", type=int, default=4, help="words to dump (with --dump-symbol)"
    )

    p_disasm = sub.add_parser(
        "disasm", help="disassemble a benchmark or a mini-C source file"
    )
    p_disasm.add_argument("target", help="benchmark name or .mc file path")

    p_run = sub.add_parser("run", help="run a benchmark intermittently")
    p_run.add_argument("benchmark", choices=sorted(BENCHMARKS))
    p_run.add_argument("--arch", default="nvmr", choices=sorted(ARCHITECTURES))
    p_run.add_argument("--policy", default="jit", choices=sorted(POLICIES))
    p_run.add_argument("--trace", type=int, default=0, help="harvest-trace seed")
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.add_argument("--timeline", action="store_true",
                       help="render the run's period/backup/failure timeline")

    p_report = sub.add_parser("report", help="run all experiments into one markdown report")
    p_report.add_argument("-o", "--output", default="report.md")
    p_report.add_argument("--only", nargs="*", metavar="keyword",
                          help="restrict to sections whose title contains a keyword")
    p_report.add_argument("--full", action="store_true",
                          help="paper-scale averaging (10 traces)")
    p_report.add_argument("--smoke", action="store_true",
                          help="minimal CI-smoke averaging")

    p_fuzz = sub.add_parser(
        "verify-fuzz",
        help="crash-consistency fuzzing: random programs + fault injection",
    )
    p_fuzz.add_argument("--cases", type=int, default=200,
                        help="number of fuzz cases to run (default 200)")
    p_fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_fuzz.add_argument("--artifacts", default="artifacts",
                        help="directory for shrunk reproducers")
    p_fuzz.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many distinct failures")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    p_fuzz.add_argument("--tune", action="append", default=[],
                        metavar="POLICY.PARAM=VALUE",
                        help="tune a policy parameter for the whole "
                             "campaign (repeatable), e.g. "
                             "--tune watchdog.period=350")

    p_replay = sub.add_parser(
        "verify-replay", help="replay a verify-fuzz reproducer (.s)"
    )
    p_replay.add_argument("reproducer", help="path to an artifacts/repro_*.s file")

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("names", nargs="*", metavar="name",
                       help="experiment ids (see `repro list`)")
    p_exp.add_argument("--all", action="store_true",
                       help="run every registered experiment")
    p_exp.add_argument("--full", action="store_true",
                       help="paper-scale averaging (10 traces)")
    p_exp.add_argument("--smoke", action="store_true",
                       help="minimal CI-smoke averaging")
    p_exp.add_argument("--workers", type=int, default=None, metavar="N",
                       help="simulation worker processes (default: auto)")
    p_exp.add_argument("--shard", metavar="K/N", default=None,
                       help="simulate only the K-th of N deterministic job "
                            "slices; the invocation that finds every other "
                            "slice in the shared run cache reduces")
    p_exp.add_argument("--artifacts", metavar="DIR", default=None,
                       help="write versioned JSON result artifacts, and "
                            "the rendered <id>.txt beside each, to DIR "
                            "(e.g. benchmarks/results)")
    p_exp.add_argument("--progress", action="store_true",
                       help="print per-run progress lines to stderr")

    p_serve = sub.add_parser(
        "serve", help="run the simulation service (JSON over HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 for an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="simulation worker processes per job")
    p_serve.add_argument("--max-active", type=int, default=2, metavar="N",
                         help="jobs executing concurrently (default 2)")
    p_serve.add_argument("--artifacts", metavar="DIR", default=None,
                         help="artifact directory the server writes and "
                              "serves (default: archive nothing)")

    p_submit = sub.add_parser(
        "submit", help="submit experiments to a running service"
    )
    p_submit.add_argument("names", nargs="+", metavar="name",
                          help="experiment ids (see `repro list`)")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8321)
    p_submit.add_argument("--full", action="store_true",
                          help="paper-scale averaging (10 traces)")
    p_submit.add_argument("--smoke", action="store_true",
                          help="minimal CI-smoke averaging")
    p_submit.add_argument("--workers", type=int, default=None, metavar="N")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until each job's rendered result")
    p_submit.add_argument("--progress", action="store_true",
                          help="stream per-run progress (implies the "
                               "events endpoint; use with --wait)")
    p_submit.add_argument("--timeout", type=float, default=3600.0,
                          help="seconds to wait per job (with --wait)")

    p_status = sub.add_parser(
        "status", help="query a running service (or one of its jobs)"
    )
    p_status.add_argument("job", nargs="?", default=None,
                          help="a job id (default: whole-service status)")
    p_status.add_argument("--host", default="127.0.0.1")
    p_status.add_argument("--port", type=int, default=8321)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # e.g. `repro disasm qsort | head` — the consumer closed early.
        return 0


def _dispatch(args):
    handler = {
        "list": _cmd_list,
        "compile": _cmd_compile,
        "disasm": _cmd_disasm,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "verify-fuzz": _cmd_verify_fuzz,
        "verify-replay": _cmd_verify_replay,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
