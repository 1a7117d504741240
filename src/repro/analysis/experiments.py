"""The paper's experiments, as declarative specs.

Each table/figure of the evaluation is one
:class:`~repro.analysis.engine.ExperimentSpec` built by a factory
below and registered in the engine's single ``EXPERIMENTS`` registry
(in the paper's presentation order).  The spec carries the job grid,
the pure reduce over fetched run records, and the renderer; the engine
(:mod:`repro.analysis.engine`) derives enumeration, parallel
execution, sharding, caching and artifacts from it.  Run one with
``repro experiment <id>`` or
:func:`~repro.analysis.engine.run_experiment`, which also accepts a
parameterised, unregistered variant such as
``fig14_spec(map_table_entries=64)``.

Scale control
-------------
The paper averages every result over 10 voltage traces and all ten
benchmarks.  A cycle-level Python simulator cannot afford that for
every sweep point by default, so every entry point takes an
:class:`~repro.analysis.engine.ExperimentSettings` whose defaults are
a documented compromise (fewer traces for the sensitivity sweeps, a
violation-heavy benchmark subset for the structure sweeps).  Set the
environment variable ``REPRO_FULL=1`` (or pass ``--full`` /
``ExperimentSettings.full()``) to reproduce at the paper's full
averaging scale.

All experiments share a process-wide run cache (plus the persistent
disk layer): the Clank/JIT baseline, for instance, is reused across
Figures 10, 13 and 14.
"""

from repro.analysis import engine
from repro.analysis.engine import ExperimentSpec, Job
from repro.analysis.pareto import pareto_specs
from repro.analysis.render import (
    format_breakdowns,
    format_mapping,
    format_matrix,
    format_series,
)
from repro.energy.area import AreaModel
from repro.sim.platform import PlatformConfig


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _avg_energy(fetch, benchmark, config, trace_seeds):
    return _mean(
        fetch(benchmark, config, seed).total_energy for seed in trace_seeds
    )


def _saving_percent(baseline_energy, candidate_energy):
    if baseline_energy == 0:
        return 0.0
    return 100.0 * (1.0 - candidate_energy / baseline_energy)


# ----------------------------------------------------------- Table 2/4
def table2_configuration():
    """The evaluated system configuration (paper Table 2)."""
    config = PlatformConfig()
    return {
        "Processor": "TinyRISC (Thumb-class), 3-stage in-order, 8 MHz model",
        "Data Cache": (
            f"{config.cache_size}B, {config.cache_assoc}-way, "
            f"{config.block_size}B block, LRU, 1 cycle hit latency"
        ),
        "GBF": f"{config.gbf_bits} one-bit entries",
        "LBF": f"{config.block_size // 4} two-bit entries per cache line",
        "Map Table Cache": f"{config.mtc_entries} entries, {config.mtc_assoc}-way, LRU",
        "Map Table": f"{config.map_table_entries} entries, LRU",
        "Free List": (
            f"{config.map_table_entries} + {config.mtc_entries} + 1 = "
            f"{config.map_table_entries + config.mtc_entries + 1} mappings"
        ),
        "Flash": "2MB",
        "Supercapacitor": "100mF preset (scaled energy model), 2.4V max voltage",
    }


def table4_hoop_configuration():
    """The simplified HOOP configuration (paper Table 4)."""
    config = PlatformConfig(arch="hoop")
    return {
        "Mapping Table": "Infinite (idealised: no energy or area overhead)",
        "OOP Buffer": (
            f"{config.oop_buffer_entries} word entries (volatile; paper: 128, "
            "scaled with the 4x-smaller working sets)"
        ),
        "OOP Region": (
            f"{config.oop_region_slots} word slots (NVM; paper: 2048, scaled)"
        ),
    }


def table2_spec():
    title = "Table 2: system configuration"
    return ExperimentSpec(
        id="table2",
        title=title,
        grid=lambda settings: [],
        reduce=lambda settings, fetch: table2_configuration(),
        render=lambda result: format_mapping(title, result),
        static=True,
    )


def table4_spec():
    title = "Table 4: HOOP configuration"
    return ExperimentSpec(
        id="table4",
        title=title,
        grid=lambda settings: [],
        reduce=lambda settings, fetch: table4_hoop_configuration(),
        render=lambda result: format_mapping(title, result),
        static=True,
    )


# ------------------------------------------------------------- Table 3
def table3_spec():
    title = "Table 3: idempotency violations per benchmark"
    config = PlatformConfig(arch="ideal", policy="jit")

    def grid(settings):
        return [
            Job(bench, config, seed)
            for bench in settings.benchmarks
            for seed in range(settings.traces)
        ]

    def reduce(settings, fetch):
        return {
            bench: _mean(
                fetch(bench, config, seed).violations
                for seed in range(settings.traces)
            )
            for bench in settings.benchmarks
        }

    return ExperimentSpec(
        id="table3",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_series(title, result, value_format="{:,.0f}"),
    )


# ------------------------------------------------------------ Figure 10
def fig10_spec(policies=("jit", "spendthrift", "watchdog")):
    title = "Figure 10: % energy saved, NvMR vs Clank"

    def grid(settings):
        return [
            Job(bench, PlatformConfig(arch=arch, policy=policy), seed)
            for policy in policies
            for bench in settings.benchmarks
            for seed in range(settings.traces)
            for arch in ("clank", "nvmr")
        ]

    def reduce(settings, fetch):
        seeds = range(settings.traces)
        results = {}
        for policy in policies:
            row = {}
            for bench in settings.benchmarks:
                clank = _avg_energy(
                    fetch, bench, PlatformConfig(arch="clank", policy=policy), seeds
                )
                nvmr = _avg_energy(
                    fetch, bench, PlatformConfig(arch="nvmr", policy=policy), seeds
                )
                row[bench] = _saving_percent(clank, nvmr)
            row["average"] = _mean(row.values())
            results[policy] = row
        return results

    return ExperimentSpec(
        id="fig10",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_matrix(title, result),
    )


# ------------------------------------------------------------ Figure 11
def fig11_spec():
    """Normalised energy breakdown of Clank vs NvMR under JIT (Fig. 11).

    The result is ``{bench: {"clank": {...}, "nvmr": {...}}}`` where each
    inner dict maps energy category -> fraction of *Clank's* total (so
    NvMR bars sum to less than 1.0 when it saves energy, as in the paper).
    """
    title = "Figure 11: energy breakdown (normalised to Clank)"

    def grid(settings):
        return [
            Job(bench, PlatformConfig(arch=arch, policy="jit"), seed)
            for bench in settings.benchmarks
            for seed in range(settings.traces)
            for arch in ("clank", "nvmr")
        ]

    def reduce(settings, fetch):
        seeds = range(settings.traces)
        out = {}
        for bench in settings.benchmarks:
            per_arch = {}
            clank_total = None
            for arch in ("clank", "nvmr"):
                config = PlatformConfig(arch=arch, policy="jit")
                sums = {}
                for seed in seeds:
                    result = fetch(bench, config, seed)
                    for cat, value in result.breakdown.as_dict().items():
                        sums[cat] = sums.get(cat, 0.0) + value / settings.traces
                per_arch[arch] = sums
                if arch == "clank":
                    clank_total = sum(sums.values())
            for arch in per_arch:
                per_arch[arch] = {
                    cat: (value / clank_total if clank_total else 0.0)
                    for cat, value in per_arch[arch].items()
                }
            out[bench] = per_arch
        return out

    return ExperimentSpec(
        id="fig11",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_breakdowns(title, result),
    )


# ------------------------------------------------------------ Figure 12
def fig12_spec(policies=("jit", "watchdog")):
    title = "Figure 12: % energy saved, NvMR vs HOOP"

    def grid(settings):
        return [
            Job(bench, PlatformConfig(arch=arch, policy=policy), seed)
            for policy in policies
            for bench in settings.benchmarks
            for seed in range(settings.traces)
            for arch in ("hoop", "nvmr")
        ]

    def reduce(settings, fetch):
        seeds = range(settings.traces)
        results = {}
        for policy in policies:
            row = {}
            for bench in settings.benchmarks:
                hoop = _avg_energy(
                    fetch, bench, PlatformConfig(arch="hoop", policy=policy), seeds
                )
                nvmr = _avg_energy(
                    fetch, bench, PlatformConfig(arch="nvmr", policy=policy), seeds
                )
                row[bench] = _saving_percent(hoop, nvmr)
            row["average"] = _mean(row.values())
            results[policy] = row
        return results

    return ExperimentSpec(
        id="fig12",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_matrix(title, result),
    )


# --------------------------------------------------------- Figure 13a-d
def _sweep_configs(nvmr_overrides, clank_overrides=None):
    return (
        PlatformConfig(arch="clank", policy="jit", **(clank_overrides or {})),
        PlatformConfig(arch="nvmr", policy="jit", **nvmr_overrides),
    )


def _sweep_grid(settings, nvmr_overrides, clank_overrides=None):
    """Every job one sweep point needs (NvMR variant + Clank baseline)."""
    clank, nvmr = _sweep_configs(nvmr_overrides, clank_overrides)
    return [
        Job(bench, config, seed)
        for bench in settings.sweep_benchmarks
        for seed in range(settings.sweep_traces)
        for config in (clank, nvmr)
    ]


def _sweep_saving(fetch, settings, nvmr_overrides, clank_overrides=None):
    """Average % saving of an NvMR variant vs Clank over the sweep set."""
    clank_config, nvmr_config = _sweep_configs(nvmr_overrides, clank_overrides)
    seeds = range(settings.sweep_traces)
    savings = []
    for bench in settings.sweep_benchmarks:
        clank = _avg_energy(fetch, bench, clank_config, seeds)
        nvmr = _avg_energy(fetch, bench, nvmr_config, seeds)
        savings.append(_saving_percent(clank, nvmr))
    return _mean(savings)


def _sweep_spec(spec_id, title, points, nvmr_overrides, clank_overrides=None,
                in_report=True, key_format="{}"):
    """A one-dimensional sweep: ``{point: avg NvMR saving vs Clank}``.

    ``nvmr_overrides(point)`` (and optionally ``clank_overrides(point)``)
    map each sweep point to PlatformConfig overrides.
    """

    def overrides(point):
        clank = clank_overrides(point) if clank_overrides else None
        return nvmr_overrides(point), clank

    def grid(settings):
        jobs = []
        for point in points:
            nvmr, clank = overrides(point)
            jobs.extend(_sweep_grid(settings, nvmr, clank))
        return jobs

    def reduce(settings, fetch):
        out = {}
        for point in points:
            nvmr, clank = overrides(point)
            out[point] = _sweep_saving(fetch, settings, nvmr, clank)
        return out

    return ExperimentSpec(
        id=spec_id,
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_series(title, result, key_format=key_format),
        in_report=in_report,
    )


def fig13a_spec(sizes=(32, 64, 128, 256, 512, 1024)):
    return _sweep_spec(
        "fig13a",
        "Figure 13a: map-table-cache entries",
        sizes,
        lambda size: dict(mtc_entries=size, mtc_assoc=2),
    )


def fig13b_spec(assocs=(1, 2, 4, 8, 16, 32)):
    """Energy saved vs MTC associativity with 32 entries (Fig. 13b).

    Associativity 32 with 32 entries is fully associative — the paper's
    '0' point."""
    return _sweep_spec(
        "fig13b",
        "Figure 13b: map-table-cache associativity",
        assocs,
        lambda assoc: dict(mtc_entries=32, mtc_assoc=assoc),
    )


def fig13c_spec(sizes=(1024, 2048, 4096, 8192)):
    return _sweep_spec(
        "fig13c",
        "Figure 13c: map-table entries",
        sizes,
        lambda size: dict(map_table_entries=size),
    )


def fig13d_spec(presets=("500uF", "7.5mF", "100mF")):
    return _sweep_spec(
        "fig13d",
        "Figure 13d: supercapacitor size",
        presets,
        lambda preset: dict(capacitor=preset),
        clank_overrides=lambda preset: dict(capacitor=preset),
    )


# ------------------------------------------------------------ Figure 14
def fig14_spec(map_table_entries=4096):
    title = "Figure 14: reclaim vs no-reclaim"

    def configs():
        clank = PlatformConfig(arch="clank", policy="jit")
        with_reclaim = PlatformConfig(
            arch="nvmr", policy="jit",
            map_table_entries=map_table_entries, reclaim=True,
        )
        without = PlatformConfig(
            arch="nvmr", policy="jit",
            map_table_entries=map_table_entries, reclaim=False,
        )
        return clank, with_reclaim, without

    def grid(settings):
        return [
            Job(bench, config, seed)
            for bench in settings.benchmarks
            for seed in range(settings.sweep_traces)
            for config in configs()
        ]

    def reduce(settings, fetch):
        clank_config, reclaim_config, noreclaim_config = configs()
        seeds = range(settings.sweep_traces)
        out = {}
        for bench in settings.benchmarks:
            clank = _avg_energy(fetch, bench, clank_config, seeds)
            with_reclaim = _avg_energy(fetch, bench, reclaim_config, seeds)
            without = _avg_energy(fetch, bench, noreclaim_config, seeds)
            out[bench] = {
                "reclaim": _saving_percent(clank, with_reclaim),
                "no_reclaim": _saving_percent(clank, without),
            }
        out["average"] = {
            "reclaim": _mean(v["reclaim"] for k, v in out.items() if k != "average"),
            "no_reclaim": _mean(
                v["no_reclaim"] for k, v in out.items() if k != "average"
            ),
        }
        return out

    def render(result):
        return format_matrix(
            title,
            {
                mode: {bench: v[mode] for bench, v in result.items()}
                for mode in ("reclaim", "no_reclaim")
            },
        )

    return ExperimentSpec(
        id="fig14", title=title, grid=grid, reduce=reduce, render=render
    )


# ---------------------------------------------------------- Section 6.5
def overheads_spec():
    """NvMR's overheads (paper Section 6.5): NVM wear reduction, backup
    count reduction, renaming energy share, on-chip area and reserved
    region footprint."""
    title = "Section 6.5: overheads"

    def grid(settings):
        return [
            Job(bench, PlatformConfig(arch=arch, policy="jit"), seed)
            for bench in settings.benchmarks
            for seed in range(settings.traces)
            for arch in ("clank", "nvmr")
        ]

    def reduce(settings, fetch):
        seeds = range(settings.traces)
        wear_reductions = []
        backup_ratios = []
        overhead_shares = []
        for bench in settings.benchmarks:
            for seed in seeds:
                clank = fetch(bench, PlatformConfig(arch="clank", policy="jit"), seed)
                nvmr = fetch(bench, PlatformConfig(arch="nvmr", policy="jit"), seed)
                if clank.max_wear:
                    wear_reductions.append(
                        100.0 * (1.0 - nvmr.max_wear / clank.max_wear)
                    )
                if nvmr.backups:
                    backup_ratios.append(clank.backups / nvmr.backups)
                total = nvmr.total_energy
                if total:
                    overhead = (
                        nvmr.breakdown.forward_overhead
                        + nvmr.breakdown.backup_overhead
                        + nvmr.breakdown.restore_overhead
                        + nvmr.breakdown.reclaim
                    )
                    overhead_shares.append(100.0 * overhead / total)
        config = PlatformConfig()
        area = AreaModel()
        free_list = config.map_table_entries + config.mtc_entries + 1
        reserved_bytes = free_list * config.block_size
        return {
            "max_wear_reduction_percent": _mean(wear_reductions),
            "backup_reduction_factor": _mean(backup_ratios),
            "renaming_energy_share_percent": _mean(overhead_shares),
            "mtc_area_overhead_percent": area.mtc_overhead_percent(
                mtc_entries=config.mtc_entries
            ),
            "reserved_region_percent_of_flash": 100.0 * reserved_bytes / 0x0020_0000,
        }

    return ExperimentSpec(
        id="overheads",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_mapping(
            title, {k: f"{v:.2f}" for k, v in result.items()}
        ),
    )


# ------------------------------------------------------- Footnote 6
def footnote6_spec():
    """The paper's version of Clank vs original Clank (footnote 6):
    ``{bench: % energy the cached version saves}``.

    The paper reports 11% at GCC-optimised-binary scale; our -O0-style
    codegen keeps loop variables in memory, which store-time violation
    detection punishes far harder (see the clank_original module
    docstring), so the measured magnitudes are much larger — the
    *direction* is the reproduced claim.
    """
    title = "Footnote 6: cached vs original Clank"
    original_config = PlatformConfig(arch="clank_original", policy="jit")
    cached_config = PlatformConfig(arch="clank", policy="jit")

    def grid(settings):
        return [
            Job(bench, config, seed)
            for bench in settings.sweep_benchmarks
            for seed in range(settings.sweep_traces)
            for config in (original_config, cached_config)
        ]

    def reduce(settings, fetch):
        seeds = range(settings.sweep_traces)
        out = {}
        for bench in settings.sweep_benchmarks:
            original = _avg_energy(fetch, bench, original_config, seeds)
            cached = _avg_energy(fetch, bench, cached_config, seeds)
            out[bench] = _saving_percent(original, cached)
        out["average"] = _mean(out.values())
        return out

    return ExperimentSpec(
        id="footnote6",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_series(title, result),
    )


# -------------------------------------------------------- Ablations
def ablation_gbf_spec(bits=(2, 4, 8, 16, 64)):
    """Design-choice ablation: GBF size (Table 2 fixes 8 one-bit entries).

    A smaller GBF aliases more, conservatively classifying more evicted
    blocks as read-dominated — extra renames for NvMR (and extra
    backups for Clank).  Both architectures use the same GBF size.
    """
    return _sweep_spec(
        "ablation_gbf",
        "Ablation: NvMR vs Clank by GBF size (bits)",
        bits,
        lambda b: dict(gbf_bits=b),
        clank_overrides=lambda b: dict(gbf_bits=b),
        in_report=False,
    )


def ablation_cache_spec(sizes=(128, 256, 512)):
    """Design-choice ablation: data-cache size (Table 2 fixes 256 B),
    with both architectures using the same cache."""
    return _sweep_spec(
        "ablation_cache",
        "Ablation: NvMR vs Clank by data-cache size (B)",
        sizes,
        lambda size: dict(cache_size=size),
        clank_overrides=lambda size: dict(cache_size=size),
        in_report=False,
    )


# ------------------------------------------------------- Extensions
def ext_fram_spec(technologies=("flash", "fram")):
    """Extension study (paper footnote 8): NvMR's savings by NVM
    technology.

    With FRAM, NVM writes cost roughly as little as reads, so backups —
    the thing NvMR's renaming avoids — are cheap; the expected shape is
    a much smaller NvMR-vs-Clank saving than under flash.
    """
    return _sweep_spec(
        "ext_fram",
        "Extension: NVM technology (flash vs FRAM)",
        technologies,
        lambda tech: dict(nvm_technology=tech),
        clank_overrides=lambda tech: dict(nvm_technology=tech),
    )


def ext_taxonomy_spec(benchmarks=None):
    """Extension study: Figure 2's full design-space taxonomy.

    Total energy (uJ) of every combination the paper's background
    discusses: Hibernus-style snapshot-everything (Figure 2a), Clank's
    backup-per-violation (2b), task-boundary backups on NvMR hardware
    (2c) and NvMR + JIT (2d), plus HOOP (redo logging) and original
    buffer-based Clank.
    """
    title = "Extension: Figure 2 design-space taxonomy (total energy, uJ)"
    schemes = {
        "hibernus/jit (Fig 2a)": PlatformConfig(arch="hibernus", policy="jit"),
        "clank/jit (Fig 2b)": PlatformConfig(arch="clank", policy="jit"),
        "nvmr/task (Fig 2c)": PlatformConfig(arch="nvmr", policy="task"),
        "nvmr/jit (Fig 2d)": PlatformConfig(arch="nvmr", policy="jit"),
        "hoop/jit": PlatformConfig(arch="hoop", policy="jit"),
        "clank_original/jit": PlatformConfig(arch="clank_original", policy="jit"),
    }

    def benches(settings):
        return benchmarks or settings.sweep_benchmarks

    def grid(settings):
        return [
            Job(bench, config, seed)
            for config in schemes.values()
            for bench in benches(settings)
            for seed in range(settings.sweep_traces)
        ]

    def reduce(settings, fetch):
        seeds = range(settings.sweep_traces)
        out = {}
        for label, config in schemes.items():
            out[label] = {
                bench: _avg_energy(fetch, bench, config, seeds) / 1e3
                for bench in benches(settings)
            }
            out[label]["average"] = _mean(out[label].values())
        return out

    return ExperimentSpec(
        id="ext_taxonomy",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_matrix(title, result, value_format="{:8.1f}"),
        in_report=False,
    )


def ablation_free_list_spec(benchmarks=None):
    """Design-choice ablation: why the free list is a *queue*.

    FIFO round-robins renamed blocks through the reserved region,
    wear-levelling it; a LIFO free list would reuse the most recently
    freed mapping, concentrating writes.  The result is per-discipline
    reserved-region max wear and total energy (energy is essentially
    unchanged — the discipline is purely an endurance decision).
    """
    title = "Ablation: free-list discipline (reserved-region endurance)"

    def reduce(settings, fetch):
        # This result needs raw per-address NVM write counts, which a
        # cached RunResult does not carry, so it simulates directly
        # (grid intentionally empty: the engine has nothing to prefetch
        # or shard here).
        from repro.energy.traces import HarvestTrace
        from repro.sim.platform import Platform
        from repro.workloads import load_program

        benches = benchmarks or settings.sweep_benchmarks
        out = {}
        for mode in ("fifo", "lifo"):
            wears = []
            energies = []
            for bench in benches:
                program = load_program(bench)
                config = PlatformConfig(
                    arch="nvmr", policy="jit", free_list_mode=mode, reclaim=False
                )
                platform = Platform(
                    program, config, trace=HarvestTrace(0), benchmark_name=bench
                )
                result = platform.run()
                reserved_base = program.layout.reserved_base
                reserved_wear = [
                    count
                    for addr, count in platform.nvm.write_counts.items()
                    if addr >= reserved_base
                ]
                wears.append(max(reserved_wear, default=0))
                energies.append(result.total_energy)
            out[mode] = {
                "max_reserved_wear": _mean(wears),
                "total_energy_uj": _mean(energies) / 1e3,
            }
        return out

    def render(result):
        lines = [title, "=" * len(title)]
        for mode, stats in result.items():
            lines.append(
                f"  {mode}: max reserved-region wear = "
                f"{stats['max_reserved_wear']:.1f} writes, total energy = "
                f"{stats['total_energy_uj']:.1f} uJ"
            )
        return "\n".join(lines)

    return ExperimentSpec(
        id="ablation_free_list",
        title=title,
        grid=lambda settings: [],
        reduce=reduce,
        render=render,
        in_report=False,
    )


def fig10_variance_spec(policy="jit"):
    """Figure 10 with per-benchmark mean and standard deviation over
    traces (the paper plots trace-averaged bars; this quantifies how
    much the synthetic traces move the result)."""
    title = "Figure 10: per-benchmark mean/std over traces"

    def seeds(settings):
        return list(range(max(settings.traces, 2)))

    def grid(settings):
        return [
            Job(bench, PlatformConfig(arch=arch, policy=policy), seed)
            for bench in settings.benchmarks
            for seed in seeds(settings)
            for arch in ("clank", "nvmr")
        ]

    def reduce(settings, fetch):
        out = {}
        for bench in settings.benchmarks:
            savings = []
            for seed in seeds(settings):
                clank = fetch(bench, PlatformConfig(arch="clank", policy=policy), seed)
                nvmr = fetch(bench, PlatformConfig(arch="nvmr", policy=policy), seed)
                savings.append(
                    _saving_percent(clank.total_energy, nvmr.total_energy)
                )
            mean = _mean(savings)
            variance = _mean([(s - mean) ** 2 for s in savings])
            out[bench] = {"mean": mean, "std": variance**0.5}
        return out

    return ExperimentSpec(
        id="fig10_variance",
        title=title,
        grid=grid,
        reduce=reduce,
        render=lambda result: format_matrix(title, result, value_format="{:7.2f}"),
        in_report=False,
    )


# --------------------------------------------------------- registration
# Paper presentation order: this drives the CLI listing, `repro
# experiment`, the markdown report and the smoke/shard CI sweep.
for _spec in (
    table2_spec(),
    table3_spec(),
    fig10_spec(),
    fig11_spec(),
    table4_spec(),
    fig12_spec(),
    fig13a_spec(),
    fig13b_spec(),
    fig13c_spec(),
    fig13d_spec(),
    fig14_spec(),
    overheads_spec(),
    footnote6_spec(),
    ext_fram_spec(),
    ext_taxonomy_spec(),
    ablation_gbf_spec(),
    ablation_cache_spec(),
    ablation_free_list_spec(),
    fig10_variance_spec(),
    # Policy auto-tuning sweeps (repro.analysis.pareto): per-policy
    # threshold fronts plus the cross-policy summary.
    *pareto_specs(),
):
    engine.register(_spec)
del _spec
