"""Experiment specs: smoke runs and reporting formats."""

from pathlib import Path

import pytest

from repro.analysis import (
    ExperimentSettings,
    format_breakdowns,
    format_mapping,
    format_matrix,
    format_series,
    run_experiment,
    table2_configuration,
    table4_hoop_configuration,
)
from repro.analysis.engine import SWEEP_BENCHMARKS, cached_run, clear_run_cache
from repro.analysis.experiments import (
    fig10_spec,
    fig12_spec,
    fig13a_spec,
    fig13d_spec,
    fig14_spec,
)
from repro.arch.base import BackupReason
from repro.sim.platform import PlatformConfig

SMOKE = ExperimentSettings.smoke()
FIG14_SMALL_TABLE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "fig14_small_table.txt"
)


def _result(experiment, settings=SMOKE):
    """The reduced result of a registered id or a spec instance."""
    return run_experiment(experiment, settings, workers=1).result


def test_table2_lists_paper_structures():
    table = table2_configuration()
    assert "Map Table Cache" in table
    assert "512" in table["Map Table Cache"]
    assert "4096" in table["Map Table"]
    assert "4609" in table["Free List"]
    assert "2MB" in table["Flash"]


def test_table4_hoop_structures():
    table = table4_hoop_configuration()
    assert "Infinite" in table["Mapping Table"]
    # Live scaled values plus the paper's originals for traceability.
    assert "32" in table["OOP Buffer"] and "128" in table["OOP Buffer"]
    assert "512" in table["OOP Region"] and "2048" in table["OOP Region"]


def test_table3_counts_violations():
    counts = _result("table3")
    assert set(counts) == set(SMOKE.benchmarks)
    assert counts["qsort"] > 0


def test_fig10_smoke_has_average():
    results = _result(fig10_spec(policies=("jit",)))
    assert "average" in results["jit"]
    assert set(SMOKE.benchmarks) <= set(results["jit"])
    # qsort is violation-heavy: NvMR must save energy under JIT.
    assert results["jit"]["qsort"] > 0


def test_fig10_nvmr_never_backs_up_for_a_violation():
    """NvMR renames instead of backing up on idempotency violations, so
    no NvMR run of the fig10 grid has a violation-reason backup."""
    nvmr_jobs = [job for job in fig10_spec().jobs(SMOKE) if job.config.arch == "nvmr"]
    assert nvmr_jobs
    for job in nvmr_jobs:
        result = cached_run(*job)
        assert result.backups_by_reason.get(BackupReason.VIOLATION, 0) == 0, job


def test_fig12_nvmr_saves_energy_over_hoop_under_jit():
    """Paper Fig. 12: NvMR uses less energy than HOOP under JIT.
    (Watchdog is not pinned: at smoke scale its average is near zero.)"""
    results = _result(fig12_spec(policies=("jit",)))
    assert results["jit"]["average"] > 0


def test_fig11_breakdowns_normalised_to_clank():
    out = _result("fig11")
    for bench, per_arch in out.items():
        clank_total = sum(per_arch["clank"].values())
        assert clank_total == pytest.approx(1.0)
        assert sum(per_arch["nvmr"].values()) > 0


def test_fig14_spec_shape():
    out = _result("fig14")
    assert "average" in out
    assert set(out["qsort"]) == {"reclaim", "no_reclaim"}


def test_overheads_study_fields():
    out = _result("overheads")
    assert 0 < out["mtc_area_overhead_percent"] < 15
    assert 0 < out["reserved_region_percent_of_flash"] < 10
    assert out["backup_reduction_factor"] > 1
    assert out["max_wear_reduction_percent"] > 0


def test_fig14_small_table_regenerates_committed_text():
    """Section 6.4's 1024-entry study, scaled to a map table small
    enough (64 entries) to fill under our scaled working sets: when the
    table fills, reclaiming must win clearly.  It is an unregistered
    variant of the fig14 spec, regenerated here at default scale over
    the sweep benchmarks; its text is committed as
    ``benchmarks/results/fig14_small_table.txt``."""
    settings = ExperimentSettings(
        benchmarks=list(SWEEP_BENCHMARKS),
        sweep_benchmarks=list(SWEEP_BENCHMARKS),
    )
    run = run_experiment(fig14_spec(map_table_entries=64), settings, workers=1)
    assert run.result["average"]["reclaim"] > run.result["average"]["no_reclaim"]
    assert run.rendered + "\n" == FIG14_SMALL_TABLE.read_text()


def test_cached_run_reuses_results():
    clear_run_cache()
    config = PlatformConfig(arch="clank", policy="jit")
    first = cached_run("qsort", config, 0)
    second = cached_run("qsort", config, 0)
    assert first is second
    different = cached_run("qsort", PlatformConfig(arch="nvmr", policy="jit"), 0)
    assert different is not first


def test_settings_profiles():
    full = ExperimentSettings.full()
    assert full.traces == 10  # the paper's averaging
    assert len(full.benchmarks) == 10
    quick = ExperimentSettings()
    assert quick.traces < full.traces


# ------------------------------------------------------------ reporting
def test_format_matrix():
    text = format_matrix("T", {"jit": {"qsort": 20.5, "average": 10.0}})
    assert "T" in text and "qsort" in text and "+20.5" in text


def test_format_series():
    text = format_series("S", {32: 1.0, 64: 2.5})
    assert "S" in text and "+2.50%" in text


def test_format_mapping():
    text = format_mapping("Cfg", {"Flash": "2MB"})
    assert "Flash" in text and "2MB" in text


def test_format_breakdowns():
    data = {"qsort": {"clank": {"forward": 0.7, "backup": 0.3}}}
    text = format_breakdowns("B", data)
    assert "qsort" in text and "forward" in text


def test_generate_report_restricted_sections():
    from repro.analysis.render import generate_report

    text = generate_report(SMOKE, sections=["table 2", "table 4"])
    assert "## Table 2" in text
    assert "## Table 4" in text
    assert "Figure 10" not in text


def test_extension_nvm_technology_shape():
    out = _result(
        "ext_fram",
        ExperimentSettings(sweep_benchmarks=["qsort"], sweep_traces=1),
    )
    assert out["flash"] > out["fram"]


def test_fig10_with_variance_fields():
    out = _result("fig10_variance")
    for bench, stats in out.items():
        assert set(stats) == {"mean", "std"}
        assert stats["std"] >= 0.0


def test_fig13a_and_13d_smoke():
    small = ExperimentSettings(
        traces=1, sweep_traces=1,
        benchmarks=["qsort"], sweep_benchmarks=["qsort"],
    )
    sizes = _result(fig13a_spec(sizes=(32, 512)), small)
    assert set(sizes) == {32, 512}
    caps = _result(fig13d_spec(presets=("500uF", "100mF")), small)
    # Bigger capacitor -> longer sections -> more savings (Fig 13d).
    assert caps["100mF"] > caps["500uF"]
