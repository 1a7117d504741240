"""The committed results under ``benchmarks/results/``, checked with zero
simulation.

``repro experiment <ids> --artifacts benchmarks/results`` writes each
experiment's versioned JSON artifact and its rendered ``<id>.txt``.
This suite reads those committed files with the simulator monkeypatched
to raise, so it costs no simulation and runs on every push:

* every artifact loads, and its ``.txt`` is exactly its re-rendering;
* each result keeps the paper's shape (the per-experiment checks
  below), so a regeneration that flips a conclusion fails here even
  though the documents would still read the old text.
"""

from pathlib import Path

import pytest

from repro.analysis import engine
from repro.analysis.engine import load_artifact, render_artifact

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
COMMITTED = sorted(path.stem for path in RESULTS.glob("*.json"))


@pytest.fixture(autouse=True)
def _no_simulation(monkeypatch):
    """Everything below must run from the committed artifacts alone."""

    def _refuse(benchmark, config, trace_seed):
        raise AssertionError(
            f"committed-artifact test tried to simulate {benchmark}"
        )

    monkeypatch.setattr(engine, "_simulate", _refuse)


def _result(spec_id):
    return load_artifact(RESULTS / f"{spec_id}.json")["result"]


@pytest.mark.parametrize("spec_id", COMMITTED)
def test_text_is_the_rendered_artifact(spec_id):
    artifact = load_artifact(RESULTS / f"{spec_id}.json")
    assert artifact["experiment"] == spec_id
    text = (RESULTS / f"{spec_id}.txt").read_text()
    assert text == render_artifact(artifact) + "\n"


# ------------------------------------------------------ paper shapes
def _table2(table):
    assert "512 entries" in table["Map Table Cache"]


def _table3(counts):
    assert all(count >= 0 for count in counts.values())
    # Violation-heavy vs violation-light benchmarks must separate.
    assert counts["qsort"] > counts["basicmath"]


def _table4(table):
    assert "Infinite" in table["Mapping Table"]


def _fig10(results):
    # Headline claim: NvMR saves substantial energy on average under JIT.
    assert results["jit"]["average"] > 10.0
    # JIT (the most aggressive scheme) beats the naive watchdog.
    assert results["jit"]["average"] > results["watchdog"]["average"]
    # Violation-heavy benchmarks win big; stringsearch is the worst case.
    assert results["jit"]["qsort"] > 10.0
    assert results["jit"]["stringsearch"] < results["jit"]["average"]


def _fig11(out):
    for bench, per_arch in out.items():
        clank_total = sum(per_arch["clank"].values())
        nvmr_total = sum(per_arch["nvmr"].values())
        assert abs(clank_total - 1.0) < 1e-9
        # NvMR's renaming overhead must stay a small share of its total
        # (paper: ~3%).
        overhead = sum(
            per_arch["nvmr"].get(cat, 0.0)
            for cat in ("forward_overhead", "backup_overhead",
                        "restore_overhead", "reclaim")
        )
        assert overhead / nvmr_total < 0.25, bench
    # stringsearch: forward progress dominates (paper: ~90%).
    assert out["stringsearch"]["clank"]["forward"] > 0.6
    # qsort-like benchmarks: Clank spends a large share on backups.
    assert out["qsort"]["clank"]["backup"] > out["stringsearch"]["clank"]["backup"]


def _fig12(results):
    # NvMR wins on average under JIT.
    assert results["jit"]["average"] > 0.0
    # And the advantage shrinks (or flips on some benchmarks) under the
    # naive watchdog, as in the paper.
    assert results["jit"]["average"] >= results["watchdog"]["average"] - 5.0


def _fig13a(series):
    sizes = sorted(series)
    # Larger MTC must not hurt: the largest beats the smallest.
    assert series[sizes[-1]] >= series[sizes[0]] - 0.5


def _fig13b(series):
    # Past associativity 4 the next doubling buys little (paper: ~0.2%
    # from 4 to fully associative; at our scaled working sets the
    # full-associativity endpoint gains a few % by eliminating conflict
    # evictions entirely, but 4 -> 8 is already nearly flat).
    assert abs(series[8] - series[4]) < 2.0
    # And more associativity never hurts.
    assert series[32] >= series[1] - 0.5


def _fig13c(series):
    sizes = sorted(series)
    assert series[sizes[-1]] >= series[sizes[0]] - 0.5


def _fig13d(series):
    # Bigger capacitors -> longer sections -> more savings.
    assert series["100mF"] > series["500uF"]


def _fig14(out):
    # With a large map table, reclaiming must not hurt on average.
    assert out["average"]["reclaim"] >= out["average"]["no_reclaim"] - 1.5


def _overheads(out):
    # Wear: renaming spreads hot writes over the reserved region.
    assert out["max_wear_reduction_percent"] > 20.0
    # Backups drop by a large factor (paper: 185x; shape: >2x here).
    assert out["backup_reduction_factor"] > 2.0
    # Renaming energy stays a modest share of the total.
    assert out["renaming_energy_share_percent"] < 25.0
    # Area: ~6% MTC overhead; reserved region ~6% of flash (paper).
    assert 3.0 < out["mtc_area_overhead_percent"] < 10.0
    assert 2.0 < out["reserved_region_percent_of_flash"] < 8.0


def _footnote6(out):
    # Direction: the cached version wins on every sweep benchmark.
    assert all(v > 0 for v in out.values())


def _ablation_gbf(series):
    # The savings comparison is robust to GBF sizing: NvMR wins at
    # every size (aliasing hurts both architectures).
    assert all(v > 0 for v in series.values())


def _ablation_cache(series):
    assert all(v > 0 for v in series.values())


def _ablation_free_list(out):
    # The queue wear-levels; a stack concentrates writes.  Energy is
    # unchanged (it is purely an endurance decision).
    assert out["fifo"]["max_reserved_wear"] < out["lifo"]["max_reserved_wear"]
    assert abs(
        out["fifo"]["total_energy_uj"] - out["lifo"]["total_energy_uj"]
    ) < 0.01 * out["fifo"]["total_energy_uj"]


def _ext_fram(series):
    # NvMR's advantage is large on flash and nearly vanishes on FRAM.
    assert series["flash"] > 10.0
    assert series["fram"] < series["flash"] / 3


def _ext_taxonomy(results):
    nvmr = results["nvmr/jit (Fig 2d)"]["average"]
    # NvMR beats backup-per-violation, task boundaries, and the
    # original buffer-based design on average.
    assert nvmr < results["clank/jit (Fig 2b)"]["average"]
    assert nvmr < results["nvmr/task (Fig 2c)"]["average"]
    assert nvmr < results["clank_original/jit"]["average"]


def _pareto_summary(result):
    # Every technology reduces to a non-empty front drawn from its own
    # candidate set.
    for tech in result["technologies"]:
        labels = {row["label"] for row in result["candidates"][tech]}
        front = result["fronts"][tech]
        assert front
        assert set(front) <= labels
        # Front members are exactly the rows flagged on_front.
        flagged = [
            row["label"]
            for row in result["candidates"][tech]
            if row["on_front"]
        ]
        assert flagged == front
    # The JIT oracle's default backs up at the last possible moment:
    # nothing on the flash grid dominates it.
    assert "jit default" in result["fronts"]["flash"]
    for tech in result["technologies"]:
        for effect in result["effects"][tech].values():
            # "Best tuned" includes the default, so tuning never hurts.
            assert effect["best_energy_uj"] <= effect["default_energy_uj"] + 1e-9
            assert effect["saving_percent"] >= -1e-9
    # The naive schemes' defaults leave real energy on the table under
    # flash; tuning recovers a measurable slice.
    assert result["effects"]["flash"]["task"]["saving_percent"] > 1.0


SHAPES = {
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13a": _fig13a,
    "fig13b": _fig13b,
    "fig13c": _fig13c,
    "fig13d": _fig13d,
    "fig14": _fig14,
    "overheads": _overheads,
    "footnote6": _footnote6,
    "ablation_gbf": _ablation_gbf,
    "ablation_cache": _ablation_cache,
    "ablation_free_list": _ablation_free_list,
    "ext_fram": _ext_fram,
    "ext_taxonomy": _ext_taxonomy,
    "pareto_summary": _pareto_summary,
}


def test_every_committed_artifact_has_a_shape_check():
    assert COMMITTED == sorted(SHAPES)


@pytest.mark.parametrize("spec_id", sorted(SHAPES))
def test_committed_result_keeps_the_paper_shape(spec_id):
    SHAPES[spec_id](_result(spec_id))
