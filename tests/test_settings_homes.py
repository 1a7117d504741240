"""Every setting has one home, and nothing is archived by default.

Zero-simulation checks:

* the ``REPRO_*`` environment knobs that ``src/`` names are exactly the
  ones README's knob table documents, and exactly the three that have
  no other home (the averaging scale is ``--full``/``--smoke``, the
  engine is ``PlatformConfig(fast=...)``, the trace store lives under
  the cache directory);
* ``repro experiment`` and ``repro serve`` without ``--artifacts``
  write no artifact anywhere, in particular not into the committed
  ``benchmarks/results/``.
"""

import re
from pathlib import Path

import repro.service.server
from repro.analysis import engine
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
KNOB = re.compile(r"\bREPRO_[A-Z_]+\b")

#: The knobs that are not a second way to set something else.
KNOBS = {"REPRO_CACHE_DIR", "REPRO_RUN_CACHE", "REPRO_REPLAY_COMPILED"}


def _src_knobs():
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in KNOB.findall(path.read_text())
    }


def _readme_knobs():
    rows = [
        line for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("| `REPRO_")
    ]
    return {KNOB.search(row).group() for row in rows}


def test_knob_census():
    assert _src_knobs() == _readme_knobs() == KNOBS


def _results_snapshot():
    return {path.name: path.stat().st_mtime_ns for path in RESULTS.iterdir()}


def test_experiment_without_artifacts_writes_nothing(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    before = _results_snapshot()
    assert main(["experiment", "table2"]) == 0
    assert "Map Table Cache" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert _results_snapshot() == before


def test_no_experiment_picks_an_artifact_dir_of_its_own(monkeypatch, capsys):
    """Every registered spec, the Pareto sweeps included, reaches the
    engine with no artifact directory when ``--artifacts`` is absent."""
    seen = {}

    def fake_run(names, settings, workers, shard, artifact_dir):
        seen.update(dict.fromkeys(names, artifact_dir))
        return engine.Sweep(runs=[
            engine.ExperimentRun(
                spec_id=name, title=name, settings=settings, shard=None,
                jobs_total=0, jobs_selected=0, fresh_runs=0, complete=True,
                result=None, rendered=name, artifact_path=None,
            )
            for name in names
        ], jobs_planned=0)

    monkeypatch.setattr(engine, "run_experiments", fake_run)
    assert main(["experiment", "--all", "--smoke"]) == 0
    capsys.readouterr()
    assert seen == dict.fromkeys(engine.all_experiments())


def test_serve_without_artifacts_archives_nothing(monkeypatch, capsys):
    handed = {}

    def fake_serve(**kwargs):
        handed.update(kwargs)
        return 0

    monkeypatch.setattr(repro.service.server, "serve", fake_serve)
    assert main(["serve", "--port", "0"]) == 0
    assert handed["artifact_dir"] is None
