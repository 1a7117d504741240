"""The command-line interface."""

import json
import re
import resource

import pytest

from repro.analysis.engine import (
    ExperimentSettings,
    clear_run_cache,
    get_experiment,
    job_key,
)
from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "qsort" in out
    assert "nvmr" in out
    assert "spendthrift" in out
    assert "fig10" in out


def test_run_summary(capsys):
    assert main(["run", "qsort", "--arch", "clank", "--policy", "jit"]) == 0
    out = capsys.readouterr().out
    assert "qsort" in out
    assert "forward" in out


def test_run_json(capsys):
    assert main(["run", "hist", "--arch", "nvmr", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["benchmark"] == "hist"
    assert payload["arch"] == "nvmr"
    assert payload["total_energy_nj"] > 0
    assert set(payload["breakdown_nj"]) >= {"forward", "backup", "dead"}


def test_compile_prints_asm(tmp_path, capsys):
    source = tmp_path / "prog.mc"
    source.write_text("int out[1]; int main() { out[0] = 6 * 7; return 0; }")
    assert main(["compile", str(source)]) == 0
    out = capsys.readouterr().out
    assert "fn_main:" in out
    assert ".data" in out


def test_compile_to_file(tmp_path, capsys):
    source = tmp_path / "prog.mc"
    source.write_text("int out[1]; int main() { out[0] = 1; return 0; }")
    target = tmp_path / "prog.s"
    assert main(["compile", str(source), "-o", str(target)]) == 0
    assert "fn_main:" in target.read_text()


def test_compile_dump_symbol(tmp_path, capsys):
    source = tmp_path / "prog.mc"
    source.write_text("int out[2]; int main() { out[0] = 11; out[1] = 22; return 0; }")
    assert main(["compile", str(source), "--dump-symbol", "g_out", "--words", "2"]) == 0
    out = capsys.readouterr().out
    assert "[11, 22]" in out


def test_experiment_table2(capsys):
    assert main(["experiment", "table2", "table4"]) == 0
    out = capsys.readouterr().out
    assert "Map Table Cache" in out
    assert "OOP Buffer" in out


def test_experiment_sweep_reports_its_cost_with_the_workers(capsys):
    """The sweep joins its worker pool before it reports, so the
    workers' CPU is in ``RUSAGE_CHILDREN``; the cost line goes to
    stderr and stdout keeps only the rendered reports."""
    names = ["table3", "fig13c"]
    planned = len({
        job_key(job) for name in names
        for job in get_experiment(name).jobs(ExperimentSettings.smoke())
    })
    clear_run_cache()
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    assert main(["experiment", *names, "--smoke", "--workers", "2"]) == 0
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > before
    clear_run_cache()
    captured = capsys.readouterr()
    assert re.search(
        rf"^sweep: {planned} jobs planned, {planned} fresh, 0 cached; "
        r"\d+\.\d\d s wall, \d+\.\d\d s CPU with workers$",
        captured.err, re.M,
    )
    assert "sweep:" not in captured.out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_invalid_benchmark_rejected_by_argparse():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_subcommand(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", "-o", str(target), "--only", "table 2"]) == 0
    text = target.read_text()
    assert "# NvMR reproduction" in text
    assert "Map Table Cache" in text


def test_disasm_benchmark(capsys):
    assert main(["disasm", "qsort"]) == 0
    out = capsys.readouterr().out
    assert "_start:" in out
    assert "fn_main:" in out
    assert "bl" in out
    assert "instructions" in out


def test_disasm_source_file(tmp_path, capsys):
    source = tmp_path / "prog.mc"
    source.write_text("int out[1]; int main() { out[0] = 1; return 0; }")
    assert main(["disasm", str(source)]) == 0
    assert "halt" in capsys.readouterr().out
