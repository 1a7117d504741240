"""Rendering: text tables and the one-shot markdown report.

One module owns both the ``format_*`` text-table primitives used by
EXPERIMENTS.md and the whole-evaluation markdown report.  (It merged
the historical ``repro.analysis.reporting`` and
``repro.analysis.report`` modules; their deprecation shims were
removed after two PRs of warning.)

The report is a view over the experiment registry
(:data:`repro.analysis.engine.EXPERIMENTS`): every spec registered
with ``in_report=True`` contributes one section, in registration
(paper presentation) order, rendered by its own ``render`` function.
"""

import time


# --------------------------------------------------- table primitives
def format_matrix(title, results, value_format="{:+7.1f}"):
    """Render ``{row: {col: value}}`` as an aligned text table.

    Used for Figure 10/12-style results ({policy: {benchmark: saving}}).
    """
    rows = list(results)
    cols = []
    for row in rows:
        for col in results[row]:
            if col not in cols:
                cols.append(col)
    width = max((len(str(c)) for c in cols), default=8)
    width = max(width, 8)
    lines = [title, "=" * len(title)]
    header = " " * 14 + "".join(f"{str(c):>{width + 2}}" for c in cols)
    lines.append(header)
    for row in rows:
        cells = []
        for col in cols:
            value = results[row].get(col)
            if value is None:
                cells.append(" " * (width + 2))
            else:
                cells.append(f"{value_format.format(value):>{width + 2}}")
        lines.append(f"{str(row):<14}" + "".join(cells))
    return "\n".join(lines)


def format_series(title, series, key_format="{}", value_format="{:+.2f}%"):
    """Render ``{x: y}`` as a two-column table (Figure 13-style sweeps)."""
    lines = [title, "=" * len(title)]
    for key, value in series.items():
        lines.append(f"  {key_format.format(key):>12}  {value_format.format(value)}")
    return "\n".join(lines)


def format_breakdowns(title, breakdowns, categories=None):
    """Render Figure 11-style breakdowns.

    ``breakdowns`` is ``{bench: {arch: {category: fraction}}}``.
    """
    lines = [title, "=" * len(title)]
    for bench, per_arch in breakdowns.items():
        lines.append(f"{bench}:")
        for arch, cats in per_arch.items():
            if categories is None:
                shown = {k: v for k, v in cats.items() if v > 0.0005}
            else:
                shown = {k: cats.get(k, 0.0) for k in categories}
            total = sum(cats.values())
            parts = "  ".join(f"{k}={v * 100:5.1f}%" for k, v in shown.items())
            lines.append(f"  {arch:>6} (total {total * 100:5.1f}%): {parts}")
    return "\n".join(lines)


def format_mapping(title, mapping):
    """Render ``{key: value}`` configuration tables (Table 2/4)."""
    width = max(len(str(k)) for k in mapping)
    lines = [title, "=" * len(title)]
    for key, value in mapping.items():
        lines.append(f"  {str(key):<{width}}  {value}")
    return "\n".join(lines)


# ------------------------------------------------------- the report
def generate_report(settings=None, sections=None):
    """Run the report-flagged registry and return markdown text.

    ``sections`` restricts to specs whose title contains one of the
    given keywords (case-insensitive), e.g. ``["table 2", "fig"]``.
    """
    from repro.analysis import engine

    settings = settings or engine.ExperimentSettings()
    wanted = set(sections) if sections else None
    parts = [
        "# NvMR reproduction — evaluation report",
        "",
        f"Averaging: {settings.traces} trace(s) for headline results, "
        f"{settings.sweep_traces} for sweeps over "
        f"{len(settings.sweep_benchmarks)} sweep benchmark(s).",
        "See EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
    ]
    for spec in engine.all_experiments().values():
        if not spec.in_report:
            continue
        if wanted is not None and not any(
            k in spec.title.lower() for k in wanted
        ):
            continue
        started = time.time()
        run = engine.run_experiment(spec, settings=settings, workers=1)
        elapsed = time.time() - started
        parts.append(f"## {spec.title}")
        parts.append("")
        parts.append("```")
        parts.append(run.rendered.strip("\n"))
        parts.append("```")
        parts.append(f"*({elapsed:.1f}s)*")
        parts.append("")
    return "\n".join(parts)


def write_report(path, settings=None, sections=None):
    """Generate the report and write it to ``path``."""
    text = generate_report(settings, sections)
    with open(path, "w") as handle:
        handle.write(text)
    return path
