"""Pareto-front plot rendering over the committed sweep artifacts.

The ``pareto_*`` experiment artifacts carry everything a figure needs
(candidate objectives, bootstrap CIs, front membership), so this module
is a pure *view*: no simulation, just matplotlib over an artifact
document — the renderer the tuning study was missing.

matplotlib is an **optional** dependency: when it is not importable,
:func:`write_pareto_plot` returns ``None`` and its caller (the CLI
``experiment`` verb) simply skips the figure — text tables and JSON
artifacts are unaffected.

Figure layout: one panel per NVM technology; every candidate threshold
is a point in (forward-progress kcycles, energy uJ) space with its
bootstrap CI as error bars, colored by policy; the Pareto front is the
connected staircase through the non-dominated points, and each
policy's paper default is ringed.
"""

from pathlib import Path

#: Stable per-policy colors across panels (Okabe-Ito, color-blind safe).
_POLICY_COLORS = {
    "jit": "#0072B2",
    "watchdog": "#D55E00",
    "spendthrift": "#009E73",
    "task": "#CC79A7",
}
_FALLBACK_COLOR = "#555555"


def _import_pyplot():
    """The pyplot module with a headless backend, or None."""
    try:
        import matplotlib
    except ImportError:
        return None
    matplotlib.use("Agg")
    from matplotlib import pyplot

    return pyplot


def _coerce_result(source):
    """Accept an artifact path, an artifact document or a raw pareto
    result; returns ``(result, experiment_id or None)``."""
    if isinstance(source, (str, Path)):
        from repro.analysis.engine import load_artifact

        source = load_artifact(source)
    if isinstance(source, dict) and "result" in source and "schema" in source:
        return source["result"], source.get("experiment")
    return source, None


def _ci_err(rows, field):
    """Asymmetric error-bar widths from ``<field>_ci`` around ``field``."""
    lower, upper = [], []
    for row in rows:
        low, high = row[f"{field}_ci"]
        lower.append(max(0.0, row[field] - low))
        upper.append(max(0.0, high - row[field]))
    return [lower, upper]


def pareto_figure(source, title=None):
    """Build the matplotlib Figure for one pareto artifact/result.

    Returns None when matplotlib is unavailable or ``source`` does not
    look like a pareto sweep result (e.g. a non-pareto artifact).
    """
    pyplot = _import_pyplot()
    if pyplot is None:
        return None
    result, experiment = _coerce_result(source)
    if not isinstance(result, dict) or "candidates" not in result:
        return None

    technologies = result["technologies"]
    figure, axes = pyplot.subplots(
        1, len(technologies),
        figsize=(5.2 * len(technologies), 4.2),
        squeeze=False,
    )
    for axis, tech in zip(axes[0], technologies):
        rows = result["candidates"][tech]
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["policy"], []).append(row)
        for policy, policy_rows in by_policy.items():
            color = _POLICY_COLORS.get(policy, _FALLBACK_COLOR)
            axis.errorbar(
                [r["kcycles"] for r in policy_rows],
                [r["energy_uj"] for r in policy_rows],
                xerr=_ci_err(policy_rows, "kcycles"),
                yerr=_ci_err(policy_rows, "energy_uj"),
                fmt="o", ms=4.5, color=color, ecolor=color,
                elinewidth=0.8, capsize=2, alpha=0.85, label=policy,
            )
        # Ring the paper defaults.
        defaults = [r for r in rows if r["default"]]
        axis.scatter(
            [r["kcycles"] for r in defaults],
            [r["energy_uj"] for r in defaults],
            s=130, facecolors="none", edgecolors="black",
            linewidths=1.1, zorder=3, label="paper default",
        )
        # The front, as a staircase through the non-dominated points.
        front = sorted(
            (r for r in rows if r["on_front"]),
            key=lambda r: (r["kcycles"], r["energy_uj"]),
        )
        if front:
            axis.step(
                [r["kcycles"] for r in front],
                [r["energy_uj"] for r in front],
                where="post", color="black", linewidth=1.0,
                linestyle="--", alpha=0.7, zorder=2, label="Pareto front",
            )
        axis.set_title(f"{tech} (n={len(rows)} candidates)")
        axis.set_xlabel("kcycles to completion (forward progress)")
        axis.set_ylabel("energy (uJ)")
        axis.grid(True, linewidth=0.3, alpha=0.5)
    axes[0][0].legend(fontsize=8, loc="best")
    figure.suptitle(title or result.get("title") or experiment
                    or "Pareto threshold sweep")
    figure.tight_layout()
    return figure


def write_pareto_plot(source, path=None, directory=None, title=None):
    """Render a pareto artifact/result to a PNG next to its artifact.

    ``source`` may be an artifact path, a loaded artifact document or a
    raw sweep result.  The output lands at ``path``, or at
    ``<directory>/<experiment>.png`` when a directory and a
    self-describing artifact are given.  Returns the written
    :class:`~pathlib.Path`, or None when matplotlib is missing or the
    source is not a pareto sweep (both are silent no-ops — the plot is
    strictly additive to the text/JSON outputs).
    """
    result, experiment = _coerce_result(source)
    if path is None:
        if directory is None or experiment is None:
            return None
        path = Path(directory) / f"{experiment}.png"
    figure = pareto_figure(result, title=title)
    if figure is None:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    figure.savefig(path, dpi=150)
    _import_pyplot().close(figure)
    return path
