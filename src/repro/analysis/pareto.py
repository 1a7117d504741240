"""Policy auto-tuning: Pareto-front threshold sweeps with bootstrap CIs.

The paper's Figure 10/13 results compare backup policies at hand-picked
thresholds (the watchdog's 8000 cycles comes from Clank [16], the task
bounds from typical DINO/Chain task sizes).  This module maps the
trade-off those picks sample: every policy declares its tunable
parameters as :class:`~repro.policies.base.TunableSpec` grids, and the
sweep evaluates each candidate threshold on two objectives —

* **energy** (uJ per completed workload, minimise), and
* **kcycles to completion** (active + off cycles, minimise — the
  intermittent-computing "forward progress" axis: a policy that backs
  up too eagerly stretches wall-clock time across many short periods),

per NVM cost table (:data:`repro.energy.model.NVM_TECHNOLOGIES` —
flash/FRAM/ReRAM/STT), reducing each technology's candidate set to its
Pareto front.  Uncertainty over harvest traces is quantified the way
the Kadoshima offline policy-evaluation study does it: percentile
bootstrap confidence intervals over per-seed aggregates, plus paired
effect sizes (Cohen's d) of the best tuned candidate against the
paper's default.

Everything here is an :class:`~repro.analysis.engine.ExperimentSpec`
(``pareto_<policy>`` and the cross-policy ``pareto_summary``), so job
enumeration, process-parallel prefetch, two-layer caching, ``--shard
K/N`` and versioned JSON artifacts come free from the engine.  The
sweep varies configurations *only* through
``PlatformConfig.policy_kwargs`` — which is why the engine's
``_config_key`` covers it.
"""

import random
import zlib
from typing import NamedTuple, Optional

from repro.analysis.engine import ExperimentSpec, Job
from repro.policies import policy_tunables
from repro.sim.platform import PlatformConfig

#: The policies whose thresholds the sweeps tune, in Figure-10 order.
TUNED_POLICIES = ("jit", "watchdog", "spendthrift", "task")

#: Sweeps run on the paper's architecture; the tuning question is
#: "which threshold", not "which hardware".
SWEEP_ARCH = "nvmr"

#: Bootstrap resamples / two-sided CI level.
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_ALPHA = 0.05


# ------------------------------------------------------------ pareto core
def dominates(a, b):
    """True iff point ``a`` strictly Pareto-dominates ``b``.

    Both are equal-length sequences of objectives to *minimise*: ``a``
    dominates when it is no worse on every axis and strictly better on
    at least one.  (Irreflexive + transitive + asymmetric — a strict
    partial order, pinned by ``tests/analysis/test_pareto.py``.)
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("points must have the same dimensionality")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_front(points):
    """The non-dominated subset, deduplicated and sorted.

    Invariant under permutation and duplicate insertion of ``points``
    (set semantics + canonical ordering).
    """
    unique = sorted({tuple(p) for p in points})
    return [
        p
        for p in unique
        if not any(dominates(q, p) for q in unique if q != p)
    ]


def bootstrap_ci(
    values,
    seed,
    resamples=BOOTSTRAP_RESAMPLES,
    alpha=BOOTSTRAP_ALPHA,
):
    """Percentile-bootstrap CI of the mean: ``(lo, hi)``.

    Deterministic for a fixed ``seed`` (its own ``random.Random``, no
    global state).  A single observation gets the degenerate interval
    ``(v, v)`` — smoke runs use one trace seed and still render CIs.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("bootstrap_ci needs at least one value")
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(seed)
    n = len(values)
    means = sorted(
        sum(rng.choices(values, k=n)) / n for _ in range(resamples)
    )
    lo = int(resamples * (alpha / 2.0))
    hi = resamples - 1 - lo
    return (means[lo], means[hi])


def cohens_d(diffs):
    """Paired-sample Cohen's d: mean difference over its population
    standard deviation; 0.0 when the differences do not vary (or there
    are none)."""
    diffs = [float(d) for d in diffs]
    if not diffs:
        return 0.0
    mean = sum(diffs) / len(diffs)
    variance = sum((d - mean) ** 2 for d in diffs) / len(diffs)
    if variance == 0.0:
        return 0.0
    return mean / variance**0.5


def _ci_seed(*parts):
    """A stable bootstrap seed from string labels (not Python's salted
    hash())."""
    return zlib.crc32("|".join(parts).encode("utf-8"))


# ------------------------------------------------------------ candidates
class Candidate(NamedTuple):
    """One point of a policy's tuning grid."""

    policy: str
    #: ``None`` marks the paper-default candidate (empty kwargs).
    tunable: Optional[str]
    value: object
    label: str


def policy_candidates(policy):
    """The candidate list one policy contributes to a sweep.

    One paper-default candidate plus, per declared tunable, every
    non-default grid value — varied one at a time against defaults, so
    each front point is attributable to a single knob.
    """
    candidates = [Candidate(policy, None, None, f"{policy} default")]
    for spec in policy_tunables(policy):
        for value in spec.grid:
            if value == spec.default:
                continue
            candidates.append(
                Candidate(
                    policy, spec.name, value, f"{policy} {spec.name}={value}"
                )
            )
    return candidates


def candidate_config(candidate, technology):
    """The :class:`PlatformConfig` evaluating one candidate."""
    kwargs = (
        {} if candidate.tunable is None else {candidate.tunable: candidate.value}
    )
    return PlatformConfig(
        arch=SWEEP_ARCH,
        policy=candidate.policy,
        nvm_technology=technology,
        policy_kwargs=kwargs,
    )


# --------------------------------------------------------------- reduce
def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _pareto_result(settings, fetch, policies):
    """The full sweep result for ``policies`` (JSON-shaped: string keys
    and lists only, so artifacts round-trip bit-exactly)."""
    seeds = range(settings.pareto_traces)
    benches = settings.pareto_benchmarks
    result = {
        "arch": SWEEP_ARCH,
        "technologies": list(settings.pareto_technologies),
        "policies": list(policies),
        "objectives": ["energy_uj", "kcycles"],
        "candidates": {},
        "fronts": {},
        "effects": {},
    }
    for tech in settings.pareto_technologies:
        rows = []
        seed_series = {}
        for policy in policies:
            for candidate in policy_candidates(policy):
                config = candidate_config(candidate, tech)
                energy_by_seed = []
                kcycles_by_seed = []
                for seed in seeds:
                    runs = [fetch(bench, config, seed) for bench in benches]
                    energy_by_seed.append(
                        _mean(r.total_energy for r in runs) / 1e3
                    )
                    kcycles_by_seed.append(
                        _mean(r.active_cycles + r.off_cycles for r in runs)
                        / 1e3
                    )
                seed_series[candidate.label] = (energy_by_seed, kcycles_by_seed)
                energy_ci = bootstrap_ci(
                    energy_by_seed, _ci_seed(tech, candidate.label, "energy")
                )
                kcycles_ci = bootstrap_ci(
                    kcycles_by_seed, _ci_seed(tech, candidate.label, "kcycles")
                )
                rows.append(
                    {
                        "policy": candidate.policy,
                        "tunable": candidate.tunable,
                        "value": candidate.value,
                        "label": candidate.label,
                        "default": candidate.tunable is None,
                        "energy_uj": _mean(energy_by_seed),
                        "energy_ci": list(energy_ci),
                        "kcycles": _mean(kcycles_by_seed),
                        "kcycles_ci": list(kcycles_ci),
                        "on_front": False,
                    }
                )
        front = set(
            pareto_front((row["energy_uj"], row["kcycles"]) for row in rows)
        )
        for row in rows:
            row["on_front"] = (row["energy_uj"], row["kcycles"]) in front
        result["candidates"][tech] = rows
        result["fronts"][tech] = [
            row["label"] for row in rows if row["on_front"]
        ]
        result["effects"][tech] = _effects(tech, policies, rows, seed_series)
    return result


def _effects(tech, policies, rows, seed_series):
    """Per policy: the best tuned candidate vs the paper default —
    paired per-seed % saving with a bootstrap CI and Cohen's d."""
    effects = {}
    for policy in policies:
        mine = [row for row in rows if row["policy"] == policy]
        default = next(row for row in mine if row["default"])
        best = min(mine, key=lambda row: (row["energy_uj"], row["label"]))
        default_energy = seed_series[default["label"]][0]
        best_energy = seed_series[best["label"]][0]
        savings = [
            100.0 * (1.0 - b / d) if d else 0.0
            for d, b in zip(default_energy, best_energy)
        ]
        diffs = [d - b for d, b in zip(default_energy, best_energy)]
        effects[policy] = {
            "default_label": default["label"],
            "best_label": best["label"],
            "default_energy_uj": default["energy_uj"],
            "best_energy_uj": best["energy_uj"],
            "saving_percent": _mean(savings),
            "saving_ci": list(
                bootstrap_ci(savings, _ci_seed(tech, policy, "saving"))
            ),
            "cohens_d": cohens_d(diffs),
        }
    return effects


# --------------------------------------------------------------- render
def _format_ci(ci):
    return f"[{ci[0]:10.1f}, {ci[1]:10.1f}]"


def render_pareto(title, result):
    """The front tables + effect-size lines, from the result alone (an
    artifact re-renders this byte-identically with zero simulation)."""
    lines = [title, "=" * len(title)]
    lines.append(
        f"arch: {result['arch']}   objectives: "
        f"{' / '.join(result['objectives'])} (minimise)   "
        f"95% bootstrap CIs over trace seeds"
    )
    for tech in result["technologies"]:
        rows = result["candidates"][tech]
        lines.append("")
        lines.append(f"NVM technology: {tech}")
        header = (
            f"  {'candidate':<31} {'energy uJ':>10} {'95% CI':>24} "
            f"{'kcycles':>10} {'95% CI':>24}  front"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in rows:
            lines.append(
                f"  {row['label']:<31} {row['energy_uj']:>10.1f} "
                f"{_format_ci(row['energy_ci']):>24} {row['kcycles']:>10.1f} "
                f"{_format_ci(row['kcycles_ci']):>24}  "
                f"{'*' if row['on_front'] else ''}"
            )
        lines.append(
            f"  Pareto front ({len(result['fronts'][tech])} of {len(rows)}): "
            + ", ".join(result["fronts"][tech])
        )
        lines.append("  best tuned vs paper default (energy):")
        for policy in result["policies"]:
            effect = result["effects"][tech][policy]
            lines.append(
                f"    {policy:<12} best = {effect['best_label']:<31} "
                f"saving = {effect['saving_percent']:6.2f}% "
                f"[{effect['saving_ci'][0]:6.2f}, {effect['saving_ci'][1]:6.2f}]  "
                f"d = {effect['cohens_d']:.2f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------- specs
def _pareto_grid(settings, policies):
    return [
        Job(bench, candidate_config(candidate, tech), seed)
        for tech in settings.pareto_technologies
        for policy in policies
        for candidate in policy_candidates(policy)
        for bench in settings.pareto_benchmarks
        for seed in range(settings.pareto_traces)
    ]


def _make_spec(spec_id, title, policies):
    return ExperimentSpec(
        id=spec_id,
        title=title,
        grid=lambda settings: _pareto_grid(settings, policies),
        reduce=lambda settings, fetch: _pareto_result(
            settings, fetch, policies
        ),
        render=lambda result: render_pareto(title, result),
        in_report=False,
    )


def pareto_policy_spec(policy):
    """The single-policy threshold sweep: front within one policy's
    tuning grid."""
    return _make_spec(
        f"pareto_{policy}",
        f"Pareto sweep: {policy} tunables (energy vs forward progress)",
        (policy,),
    )


def pareto_summary_spec(policies=TUNED_POLICIES):
    """The cross-policy sweep: one front over every policy's grid per
    NVM technology — the design-space map the paper's fixed thresholds
    sample."""
    return _make_spec(
        "pareto_summary",
        "Pareto summary: tuned backup policies across NVM technologies",
        tuple(policies),
    )


def pareto_specs():
    """Every Pareto spec, in registration order."""
    return [pareto_policy_spec(policy) for policy in TUNED_POLICIES] + [
        pareto_summary_spec()
    ]
