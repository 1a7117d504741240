"""Benchmark registry: compilation, reference outputs and verification.

Programs and reference outputs are cached per process — experiment
sweeps re-run the same benchmark under dozens of configurations, and
recompiling each time would dominate runtime.
"""

from pathlib import Path

from repro.energy.traces import HarvestTrace
from repro.minicc import compile_minic
from repro.sim.platform import Platform, PlatformConfig
from repro.workloads.references import REFERENCES

_SOURCE_DIR = Path(__file__).parent / "sources"

#: Benchmark name -> mini-C source file (paper Section 5.3's ten).
BENCHMARKS = {
    "adpcm_encode": "adpcm_encode.mc",
    "basicmath": "basicmath.mc",
    "blowfish": "blowfish.mc",
    "dijkstra": "dijkstra.mc",
    "picojpeg": "picojpeg.mc",
    "qsort": "qsort.mc",
    "stringsearch": "stringsearch.mc",
    "2dconv": "conv2d.mc",
    "dwt": "dwt.mc",
    "hist": "hist.mc",
}

_program_cache = {}
_reference_cache = {}
#: User-registered workloads: name -> (source_text, reference_fn).
_custom_workloads = {}
#: Bumped by every (un)registration, so holders of forked state (the
#: scheduler's worker pool) can tell that the registry moved on.
_generation = 0


def registry_generation():
    """How many times the user-registered workload set has changed."""
    return _generation


def register_workload(name, source, reference_fn):
    """Register a user-defined benchmark.

    Parameters
    ----------
    name:
        Registry name (must not collide with the paper's ten).
    source:
        mini-C source text.
    reference_fn:
        Zero-argument callable returning the expected outputs as
        ``{symbol: [u32 words]}`` — the same contract as
        :mod:`repro.workloads.references`.  Intermittent runs of the
        workload are verified against it like any built-in benchmark.

    Example
    -------
    >>> from repro.workloads import register_workload, run_workload
    >>> register_workload(
    ...     "triple",
    ...     "int out[1]; int main() { out[0] = 14 * 3; return 0; }",
    ...     lambda: {"g_out": [42]},
    ... )
    >>> run_workload("triple", arch="nvmr").benchmark
    'triple'
    """
    global _generation
    if name in BENCHMARKS or name in _custom_workloads:
        raise ValueError(f"workload {name!r} already registered")
    _custom_workloads[name] = (source, reference_fn)
    _generation += 1
    return name


def unregister_workload(name):
    """Remove a user-registered workload (built-ins cannot be removed)."""
    global _generation
    if name not in _custom_workloads:
        raise ValueError(f"{name!r} is not a user-registered workload")
    del _custom_workloads[name]
    _generation += 1
    _program_cache.pop(name, None)
    _reference_cache.pop(name, None)


class OutputMismatch(AssertionError):
    """An intermittent run produced outputs that differ from the
    continuous reference — a correctness failure of the architecture."""


def workload_source(name):
    """The mini-C source text of benchmark ``name``."""
    if name in _custom_workloads:
        return _custom_workloads[name][0]
    try:
        filename = BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; options: "
            f"{sorted(BENCHMARKS) + sorted(_custom_workloads)}"
        ) from None
    return (_SOURCE_DIR / filename).read_text()


def load_program(name):
    """Compile (and cache) benchmark ``name``."""
    if name not in _program_cache:
        _program_cache[name] = compile_minic(workload_source(name))
    return _program_cache[name]


def reference_outputs(name):
    """The benchmark's expected outputs: ``{symbol: [u32 words]}``."""
    if name not in _reference_cache:
        if name in _custom_workloads:
            _reference_cache[name] = _custom_workloads[name][1]()
        else:
            _reference_cache[name] = REFERENCES[name]()
    return _reference_cache[name]


def verify_platform(name, platform):
    """Compare a finished platform's memory against the reference."""
    program = platform.program
    expected = reference_outputs(name)
    for symbol, words in expected.items():
        base = program.symbol(symbol)
        got = platform.read_words(base, len(words))
        if got != words:
            for i, (g, w) in enumerate(zip(got, words)):
                if g != w:
                    raise OutputMismatch(
                        f"{name}: {symbol}[{i}] = {g:#x}, expected {w:#x} "
                        f"(arch={platform.config.arch}, "
                        f"policy={platform.config.policy})"
                    )
            raise OutputMismatch(f"{name}: {symbol} length mismatch")


def run_workload(
    name,
    arch="nvmr",
    policy="jit",
    trace_seed=0,
    trace=None,
    config=None,
    verify=True,
    **config_overrides,
):
    """Run benchmark ``name`` on an intermittent platform.

    Returns the :class:`~repro.sim.results.RunResult`.  When ``verify``
    is true (default) the final NVM contents are checked against the
    Python reference model; the Ideal architecture is exempt under
    failure-inducing policies because it is intentionally not
    crash-consistent (it exists to count violations, Table 3).
    """
    program = load_program(name)
    if config is None:
        config = PlatformConfig(arch=arch, policy=policy, **config_overrides)
    if trace is None:
        trace = HarvestTrace(trace_seed)
    platform = Platform(program, config, trace=trace, benchmark_name=name)
    result = platform.run()
    if verify and config.arch != "ideal":
        verify_platform(name, platform)
    return result
