"""Persistent on-disk run cache — the ``runs`` view of the unified store.

The in-process run cache in :mod:`repro.analysis.engine` already
shares simulations between experiments, but it dies with the process:
every experiment run, notebook restart and CI job pays for the same
(benchmark, config, trace) simulations again.  This module persists
each :class:`~repro.sim.results.RunResult` as one small JSON file so
reruns with unchanged inputs perform zero fresh simulations.

Since the unified-store refactor the mechanics — keying, atomic
writes, corruption-as-miss reads, tmp hygiene — live in
:mod:`repro.store`; this module owns only *what* goes into the key and
how a :class:`RunResult` serializes.  The on-disk layout is unchanged
(one ``<digest>.json`` per run in the cache root), so caches written
by earlier checkouts keep hitting.

Cache key
---------
A result is valid only while everything that could change it is
unchanged, so the key digests four components:

* the **program content** — SHA-256 of the benchmark's mini-C source
  text (editing a workload invalidates only that workload's entries);
* the **full configuration key** — the same
  :func:`~repro.analysis.engine._config_key` tuple the in-process
  cache uses (every architectural and policy knob);
* the **trace seed** — the synthetic harvest trace is derived
  deterministically from it;
* the **model version** — :data:`repro.MODEL_VERSION`, bumped whenever
  simulator semantics change, which wholesale-invalidates stale caches
  left by older checkouts.

Entries are written atomically (temp file + ``os.replace``) so
concurrent workers racing on the same key simply overwrite each other
with identical bytes.  Each entry carries the on-disk format version;
:func:`fetch` treats a mismatch as a miss, so a checkout that changes
the entry encoding re-records rather than misreading old files.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-nvmr``).
``REPRO_RUN_CACHE=0``
    Disable the disk cache entirely (simulations still use the
    in-process cache).
"""

import hashlib
import os
from pathlib import Path

from repro.energy.accounting import CATEGORIES, EnergyBreakdown
from repro.sim.results import RunResult
from repro.store import Store, digest

#: Bumped when the on-disk entry format itself changes.
_FORMAT_VERSION = 1

#: Primitive types allowed in a disk-cacheable config key.  A config
#: whose key contains anything else (e.g. a policy *instance*) is not
#: content-addressable and silently skips the disk layer.
_PRIMITIVES = (str, int, float, bool, type(None))


def enabled():
    """Whether the disk cache is active (``REPRO_RUN_CACHE=0`` disables)."""
    return os.environ.get("REPRO_RUN_CACHE", "1") not in ("0", "")


def cache_dir():
    """The cache directory as a :class:`~pathlib.Path` (not created)."""
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-nvmr"


def unified_store():
    """The unified :class:`repro.store.Store` rooted at the cache dir.

    The run cache is its root namespace; the trace store
    (:mod:`repro.sim.tracestore`) hangs its ``traces/{keys,blobs}``
    namespaces under the same root by default.
    """
    return Store(cache_dir())


def _runs():
    """The run namespace: ``<digest>.json`` files in the cache root."""
    return unified_store().namespace("")


def _model_version():
    from repro import MODEL_VERSION

    return MODEL_VERSION


def _program_hash(benchmark):
    """SHA-256 of the benchmark's source text, or None if unknown."""
    from repro.workloads import workload_source

    try:
        source = workload_source(benchmark)
    except ValueError:
        return None
    return hashlib.sha256(source.encode()).hexdigest()


def entry_key(benchmark, config_key, trace_seed):
    """The digest naming this run's cache file, or None if the run is
    not disk-cacheable (unknown source, non-primitive config key)."""
    if not all(isinstance(v, _PRIMITIVES) for v in config_key):
        return None
    program_hash = _program_hash(benchmark)
    if program_hash is None:
        return None
    return digest(
        {
            "format": _FORMAT_VERSION,
            "model_version": _model_version(),
            "benchmark": benchmark,
            "program": program_hash,
            "config": list(config_key),
            "trace_seed": trace_seed,
        }
    )


# ------------------------------------------------------- serialization
def _result_to_dict(result):
    return {
        "benchmark": result.benchmark,
        "arch": result.arch,
        "policy": result.policy,
        "breakdown": result.breakdown.as_dict(),
        "instructions": result.instructions,
        "active_cycles": result.active_cycles,
        "off_cycles": result.off_cycles,
        "active_periods": result.active_periods,
        "power_failures": result.power_failures,
        "shutdowns": result.shutdowns,
        "backups": result.backups,
        "backups_by_reason": result.backups_by_reason,
        "restores": result.restores,
        "violations": result.violations,
        "renames": result.renames,
        "reclaims": result.reclaims,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "nvm_reads": result.nvm_reads,
        "nvm_writes": result.nvm_writes,
        "max_wear": result.max_wear,
    }


def _result_from_dict(data):
    breakdown = EnergyBreakdown()
    for category in CATEGORIES:
        setattr(breakdown, category, data["breakdown"][category])
    fields = dict(data)
    fields["breakdown"] = breakdown
    return RunResult(**fields)


# -------------------------------------------------------------- access
def contains(benchmark, config_key, trace_seed):
    """Whether the disk cache holds this run (no load, no validation).

    Used by the engine's shard-completeness check: a shard only reduces
    once every job of the full grid is available somewhere (in-process
    or on disk).
    """
    if not enabled():
        return False
    key = entry_key(benchmark, config_key, trace_seed)
    return key is not None and _runs().contains(key)


def fetch(benchmark, config_key, trace_seed):
    """Load a cached RunResult, or None on miss/disabled/corrupt.

    An entry recorded under a different on-disk format version is a
    miss too — the ``"format"`` field every entry carries is validated
    here, so bumping :data:`_FORMAT_VERSION` re-records old entries
    instead of misreading them.
    """
    if not enabled():
        return None
    key = entry_key(benchmark, config_key, trace_seed)
    if key is None:
        return None
    data = _runs().read_json(key)
    if not isinstance(data, dict):
        return None
    if data.get("format") != _FORMAT_VERSION:
        return None  # stale entry format: a miss, never a misread
    try:
        return _result_from_dict(data["result"])
    except (KeyError, TypeError):
        return None  # stale/corrupt entry; treat as a miss


def store(benchmark, config_key, trace_seed, result):
    """Persist a RunResult; no-op if disabled or not disk-cacheable."""
    if not enabled():
        return
    key = entry_key(benchmark, config_key, trace_seed)
    if key is None:
        return
    _runs().write_json(
        key, {"format": _FORMAT_VERSION, "result": _result_to_dict(result)}
    )


def clear_disk_cache():
    """Delete every entry (and crashed-writer ``*.tmp`` dropping) in
    the cache directory; returns the number of entries removed."""
    return _runs().clear()
