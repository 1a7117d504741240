"""Content-addressed on-disk store for recorded execution traces.

The ``traces`` view of the unified store (:mod:`repro.store`): where
the run-cache namespace memoizes one *(benchmark, config, seed)*
result, the trace namespaces memoize the far more expensive raw
ingredient — the program's natural instruction stream — which every
configuration of a sweep shares.  Keying, atomic writes,
corruption-as-miss reads and tmp hygiene are the store's; this module
owns the trace key material and the npz payload encoding.

Layout
------
Two namespaces, like a tiny object store (unchanged since PR 4, so
stores written by earlier checkouts keep hitting):

``blobs/<content-digest>.npz``
    The trace payload, named by the SHA-256 of its array contents.
    A program's natural execution does not depend on the harvest
    trace seed, so the key entries for every seed of a program point
    at the *same* blob — stored once.

``keys/<key-digest>.json``
    The lookup entry for one ``(program hash, seed, TRACE_VERSION)``
    triple, recording which blob it resolves to.  The digest covers
    :data:`~repro.sim.trace.TRACE_VERSION`, so a checkout with a newer
    trace encoding simply misses old entries — stale-version traces
    are ignored, never silently replayed.  Blob payloads additionally
    carry their version and are re-validated on load.

Writes are atomic (temp file + ``os.replace``), so concurrent workers
racing on a key overwrite each other with identical bytes.

The store lives at ``<REPRO_CACHE_DIR>/traces`` and shares the run
cache's ``REPRO_RUN_CACHE=0`` switch: traces are then still recorded
in-process; they just aren't persisted.
"""

import hashlib
import io
import json
import zipfile

import numpy as np

from repro.analysis import runcache
from repro.sim.trace import TRACE_VERSION, ExecutionTrace
from repro.store import Store, digest

#: Bumped when the on-disk layout itself (not the trace semantics)
#: changes.
_FORMAT_VERSION = 1


def enabled():
    """The store shares the run cache's kill switch."""
    return runcache.enabled()


def store_dir():
    """The trace store directory as a :class:`~pathlib.Path`."""
    return runcache.cache_dir() / "traces"


def _store():
    return Store(store_dir())


def _keys():
    return _store().namespace("keys")


def _blobs():
    return _store().namespace("blobs", suffix=".npz")


def program_hash(benchmark):
    """SHA-256 of the benchmark's source (None for unknown workloads)."""
    return runcache._program_hash(benchmark)


def entry_key(program_hash, trace_seed):
    """Digest naming the key file for one (program, seed, version)."""
    return digest(
        {
            "format": _FORMAT_VERSION,
            "trace_version": TRACE_VERSION,
            "program": program_hash,
            "trace_seed": trace_seed,
        }
    )


# ------------------------------------------------------- serialization
def _trace_to_bytes(trace):
    buffer = io.BytesIO()
    arrays = {
        "meta": np.asarray(
            [trace.version, trace.steps, int(trace.halted)], dtype=np.int64
        ),
        "indices": trace.indices,
        "mem_addrs": trace.mem_addrs,
        "store_values": trace.store_values,
    }
    if trace.cycles is not None:
        arrays["cycles"] = trace.cycles
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _trace_from_bytes(data):
    with np.load(io.BytesIO(data)) as archive:
        meta = archive["meta"]
        version, steps, halted = (int(v) for v in meta)
        if version != TRACE_VERSION:
            return None  # stale encoding: a miss, never a silent replay
        return ExecutionTrace(
            version=version,
            steps=steps,
            halted=bool(halted),
            indices=archive["indices"],
            mem_addrs=archive["mem_addrs"],
            store_values=archive["store_values"],
            cycles=archive["cycles"] if "cycles" in archive.files else None,
        )


# -------------------------------------------------------------- access
def contains(program_hash, trace_seed):
    """Whether the store holds a current-version trace for this key."""
    if not enabled() or program_hash is None:
        return False
    entry = _keys().read_json(entry_key(program_hash, trace_seed))
    if not isinstance(entry, dict):
        return False
    return (
        entry.get("version") == TRACE_VERSION
        and isinstance(entry.get("blob"), str)
        and _blobs().contains(entry["blob"])
    )


def fetch(program_hash, trace_seed):
    """Load a stored trace, or None on miss/disabled/stale/corrupt."""
    if not enabled() or program_hash is None:
        return None
    entry = _keys().read_json(entry_key(program_hash, trace_seed))
    if not isinstance(entry, dict):
        return None
    if entry.get("version") != TRACE_VERSION:
        return None
    blob = entry.get("blob")
    if not isinstance(blob, str):
        return None
    data = _blobs().read_bytes(blob)
    if data is None:
        return None
    try:
        return _trace_from_bytes(data)
    except (KeyError, ValueError, OSError, zipfile.BadZipFile):
        return None  # corrupt blob; treat as a miss


def _blob_is_intact(blobs, blob_digest):
    """Whether an existing blob actually decodes to a trace.

    Existence alone is not enough to skip the write: a blob truncated
    by external corruption would otherwise sit under its
    content-addressed name forever, turning every future lookup into
    a miss.  Store is the slow path (one simulate already happened),
    so validating by decoding is cheap relative to what it saves."""
    data = blobs.read_bytes(blob_digest)
    if data is None:
        return False
    try:
        return _trace_from_bytes(data) is not None
    except (KeyError, ValueError, OSError, zipfile.BadZipFile):
        return False


def store(program_hash, trace_seed, trace):
    """Persist a trace; no-op if disabled or the program is unknown."""
    if not enabled() or program_hash is None:
        return
    blob_digest = hashlib.sha256(trace.digest_material()).hexdigest()
    blobs = _blobs()
    if not _blob_is_intact(blobs, blob_digest):  # dedup across seeds
        blobs.write_bytes(blob_digest, _trace_to_bytes(trace))
    _keys().write_json(
        entry_key(program_hash, trace_seed),
        {
            "format": _FORMAT_VERSION,
            "version": trace.version,
            "program": program_hash,
            "trace_seed": trace_seed,
            "blob": blob_digest,
        },
    )


def clear_store():
    """Delete every key and blob (plus crashed-writer ``*.tmp``
    droppings); returns the number of entries removed."""
    return _keys().clear() + _blobs().clear()


def prune_stale():
    """Evict entries whose recorded version is stale and blobs no key
    references; returns the number of files removed."""
    removed = 0
    keys = _keys()
    live_blobs = set()
    for key in keys.keys():
        entry = keys.read_json(key)
        if isinstance(entry, dict) and entry.get("version") == TRACE_VERSION:
            blob = entry.get("blob")
            if isinstance(blob, str):
                live_blobs.add(blob)
            continue
        try:
            keys.path(key).unlink()
            removed += 1
        except OSError:
            pass
    blobs = _blobs()
    for blob in blobs.keys():
        if blob in live_blobs:
            continue
        try:
            blobs.path(blob).unlink()
            removed += 1
        except OSError:
            pass
    removed += _store().sweep_tmp()
    return removed
