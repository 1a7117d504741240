"""The content-addressed on-disk trace store."""

import json
import zipfile

import numpy as np
import pytest

from repro.energy.traces import HarvestTrace
from repro.sim import epochs, tracestore
from repro.sim.platform import PlatformConfig
from repro.sim.replay import ReplayPlatform, get_image
from repro.sim.trace import TRACE_VERSION, record_trace
from repro.workloads import load_program


@pytest.fixture
def store(monkeypatch, tmp_path):
    """An enabled, empty store in a per-test directory."""
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache" / "traces"


@pytest.fixture(scope="module")
def hist_trace():
    return record_trace(load_program("hist"))


def test_roundtrip_preserves_trace(store, hist_trace):
    phash = tracestore.program_hash("hist")
    assert tracestore.fetch(phash, 0) is None
    tracestore.store(phash, 0, hist_trace)
    assert tracestore.contains(phash, 0)
    loaded = tracestore.fetch(phash, 0)
    assert loaded.version == hist_trace.version
    assert loaded.steps == hist_trace.steps
    assert loaded.halted == hist_trace.halted
    assert (loaded.indices == hist_trace.indices).all()
    assert (loaded.mem_addrs == hist_trace.mem_addrs).all()
    assert (loaded.store_values == hist_trace.store_values).all()


def test_keyed_by_program_seed_and_version(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    # Other seeds and other programs are distinct keys.
    assert not tracestore.contains(phash, 1)
    assert tracestore.fetch(phash, 1) is None
    assert not tracestore.contains("0" * 64, 0)
    # The key digest covers TRACE_VERSION: the same (program, seed)
    # resolves differently under a different encoding version.
    assert tracestore.entry_key(phash, 0) != tracestore.entry_key(phash, 1)
    material = json.loads(
        (store / "keys" / f"{tracestore.entry_key(phash, 0)}.json").read_text()
    )
    assert material["version"] == TRACE_VERSION


def test_blob_shared_across_seeds(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    tracestore.store(phash, 7, hist_trace)
    assert tracestore.contains(phash, 7)
    # Two key entries, one content-addressed blob.
    assert len(list((store / "keys").glob("*.json"))) == 2
    assert len(list((store / "blobs").glob("*.npz"))) == 1


def test_stale_version_entries_are_ignored(store, hist_trace, monkeypatch):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    key_path = store / "keys" / f"{tracestore.entry_key(phash, 0)}.json"
    entry = json.loads(key_path.read_text())

    # A key entry recording an older trace version is a miss even if
    # the digest were to collide.
    entry["version"] = TRACE_VERSION - 1
    key_path.write_text(json.dumps(entry))
    assert not tracestore.contains(phash, 0)
    assert tracestore.fetch(phash, 0) is None

    # A blob whose embedded version is stale is likewise never
    # silently replayed.
    entry["version"] = TRACE_VERSION
    key_path.write_text(json.dumps(entry))
    monkeypatch.setattr(tracestore, "TRACE_VERSION", TRACE_VERSION + 1)
    assert tracestore.fetch(phash, 0) is None


def test_corrupt_artifacts_read_as_misses(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    key_path = store / "keys" / f"{tracestore.entry_key(phash, 0)}.json"
    blob = json.loads(key_path.read_text())["blob"]

    (store / "blobs" / f"{blob}.npz").write_bytes(b"not an npz")
    assert tracestore.fetch(phash, 0) is None

    key_path.write_text("{malformed")
    assert not tracestore.contains(phash, 0)
    assert tracestore.fetch(phash, 0) is None


def test_corrupt_entries_are_transparently_rerecorded(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    key_path = store / "keys" / f"{tracestore.entry_key(phash, 0)}.json"
    blob = json.loads(key_path.read_text())["blob"]
    blob_path = store / "blobs" / f"{blob}.npz"
    intact_key, intact_blob = key_path.read_text(), blob_path.read_bytes()

    # Truncate both halves of the entry (a crashed non-atomic writer
    # could never produce this — atomic_write makes it unreachable —
    # but external corruption can).  Both read as misses...
    blob_path.write_bytes(intact_blob[: len(intact_blob) // 2])
    key_path.write_text(intact_key[: len(intact_key) // 2])
    assert tracestore.fetch(phash, 0) is None
    # ...and re-storing repairs them in place: the key entry is
    # byte-identical (the blob digest covers trace *content*, so the
    # repaired pair lands under the same names; npz container bytes
    # embed zip timestamps and are only semantically stable).
    tracestore.store(phash, 0, hist_trace)
    assert key_path.read_text() == intact_key
    assert len(blob_path.read_bytes()) == len(intact_blob)
    restored = tracestore.fetch(phash, 0)
    assert restored.steps == hist_trace.steps
    assert (restored.indices == hist_trace.indices).all()


def test_crashed_writer_tmp_is_ignored_and_cleaned(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    key_dropping = store / "keys" / "tmpdead1.tmp"
    blob_dropping = store / "blobs" / "tmpdead2.tmp"
    key_dropping.write_text('{"version": ')
    blob_dropping.write_bytes(b"PK\x03half an npz")
    # Droppings are invisible to lookups and prune keeps live entries...
    assert tracestore.contains(phash, 0)
    assert tracestore.prune_stale() == 2  # ...but sweeps the droppings.
    assert not key_dropping.exists()
    assert not blob_dropping.exists()
    assert tracestore.contains(phash, 0)
    # clear_store sweeps droppings too.
    (store / "keys" / "tmpdead3.tmp").write_text("x")
    assert tracestore.clear_store() == 2
    assert list((store / "keys").glob("*.tmp")) == []


def test_prune_stale_evicts_old_entries_and_orphans(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    tracestore.store(phash, 1, hist_trace)
    key_path = store / "keys" / f"{tracestore.entry_key(phash, 1)}.json"
    entry = json.loads(key_path.read_text())
    entry["version"] = TRACE_VERSION - 1
    key_path.write_text(json.dumps(entry))
    orphan = store / "blobs" / ("f" * 64 + ".npz")
    orphan.write_bytes(b"orphan")

    removed = tracestore.prune_stale()
    # The stale key and the unreferenced blob go; the live pair stays.
    assert removed == 2
    assert tracestore.contains(phash, 0)
    assert not key_path.exists()
    assert not orphan.exists()


def test_clear_store_removes_everything(store, hist_trace):
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    assert tracestore.clear_store() == 2
    assert not tracestore.contains(phash, 0)


def test_disabled_store_is_inert(store, hist_trace, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", "0")
    phash = tracestore.program_hash("hist")
    tracestore.store(phash, 0, hist_trace)
    assert not tracestore.contains(phash, 0)
    assert tracestore.fetch(phash, 0) is None
    assert not (store / "keys").exists()


# ------------------------------------------- corrupted script == miss
def test_corrupted_script_reads_as_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    key = epochs.script_key("deadbeef", (1, 2, 3), (1.0, 2.0, 3.0, None, None))
    path = epochs._scripts().path(key)
    # Absent entry: a miss.
    assert epochs.fetch_script("deadbeef", (1, 2, 3),
                               (1.0, 2.0, 3.0, None, None)) is None
    path.parent.mkdir(parents=True, exist_ok=True)
    # Garbage bytes: not a zip at all.
    path.write_bytes(b"\x00garbage\xff" * 64)
    assert epochs.fetch_script("deadbeef", (1, 2, 3),
                               (1.0, 2.0, 3.0, None, None)) is None
    # A valid zip with the wrong member set: still a miss, not a crash.
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("not_a_script.txt", "hello")
    assert epochs.fetch_script("deadbeef", (1, 2, 3),
                               (1.0, 2.0, 3.0, None, None)) is None
    # A stale version stamp: rebuilt, never silently replayed.
    buf_path = tmp_path / "stale.npz"
    np.savez(buf_path, meta=np.asarray([epochs.EPOCH_SCRIPT_VERSION + 1,
                                        0, 0, 0, 0], dtype=np.int64))
    path.write_bytes(buf_path.read_bytes())
    assert epochs.fetch_script("deadbeef", (1, 2, 3),
                               (1.0, 2.0, 3.0, None, None)) is None


def test_corrupted_store_rebuilds_bit_identically(tmp_path, monkeypatch):
    """End to end: poison every stored script mid-sweep; the rebuilt
    compiled replay must still match the scalar replay bit for bit."""
    monkeypatch.setenv("REPRO_RUN_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    program = load_program("hist")
    image = get_image("hist")
    # Earlier tests may have populated the image's in-memory script LRU
    # under the real store; drop it so this run goes through the
    # redirected disk store.
    image._epoch_scripts.clear()
    config = PlatformConfig(arch="nvmr", policy="jit")

    def run(compiled):
        platform = ReplayPlatform(
            program, image, config, trace=HarvestTrace(0),
            benchmark_name="hist", compiled=compiled,
        )
        return platform.run(), platform

    scalar_result, scalar_platform = run(False)
    first_result, _ = run(True)
    script_files = list((tmp_path / "cache" / "traces").rglob("*.npz"))
    assert script_files  # the run persisted at least one script
    for stored in script_files:
        stored.write_bytes(b"PK\x03\x04 not really")
    image._epoch_scripts.clear()  # drop the in-memory LRU too
    second_result, second_platform = run(True)
    for name in scalar_result.__dataclass_fields__:
        assert getattr(second_result, name) == getattr(first_result, name)
        assert getattr(second_result, name) == getattr(scalar_result, name)
    assert second_platform.nvm._words == scalar_platform.nvm._words
