"""The unified content-addressed store: keying, atomicity, corruption.

These pin the semantics every store view (run cache, trace store)
relies on: canonical keying, atomic writes that never expose partial
entries, corruption-as-miss reads, and ``*.tmp`` crash-dropping
hygiene.
"""

import json
import os

from repro.store import Namespace, Store, atomic_write, digest, sweep_tmp


# ---------------------------------------------------------------- keying
def test_digest_is_canonical_and_order_independent():
    a = digest({"x": 1, "y": [1, 2]})
    b = digest({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0
    assert digest({"x": 2, "y": [1, 2]}) != a


# ----------------------------------------------------------- namespaces
def test_namespace_json_round_trip(tmp_path):
    ns = Store(tmp_path).namespace("runs")
    assert ns.read_json("k") is None
    assert not ns.contains("k")
    ns.write_json("k", {"value": 41})
    assert ns.contains("k")
    assert ns.read_json("k") == {"value": 41}
    assert ns.keys() == ["k"]


def test_namespace_bytes_round_trip(tmp_path):
    ns = Store(tmp_path).namespace("blobs", suffix=".npz")
    ns.write_bytes("b1", b"\x00\x01payload")
    assert ns.read_bytes("b1") == b"\x00\x01payload"
    assert ns.keys() == ["b1"]
    assert ns.stats() == {"entries": 1, "bytes": 9}


def test_root_namespace_is_the_store_root(tmp_path):
    # The run cache's historical layout: entries directly in the root.
    ns = Store(tmp_path).namespace("")
    ns.write_json("entry", {"ok": True})
    assert (tmp_path / "entry.json").is_file()


def test_corrupt_json_reads_as_miss(tmp_path):
    ns = Store(tmp_path).namespace("runs")
    ns.write_json("k", {"value": 1})
    ns.path("k").write_text("{truncated")
    assert ns.read_json("k") is None  # a miss, not an exception
    # Re-recording transparently repairs the entry.
    ns.write_json("k", {"value": 2})
    assert ns.read_json("k") == {"value": 2}


def test_atomic_write_replaces_not_appends(tmp_path):
    path = tmp_path / "deep" / "entry.json"
    atomic_write(path, b"first")
    atomic_write(path, b"second")
    assert path.read_bytes() == b"second"
    # No droppings from completed writes.
    assert list(path.parent.glob("*.tmp")) == []


def test_crashed_writer_tmp_is_ignored_and_swept(tmp_path):
    ns = Store(tmp_path).namespace("runs")
    ns.write_json("good", {"ok": 1})
    # Simulate a writer that died between creating its temp file and os.replace.
    (ns.directory / "tmpdead123.tmp").write_text('{"partial": ')
    assert ns.read_json("good") == {"ok": 1}
    assert ns.keys() == ["good"]  # tmp files are invisible to key listing
    assert ns.sweep_tmp() == 1
    assert list(ns.directory.glob("*.tmp")) == []


def test_clear_removes_entries_and_tmp(tmp_path):
    ns = Store(tmp_path).namespace("runs")
    ns.write_json("a", {})
    ns.write_json("b", {})
    (ns.directory / "tmpxyz.tmp").write_text("junk")
    assert ns.clear() == 2
    assert ns.keys() == []
    assert list(ns.directory.glob("*.tmp")) == []


def test_store_sweep_is_recursive(tmp_path):
    store = Store(tmp_path)
    store.namespace("traces/keys").write_json("k", {})
    (tmp_path / "tmproot.tmp").write_text("x")
    (tmp_path / "traces" / "keys" / "tmpnested.tmp").write_text("y")
    assert store.sweep_tmp() == 2
    assert store.namespace("traces/keys").read_json("k") == {}


def test_missing_directories_are_benign(tmp_path):
    ns = Namespace(tmp_path / "never-created")
    assert ns.keys() == []
    assert ns.clear() == 0
    assert ns.stats() == {"entries": 0, "bytes": 0}
    assert sweep_tmp(tmp_path / "nope") == 0
    assert Store(tmp_path / "nope").sweep_tmp() == 0


def test_atomic_write_failure_leaves_no_droppings(tmp_path, monkeypatch):
    ns = Store(tmp_path).namespace("runs")
    ns.write_json("seed", {})  # ensure the directory exists

    real_replace = os.replace

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    try:
        ns.write_json("k", {"v": 1})
    except OSError:
        pass
    monkeypatch.setattr(os, "replace", real_replace)
    assert not ns.contains("k")
    assert list(ns.directory.glob("*.tmp")) == []  # unlinked on failure
