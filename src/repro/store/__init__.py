"""Unified content-addressed store for results, traces and artifacts.

The repo grew three ad-hoc disk layouts — the run cache
(:mod:`repro.analysis.runcache`), the trace store
(:mod:`repro.sim.tracestore`) and the experiment artifacts — each with
its own keying, atomic-write and corruption handling.  This package
factors the shared mechanics into one place: a :class:`Store` rooted at
a directory, holding named :class:`Namespace`\\ s whose entries are
content-addressed files.  The run cache and the trace store are now
*views* over namespaces of one store (their on-disk layouts are
unchanged, so existing caches keep hitting), and the simulation service
(:mod:`repro.service`) reports and serves the same store.

Semantics shared by every namespace
-----------------------------------
* **keying** — :func:`digest` hashes a canonical-JSON *material*
  mapping (sorted keys), so a key covers exactly the fields its caller
  lists and nothing else;
* **atomic writes** — entries land via temp file + ``os.replace``;
  concurrent writers racing on a key overwrite each other with
  identical bytes, and a crashed writer leaves only a ``*.tmp`` file
  that readers never consult;
* **corruption as miss** — a truncated, garbage or unreadable entry
  reads as ``None`` (a miss), never an exception; the caller simply
  recomputes and re-records it;
* **tmp hygiene** — ``*.tmp`` droppings from crashed writers are
  ignored by reads and swept by :meth:`Namespace.sweep_tmp` /
  :meth:`Namespace.clear` (the clear paths of the run cache and trace
  store call it).
"""

import hashlib
import json
import os
import secrets
from pathlib import Path

__all__ = [
    "Namespace",
    "Store",
    "atomic_write",
    "digest",
    "sweep_tmp",
]


def digest(material):
    """SHA-256 of the canonical JSON encoding of ``material``.

    ``material`` must be a JSON-encodable mapping; sorted keys make the
    digest independent of insertion order.  This is the one keying
    function every namespace shares — the run cache and trace store
    differ only in which fields they put in the material.
    """
    encoded = json.dumps(material, sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def atomic_write(path, data):
    """Write ``data`` (bytes) to ``path`` atomically.

    The bytes go to a temp file in the same directory and are renamed
    into place, so readers only ever see complete entries; a writer
    that dies mid-write leaves a ``*.tmp`` file that reads ignore and
    :func:`sweep_tmp` cleans.
    """
    path = Path(path)
    # Created exclusively with the mode a plain open() gives (0o666 less
    # the umask), which os.replace keeps; mkstemp would make it 0o600.
    # Bare os calls, and mkdir only when the directory is missing: the
    # service writes two files per /experiment request, and every extra
    # system call there lengthens the round trip measurably.
    tmp = path.parent / f"tmp{secrets.token_hex(8)}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sweep_tmp(directory):
    """Remove crashed-writer ``*.tmp`` droppings; returns the count."""
    directory = Path(directory)
    removed = 0
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.tmp"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class Namespace:
    """One keyspace of a store: a directory of ``<key><suffix>`` files.

    Reads are corruption-as-miss; writes are atomic.  ``suffix``
    selects the payload kind (``".json"`` for structured entries,
    anything else treated as raw bytes).
    """

    def __init__(self, directory, suffix=".json"):
        self.directory = Path(directory)
        self.suffix = suffix

    def path(self, key):
        return self.directory / f"{key}{self.suffix}"

    def contains(self, key):
        """Whether an entry file exists (no load, no validation)."""
        return self.path(key).is_file()

    def read_bytes(self, key):
        """The entry's raw bytes, or None on miss/unreadable."""
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def read_json(self, key):
        """The entry decoded as JSON, or None on miss/garbage.

        Truncated or non-JSON content is a miss, never an exception —
        the caller recomputes and re-records the entry.
        """
        data = self.read_bytes(key)
        if data is None:
            return None
        try:
            return json.loads(data)
        except ValueError:
            return None

    def write_bytes(self, key, data):
        """Atomically persist raw bytes under ``key``."""
        atomic_write(self.path(key), data)

    def write_json(self, key, obj, **dumps_kwargs):
        """Atomically persist ``obj`` as canonical (sorted-key) JSON."""
        dumps_kwargs.setdefault("sort_keys", True)
        atomic_write(self.path(key), json.dumps(obj, **dumps_kwargs).encode())

    def keys(self):
        """Every key with an entry file, sorted (tmp files excluded)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path.name[: -len(self.suffix)]
            for path in self.directory.glob(f"*{self.suffix}")
        )

    def sweep_tmp(self):
        """Remove crashed-writer droppings in this namespace."""
        return sweep_tmp(self.directory)

    def clear(self):
        """Delete every entry (and tmp dropping); returns entries removed."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.glob(f"*{self.suffix}"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.sweep_tmp()
        return removed

    def stats(self):
        """Entry count and total payload bytes (for service `/status`)."""
        entries = 0
        size = 0
        if self.directory.is_dir():
            for path in self.directory.glob(f"*{self.suffix}"):
                try:
                    size += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return {"entries": entries, "bytes": size}


class Store:
    """A rooted collection of namespaces.

    ``namespace("")`` is the root directory itself (the historical run
    cache layout); ``namespace("traces/keys")`` etc. are
    subdirectories.  Namespaces are cheap value objects — a Store holds
    no open files or locks.
    """

    def __init__(self, root):
        self.root = Path(root)

    def namespace(self, name="", suffix=".json"):
        directory = self.root / name if name else self.root
        return Namespace(directory, suffix=suffix)

    def sweep_tmp(self):
        """Sweep crashed-writer droppings across the whole tree."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for directory in {self.root, *[
            p for p in self.root.rglob("*") if p.is_dir()
        ]}:
            removed += sweep_tmp(directory)
        return removed
