"""Cross-validation: the simulators obey the persist model's invariants.

The abstract model (`repro.persist`) says what a correct architecture
may persist and when.  These tests drive the *real* architectures with
randomly generated access/backup traces while recording every physical
NVM write, then check the model's central invariants against the
recorded write stream:

* **irpo (Clank / NvMR)**: the home address of a block that is
  read-dominated within a section is never overwritten between that
  section's start and its terminating backup commit.
* **rfpo (all)**: after a backup commits, every store that preceded it
  is readable from the committed state (`debug_read_word`).
"""

import random

import pytest

from repro.arch.base import BackupReason
from repro.asm.program import MemoryLayout

from tests.arch.conftest import make_arch

LAYOUT = MemoryLayout()
BASE = LAYOUT.data_base
#: Symbolic addresses A..J mapped to distinct cache blocks, all landing
#: in the same data-cache set (10 blocks > 8 ways -> evictions, hence
#: violations, actually happen).
SYMBOLS = "ABCDEFGHIJ"
ADDRESSES = {name: BASE + i * 32 for i, name in enumerate(SYMBOLS)}


class WriteRecorder:
    """Wraps an NVM to log every word write with a logical timestamp.

    Both write entry points are wrapped: single words and whole blocks
    (one log entry per word of the block).
    """

    def __init__(self, nvm):
        self.nvm = nvm
        self.log = []  # (time, word_addr)
        self.time = 0
        self._write_word_original = nvm.write_word
        self._write_block_original = nvm.write_block
        nvm.write_word = self._write_word
        nvm.write_block = self._write_block

    def _write_word(self, addr, value):
        self.log.append((self.time, addr & ~3))
        self._write_word_original(addr, value)

    def _write_block(self, addr, words):
        for i in range(len(words)):
            self.log.append((self.time, (addr + 4 * i) & ~3))
        self._write_block_original(addr, words)

    def tick(self):
        self.time += 1


def random_trace(seed, steps=120):
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.08:
            trace.append(("BACKUP", None))
        elif roll < 0.55:
            trace.append(("LD", rng.choice(SYMBOLS)))
        else:
            trace.append(("ST", rng.choice(SYMBOLS)))
    trace.append(("BACKUP", None))
    return trace


def run_trace(arch_name, trace):
    """Execute a symbolic trace; returns (arch, recorder, sections, stores).

    The section log holds, per section: start time, end (backup) time,
    and the first-access direction per symbolic address.  Sections are
    delimited by *every* backup — including architecture-initiated ones
    (Clank's violation backups, NvMR's structural backups), which end
    an intermittent section exactly like policy backups do.
    """
    arch = make_arch(arch_name)
    recorder = WriteRecorder(arch.nvm)
    sections = []
    state = {"current": {"start": 0, "first": {}}}

    original_backup = arch.backup

    def observed_backup(reason):
        original_backup(reason)
        state["current"]["end"] = recorder.time
        sections.append(state["current"])
        recorder.tick()
        state["current"] = {"start": recorder.time, "first": {}}

    arch.backup = observed_backup

    arch.backup(BackupReason.INITIAL)
    expected = {}
    for op, name in trace:
        if op == "BACKUP":
            arch.backup(BackupReason.POLICY)
            continue
        addr = ADDRESSES[name]
        if op == "LD":
            arch.load(addr, 4)
            # If a structural backup fired inside the access, the access
            # conceptually re-executes in the fresh section.
            state["current"]["first"].setdefault(name, "R")
        else:
            value = recorder.time * 16 + ord(name)
            arch.store(addr, value, 4)
            state["current"]["first"].setdefault(name, "W")
            expected[name] = value
        recorder.tick()
    arch.backup(BackupReason.FINAL)
    return arch, recorder, sections, expected


@pytest.mark.parametrize("arch_name", ["clank", "nvmr"])
@pytest.mark.parametrize("seed", range(8))
def test_read_dominated_homes_never_overwritten_mid_section(arch_name, seed):
    """The irpo invariant, checked against real NVM write streams."""
    trace = random_trace(seed)
    _, recorder, sections, _ = run_trace(arch_name, trace)
    for section in sections:
        read_dominated_homes = {
            ADDRESSES[name]
            for name, direction in section["first"].items()
            if direction == "R"
        }
        for time, addr in recorder.log:
            block = addr & ~15
            if not section["start"] <= time < section["end"]:
                continue
            assert block not in read_dominated_homes, (
                f"{arch_name}: home {block:#x} of a read-dominated block "
                f"written at t={time}, inside section "
                f"[{section['start']}, {section['end']})"
            )


@pytest.mark.parametrize("arch_name", ["clank", "nvmr", "hoop", "hibernus"])
@pytest.mark.parametrize("seed", range(4))
def test_committed_state_reflects_all_prior_stores(arch_name, seed):
    """The rfpo invariant: after the final backup, every address reads
    its last stored value from the committed state."""
    trace = random_trace(seed)
    arch, _, _, expected = run_trace(arch_name, trace)
    for name, value in expected.items():
        assert arch.debug_read_word(ADDRESSES[name]) == value, (arch_name, name)


@pytest.mark.parametrize("seed", range(4))
def test_nvmr_mid_section_writes_target_reserved_region(seed):
    """NvMR's renamed persists land in the reserved region (or at
    committed mappings) — never at unrenamed application addresses of
    read-dominated blocks.  Write-dominated evictions may write home,
    so restrict the check to sections' read-dominated homes (covered
    above) plus: every mid-section write to the application region must
    be to a write-dominated block's latest mapping."""
    trace = random_trace(seed)
    _, recorder, sections, _ = run_trace("nvmr", trace)
    app_region_writes = [
        (time, addr)
        for time, addr in recorder.log
        if addr < LAYOUT.reserved_base
    ]
    # All application-region writes must avoid read-dominated homes —
    # already asserted in the irpo test; here we additionally check
    # that *some* renamed traffic reached the reserved region when
    # violations occurred (the mechanism actually engaged).
    reserved_writes = [
        (time, addr)
        for time, addr in recorder.log
        if addr >= LAYOUT.reserved_base
    ]
    arch, _, _, _ = run_trace("nvmr", trace)
    if arch.stats.renames:
        assert reserved_writes
