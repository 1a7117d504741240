"""Harness for driving architectures directly, without a full platform."""

import pytest

from repro.arch.clank import ClankArchitecture
from repro.arch.clank_original import OriginalClankArchitecture
from repro.arch.hibernus import HibernusArchitecture
from repro.arch.hoop import HoopArchitecture
from repro.arch.ideal import IdealArchitecture
from repro.arch.nvmr import NvmrArchitecture
from repro.asm.program import MemoryLayout
from repro.cpu.core import Core
from repro.cpu.state import RegisterFile
from repro.energy.accounting import EnergyLedger
from repro.energy.capacitor import Supercapacitor
from repro.energy.model import EnergyModel
from repro.mem.nvm import NvmFlash


class FakeCore:
    """Just enough of a Core for backup/restore: a register file and
    the core's checkpoint payload methods."""

    checkpoint = Core.checkpoint
    resume = Core.resume

    def __init__(self):
        self.rf = RegisterFile()
        self.halted = False


ARCH_CLASSES = {
    "ideal": IdealArchitecture,
    "clank": ClankArchitecture,
    "clank_original": OriginalClankArchitecture,
    "hibernus": HibernusArchitecture,
    "nvmr": NvmrArchitecture,
    "hoop": HoopArchitecture,
}


def make_arch(name, capacity=1e12, layout=None, **kwargs):
    """Build an architecture wired to a fake core and big capacitor."""
    layout = layout or MemoryLayout()
    nvm = NvmFlash(layout.flash_size)
    ledger = EnergyLedger(Supercapacitor(capacity))
    arch = ARCH_CLASSES[name](nvm, ledger, EnergyModel(), layout, **kwargs)
    core = FakeCore()
    arch.attach_core(core)
    return arch


@pytest.fixture
def data_base():
    return MemoryLayout().data_base


def store_word(arch, addr, value):
    arch.store(addr, value, 4)


def load_word(arch, addr):
    return arch.load(addr, 4)[0]
