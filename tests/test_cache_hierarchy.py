"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import MonitorError
from repro.core.config import corruption_only_config
from repro.core.safemem import SafeMem
from repro.ecc.controller import MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError
from repro.machine.machine import Machine
from repro.machine.program import Program

LINE = bytes(range(CACHE_LINE_SIZE))
BASE = 0x4000_0000


@pytest.fixture
def controller():
    return MemoryController(PhysicalMemory(1024 * 1024))


@pytest.fixture
def hierarchy(controller):
    return CacheHierarchy(controller, l1_size=2 * 1024, l1_ways=2,
                          l2_size=16 * 1024, l2_ways=4)


class TestHierarchyBasics:
    def test_load_store_roundtrip(self, hierarchy):
        hierarchy.store(100, b"two levels")
        assert hierarchy.load(100, 10) == b"two levels"

    def test_l1_hit_after_fill(self, hierarchy):
        hierarchy.load(0, 8)
        l1_hits_before = hierarchy.l1.hits
        hierarchy.load(8, 8)
        assert hierarchy.l1.hits == l1_hits_before + 1

    def test_l1_victim_lands_in_l2(self, controller):
        hierarchy = CacheHierarchy(controller,
                                   l1_size=2 * CACHE_LINE_SIZE,
                                   l1_ways=1, l2_size=16 * 1024,
                                   l2_ways=4)
        # Two conflicting L1 addresses (same set, 2-set L1).
        stride = 2 * CACHE_LINE_SIZE
        hierarchy.store(0, b"victim data")
        hierarchy.load(stride, 8)   # evicts line 0 from L1 into L2
        assert not hierarchy.l1.contains(0)
        assert hierarchy.l2.contains(0)
        assert hierarchy.load(0, 11) == b"victim data"

    def test_dirty_data_reaches_dram_only_after_both_levels(
            self, controller, hierarchy):
        hierarchy.store(0, b"deep")
        assert controller.dram.read_raw(0, 4) != b"deep"
        hierarchy.flush_line(0)
        assert controller.dram.read_raw(0, 4) == b"deep"

    def test_flush_removes_from_both_levels(self, hierarchy):
        hierarchy.store(0, b"x")
        hierarchy.flush_line(0)
        assert not hierarchy.l1.contains(0)
        assert not hierarchy.l2.contains(0)
        assert not hierarchy.contains(0)

    def test_level_stats(self, hierarchy):
        hierarchy.load(0, 8)
        hierarchy.load(0, 8)
        stats = hierarchy.level_stats()
        assert stats["l1_misses"] == 1
        assert stats["l1_hits"] == 1
        assert stats["l2_misses"] == 1


class TestHierarchyEcc:
    def _arm(self, controller, line_addr):
        controller.write_line(line_addr, LINE)
        controller.lock_bus()
        controller.disable_ecc()
        controller.write_line(line_addr, controller.codec.scramble_bytes(LINE))
        controller.enable_ecc()
        controller.unlock_bus()

    def test_armed_line_faults_through_both_levels(self, controller,
                                                   hierarchy):
        self._arm(controller, 0)
        with pytest.raises(UncorrectableEccError):
            hierarchy.load(0, 8)
        # Nothing was installed in either level.
        assert not hierarchy.contains(0)

    def test_line_cached_in_l2_filters_the_watchpoint(self, controller):
        """The cache-filtering hazard exists at EVERY level: a line
        resident only in L2 still never reaches memory."""
        hierarchy = CacheHierarchy(controller,
                                   l1_size=2 * CACHE_LINE_SIZE,
                                   l1_ways=1, l2_size=16 * 1024,
                                   l2_ways=4)
        controller.write_line(0, LINE)
        hierarchy.load(0, 8)
        hierarchy.load(2 * CACHE_LINE_SIZE, 8)  # evict 0 from L1 to L2
        assert hierarchy.l2.contains(0)
        self._arm(controller, 0)
        # No fault: served from L2.
        assert hierarchy.load(0, 8) == LINE[:8]


class TestMachineWithHierarchy:
    def test_machine_boots_with_two_levels(self):
        machine = Machine(dram_size=4 * 1024 * 1024, cache_levels=2)
        machine.kernel.mmap(BASE, PAGE_SIZE)
        machine.store(BASE, b"hierarchical")
        assert machine.load(BASE, 12) == b"hierarchical"
        assert isinstance(machine.cache, CacheHierarchy)

    def test_safemem_works_over_hierarchy(self):
        """End to end: guards fire with two cache levels because
        WatchMemory's flush walks both."""
        machine = Machine(dram_size=8 * 1024 * 1024, cache_levels=2)
        safemem = SafeMem(corruption_only_config())
        program = Program(machine, monitor=safemem,
                          heap_size=2 * 1024 * 1024)
        buf = program.malloc(64)
        program.store(buf, b"guarded")
        with pytest.raises(MonitorError):
            program.store(buf + 64, b"!")
        program_free_ok = program.load(buf, 7)
        assert program_free_ok == b"guarded"

    def test_single_level_still_default(self):
        machine = Machine(dram_size=4 * 1024 * 1024)
        assert isinstance(machine.cache, Cache)
