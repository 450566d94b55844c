"""Tests for the set-associative write-back cache."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.constants import CACHE_LINE_SIZE
from repro.common.costs import default_cost_model
from repro.common.errors import ConfigurationError
from repro.cache.cache import Cache
from repro.ecc.controller import MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import UncorrectableEccError

LINE = bytes(range(CACHE_LINE_SIZE))


@pytest.fixture
def controller():
    return MemoryController(PhysicalMemory(1024 * 1024))


@pytest.fixture
def cache(controller):
    return Cache(controller, size=8 * 1024, ways=2)


class TestBasics:
    def test_size_must_divide_into_sets(self, controller):
        with pytest.raises(ConfigurationError):
            Cache(controller, size=1000, ways=3)

    def test_load_miss_then_hit(self, cache, controller):
        controller.write_line(0, LINE)
        assert cache.load(0, 16) == LINE[:16]
        assert cache.misses == 1
        assert cache.load(16, 16) == LINE[16:32]
        assert cache.hits == 1

    def test_store_then_load_back(self, cache):
        cache.store(100, b"xyz")
        assert cache.load(100, 3) == b"xyz"

    def test_access_spanning_lines(self, cache, controller):
        controller.write_line(0, LINE)
        controller.write_line(CACHE_LINE_SIZE, LINE)
        data = cache.load(CACHE_LINE_SIZE - 4, 8)
        assert data == LINE[-4:] + LINE[:4]
        assert cache.misses == 2

    def test_store_spanning_lines(self, cache):
        payload = bytes(range(100, 120))
        cache.store(CACHE_LINE_SIZE - 10, payload)
        assert cache.load(CACHE_LINE_SIZE - 10, 20) == payload


class TestWriteBack:
    def test_dirty_line_not_in_dram_until_writeback(self, cache, controller):
        cache.store(0, b"dirty!")
        assert controller.dram.read_raw(0, 6) != b"dirty!"
        cache.flush_line(0)
        assert controller.dram.read_raw(0, 6) == b"dirty!"

    def test_flush_invalidates(self, cache):
        cache.store(0, b"abc")
        cache.flush_line(0)
        assert not cache.contains(0)

    def test_clean_flush_skips_writeback(self, cache, controller):
        controller.write_line(0, LINE)
        cache.load(0, 8)
        writebacks_before = cache.writebacks
        cache.flush_line(0)
        assert cache.writebacks == writebacks_before

    def test_eviction_writes_back_dirty_victim(self, controller):
        cache = Cache(controller, size=2 * CACHE_LINE_SIZE, ways=1)
        # Two addresses mapping to the same (single) set... with 2 sets
        # of 1 way, conflicting addresses differ by 2 lines.
        stride = 2 * CACHE_LINE_SIZE
        cache.store(0, b"victim")
        cache.load(stride, 8)  # evicts line 0
        assert controller.dram.read_raw(0, 6) == b"victim"
        assert cache.evictions == 1
        assert not cache.contains(0)

    def test_lru_choice(self, controller):
        cache = Cache(controller, size=2 * CACHE_LINE_SIZE, ways=2)
        stride = CACHE_LINE_SIZE  # one set; all lines collide
        cache.load(0, 1)
        cache.load(stride, 1)
        cache.load(0, 1)          # refresh line 0
        cache.load(2 * stride, 1)  # should evict line `stride`
        assert cache.contains(0)
        assert not cache.contains(stride)

    def test_flush_all(self, cache, controller):
        cache.store(0, b"aa")
        cache.store(CACHE_LINE_SIZE, b"bb")
        cache.flush_all()
        assert not cache.contains(0)
        assert controller.dram.read_raw(0, 2) == b"aa"


class TestEccInteraction:
    def _arm(self, controller, line_addr):
        controller.write_line(line_addr, LINE)
        controller.lock_bus()
        controller.disable_ecc()
        controller.write_line(line_addr, controller.codec.scramble_bytes(LINE))
        controller.enable_ecc()
        controller.unlock_bus()

    def test_cached_line_filters_the_watchpoint(self, cache, controller):
        # The cache-effects design issue: if the line stays cached, the
        # fault never fires.  Load first, arm afterwards WITHOUT
        # flushing -- the next load hits in cache and sees stale data.
        controller.write_line(0, LINE)
        cache.load(0, 8)
        self._arm(controller, 0)
        assert cache.load(0, 8) == LINE[:8]  # no fault: cache hit

    def test_flushed_line_faults_on_next_load(self, cache, controller):
        controller.write_line(0, LINE)
        cache.load(0, 8)
        cache.flush_line(0)
        self._arm(controller, 0)
        with pytest.raises(UncorrectableEccError):
            cache.load(0, 8)

    def test_store_miss_fills_and_faults(self, cache, controller):
        # Write-allocate: a store to an uncached watched line performs a
        # line fill, which trips the watchpoint even though writes
        # themselves are not ECC-checked.
        self._arm(controller, 0)
        with pytest.raises(UncorrectableEccError):
            cache.store(0, b"w")

    def test_failed_fill_installs_nothing(self, cache, controller):
        self._arm(controller, 0)
        with pytest.raises(UncorrectableEccError):
            cache.load(0, 1)
        assert not cache.contains(0)


class TestCosts:
    def test_hit_and_miss_charge_cycles(self, controller):
        clock = VirtualClock()
        costs = default_cost_model()
        cache = Cache(controller, size=8 * 1024, ways=2,
                      clock=clock, cost_model=costs)
        cache.load(0, 1)
        assert clock.cycles == costs.cache_hit + costs.cache_miss
        cache.load(0, 1)
        assert clock.cycles == 2 * costs.cache_hit + costs.cache_miss
