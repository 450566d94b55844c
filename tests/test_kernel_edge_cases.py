"""Edge-case tests for the kernel's watch machinery."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import SyscallError
from repro.kernel.watchregistry import WatchedRegion, WatchRegistry
from repro.machine.machine import Machine

BASE = 0x4000_0000


@pytest.fixture
def machine():
    m = Machine(dram_size=8 * 1024 * 1024)
    m.kernel.mmap(BASE, 32 * PAGE_SIZE)
    return m


class TestMultiPageWatch:
    def test_watch_spanning_pages_pins_both(self, machine):
        span = PAGE_SIZE + 2 * CACHE_LINE_SIZE
        start = BASE + PAGE_SIZE - CACHE_LINE_SIZE
        machine.store(start, bytes(span))
        machine.kernel.watch_memory(start, span)
        assert machine.kernel.pinned_pages == 3
        machine.kernel.disable_watch_memory(start)
        assert machine.kernel.pinned_pages == 0

    def test_fault_attribution_across_pages(self, machine):
        seen = []

        def handler(info):
            seen.append(info.vaddr)
            machine.kernel.disable_watch_memory(start)
            return True

        start = BASE + PAGE_SIZE - CACHE_LINE_SIZE
        span = 2 * CACHE_LINE_SIZE
        machine.store(start, bytes(span))
        machine.kernel.register_ecc_fault_handler(handler)
        machine.kernel.watch_memory(start, span)
        machine.load(start + CACHE_LINE_SIZE + 4, 2)  # second page side
        assert len(seen) == 1
        assert seen[0] >= BASE + PAGE_SIZE

    def test_watch_on_swapped_out_page_pages_it_in(self):
        machine = Machine(dram_size=8 * PAGE_SIZE, cache_size=4 * 1024,
                          max_pinned_pages=4)
        machine.kernel.mmap(BASE, 24 * PAGE_SIZE)
        machine.store(BASE, b"swap me")
        # Force the first page out.
        for index in range(1, 24):
            machine.store(BASE + index * PAGE_SIZE, b"\xcd")
        entry = machine.page_table.lookup(BASE)
        assert not entry.present
        # Watching it must transparently swap it back in and pin it.
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        entry = machine.page_table.lookup(BASE)
        assert entry.present
        assert entry.pinned
        # The saved contents survived the round trip: restore them.
        machine.kernel.disable_watch_memory(BASE)
        scramble_bytes = machine.controller.codec.scramble_bytes
        data = machine.load(BASE, 7)
        assert scramble_bytes(
            data + bytes(CACHE_LINE_SIZE - 7)
        )[:7] != data  # sanity: scramble changes bytes

    def test_pin_rollback_on_partial_failure(self):
        """If pinning the second page of a two-page watch exceeds the
        budget, the first page's pin must be rolled back."""
        machine = Machine(dram_size=8 * 1024 * 1024, max_pinned_pages=1)
        machine.kernel.mmap(BASE, 4 * PAGE_SIZE)
        start = BASE + PAGE_SIZE - CACHE_LINE_SIZE
        machine.store(start, bytes(2 * CACHE_LINE_SIZE))
        from repro.common.errors import PinLimitExceeded
        with pytest.raises(PinLimitExceeded):
            machine.kernel.watch_memory(start, 2 * CACHE_LINE_SIZE)
        assert machine.kernel.pinned_pages == 0
        assert len(machine.kernel.watches) == 0


class TestWatchRegistryUnit:
    def _region(self, vaddr, lines=1):
        return WatchedRegion(
            vaddr=vaddr,
            size=lines * CACHE_LINE_SIZE,
            lines={vaddr + i * CACHE_LINE_SIZE: 0x1000 + i * CACHE_LINE_SIZE
                   for i in range(lines)},
        )

    def test_add_and_lookup(self):
        registry = WatchRegistry()
        region = self._region(BASE, lines=2)
        registry.add(region)
        assert registry.get(BASE) is region
        assert registry.region_of_vline(BASE + CACHE_LINE_SIZE) is region
        assert registry.covers_virtual(BASE + CACHE_LINE_SIZE + 5)
        assert not registry.covers_virtual(BASE + 2 * CACHE_LINE_SIZE)

    def test_physical_resolution(self):
        registry = WatchRegistry()
        region = self._region(BASE, lines=2)
        registry.add(region)
        resolved = registry.resolve_physical_line(
            0x1000 + CACHE_LINE_SIZE
        )
        assert resolved == (region, BASE + CACHE_LINE_SIZE)
        assert registry.resolve_physical_line(0x9999999) is None

    def test_duplicate_region_rejected(self):
        registry = WatchRegistry()
        registry.add(self._region(BASE))
        with pytest.raises(SyscallError):
            registry.add(self._region(BASE))

    def test_line_overlap_rejected(self):
        registry = WatchRegistry()
        registry.add(self._region(BASE, lines=2))
        overlapping = WatchedRegion(
            vaddr=BASE + CACHE_LINE_SIZE,
            size=CACHE_LINE_SIZE,
            lines={BASE + CACHE_LINE_SIZE: 0x8000},
        )
        with pytest.raises(SyscallError):
            registry.add(overlapping)

    def test_remove_clears_indexes(self):
        registry = WatchRegistry()
        region = self._region(BASE, lines=2)
        registry.add(region)
        registry.remove(BASE)
        assert len(registry) == 0
        assert registry.region_of_vline(BASE) is None
        assert registry.resolve_physical_line(0x1000) is None

    def test_remove_unknown_rejected(self):
        registry = WatchRegistry()
        with pytest.raises(SyscallError):
            registry.remove(BASE)

    def test_region_pages_deduplicated(self):
        region = self._region(BASE, lines=3)
        assert region.pages == [BASE - BASE % PAGE_SIZE]

    def test_region_contains(self):
        region = self._region(BASE, lines=1)
        assert BASE + 10 in region
        assert BASE + CACHE_LINE_SIZE not in region


class TestEventLogCoverage:
    def test_watch_lifecycle_events(self, machine):
        from repro.common.events import EventKind
        machine.store(BASE, bytes(CACHE_LINE_SIZE))
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        machine.kernel.disable_watch_memory(BASE)
        assert machine.events.count(EventKind.WATCH) == 1
        assert machine.events.count(EventKind.UNWATCH) == 1
        syscalls = [e.detail["name"]
                    for e in machine.events.of_kind(EventKind.SYSCALL)]
        assert syscalls == ["WatchMemory", "DisableWatchMemory"]
