"""Stateful property test: an armed line is never resident in any cache.

The machine's short-circuit access path serves any resident line
without consulting the watch registry, so the watchpoint contract
rests on one invariant: no armed line is ever resident in any cache
level.  ``WatchMemory`` flushes every line it arms, an armed line's
fill raises before the line is installed, and DMA and scrubbing flush
or invalidate what they touch.  This random interleaving of those
operations with loads and stores checks the invariant after every step, on the single cache and on the
two-level hierarchy, and checks every loaded byte against a model.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.ecc.controller import EccMode
from repro.machine.dma import DmaEngine
from repro.machine.machine import Machine

BASE = 0x4000_0000
PAGES = 3
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE
#: Lines around the start and the page boundaries: watches cluster
#: here so accesses, spans and page crossings keep meeting them.
HOT_LINES = tuple(
    line
    for page in range(PAGES)
    for line in (page * LINES_PER_PAGE - 2, page * LINES_PER_PAGE - 1,
                 page * LINES_PER_PAGE, page * LINES_PER_PAGE + 1)
    if 0 <= line < PAGES * LINES_PER_PAGE
)
MAX_ACCESS = 3 * CACHE_LINE_SIZE

lines = st.sampled_from(HOT_LINES)


class ResidencyMachine(RuleBasedStateMachine):
    """Watch, unwatch, DMA, scrub and access; armed lines stay cold."""

    cache_levels = 1

    @initialize()
    def boot(self):
        # A small, low-associativity cache so accesses keep evicting
        # and refilling lines around the armed ones.
        self.machine = Machine(
            dram_size=1024 * 1024, cache_size=4 * 1024, cache_ways=4,
            cache_levels=self.cache_levels, l1_size=1024, l1_ways=2,
            ecc_mode=EccMode.CORRECT_AND_SCRUB,
        )
        kernel = self.machine.kernel
        kernel.mmap(BASE, PAGES * PAGE_SIZE)
        kernel.register_ecc_fault_handler(self._on_fault)
        kernel.add_scrub_listener(pre=self._disarm_all, post=self._rearm)
        self.dma = DmaEngine(self.machine)
        self.model = bytearray(PAGES * PAGE_SIZE)
        #: armed line vaddr -> its contents at arming time.
        self.saved = {}
        self._scrub_paused = []
        self.faults = 0

    # -- handler and scrub hooks (what SafeMem does) --------------------
    def _on_fault(self, info):
        vline = info.vaddr - info.vaddr % CACHE_LINE_SIZE
        self.machine.kernel.disable_watch_memory(
            vline, restore_data=self.saved.pop(vline))
        self.faults += 1
        return True

    def _disarm_all(self):
        self._scrub_paused = sorted(self.saved)
        for vline in self._scrub_paused:
            self.machine.kernel.disable_watch_memory(
                vline, restore_data=self.saved[vline])

    def _rearm(self):
        for vline in self._scrub_paused:
            self.machine.kernel.watch_memory(vline, CACHE_LINE_SIZE)
        self._scrub_paused = []

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _span(line, offset, size):
        start = max(0, line * CACHE_LINE_SIZE + offset)
        return start, min(size, PAGES * PAGE_SIZE - start)

    def _frame(self, offset):
        vaddr = BASE + offset
        self.machine.mmu.ensure_resident(vaddr)
        return self.machine.mmu.resident_frame(vaddr)

    # -- rules ---------------------------------------------------------
    @rule(line=lines)
    def watch(self, line):
        vline = BASE + line * CACHE_LINE_SIZE
        if vline in self.saved:
            return
        offset = line * CACHE_LINE_SIZE
        self.machine.kernel.watch_memory(vline, CACHE_LINE_SIZE)
        self.saved[vline] = bytes(self.model[offset:offset + CACHE_LINE_SIZE])

    @precondition(lambda self: self.saved)
    @rule(index=st.integers(min_value=0, max_value=10 ** 6))
    def unwatch(self, index):
        vline = sorted(self.saved)[index % len(self.saved)]
        self.machine.kernel.disable_watch_memory(
            vline, restore_data=self.saved.pop(vline))

    @rule(line=lines, offset=st.integers(-CACHE_LINE_SIZE, CACHE_LINE_SIZE),
          size=st.integers(1, MAX_ACCESS))
    def load(self, line, offset, size):
        start, size = self._span(line, offset, size)
        assert (self.machine.load(BASE + start, size)
                == bytes(self.model[start:start + size]))

    @rule(line=lines, offset=st.integers(-CACHE_LINE_SIZE, CACHE_LINE_SIZE),
          size=st.integers(1, MAX_ACCESS), fill=st.integers(0, 255))
    def store(self, line, offset, size, fill):
        start, size = self._span(line, offset, size)
        data = bytes([fill]) * size
        self.machine.store(BASE + start, data)
        self.model[start:start + size] = data

    @rule(source=lines, destination=lines)
    def dma(self, source, destination):
        src = source * CACHE_LINE_SIZE
        dst = destination * CACHE_LINE_SIZE
        if (source == destination or BASE + src in self.saved
                or BASE + dst in self.saved):
            return
        self.dma.submit(self._frame(src), self._frame(dst), CACHE_LINE_SIZE)
        assert self.dma.step() == 1
        self.model[dst:dst + CACHE_LINE_SIZE] = (
            self.model[src:src + CACHE_LINE_SIZE])

    @rule()
    def scrub(self):
        scrubber = self.machine.kernel.scrubber
        for page in range(PAGES):
            frame = self._frame(page * PAGE_SIZE)
            assert scrubber.scrub_pass(frame, PAGE_SIZE) == []

    # -- the invariant -------------------------------------------------
    @invariant()
    def no_armed_line_is_resident(self):
        cache = self.machine.cache
        levels = [cache.l1, cache.l2] if self.cache_levels == 2 else [cache]
        for region in self.machine.kernel.watches:
            for pline in region.lines.values():
                for level in levels:
                    assert not level.contains(pline)

    @invariant()
    def every_armed_line_is_tracked(self):
        assert {region.vaddr for region in self.machine.kernel.watches} \
            == set(self.saved)


class TwoLevelResidencyMachine(ResidencyMachine):
    cache_levels = 2


_SETTINGS = settings(max_examples=15, stateful_step_count=30, deadline=None)
ResidencyMachine.TestCase.settings = _SETTINGS
TwoLevelResidencyMachine.TestCase.settings = _SETTINGS

TestResidencySingleCache = ResidencyMachine.TestCase
TestResidencyTwoLevel = TwoLevelResidencyMachine.TestCase
