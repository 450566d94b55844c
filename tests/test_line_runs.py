"""Run-granular line maintenance against a per-line reference.

``WatchMemory``, ``DisableWatchMemory``, page demand-fill, swap-out
and the raw-read sync move each physically contiguous run of lines
with one cache call and one controller burst.  This module keeps the
per-line versions they replaced as test-only references
(``_line_watch``, ``_line_unwatch``, ``_line_bring_in``, ``_line_evict``,
``_line_sync``), patches them into a twin machine, drives both
machines through the same hypothesis-generated scenario, and asserts
the simulated state is identical after every phase: DRAM digest,
controller and cache counters, resident and dirty lines with their
LRU stamps, cycles and the event trace.  Unit tests below pin the
run-accepting entry points themselves.
"""

from types import MethodType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import VirtualClock
from repro.common.constants import (
    CACHE_LINE_SIZE,
    ECC_GROUP_BYTES,
    LINES_PER_PAGE,
    PAGE_SIZE,
    page_base,
)
from repro.common.costs import default_cost_model
from repro.common.errors import BusError
from repro.common.events import EventKind
from repro.ecc.controller import MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.kernel.watchregistry import WatchedRegion
from repro.machine.machine import Machine

BASE = 0x4000_0000
#: virtual pages mapped; the first ``EARLY_PAGES`` are touched before
#: arming, the rest only in the demand-fill phase.
PAGES = 10
EARLY_PAGES = 5
#: installed frames: fewer than the mapped pages, so the demand-fill
#: phase evicts (swap-out sweep) and swaps pages back in.
FRAMES = 6
MAX_REGION_LINES = 120


# ----------------------------------------------------------------------
# per-line references
# ----------------------------------------------------------------------
def _line_watch(kernel, vaddr, size):
    """WatchMemory one line at a time (error paths omitted)."""
    lines = list(range(vaddr, vaddr + size, CACHE_LINE_SIZE))
    kernel.clock.tick(kernel.costs.watch_memory_cost(len(lines)))
    for page in sorted({page_base(line) for line in lines}):
        kernel._pin_page(page)
    line_map = {vline: kernel.mmu.resident_frame(vline) for vline in lines}
    region = WatchedRegion(vaddr=vaddr, size=size, lines=line_map)
    kernel.watches.add(region)
    for pline in line_map.values():
        kernel.cache.flush_line(pline)
    scramble = kernel.controller.codec.scramble_bytes
    kernel.controller.lock_bus()
    kernel.controller.disable_ecc()
    for pline in line_map.values():
        current = kernel.dram.read_raw(pline, CACHE_LINE_SIZE)
        kernel.controller.write_line(pline, scramble(current))
    kernel.controller.enable_ecc()
    kernel.controller.unlock_bus()
    kernel.event_log.emit(EventKind.WATCH, address=vaddr, size=size)
    return region


def _line_unwatch(kernel, vaddr, restore_data):
    """DisableWatchMemory one line at a time (error paths omitted)."""
    region = kernel.watches.get(vaddr)
    kernel.clock.tick(kernel.costs.disable_watch_cost(len(region.lines)))
    kernel.watches.remove(vaddr)
    for i, pline in enumerate(region.lines.values()):
        kernel.cache.invalidate_line(pline)
        if restore_data is not None:
            chunk = restore_data[i * CACHE_LINE_SIZE:
                                 (i + 1) * CACHE_LINE_SIZE]
        else:
            chunk = kernel.dram.read_raw(pline, CACHE_LINE_SIZE)
        kernel.controller.write_line(pline, chunk)
    for page in region.pages:
        kernel._unpin_page(page)
    kernel.event_log.emit(EventKind.UNWATCH, address=vaddr,
                          size=region.size)
    return region


def _line_bring_in(mmu, entry):
    """Page-in with 64 invalidates and 64 single-line fill writes."""
    pfn = mmu.evictor.obtain_frame()
    frame_base = pfn * PAGE_SIZE
    for line in range(frame_base, frame_base + PAGE_SIZE, CACHE_LINE_SIZE):
        mmu.cache.invalidate_line(line)
    if entry.in_swap:
        data = mmu.swap.load(entry.vpn)
        entry.in_swap = False
        mmu.swap_in_faults += 1
    else:
        data = bytes(PAGE_SIZE)
        mmu.demand_fills += 1
    for offset in range(0, PAGE_SIZE, CACHE_LINE_SIZE):
        mmu.controller.write_line(frame_base + offset,
                                  data[offset:offset + CACHE_LINE_SIZE])
    entry.pfn = pfn
    entry.present = True


def _resident_sweep(cache, first, last):
    for line in range(first, last + CACHE_LINE_SIZE, CACHE_LINE_SIZE):
        if cache.contains(line):
            cache.flush_line(line)


def _line_evict(evictor, entry):
    """Swap-out that tests and flushes the frame line by line."""
    frame_base = entry.pfn * PAGE_SIZE
    _resident_sweep(evictor.cache, frame_base,
                    frame_base + PAGE_SIZE - CACHE_LINE_SIZE)
    evictor.swap.store(entry.vpn,
                       evictor.dram.read_raw(frame_base, PAGE_SIZE))
    evictor.frames.release(entry.pfn)
    entry.pfn = None
    entry.present = False
    entry.in_swap = True
    evictor.invalidate_translation(entry.vpn)


def _line_sync(machine, paddr, size):
    """Raw-read sync that tests and flushes line by line."""
    first = paddr - paddr % CACHE_LINE_SIZE
    last = (paddr + size - 1) - (paddr + size - 1) % CACHE_LINE_SIZE
    _resident_sweep(machine.cache, first, last)


def _boot(cache_levels, cache_ways, reference):
    machine = Machine(
        dram_size=FRAMES * PAGE_SIZE, cache_size=4 * 1024,
        cache_ways=cache_ways, cache_levels=cache_levels, l1_size=1024,
        l1_ways=2,
        max_pinned_pages=4,
    )
    machine.kernel.mmap(BASE, PAGES * PAGE_SIZE)
    if reference:
        kernel, mmu = machine.kernel, machine.mmu
        kernel._watch_memory = MethodType(_line_watch, kernel)
        kernel._disable_watch_memory = MethodType(_line_unwatch, kernel)
        mmu._bring_in = MethodType(_line_bring_in, mmu)
        mmu.evictor._evict = MethodType(_line_evict, mmu.evictor)
        machine._sync_lines = MethodType(_line_sync, machine)
    return machine


def _levels(cache):
    return [cache.l1, cache.l2] if isinstance(cache, CacheHierarchy) \
        else [cache]


def _state(machine):
    """Everything the simulation can observe, for twin comparison."""
    controller = machine.controller
    caches = [
        (
            {base: (line.dirty, line.stamp, bytes(line.data))
             for cache_set in level._sets
             for base, line in cache_set.items()},
            level.hits, level.misses, level.evictions, level.writebacks,
            level.flushes, level._tick,
        )
        for level in _levels(machine.cache)
    ]
    return {
        "cycles": machine.clock.cycles,
        "dram": machine.dram.digest(),
        "controller": (controller.reads, controller.writes,
                       controller.batched_line_writes,
                       controller.clean_line_reads,
                       controller.group_decodes,
                       controller.corrected_errors,
                       controller.uncorrectable_errors),
        "caches": caches,
        "mmu": (machine.mmu.demand_fills, machine.mmu.swap_in_faults,
                machine.swap.swap_outs, machine.swap.swap_ins),
        "pinned": machine.kernel.pinned_pages,
        "events": [(event.kind, event.cycle, event.address, event.size)
                   for event in machine.events.query()],
    }


# ----------------------------------------------------------------------
# the differential scenario
# ----------------------------------------------------------------------
early_line = st.integers(0, EARLY_PAGES * LINES_PER_PAGE - 1)
early_op = st.one_of(
    st.tuples(st.just("store"), early_line, st.integers(0, 255)),
    st.tuples(st.just("load"), early_line),
    st.tuples(st.just("flush"), early_line),
)
late_op = st.tuples(
    st.sampled_from(("store", "load")),
    st.integers(0, PAGES * LINES_PER_PAGE - 2),
    st.integers(0, 255),
)


@st.composite
def scenarios(draw):
    first = draw(early_line)
    room = EARLY_PAGES * LINES_PER_PAGE - first
    count = draw(st.integers(1, min(MAX_REGION_LINES, room)))
    flip = draw(st.none() | st.tuples(
        st.integers(0, count - 1),
        st.integers(0, CACHE_LINE_SIZE // ECC_GROUP_BYTES - 1),
        st.integers(0, 7),
    ))
    return {
        "cache_levels": draw(st.sampled_from((1, 2))),
        # Direct-mapped last level: a dirty L1 line's write-back into
        # it keeps evicting, and regions wrap its sets.
        "cache_ways": draw(st.sampled_from((1, 4))),
        "touch": draw(st.permutations(range(EARLY_PAGES))),
        "early": draw(st.lists(early_op, max_size=60)),
        "region": (first, count),
        "flip": flip,
        "sync": draw(st.booleans()),
        "restore": draw(st.booleans()),
        "late": draw(st.lists(late_op, max_size=40)),
    }


def _line_vaddr(line):
    return BASE + line * CACHE_LINE_SIZE


def _phase_early(machine, scenario):
    # First touch in a shuffled order: page i lands on the frame of
    # its rank, so a region meets both adjacent and distant frames.
    for page in scenario["touch"]:
        machine.store(BASE + page * PAGE_SIZE, bytes([page + 1]) * 8)
    for op in scenario["early"]:
        vaddr = _line_vaddr(op[1])
        if op[0] == "store":
            machine.store(vaddr + 5, bytes([op[2]]) * 40)
        elif op[0] == "load":
            machine.load(vaddr, CACHE_LINE_SIZE)
        else:
            machine.cache.flush_line(machine.mmu.resident_frame(vaddr))


def _peek(machine, vaddr, size):
    """Current bytes of a resident range, leaving every cache untouched."""
    out = bytearray()
    for vline in range(vaddr, vaddr + size, CACHE_LINE_SIZE):
        pline = machine.mmu.resident_frame(vline)
        for level in _levels(machine.cache):
            line = level._sets[level._set_index(pline)].get(pline)
            if line is not None:
                out += line.data
                break
        else:
            out += machine.dram.read_raw(pline, CACHE_LINE_SIZE)
    return bytes(out)


def _phase_arm(machine, scenario):
    """Flip a check bit inside the region, save it, arm it.

    SafeMem saves the region with a raw read, which first flushes its
    resident lines; with ``sync`` off the region is armed with its
    dirty lines still cached, so the arm flush writes them back.
    Returns the saved contents and ``(group, stale check)`` or None.
    """
    first, count = scenario["region"]
    vaddr, size = _line_vaddr(first), count * CACHE_LINE_SIZE
    stale = None
    if scenario["flip"] is not None:
        line, group, bit = scenario["flip"]
        pline = machine.mmu.resident_frame(_line_vaddr(first + line))
        # Not resident, so no write-back can re-encode it before arming.
        machine.cache.flush_line(pline)
        address = pline + group * ECC_GROUP_BYTES
        machine.dram.flip_check_bit(address, bit)
        stale = (address, machine.dram.read_check(address))
    if scenario["sync"]:
        original = machine.read_virtual_raw(vaddr, size)
    else:
        original = _peek(machine, vaddr, size)
    machine.kernel.watch_memory(vaddr, size)
    return original, stale


def _phase_late(machine, scenario):
    loaded = []
    for kind, line, fill in scenario["late"]:
        vaddr = _line_vaddr(line)
        if kind == "store":
            machine.store(vaddr + 3, bytes([fill]) * 70)
        else:
            loaded.append(machine.load(vaddr, CACHE_LINE_SIZE))
    return loaded


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_runs_match_per_line_reference(scenario):
    geometry = scenario["cache_levels"], scenario["cache_ways"]
    runs = _boot(*geometry, reference=False)
    lines = _boot(*geometry, reference=True)
    first, count = scenario["region"]
    vaddr, size = _line_vaddr(first), count * CACHE_LINE_SIZE

    for machine in (runs, lines):
        _phase_early(machine, scenario)
    assert _state(runs) == _state(lines)

    armed = [_phase_arm(machine, scenario) for machine in (runs, lines)]
    assert armed[0] == armed[1]
    assert _state(runs) == _state(lines)
    original, stale = armed[0]
    if stale is not None:
        # The scramble window writes data bits only.
        address, check = stale
        assert runs.dram.read_check(address) == check
    for machine in (runs, lines):
        for level in _levels(machine.cache):
            assert not any(level.contains(pline) for pline in
                           machine.kernel.watches.get(vaddr).lines.values())

    for machine in (runs, lines):
        machine.kernel.disable_watch_memory(
            vaddr, restore_data=original if scenario["restore"] else None)
    assert _state(runs) == _state(lines)
    expected = original if scenario["restore"] else \
        runs.controller.codec.scramble_bytes(original)
    assert runs.load(vaddr, size) == expected
    lines.load(vaddr, size)
    assert _state(runs) == _state(lines)

    assert _phase_late(runs, scenario) == _phase_late(lines, scenario)
    for page in range(PAGES):
        runs.load(BASE + page * PAGE_SIZE, 8)
        lines.load(BASE + page * PAGE_SIZE, 8)
    assert _state(runs) == _state(lines)
    assert runs.mmu.demand_fills == PAGES


# ----------------------------------------------------------------------
# unit tests: the run-accepting entry points
# ----------------------------------------------------------------------
def _controller():
    return MemoryController(PhysicalMemory(64 * 1024))


def _counters(controller):
    return (controller.writes, controller.batched_line_writes,
            controller.dram.digest())


def _payload(lines):
    return bytes((i * 7 + 3) % 256 for i in range(lines * CACHE_LINE_SIZE))


class TestControllerRuns:
    @pytest.mark.parametrize("ecc_on", [True, False])
    @pytest.mark.parametrize("lines", [1, 2, 5, LINES_PER_PAGE])
    def test_multi_line_write_equals_single_writes(self, ecc_on, lines):
        data = _payload(lines)
        burst, single = _controller(), _controller()
        for controller in (burst, single):
            if not ecc_on:
                controller.lock_bus()
                controller.disable_ecc()
        burst.write_line(PAGE_SIZE, data)
        for i in range(lines):
            single.write_line(PAGE_SIZE + i * CACHE_LINE_SIZE,
                              data[i * CACHE_LINE_SIZE:
                                   (i + 1) * CACHE_LINE_SIZE])
        assert _counters(burst) == _counters(single)
        assert burst.writes == lines
        assert burst.batched_line_writes == (lines if ecc_on else 0)

    @pytest.mark.parametrize("address, length", [
        (0, 0), (0, CACHE_LINE_SIZE + 1), (0, CACHE_LINE_SIZE - 1),
        (8, CACHE_LINE_SIZE), (8, 2 * CACHE_LINE_SIZE),
    ])
    def test_partial_or_misaligned_input_raises(self, address, length):
        controller = _controller()
        before = _counters(controller)
        with pytest.raises(BusError):
            controller.write_line(address, bytes(length))
        assert _counters(controller) == before


def _dirty_some(cache):
    """Lines 0, 2, 3 and 6 dirty, 4 clean; the rest not resident."""
    for line in (0, 2, 3, 6):
        cache.store(line * CACHE_LINE_SIZE, bytes([line + 1]) * 16)
    cache.load(4 * CACHE_LINE_SIZE, 8)


def _caches(levels):
    if levels == 1:
        return [Cache(_controller(), size=8 * 1024, ways=2)
                for _ in range(2)]
    return [CacheHierarchy(_controller(), l1_size=1024, l1_ways=2,
                           l2_size=4 * 1024, l2_ways=2)
            for _ in range(2)]


def _cache_counters(cache):
    return ([(level.flushes, level.writebacks, level.hits, level.misses,
              level.evictions) for level in _levels(cache)],
            cache.controller.writes, cache.controller.dram.digest())


class TestCacheRuns:
    @pytest.mark.parametrize("levels", [1, 2])
    def test_run_flush_counts_like_single_flushes(self, levels):
        run, single = _caches(levels)
        for cache in (run, single):
            _dirty_some(cache)
        run.flush_line(0, 8)
        for line in range(8):
            single.flush_line(line * CACHE_LINE_SIZE)
        assert _cache_counters(run) == _cache_counters(single)
        assert run.flushes == 8
        assert run.writebacks == 4
        assert not any(run.contains(line * CACHE_LINE_SIZE)
                       for line in range(8))

    def test_dirty_l1_line_enters_l2_after_the_lines_before_it(self):
        # Direct-mapped 16-set L2: lines 0 and 16 share a set.  Line
        # 16 is dirty in L1 but was evicted from L2 by a dirty line 0.
        # Flushing 0..16 line by line empties the set before line 16's
        # write-back enters it; reordering would evict line 0 instead.
        twins = [
            CacheHierarchy(_controller(), l1_size=1024, l1_ways=2,
                           l2_size=1024, l2_ways=1, clock=VirtualClock(),
                           cost_model=default_cost_model())
            for _ in range(2)
        ]
        for cache in twins:
            cache.store(16 * CACHE_LINE_SIZE, b"sixteen")
            cache.l2.store(0, b"zero")
        run, single = twins
        run.flush_line(0, 17)
        for line in range(17):
            single.flush_line(line * CACHE_LINE_SIZE)
        assert _cache_counters(run) == _cache_counters(single)
        assert run.l2.evictions == 1
        assert run.l1.clock.cycles == single.l1.clock.cycles

    def test_dirty_lines_write_back_as_bursts(self):
        cache, _ = _caches(1)
        _dirty_some(cache)
        controller = cache.controller
        bursts = []
        write_line = controller.write_line
        controller.write_line = lambda address, data: (
            bursts.append((address // CACHE_LINE_SIZE,
                           len(data) // CACHE_LINE_SIZE)),
            write_line(address, data))
        cache.flush_line(0, 8)
        # (first line, lines) of the dirty runs {0}, {2, 3}, {6}.
        assert bursts == [(0, 1), (2, 2), (6, 1)]
        assert controller.writes == 4
        assert cache.writebacks == 4

    @pytest.mark.parametrize("levels", [1, 2])
    def test_resident_only_counts_resident_lines(self, levels):
        run, single = _caches(levels)
        for cache in (run, single):
            _dirty_some(cache)
        run.flush_line(0, 8, resident_only=True)
        for line in range(8):
            if single.contains(line * CACHE_LINE_SIZE):
                single.flush_line(line * CACHE_LINE_SIZE)
        assert _cache_counters(run) == _cache_counters(single)
        assert run.flushes == 5

    @pytest.mark.parametrize("levels", [1, 2])
    def test_run_invalidate_drops_without_write_back(self, levels):
        cache, _ = _caches(levels)
        _dirty_some(cache)
        cache.invalidate_line(0, 8)
        assert not any(cache.contains(line * CACHE_LINE_SIZE)
                       for line in range(8))
        assert cache.writebacks == 0
        assert cache.flushes == 0


def _machine_with_cached_page():
    """A page with lines 0, 2, 3, 6 dirty and 4 clean in the cache."""
    machine = Machine(dram_size=2 * PAGE_SIZE, cache_size=8 * 1024,
                      cache_ways=2, max_pinned_pages=1)
    machine.kernel.mmap(BASE, 3 * PAGE_SIZE)
    machine.store(BASE, bytes(8))
    paddr = machine.mmu.resident_frame(BASE)
    machine.cache.flush_line(paddr, LINES_PER_PAGE)
    counts = (machine.cache.flushes, machine.cache.writebacks)
    for line in (0, 2, 3, 6):
        machine.store(BASE + line * CACHE_LINE_SIZE, b"dirty")
    machine.load(BASE + 4 * CACHE_LINE_SIZE, 8)
    return machine, counts


def _sweep_counts(machine, before):
    return (machine.cache.flushes - before[0],
            machine.cache.writebacks - before[1])


class TestResidentOnlySweeps:
    def test_raw_read_sync_counts_only_resident_lines(self):
        machine, before = _machine_with_cached_page()
        data = machine.read_virtual_raw(BASE, PAGE_SIZE)
        assert _sweep_counts(machine, before) == (5, 4)
        assert data[2 * CACHE_LINE_SIZE:2 * CACHE_LINE_SIZE + 5] == b"dirty"

    def test_swap_out_counts_only_resident_lines(self):
        machine, before = _machine_with_cached_page()
        # Two frames: the third page evicts the LRU one (the first).
        machine.load(BASE + PAGE_SIZE, 8)
        machine.load(BASE + 2 * PAGE_SIZE, 8)
        assert machine.swap.swap_outs == 1
        assert _sweep_counts(machine, before) == (5, 4)
        assert machine.swap.peek(BASE // PAGE_SIZE)[:5] == b"dirty"
