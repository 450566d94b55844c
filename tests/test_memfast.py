"""Fast-path memory system tests: TLB, batched codec, short-circuit path.

The correctness criterion for the whole fast-path layer is that it is
*invisible*: identical data, identical simulated cycle counts, and --
crucially -- every watchpoint fault fires exactly where the slow path
would have fired it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, ECC_GROUP_BYTES, PAGE_SIZE
from repro.common.errors import (
    ConfigurationError,
    PageFault,
    ProtectionFault,
)
from repro.ecc.codec import SecDedCodec
from repro.machine.machine import Machine
from repro.mmu.pagetable import PROT_NONE, PROT_READ, PROT_RW

BASE = 0x4000_0000


@pytest.fixture
def machine():
    m = Machine(dram_size=4 * 1024 * 1024)
    m.kernel.mmap(BASE, 16 * PAGE_SIZE)
    return m


# ----------------------------------------------------------------------
# software TLB
# ----------------------------------------------------------------------
class TestTlb:
    def test_repeated_access_hits_tlb(self, machine):
        machine.store(BASE, b"warmup")
        hits_before = machine.mmu.tlb_hits
        for _ in range(10):
            machine.load(BASE, 4)
        assert machine.mmu.tlb_hits >= hits_before + 10

    def test_unmap_invalidates_tlb(self, machine):
        region = BASE + 15 * PAGE_SIZE
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        machine.store(region, b"alive")  # TLB now warm for the page
        assert machine.mmu.tlb_lookup(region) is not None
        machine.kernel.munmap(region, PAGE_SIZE)
        assert machine.mmu.tlb_lookup(region) is None
        with pytest.raises(PageFault):
            machine.load(region, 1)

    def test_remap_after_unmap_serves_fresh_zero_page(self, machine):
        region = BASE + 15 * PAGE_SIZE
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        machine.store(region, b"old data")
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        assert machine.load(region, 8) == bytes(8)

    def test_mprotect_narrowing_invalidates_tlb(self, machine):
        machine.store(BASE, b"rw")  # warm the TLB with a writable entry
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_NONE)
        with pytest.raises(ProtectionFault):
            machine.load(BASE, 1)
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_READ)
        assert machine.load(BASE, 2) == b"rw"
        with pytest.raises(ProtectionFault):
            machine.store(BASE, b"x")
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_RW)
        machine.store(BASE, b"y")

    def test_swap_eviction_invalidates_tlb(self):
        m = Machine(dram_size=16 * PAGE_SIZE, cache_size=4 * 1024,
                    max_pinned_pages=4)
        pages = 32
        m.kernel.mmap(BASE, pages * PAGE_SIZE)
        for i in range(pages):
            m.store(BASE + i * PAGE_SIZE, bytes([i]) * 8)
        assert m.swap.swap_outs > 0
        assert m.mmu.tlb_invalidations > 0
        # Every page still readable; stale TLB frames would serve the
        # wrong page's bytes after the frame was recycled.
        for i in range(pages):
            assert m.load(BASE + i * PAGE_SIZE, 8) == bytes([i]) * 8

    def test_tlb_flush_drops_everything(self, machine):
        machine.store(BASE, b"x")
        assert machine.mmu.tlb_lookup(BASE) is not None
        machine.mmu.tlb_flush()
        assert machine.mmu.tlb_lookup(BASE) is None
        assert machine.mmu.tlb_flushes == 1
        # Next access misses, then re-fills.
        machine.load(BASE, 1)
        assert machine.mmu.tlb_lookup(BASE) is not None


# ----------------------------------------------------------------------
# short-circuit access path
# ----------------------------------------------------------------------
class TestFastPath:
    def test_hot_loads_take_fast_path(self, machine):
        machine.store(BASE, b"hot line")
        before = machine.fast_loads
        for _ in range(5):
            assert machine.load(BASE, 8) == b"hot line"
        assert machine.fast_loads >= before + 5

    def test_hot_stores_take_fast_path(self, machine):
        machine.store(BASE, b"seed")
        before = machine.fast_stores
        machine.store(BASE, b"fast")
        assert machine.fast_stores == before + 1
        assert machine.load(BASE, 4) == b"fast"

    def test_fast_stores_mark_lines_dirty(self, machine):
        machine.store(BASE, b"seed")           # line resident
        machine.store(BASE, b"dirty-data")     # fast path write
        machine.cache.flush_line(machine.mmu.translate(BASE))
        # A dropped dirty bit would lose the data on flush.
        assert machine.load(BASE, 10) == b"dirty-data"

    def test_fast_path_is_cycle_identical(self):
        def run(disable_fast_path):
            m = Machine(dram_size=4 * 1024 * 1024)
            m.kernel.mmap(BASE, 16 * PAGE_SIZE)
            if disable_fast_path:
                # No TLB hit short-circuits: every access walks.
                m.mmu.translate_fast = lambda vaddr, write=False: None
            for i in range(200):
                m.store(BASE + (i % 50) * 32, bytes([i & 0xFF]) * 8)
            out = bytearray()
            for i in range(200):
                out += m.load(BASE + (i % 50) * 32, 8)
            return bytes(out), m.clock.cycles, m.cache.hits, m.cache.misses

        fast = run(disable_fast_path=False)
        slow = run(disable_fast_path=True)
        assert fast == slow

    def test_line_straddling_access_uses_slow_path(self, machine):
        machine.store(BASE + CACHE_LINE_SIZE - 4, bytes(8))
        before = machine.fast_loads
        assert machine.load(BASE + CACHE_LINE_SIZE - 4, 8) == bytes(8)
        assert machine.fast_loads == before

    def test_arming_keeps_unrelated_lines_on_fast_path(self, machine):
        fired = []

        def handler(info):
            fired.append(info.vaddr)
            machine.kernel.disable_watch_memory(
                BASE, restore_data=bytes(CACHE_LINE_SIZE))
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, bytes(CACHE_LINE_SIZE))
        other = BASE + 4 * PAGE_SIZE
        machine.store(other, b"unrelated")
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        fast_before = machine.fast_loads
        slow_before = machine.slow_loads
        assert machine.load(other, 4) == b"unre"
        assert machine.fast_loads == fast_before + 1
        assert machine.slow_loads == slow_before
        # The armed line is not resident, so it misses the fast path
        # and faults on first touch.
        assert machine.load(BASE, 8) == bytes(8)
        assert fired == [BASE]
        assert machine.slow_loads == slow_before + 1

    def test_watch_armed_after_warm_state_still_faults_on_first_touch(
            self, machine):
        fired = []
        original = None

        def handler(info):
            fired.append(info.vaddr)
            machine.kernel.disable_watch_memory(BASE, restore_data=original)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, b"precious data bytes")
        # Warm everything the fast path relies on: TLB entry and a
        # resident, recently-hit cache line.
        for _ in range(3):
            machine.load(BASE, 19)
        assert machine.fast_loads > 0
        original = machine.load(BASE, CACHE_LINE_SIZE)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        # First touch after arming must fault exactly once, despite the
        # previously warm fast-path state.
        assert machine.load(BASE, 19) == b"precious data bytes"
        assert len(fired) == 1

    def test_write_after_arming_also_faults(self, machine):
        fired = []

        def handler(info):
            fired.append(info.access)
            machine.kernel.disable_watch_memory(BASE)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, bytes(CACHE_LINE_SIZE))
        machine.load(BASE, 8)  # warm fast-path state
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        machine.store(BASE, b"write through watch")
        assert fired == ["write"]
        assert machine.load(BASE, 19) == b"write through watch"


# ----------------------------------------------------------------------
# batched ECC codec
# ----------------------------------------------------------------------
class TestBatchedCodec:
    def test_encode_words_matches_per_group_encode(self):
        codec = SecDedCodec()
        data = bytes((7 * i + 3) & 0xFF for i in range(CACHE_LINE_SIZE))
        checks = codec.encode_words(data)
        for group in range(CACHE_LINE_SIZE // 8):
            word = int.from_bytes(data[group * 8:group * 8 + 8], "little")
            assert checks[group] == codec.encode(word)

    @given(data=st.data(), wrap=st.sampled_from([bytes, bytearray,
                                                 memoryview]))
    @settings(max_examples=200, deadline=None)
    def test_encode_words_property(self, data, wrap):
        # The table-driven batch path against the per-group reference,
        # on random, all-zero and repeated-pattern inputs (the fills
        # the workloads write) of 8 to 4096 bytes.
        size = ECC_GROUP_BYTES * data.draw(st.integers(1, 512))
        kind = data.draw(st.sampled_from(["random", "zero", "fill"]))
        if kind == "random":
            payload = data.draw(st.binary(min_size=size, max_size=size))
        elif kind == "zero":
            payload = bytes(size)
        else:
            pattern = data.draw(st.binary(min_size=1, max_size=16))
            payload = (pattern * (size // len(pattern) + 1))[:size]
        codec = SecDedCodec()
        expected = bytes(
            codec.encode(int.from_bytes(payload[i:i + ECC_GROUP_BYTES],
                                        "little"))
            for i in range(0, size, ECC_GROUP_BYTES)
        )
        assert codec.encode_words(wrap(payload)) == expected

    def test_encode_words_rejects_partial_group(self):
        with pytest.raises(ConfigurationError):
            SecDedCodec().encode_words(bytes(ECC_GROUP_BYTES + 2))

    def test_line_fill_takes_clean_fast_path(self, machine):
        machine.store(BASE, b"fill me")
        machine.cache.flush_all()
        before = machine.controller.clean_line_reads
        machine.load(BASE, 7)
        assert machine.controller.clean_line_reads > before

    def test_single_bit_error_still_corrected(self, machine):
        machine.store(BASE, b"\xffrobust")
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_all()
        machine.dram.flip_data_bit(paddr, 3)
        assert machine.load(BASE, 7) == b"\xffrobust"
        assert machine.controller.corrected_errors == 1
        assert machine.controller.group_decodes > 0
