#!/usr/bin/env python
"""The ECC watchpoint mechanism itself, step by step.

Shows what SafeMem builds on: the kernel's three new syscalls
(WatchMemory / DisableWatchMemory / RegisterECCFaultHandler), the
scramble trick that creates a deliberate data/check-bit mismatch, how
the cache must be flushed for the watchpoint to fire, and how a
watchpoint hit is distinguished from a genuine hardware error.

Run:  python examples/ecc_watchpoints.py
"""

from repro import Machine
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import MachinePanic

BASE = 0x4000_0000


def main():
    machine = Machine()
    kernel = machine.kernel
    kernel.mmap(BASE, 4 * PAGE_SIZE)

    # Put data in memory and remember it (SafeMem's private copy).
    machine.store(BASE, b"watched cache line".ljust(CACHE_LINE_SIZE))
    original = machine.load(BASE, CACHE_LINE_SIZE)

    # Register the user-level fault handler the kernel will call for
    # uncorrectable ECC errors.
    hits = []

    def handler(info):
        hits.append(info)
        where = f"{info.vaddr:#x}" if info.vaddr is not None \
            else f"paddr {info.paddr:#x} (unmapped to any watch)"
        print(f"  fault: {where} access={info.access} "
              f"watched={info.watched}")
        if not info.watched:
            print("  not a watched line -> genuine hardware error")
            return False
        # Check the scramble signature against the saved original --
        # this is how SafeMem tells a watchpoint from a real error.
        current = kernel.peek_watched_line(info.vaddr)
        if current == machine.controller.codec.scramble_bytes(original):
            print("  signature matches -> watchpoint hit, disarming")
            kernel.disable_watch_memory(BASE, restore_data=original)
            return True
        print("  signature mismatch -> genuine hardware error")
        return False

    kernel.register_ecc_fault_handler(handler)

    # Arm the watchpoint: the kernel pins the page, flushes the line,
    # and -- with the bus locked and ECC disabled -- rewrites the line
    # with three fixed bits flipped, leaving the old ECC code stale.
    print("arming watchpoint over one cache line...")
    kernel.watch_memory(BASE, CACHE_LINE_SIZE)
    print(f"  pinned pages: {kernel.pinned_pages}")
    print(f"  DRAM now holds (scrambled): "
          f"{machine.dram.read_raw(machine.mmu.resident_frame(BASE), 18)}")

    # The first access faults, the handler disarms+restores, and the
    # access transparently resumes with the right data.
    print("touching the watched line...")
    data = machine.load(BASE, 18)
    print(f"  load returned: {data!r} after {len(hits)} fault(s)")

    # A genuine double-bit hardware error on an unwatched line is NOT
    # claimed by the handler: the kernel panics like a stock OS.
    print("injecting a real double-bit error on an unwatched line...")
    machine.store(BASE + PAGE_SIZE, b"innocent data")
    paddr = machine.mmu.translate(BASE + PAGE_SIZE)
    machine.cache.flush_line(paddr)
    machine.dram.flip_data_bit(paddr, 0)
    machine.dram.flip_data_bit(paddr, 1)
    try:
        machine.load(BASE + PAGE_SIZE, 8)
    except MachinePanic as panic:
        print(f"  {panic}")


if __name__ == "__main__":
    main()
