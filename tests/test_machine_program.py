"""Tests for the Machine facade and the Program model."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE
from repro.common.costs import default_cost_model
from repro.common.errors import ConfigurationError, MachinePanic
from repro.machine.machine import Machine
from repro.machine.monitor import Monitor, NullMonitor
from repro.machine.program import Program


@pytest.fixture
def machine():
    return Machine(dram_size=8 * 1024 * 1024)


@pytest.fixture
def program(machine):
    return Program(machine, heap_size=1024 * 1024)


class TestProgramMemory:
    def test_malloc_store_load(self, program):
        addr = program.malloc(128)
        program.store(addr, b"hello")
        assert program.load(addr, 5) == b"hello"

    def test_calloc_zeroes(self, program):
        addr = program.calloc(4, 32)
        assert program.load(addr, 128) == bytes(128)

    def test_word_roundtrip(self, program):
        addr = program.malloc(8)
        program.store_word(addr, 0x1122_3344_5566_7788)
        assert program.load_word(addr) == 0x1122_3344_5566_7788

    def test_globals_roundtrip(self, program):
        program.set_global(3, 0xCAFEBABE)
        assert program.get_global(3) == 0xCAFEBABE

    def test_free_returns_block(self, program):
        addr = program.malloc(64)
        program.free(addr)
        assert not program.allocator.is_live(addr)


class TestProgramTime:
    def test_compute_charges_instructions(self, program, machine):
        before = machine.clock.cycles
        program.compute(1000)
        assert machine.clock.cycles - before == \
            1000 * machine.costs.instruction

    def test_idle_charges_wall_time_only(self, program, machine):
        cpu_before = machine.clock.cycles
        program.idle(0.5)
        assert machine.clock.cycles == cpu_before
        assert machine.clock.idle_cycles > 0


class TestCallFrames:
    def test_frame_context_manager(self, program):
        base_sig = program.stack.signature()
        with program.frame(0x1234):
            inner_sig = program.stack.signature()
            assert inner_sig != base_sig
        assert program.stack.signature() == base_sig

    def test_nested_frames(self, program):
        with program.frame(0x1):
            with program.frame(0x2):
                assert program.stack.depth == 3
        assert program.stack.depth == 1


class TestMonitorInterposition:
    def test_monitor_sees_accesses(self, machine):
        seen = []

        class Spy(Monitor):
            name = "spy"

            def before_load(self, vaddr, size):
                seen.append(("load", size))

            def before_store(self, vaddr, size):
                seen.append(("store", size))

        program = Program(machine, monitor=Spy(), heap_size=1024 * 1024)
        addr = program.malloc(16)
        program.store(addr, b"ab")
        program.load(addr, 2)
        assert ("store", 2) in seen
        assert ("load", 2) in seen

    def test_monitor_can_only_attach_once(self, machine):
        monitor = NullMonitor()
        Program(machine, monitor=monitor, heap_size=1024 * 1024)
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            monitor.attach(object())

    def test_exit_runs_once(self, machine):
        calls = []

        class ExitSpy(Monitor):
            def on_exit(self):
                calls.append(1)

        program = Program(machine, monitor=ExitSpy(),
                          heap_size=1024 * 1024)
        program.exit()
        program.exit()
        assert calls == [1]


class TestFaultRetryPath:
    def test_livelock_guard(self, machine):
        """A handler that claims faults but never fixes them must not
        hang the machine."""
        program = Program(machine, heap_size=1024 * 1024)
        addr = program.malloc(CACHE_LINE_SIZE * 2)
        line = addr + (-addr) % CACHE_LINE_SIZE
        program.store(line, bytes(CACHE_LINE_SIZE))
        machine.kernel.register_ecc_fault_handler(lambda info: True)
        machine.kernel.watch_memory(line, CACHE_LINE_SIZE)
        with pytest.raises(MachinePanic) as exc_info:
            program.load(line, 1)
        assert "retries" in str(exc_info.value)

    def test_negative_size_load_rejected(self, machine):
        """A negative size is rejected like ``Cache.load`` rejects it,
        on a hot line and a cold one, without touching the clock."""
        program = Program(machine, heap_size=1024 * 1024)
        addr = program.malloc(64)
        program.store(addr, b"warm")
        before = machine.clock.cycles
        for vaddr in (addr, addr + 4096):
            with pytest.raises(ConfigurationError, match="negative"):
                machine.load(vaddr, -4)
        assert machine.clock.cycles == before

    def test_read_virtual_raw_sees_dirty_cache_data(self, machine):
        program = Program(machine, heap_size=1024 * 1024)
        addr = program.malloc(64)
        program.store(addr, b"fresh")
        raw = machine.read_virtual_raw(addr, 5)
        assert raw == b"fresh"

    def test_read_virtual_raw_costs_nothing(self, machine):
        program = Program(machine, heap_size=1024 * 1024)
        addr = program.malloc(64)
        program.store(addr, b"abc")
        before = machine.clock.cycles
        machine.read_virtual_raw(addr, 3)
        assert machine.clock.cycles == before


class TestCostComposition:
    def test_monitored_run_costs_more_cycles_than_clean(self):
        def run(monitor):
            machine = Machine(dram_size=8 * 1024 * 1024,
                              cost_model=default_cost_model())
            program = Program(machine, monitor=monitor,
                              heap_size=1024 * 1024)
            for _ in range(50):
                block = program.malloc(256)
                program.store(block, b"x" * 256)
                program.compute(100)
                program.free(block)
            return machine.clock.cycles

        class Taxing(Monitor):
            def before_load(self, vaddr, size):
                self.program.machine.clock.tick(10)

            def before_store(self, vaddr, size):
                self.program.machine.clock.tick(10)

        assert run(Taxing()) > run(NullMonitor())
