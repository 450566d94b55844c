"""Differential tests of the machine's access path (Machine.load/store).

The contract is *simulation equivalence*: a sequence of accesses
through ``load``/``store`` -- the TLB-hit short-circuit or the span
walk -- must produce the same results, the same cycle count, the same
event stream, and the same detector-visible behavior as the same
accesses through the per-line scalar reference walk
(:func:`_scalar_walk`).  The differential tests here pin that contract
directly by running twin machines; the edge-case tests cover demand
fills, swap-ins, armed lines and degenerate sizes.
"""

import types

import pytest

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE, align_down
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.workloads.gzip_ import Gzip
from repro.workloads.registry import all_workload_names, get_workload
from repro.workloads.tar_ import Tar

BASE = 0x4000_0000


def _scalar_walk(self, vaddr, size, write, data=None):
    """Test-only reference for ``Machine._span_walk``: the per-line walk.

    Splits at page boundaries and moves each chunk through
    ``Cache.load``/``Cache.store``, which take every line through
    ``Cache._access_line`` one at a time -- the bookkeeping the span
    path must reproduce exactly, faults mid-span included.
    """
    out = bytearray() if not write else None
    cursor = vaddr
    end = vaddr + size
    position = 0
    while cursor < end:
        page_end = align_down(cursor, PAGE_SIZE) + PAGE_SIZE
        take = min(end - cursor, page_end - cursor)
        paddr = self.mmu.translate(cursor, write=write)
        if write:
            self.cache.store(paddr, data[position:position + take])
        else:
            out += self.cache.load(paddr, take)
        cursor += take
        position += take
    return bytes(out) if not write else None


def _use_scalar_reference(machine):
    """Make ``machine`` the per-line reference.

    Every access walks through :func:`_scalar_walk`: the TLB-hit
    short-circuit is switched off and the span walk is replaced.
    """
    machine._span_walk = types.MethodType(_scalar_walk, machine)
    machine.mmu.translate_fast = lambda vaddr, write=False: None


def _machine(**kwargs):
    kwargs.setdefault("dram_size", 4 * 1024 * 1024)
    machine = Machine(**kwargs)
    machine.kernel.mmap(BASE, 32 * PAGE_SIZE)
    return machine


def _event_trace(machine):
    return [(e.kind, e.cycle, e.address) for e in machine.events.query()]


def _execute(machine, plan):
    """Issue ``plan`` op by op: ``("load", vaddr, size)`` returns the
    loaded bytes, ``("store", vaddr, data)`` returns ``None``."""
    results = []
    for kind, vaddr, arg in plan:
        if kind == "load":
            results.append(machine.load(vaddr, arg))
        else:
            machine.store(vaddr, arg)
            results.append(None)
    return results


def _run_twins(plan, prepare=None, machine_kwargs=None):
    """Run ``plan`` on a machine and on the per-line scalar reference.

    The subject machine runs the plan op by op through
    ``load``/``store``; the reference runs it op by op through
    :func:`_scalar_walk`.  Returns ``(subject_machine,
    reference_machine, subject_results, reference_results)`` after
    asserting the equivalence contract.
    """
    outcomes = []
    for reference in (False, True):
        machine = _machine(**(machine_kwargs or {}))
        if reference:
            _use_scalar_reference(machine)
        if prepare is not None:
            prepare(machine)
        outcomes.append((machine, _execute(machine, plan)))
    (subject, results), (scalar, s_results) = outcomes
    assert results == s_results
    assert subject.clock.cycles == scalar.clock.cycles
    assert _event_trace(subject) == _event_trace(scalar)
    assert subject.cache.hits == scalar.cache.hits
    assert subject.cache.misses == scalar.cache.misses
    assert subject.cache.writebacks == scalar.cache.writebacks
    assert subject.cache.evictions == scalar.cache.evictions
    return subject, scalar, results, s_results


class TestDifferentialEquivalence:
    def test_bulk_plan_is_cycle_and_event_identical(self):
        plan = [("store", BASE + i * 8, bytes([i % 251]) * 8)
                for i in range(1500)]
        plan += [("load", BASE + i * 8, 8) for i in range(1500)]
        plan += [("store", BASE + 5, b"\x99" * 3000),
                 ("load", BASE, 3 * PAGE_SIZE)]
        subject, _, results, _ = _run_twins(plan)
        assert subject.fast_loads + subject.fast_stores > 0
        assert results[-1][5:8] == b"\x99" * 3

    def test_two_level_hierarchy_identical(self):
        plan = [("store", BASE + i * 64, b"x" * 64) for i in range(600)]
        plan += [("load", BASE + i * 64, 64) for i in range(600)]
        _run_twins(plan, machine_kwargs={"cache_levels": 2})

    def test_misaligned_and_line_straddling_ops(self):
        plan = [("store", BASE + 60, b"straddle!"),
                ("load", BASE + 60, 9),
                ("load", BASE + PAGE_SIZE - 4, 8),
                ("store", BASE + PAGE_SIZE - 4, b"pagespan"),
                ("load", BASE + PAGE_SIZE - 4, 8)]
        _run_twins(plan)


#: Requests per Table 1 app in the reference differential: long enough
#: for every buggy run to produce a report (squid1's leak needs its
#: full default length); the corruption bugs are moved to mid-run.
_DIFFERENTIAL_REQUESTS = {"squid1": 700}


class TestWorkloadDifferential:
    """Whole workloads must match the per-line scalar reference."""

    @pytest.mark.parametrize("workload_cls", [Gzip, Tar])
    @pytest.mark.parametrize("monitor_name", ["native", "safemem"])
    def test_run_is_batching_invariant(self, workload_cls, monitor_name):
        from repro.analysis.runner import make_monitor

        def run(reference):
            machine = Machine(cache_levels=2)
            if reference:
                _use_scalar_reference(machine)
            program = Program(machine, monitor=make_monitor(monitor_name))
            workload = workload_cls(requests=30)
            if hasattr(workload, "trigger_block"):
                workload.trigger_block = 15
            if hasattr(workload, "trigger_file"):
                workload.trigger_file = 15
            truth = workload.run(program, buggy=True)
            return machine, truth

        subject_machine, subject_truth = run(reference=False)
        scalar_machine, scalar_truth = run(reference=True)
        assert subject_machine.clock.cycles == scalar_machine.clock.cycles
        assert _event_trace(subject_machine) == _event_trace(scalar_machine)
        assert (subject_truth.detection is None) == \
            (scalar_truth.detection is None)
        assert subject_truth.cycle_marks == scalar_truth.cycle_marks
        if monitor_name == "safemem":
            # The detector verdict itself must match, not just cycles.
            assert scalar_truth.detection is not None

    @pytest.mark.parametrize("buggy", [False, True],
                             ids=["normal", "buggy"])
    @pytest.mark.parametrize("app", all_workload_names())
    def test_table1_app_matches_scalar_reference(self, app, buggy):
        from repro.analysis.runner import (
            CACHE_SIZE,
            DRAM_SIZE,
            HEAP_SIZE,
            make_monitor,
        )

        requests = _DIFFERENTIAL_REQUESTS.get(app, 300)

        def run(reference):
            machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                              cache_ways=16)
            if reference:
                _use_scalar_reference(machine)
            monitor = make_monitor("safemem")
            program = Program(machine, monitor=monitor, heap_size=HEAP_SIZE)
            workload = get_workload(app, requests=requests)
            for trigger in ("trigger_block", "trigger_file",
                            "trigger_request"):
                if hasattr(workload, trigger):
                    setattr(workload, trigger, requests // 2)
            truth = workload.run(program, buggy=buggy)
            return machine, monitor, truth

        machine, monitor, truth = run(reference=False)
        ref_machine, ref_monitor, ref_truth = run(reference=True)
        assert machine.clock.cycles == ref_machine.clock.cycles
        assert _event_trace(machine) == _event_trace(ref_machine)
        assert truth.cycle_marks == ref_truth.cycle_marks
        assert monitor.leak_reports == ref_monitor.leak_reports
        assert monitor.corruption_reports == ref_monitor.corruption_reports
        assert repr(truth.detection) == repr(ref_truth.detection)
        if buggy:
            assert monitor.leak_reports or monitor.corruption_reports
        else:
            assert not monitor.corruption_reports


class TestBatchEdgeCases:
    def test_demand_fill_mid_batch(self):
        # Pages beyond the first are untouched before the plan runs, so
        # the plan itself must trigger their demand fills.
        def prepare(machine):
            machine.store(BASE, b"warm")

        plan = [("load", BASE, 8)]
        plan += [("store", BASE + page * PAGE_SIZE + 128, b"deep" * 16)
                 for page in range(1, 8)]
        plan += [("load", BASE + page * PAGE_SIZE + 128, 64)
                 for page in range(1, 8)]
        subject, _, _, _ = _run_twins(plan, prepare=prepare)
        assert subject.mmu.demand_fills >= 7

    def test_batch_crossing_swap_evicted_page(self):
        kwargs = {"dram_size": 16 * PAGE_SIZE, "cache_size": 4 * 1024,
                  "max_pinned_pages": 4}

        def prepare(machine):
            # Touch more pages than DRAM has frames: the early pages
            # get swapped out, so the plan's loads must swap them in.
            for i in range(24):
                machine.store(BASE + i * PAGE_SIZE, bytes([i]) * 8)
            assert machine.swap.swap_outs > 0

        plan = [("load", BASE + i * PAGE_SIZE, 8) for i in range(24)]
        plan += [("load", BASE + PAGE_SIZE - 16, 32)]  # page-crossing
        subject, _, results, _ = _run_twins(
            plan, prepare=prepare, machine_kwargs=kwargs)
        assert subject.swap.swap_ins > 0
        for i in range(24):
            assert results[i] == bytes([i]) * 8

    def test_one_armed_line_among_clean_ones(self):
        fired = []

        def prepare(machine):
            armed = BASE + 7 * CACHE_LINE_SIZE

            def handler(info):
                fired.append(info.vaddr)
                machine.kernel.disable_watch_memory(armed)
                return True

            machine.kernel.register_ecc_fault_handler(handler)
            machine.store(armed, bytes(CACHE_LINE_SIZE))
            machine.kernel.watch_memory(armed, CACHE_LINE_SIZE)

        plan = [("load", BASE + i * CACHE_LINE_SIZE, 32)
                for i in range(32)]
        subject, scalar, _, _ = _run_twins(plan, prepare=prepare)
        # The watchpoint fired exactly once on both paths.
        assert len(fired) == 2  # one per twin machine
        assert subject.kernel.ecc_traps == scalar.kernel.ecc_traps == 1

    @pytest.mark.parametrize("write", [False, True], ids=["load", "store"])
    def test_fault_mid_span_matches_reference(self, write):
        # One access spans four lines on two pages; the third line is
        # armed, so the walk faults after two hits in the same page
        # chunk and retries.
        start = BASE + PAGE_SIZE - 3 * CACHE_LINE_SIZE + 8
        armed = BASE + PAGE_SIZE - CACHE_LINE_SIZE
        fired = []

        def prepare(machine):
            def handler(info):
                fired.append(info.vaddr)
                machine.kernel.disable_watch_memory(armed,
                                                    restore_data=original)
                return True

            machine.kernel.register_ecc_fault_handler(handler)
            machine.store(start, bytes(range(4 * CACHE_LINE_SIZE - 16)))
            original = machine.read_virtual_raw(armed, CACHE_LINE_SIZE)
            machine.kernel.watch_memory(armed, CACHE_LINE_SIZE)

        if write:
            plan = [("store", start, b"\x5a" * (4 * CACHE_LINE_SIZE - 16)),
                    ("load", start, 4 * CACHE_LINE_SIZE - 16)]
        else:
            plan = [("load", start, 4 * CACHE_LINE_SIZE - 16)]
        subject, reference, results, _ = _run_twins(plan, prepare=prepare)
        assert fired == [armed, armed]  # one per twin machine
        assert subject.kernel.ecc_traps == reference.kernel.ecc_traps == 1
        expected = (b"\x5a" * (4 * CACHE_LINE_SIZE - 16) if write
                    else bytes(range(4 * CACHE_LINE_SIZE - 16)))
        assert results[-1] == expected

    def test_single_element_batch(self):
        _run_twins([("store", BASE, b"only")])
        _run_twins([("load", BASE, 8)])

    def test_zero_size_ops_match_scalar_semantics(self):
        plan = [("load", BASE, 0), ("store", BASE, b""),
                ("load", BASE, 8)]
        subject, _, results, _ = _run_twins(plan)
        assert results[0] == b""
        assert results[1] is None
        # Degenerate sizes skip the short-circuit and count as slow.
        assert subject.slow_loads >= 1
        assert subject.slow_stores >= 1
