"""Micro-benchmark for the fast-path memory system.

Measures simulator throughput (real ops/sec, not simulated cycles) for
load/store traffic in two configurations:

- ``fastpath``   -- normal machine, zero armed lines: the short-circuit
  path + TLB + batched codec all active,
- ``armed_line`` -- one unrelated line is ECC-watched (the paper's
  production state).  An armed line is never resident, so the rest of
  the machine keeps the short-circuit path; ``armed_vs_unwatched_hot_ratio``
  (armed over unwatched hot-path throughput) shows it.

Writes ``BENCH_memfast.json`` at the repo root and prints a summary.
Run directly (``python benchmarks/bench_memfast.py``) or through pytest
(marked ``slow``, so the tier-1 run never pays for it).
"""

import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import pytest

from conftest import write_bench_json

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.machine.machine import Machine
from repro.obs.export import snapshot_document

pytestmark = pytest.mark.slow

BASE = 0x4000_0000
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_memfast.json"

#: operations per timed phase.
HOT_OPS = 40_000
MISS_OPS = 4_000


def _make_machine(armed=False):
    machine = Machine(dram_size=8 * 1024 * 1024)
    machine.kernel.mmap(BASE, 64 * PAGE_SIZE)
    if armed:
        # Watch one line far from the benchmark's working set.
        victim = BASE + 63 * PAGE_SIZE
        machine.store(victim, bytes(CACHE_LINE_SIZE))
        machine.kernel.register_ecc_fault_handler(lambda info: False)
        machine.kernel.watch_memory(victim, CACHE_LINE_SIZE)
    return machine


def _time(fn):
    start = time.perf_counter()
    ops = fn()
    return ops / (time.perf_counter() - start)


def _bench_hot_loads(machine):
    # 16 hot lines in one page: after warmup every access is a TLB hit
    # plus a cache hit -- the pure common-path cost.
    addresses = [BASE + i * CACHE_LINE_SIZE for i in range(16)]
    for address in addresses:
        machine.store(address, bytes(8))

    def run():
        load = machine.load
        for i in range(HOT_OPS):
            load(addresses[i & 15], 8)
        return HOT_OPS

    return _time(run)


def _bench_hot_stores(machine):
    addresses = [BASE + i * CACHE_LINE_SIZE for i in range(16)]
    for address in addresses:
        machine.store(address, bytes(8))
    payload = b"\xa5" * 8

    def run():
        store = machine.store
        for i in range(HOT_OPS):
            store(addresses[i & 15], payload)
        return HOT_OPS

    return _time(run)


def _bench_miss_loads(machine):
    # Working set far larger than the 256 KiB cache: every access is a
    # line fill (plus eventual dirty write-backs), so throughput is
    # dominated by the ECC codec -- the batched-codec showcase.
    span = 48 * PAGE_SIZE
    stride = 17 * CACHE_LINE_SIZE

    def run():
        load = machine.load
        cursor = 0
        for _ in range(MISS_OPS):
            load(BASE + cursor, 8)
            cursor = (cursor + stride) % span
        return MISS_OPS

    return _time(run)


def _bench_config(name, **kwargs):
    results = {}
    machine = _make_machine(**kwargs)
    start = machine.metrics.snapshot()
    results["hot_loads_ops_per_sec"] = _bench_hot_loads(machine)
    results["hot_stores_ops_per_sec"] = _bench_hot_stores(machine)
    results["miss_loads_ops_per_sec"] = _bench_miss_loads(machine)
    # The timed phases' counters, as a repro.metrics/v1 document
    # (snapshot delta, so setup traffic from _make_machine and the
    # warmup stores is excluded).
    results["metrics"] = snapshot_document(
        machine.metrics.snapshot() - start,
        meta={"benchmark": "memfast", "config": name},
    )
    return results


def _hot_ops_per_sec(config):
    """Hot-path throughput over the load and store phases together."""
    return 2 / (1 / config["hot_loads_ops_per_sec"]
                + 1 / config["hot_stores_ops_per_sec"])


def run_benchmark():
    configs = {
        "fastpath": _bench_config("fastpath"),
        "armed_line": _bench_config("armed_line", armed=True),
    }
    report = {
        "benchmark": "memfast",
        "hot_ops": HOT_OPS,
        "miss_ops": MISS_OPS,
        "configs": configs,
        "armed_vs_unwatched_hot_ratio": (
            _hot_ops_per_sec(configs["armed_line"])
            / _hot_ops_per_sec(configs["fastpath"])
        ),
    }
    write_bench_json("memfast", report)
    return report


def test_bench_memfast():
    report = run_benchmark()
    armed = report["configs"]["armed_line"]["metrics"]["metrics"]
    assert armed["kernel.watched_lines"] == 1
    assert armed["machine.load.fast"] >= HOT_OPS
    assert armed["machine.store.fast"] >= HOT_OPS
    assert report["armed_vs_unwatched_hot_ratio"] >= 0.8


def main():
    report = run_benchmark()
    fast = report["configs"]["fastpath"]
    armed = report["configs"]["armed_line"]
    print(f"wrote {RESULT_PATH}")
    for phase in ("hot_loads", "hot_stores", "miss_loads"):
        key = f"{phase}_ops_per_sec"
        print(
            f"{phase:>11}: fastpath {fast[key]:>10.0f} ops/s | "
            f"armed {armed[key]:>10.0f} ops/s"
        )
    print(
        f"armed/unwatched hot-path throughput: "
        f"{report['armed_vs_unwatched_hot_ratio']:.2f}"
    )


if __name__ == "__main__":
    main()
