"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from harness import run_pass  # noqa: E402
from jobs import WORKLOADS, Job  # noqa: E402
from kvchurn import KvChurn  # noqa: E402
from stats import (  # noqa: E402
    percentile,
    tail_percentile,
    valid_name,
)
from tracing import SpanTracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.span("Cache.load", leaf, "cache")
    traced_middle = tracer.span("Machine.load", middle, "machine")
    tracer.span("Workload.handle_request", outer)()

    totals = tracer.by_boundary()
    assert totals["Cache.load"] == [2, 4.0, 4.0]
    assert totals["Machine.load"] == [1, 5.5, 1.5]
    assert totals["Workload.handle_request"] == [1, 8.5, 3.0]
    assert tracer.by_layer() == {"cache": [2, 4.0], "machine": [1, 1.5],
                                 "workloads": [1, 3.0]}


def test_spans_carry_request_ids_and_parents():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    inner = tracer.span("Cache.load", lambda: None, "cache")

    def request():
        inner()

    handle = tracer.span("Workload.handle_request", request)
    setup = tracer.span("Workload.setup", request)
    setup()
    handle()
    handle()
    inner()
    keys = set(tracer.records)
    assert ("setup", "Workload.setup", "Cache.load") in keys
    assert (0, "Workload.handle_request", "Cache.load") in keys
    assert (1, "Workload.handle_request", "Cache.load") in keys
    assert (None, None, "Cache.load") in keys
    assert tracer.request is None


def test_span_records_exceptions_and_reraises():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def fail():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("Mmu.translate", fail, "mmu")()
    assert tracer.by_boundary()["Mmu.translate"] == [1, 1.0, 1.0]
    assert tracer.stack == []


@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("name", ["req_per_s", "ecc.codec.self_s",
                                  "kv-churn", "9lives", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b",
                                  "é", "a" * 65, "x\n"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in spec[group]]
    assert all(valid_name(name) for name in names)
    assert len(set(names)) == len(names)


def test_per_layer_names_match_what_a_traced_pass_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rows = run.layer_metrics(SpanTracer(), [], 1.0, 1.5)
    assert [m["name"] for m in spec["per_layer"]] == list(rows)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit, _ in rows.values()]


def test_tracing_leaves_the_simulation_unchanged(tmp_path):
    jobs = [Job("squid1", "safemem", False, 60),
            Job("gzip", "pageprot", True, 310),
            Job("kv-churn", "safemem", True, 80)]
    plain = run_pass(jobs, 3, tmp_path)
    tracer = SpanTracer().install()
    try:
        traced = run_pass(jobs, 3, tmp_path)
    finally:
        tracer.uninstall()
    for before, after in zip(plain, traced):
        assert not before.errors and not after.errors
        assert before.sim == after.sim
        assert before.metrics == after.metrics
    layers = tracer.by_layer()
    for layer in ("machine", "cache", "ecc.codec", "ecc.controller",
                  "ecc.dram", "mmu", "kernel", "heap", "core",
                  "baselines", "workloads", "machine.boot"):
        assert layers[layer][0] > 0, layer
    assert tracer.codec_calls > 0 and tracer.dram_bytes > 0


def test_kv_churn_stream_depends_only_on_the_seed():
    one, again, other = KvChurn(50, seed=4), KvChurn(50, seed=4), \
        KvChurn(50, seed=5)
    assert one.stream == again.stream
    assert one.stream != other.stream
    assert len(one.stream) == 50
