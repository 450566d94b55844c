"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload always-on --seed 1 --seconds 15 --trace 0

``--trace 0`` runs whole passes over the workload's jobs (at least
one; another only while the time left covers a pass as long as the
last) and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then one pass with spans around every layer's public
entry points, checks that both passes simulated exactly the same
thing, and reports the per-layer metrics.  Either way every job is
checked against the workload's ground truth, human-readable lines go
first, and the last line of standard output is the JSON result.  The
exit code is 0 whenever a result is printed; a checkout without the
program's source exits with 1 and prints none.
"""

import argparse
import gzip
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working files inside the checkout: checkpoints and span files.
OUT_DIR = ROOT / ".perfbench-out"

#: set-up time is the median over rounds: each pass's own set-ups,
#: then set-up-only rounds, at least the minimum and at most the
#: maximum, added while they have taken less than the budget in all.
#: A round of a small workload is quick but noisy (it is mostly the
#: kernel zeroing DRAM pages), so it gets more rounds.
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 9
SETUP_BUDGET_S = 3.0

#: end-to-end metrics, in output order: name -> unit.
END_TO_END = {
    "req_per_s": "req/s",
    "req_ms_p50": "ms",
    "req_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "space_overhead_pct": "%",
}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failures(passes):
    """(pass, job label, message) for every failed check of every run;
    a run also fails when its simulated statistics or its metrics
    registry differ from the same job's in pass 1."""
    found = []
    for number, results in enumerate(passes, start=1):
        for first, result in zip(passes[0], results):
            label = result.job.label
            found.extend((number, label, error) for error in result.errors)
            if result.errors:
                continue
            if result.sim != first.sim:
                found.append((number, label,
                              f"{label}: simulated {result.sim}, "
                              f"pass 1 simulated {first.sim}"))
            elif result.metrics != first.metrics:
                changed = sorted(name for name in result.metrics
                                 if result.metrics[name]
                                 != first.metrics.get(name))
                found.append((number, label,
                              f"{label}: metrics differ from pass 1: "
                              f"{', '.join(changed)}"))
    return found


def simulated_metrics(workload, results):
    """Deterministic metrics of one pass (the first)."""
    from jobs import OVERHEAD_MONITOR, SPACE_MONITOR
    # A run that raised has no simulated statistics; the checks have
    # already failed it, and these figures skip it.
    done = [r for r in results if r.sim]
    native = {r.job.app: r.sim["cycles"] for r in done
              if r.job.monitor == "native" and not r.job.buggy}
    overhead = None
    monitored = OVERHEAD_MONITOR.get(workload)
    if monitored is not None:
        pairs = [(r.sim["cycles"], native[r.job.app]) for r in done
                 if r.job.monitor == monitored and not r.job.buggy
                 and r.job.app in native]
        overhead = (_ratio(sum(m for m, _ in pairs),
                           sum(n for _, n in pairs)) - 1.0) * 100.0
    guarded = [r for r in done
               if r.job.monitor == SPACE_MONITOR[workload]
               and not r.job.buggy]
    space = _ratio(sum(r.sim["waste_bytes"] for r in guarded),
                   sum(r.sim["requested_bytes"] for r in guarded)) * 100.0
    fired = [r for r in results if r.detected is not None]
    return {
        "sim_overhead_pct": overhead,
        "space_overhead_pct": space,
        "detect_recall": _ratio(sum(r.detected for r in fired),
                                len(fired)),
        "detect_base": len(fired),
        "false_reports": sum(r.false_reports for r in results),
        "space_monitor": SPACE_MONITOR[workload],
        "overhead_monitor": monitored,
    }


def _ratio(part, base):
    return part / base if base else 0.0


def end_to_end(workload, passes, setup_samples, rss_mb):
    from stats import percentile, tail_percentile
    rates = [_ratio(sum(r.sim.get("requests", 0) for r in results),
                    sum(r.wall_s for r in results)) for results in passes]
    raw_rates = [_ratio(sum(r.sim.get("requests", 0) for r in results),
                        sum(r.raw_wall_s for r in results))
                 for results in passes]
    # At least one sample, so that a pass whose every run failed still
    # reports (with correct false) instead of crashing.
    latencies = [s for results in passes for r in results
                 for s in r.latencies] or [0.0]
    raw = [s for results in passes for r in results
           for s in r.raw_latencies] or [0.0]
    sim = simulated_metrics(workload, passes[0])
    tail = tail_percentile(len(latencies))
    values = {
        "req_per_s": statistics.median(rates),
        "req_ms_p50": percentile(latencies, 50) * 1000.0,
        "req_ms_p99": percentile(latencies, 99) * 1000.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "space_overhead_pct": sim["space_overhead_pct"],
    }
    notes = {
        "req_per_s": f"median of {len(passes)} pass(es); unscaled "
                     f"{statistics.median(raw_rates):.6g}",
        "req_ms_p50": f"{len(latencies)} requests; unscaled "
                      f"{percentile(raw, 50) * 1000.0:.6g}",
        "req_ms_p99": f"unscaled {percentile(raw, 99) * 1000.0:.6g}; "
                      f"highest percentile with >=10 beyond: p{tail:g} = "
                      f"{percentile(latencies, tail) * 1000.0:.6g}"
                      if tail else f"{len(latencies)} requests",
        "setup_s": f"median of {len(setup_samples)} set-up rounds",
        "peak_rss_mb": "after the first pass",
        "space_overhead_pct": f"{sim['space_monitor']} waste / "
                              f"requested bytes, normal input",
    }
    return values, notes, sim


def layer_metrics(tracer, results, untraced_s, traced_s, scale=1.0):
    """Per-layer metrics of the traced pass: name -> (value, unit,
    note).  Span seconds are multiplied by the host-time ``scale``."""
    totals = {}
    for result in results:
        for name, value in result.metrics.items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value

    def total(*names):
        return sum(totals.get(name, 0) for name in names)

    layers = tracer.by_layer()
    boundaries = tracer.by_boundary()

    def self_s(layer):
        return layers.get(layer, [0, 0.0])[1] * scale

    def calls(*names):
        return sum(boundaries.get(name, [0])[0] for name in names)

    accesses = total(*(f"machine.{op}.{path}" for op in ("load", "store")
                       for path in ("fast", "batched", "slow")))
    fast = total("machine.load.fast", "machine.store.fast",
                 "machine.load.batched", "machine.store.batched")
    hits = total("cache.l1.hit")
    tlb = total("mmu.tlb.hit")
    suspects = total("safemem.leak.suspects")
    syscalls = sum(value for name, value in totals.items()
                   if name.startswith("kernel.syscall."))
    out = {}

    def put(name, value, unit, note=""):
        out[name] = (value, unit, note)

    def put_ratio(name, part, base, what):
        put(name, _ratio(part, base), "fraction", f"of {base} {what}")

    put("machine.self_s", self_s("machine"), "s")
    put_ratio("machine.fast_share", fast, accesses, "accesses")
    put("machine.fault_retries",
        calls("Kernel.handle_uncorrectable_fault",
              "Kernel.handle_protection_fault"), "count")
    put("machine.boot_s", boundaries.get("Machine.__init__",
                                         [0, 0.0])[1] * scale, "s")
    put("cache.self_s", self_s("cache"), "s")
    put("cache.calls", layers.get("cache", [0])[0], "count")
    put_ratio("cache.hit_ratio", hits, hits + total("cache.l1.miss"),
              "line lookups")
    put("cache.flushes", total("cache.l1.flush"), "count")
    put("cache.writebacks", total("cache.l1.writeback"), "count")
    put("ecc.codec.self_s", self_s("ecc.codec"), "s")
    put("ecc.codec.calls", tracer.codec_calls, "count",
        "calls from outside the codec")
    put_ratio("ecc.codec.repeat_share", tracer.codec_repeats,
              tracer.codec_calls, "codec inputs")
    put_ratio("ecc.codec.zero_share", tracer.codec_zeros,
              tracer.codec_calls, "codec inputs")
    put("ecc.controller.self_s", self_s("ecc.controller"), "s")
    put("ecc.read_lines", total("ecc.read_lines"), "count")
    put("ecc.write_lines", total("ecc.write_lines"), "count")
    put("ecc.uncorrectable", total("ecc.uncorrectable"), "count")
    put("ecc.dram.self_s", self_s("ecc.dram"), "s")
    put("ecc.dram.bytes", tracer.dram_bytes, "bytes")
    put("mmu.self_s", self_s("mmu"), "s")
    put_ratio("mmu.tlb_hit_ratio", tlb, tlb + total("mmu.tlb.miss"),
              "TLB lookups")
    put("mmu.demand_fills", total("mmu.demand_fill"), "count")
    put("kernel.self_s", self_s("kernel"), "s")
    put("kernel.syscalls", syscalls, "count")
    put("kernel.ecc_traps", total("kernel.ecc_traps"), "count")
    put("heap.self_s", self_s("heap"), "s")
    put("heap.allocs", total("heap.allocs"), "count")
    put("core.self_s", self_s("core"), "s")
    put("core.watch_arms", total("safemem.watch.arms"), "count")
    put_ratio("core.prune_ratio", total("safemem.leak.pruned"), suspects,
              "leak suspects")
    put("baselines.self_s", self_s("baselines"), "s")
    put("baselines.calls", layers.get("baselines", [0])[0], "count")
    for part in ("sampler", "trend", "alerts", "history", "checkpoint"):
        put(f"obs.{part}.self_s", self_s(f"obs.{part}"), "s")
    put("obs.samples", total("sampler.samples"), "count")
    put("obs.checkpoints", calls("checkpoint.capture_checkpoint"),
        "count")
    put("workloads.self_s", self_s("workloads"), "s")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio",
        f"traced {traced_s:.2f} s / untraced {untraced_s:.2f} s")
    return out


def print_table(title, rows):
    print(title)
    for name, (value, unit, note) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit:9s} {note}")


def main(argv=None):
    import_program()
    from jobs import WORKLOADS
    args = parse_args(argv, list(WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    jobs = WORKLOADS[args.workload]
    print(f"workload {args.workload}: seed {args.seed}, {len(jobs)} jobs, "
          f"trace {args.trace}")

    from harness import run_pass, setup_round
    started = time.perf_counter()
    passes = [run_pass(jobs, args.seed, OUT_DIR)]
    first_pass_s = time.perf_counter() - started
    rss_mb = peak_rss_mb()

    if args.trace:
        from tracing import SpanTracer
        tracer = SpanTracer().install()
        try:
            passes.append(run_pass(jobs, args.seed, OUT_DIR))
        finally:
            tracer.uninstall()
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
        with gzip.open(spans_path, "wt", compresslevel=1) as handle:
            json.dump(tracer.document(), handle, separators=(",", ":"))
        untraced_s, traced_s = (sum(r.wall_s for r in results)
                                for results in passes)
        rows = layer_metrics(tracer, passes[1], untraced_s, traced_s,
                             traced_s / sum(r.raw_wall_s
                                            for r in passes[1]))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        last = first_pass_s
        while time.perf_counter() - started + last <= args.seconds:
            begun = time.perf_counter()
            passes.append(run_pass(jobs, args.seed, OUT_DIR))
            last = time.perf_counter() - begun
        setup_samples = [sum(r.setup_s for r in results)
                         for results in passes]
        rounds_began = time.perf_counter()
        while len(setup_samples) < SETUP_MIN_ROUNDS or (
                len(setup_samples) < SETUP_MAX_ROUNDS
                and time.perf_counter() - rounds_began < SETUP_BUDGET_S):
            setup_samples.append(setup_round(jobs, args.seed, OUT_DIR))
        values, notes, sim = end_to_end(args.workload, passes,
                                        setup_samples, rss_mb)
        rows = {name: (values[name], unit, notes[name])
                for name, unit in END_TO_END.items()}

    found = failures(passes)
    attempted = sum(len(results) for results in passes)
    failed = len({(number, label) for number, label, _ in found})
    print_table(f"{'per-layer' if args.trace else 'end-to-end'} metrics "
                f"({len(passes)} pass(es)):", rows)
    if not args.trace:
        print_table("also reported (not gated):", {
            "detect_recall": (sim["detect_recall"], "fraction",
                              f"of {sim['detect_base']} buggy runs whose "
                              f"bug fired"),
            "sim_overhead_pct": (
                sim["sim_overhead_pct"], "%",
                f"{sim['overhead_monitor']} vs native twins, normal input"
                if sim["overhead_monitor"] else
                "n/a: diurnal slots pad every request to a fixed budget"),
            "false_reports": (sim["false_reports"], "count",
                              "on normal-input runs"),
            "run_error_rate": (failed / attempted, "fraction",
                               f"{failed} of {attempted} runs"),
        })
    for number, _, message in found:
        print(f"CHECK FAILED (pass {number}): {message}")
    result = {
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
