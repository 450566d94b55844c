"""Run one job on a freshly booted machine, timed from outside ``src/``.

The harness calls only public entry points: ``Machine``,
``make_monitor``/``build_monitor_stack``, ``Program``, ``get_workload``
and ``Workload.run`` with a request hook, then reads the machine's
``repro.metrics/v1`` snapshot.  Host time per request is the gap
between request-hook boundaries (the first request starts when the
workload's ``setup`` returns); set-up time is everything before it.

The shared host this benchmark runs on changes speed by up to a third
for tens of seconds at a time, the same for every process on it, so
raw host times of one commit taken minutes apart disagree more than any
bound worth having.  :class:`ScaledClock` therefore times a fixed loop
that shares no code with the program before each job, after it, and
between requests every :data:`CALIBRATE_EVERY_S`, leaving those
calibrations out of every interval it measures.  Each interval is
scaled by :data:`CALIBRATION_NOMINAL_S` over the mean of the two
calibrations around it, which expresses it at one nominal host speed.
"""

import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from repro.analysis.runner import (
    CACHE_SIZE,
    DRAM_SIZE,
    HEAP_SIZE,
    make_monitor,
)
from repro.core.sampling import SamplingPolicy
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.obs.export import snapshot_document
from repro.obs.stack import MonitorStackConfig, build_monitor_stack
from repro.workloads.base import GroundTruth
from repro.workloads.diurnal import SEASON_PERIOD_CYCLES
from repro.workloads.registry import get_workload

from jobs import CORRUPTION_APPS, MUST_DETECT, SAMPLED_RATE
from kvchurn import KvChurn

#: the calibration loop's iterations, and its duration in seconds at the
#: nominal host speed all scaled host times refer to.
CALIBRATION_LOOPS = 20_000
CALIBRATION_NOMINAL_S = 0.002

#: host seconds between calibrations inside a job.
CALIBRATE_EVERY_S = 0.25

#: profiler interval and checkpoint cadence of the production stack.
STACK_SAMPLE_EVERY = 200_000
STACK_CHECKPOINT_EVERY = 100_000_000


@dataclass
class JobResult:
    """What one job did: host timings, simulated statistics, checks."""

    job: object
    #: scaled host seconds (see :class:`ScaledClock`) of the set-up,
    #: of the whole job, and of each completed request.
    setup_s: float = 0.0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    #: the same, unscaled.
    raw_wall_s: float = 0.0
    raw_latencies: list = field(default_factory=list)
    #: simulated statistics; identical for the same job and seed.
    sim: dict = field(default_factory=dict)
    #: the run's ``repro.metrics/v1`` metric values.
    metrics: dict = field(default_factory=dict)
    #: buggy input whose bug fired: did the monitor report it?  None
    #: on normal input and when the bug never fired.
    detected: bool = None
    #: reports on normal input: leak reports, corruption stops and
    #: leak-trend firings.
    false_reports: int = 0
    #: failed checks; an exception counts as one.
    errors: list = field(default_factory=list)


def calibrate():
    """Host seconds of a fixed pure-Python loop, median of three.

    Allocates no container, so calibrating never moves the garbage
    collector's schedule (and with it the peak RSS).
    """
    first = second = third = 0.0
    for attempt in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        elapsed = time.perf_counter() - start
        if attempt == 0:
            first = elapsed
        elif attempt == 1:
            second = elapsed
        else:
            third = elapsed
    return max(min(first, second), min(max(first, second), third))


class ScaledClock:
    """Consecutive host-time intervals ("laps") of one pass, scaled to
    the nominal host speed.

    A calibration runs when the clock starts, in :meth:`maybe_calibrate`
    once :data:`CALIBRATE_EVERY_S` have passed, and in :meth:`finish`.
    Calibration time belongs to no lap.  A lap is scaled by the median
    of the four calibrations nearest to it, which follows the host's
    drift (seconds long) but not one calibration's jitter.
    """

    def __init__(self):
        self.calibrations = [calibrate()]
        self.mark = self.calibrated_at = time.perf_counter()
        #: (raw seconds, index of the calibration that opened the lap).
        self.laps = []
        #: lap seconds at nominal speed, filled by :meth:`finish`.
        self.scaled = []

    def restart(self):
        """Start the next lap now; the time since the last is dropped."""
        self.mark = time.perf_counter()

    def lap(self):
        now = time.perf_counter()
        self.laps.append((now - self.mark, len(self.calibrations) - 1))
        self.mark = now

    def maybe_calibrate(self):
        start = time.perf_counter()
        if start - self.calibrated_at < CALIBRATE_EVERY_S:
            return
        self.calibrations.append(calibrate())
        self.calibrated_at = time.perf_counter()
        self.mark += self.calibrated_at - start

    def finish(self):
        self.calibrations.append(calibrate())
        calibrations = self.calibrations
        scales = [CALIBRATION_NOMINAL_S / statistics.median(
                      calibrations[max(0, window - 1):window + 3])
                  for window in range(len(calibrations) - 1)]
        self.scaled = [seconds * scales[window]
                       for seconds, window in self.laps]


def run_pass(jobs, seed, workdir):
    """Run every job once, back to back, on one clock."""
    clock = ScaledClock()
    spans = []
    results = []
    for job in jobs:
        with tempfile.TemporaryDirectory(dir=workdir) as checkpoints:
            first = len(clock.laps)
            results.append(run_job(job, seed, checkpoints, clock))
            spans.append((first, len(clock.laps)))
    clock.finish()
    for result, (first, last) in zip(results, spans):
        raw = [seconds for seconds, _ in clock.laps[first:last]]
        scaled = clock.scaled[first:last]
        result.raw_wall_s, result.wall_s = sum(raw), sum(scaled)
        if len(raw) >= 2:
            # Laps: set-up, one per completed request, then the tail
            # (teardown and exit after the last request).
            result.setup_s = scaled[0]
            result.raw_latencies = raw[1:-1]
            result.latencies = scaled[1:-1]
    return results


def setup_round(jobs, seed, workdir):
    """Scaled host seconds of every job's set-up, without requests."""
    clock = ScaledClock()
    with tempfile.TemporaryDirectory(dir=workdir) as checkpoints:
        for job in jobs:
            clock.restart()
            _, _, _, program, workload = boot(job, seed, checkpoints)
            workload.setup(program, GroundTruth())
            clock.lap()
            clock.maybe_calibrate()
    clock.finish()
    return sum(clock.scaled)


def stack_config(checkpoint_dir):
    """The production monitoring stack of the monitor-stack workload."""
    return MonitorStackConfig(
        monitor="safemem",
        sample_every=STACK_SAMPLE_EVERY,
        trend="theil-sen",
        seasonal_period=SEASON_PERIOD_CYCLES,
        history=True,
        checkpoint_every=STACK_CHECKPOINT_EVERY,
        checkpoint_dir=str(checkpoint_dir),
    )


def make_workload(job, seed):
    if job.app == KvChurn.name:
        return KvChurn(requests=job.requests, seed=seed)
    return get_workload(job.app, requests=job.requests, seed=seed)


def boot(job, seed, checkpoint_dir):
    """Boot the machine and attach the job's monitor (and stack).

    Returns ``(machine, monitor, stack, program, workload)``; ``stack``
    is None outside the monitor-stack workload.
    """
    machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                      cache_ways=16)
    stack = None
    if job.monitor == "stack":
        run_info = {"workload": job.app, "monitor": "safemem",
                    "buggy": job.buggy, "requests": job.requests,
                    "seed": seed, "heap_size": HEAP_SIZE}
        stack = build_monitor_stack(stack_config(checkpoint_dir),
                                    machine=machine, run_info=run_info)
        monitor = stack.monitor
    elif job.monitor == "sampled":
        monitor = make_monitor(
            "safemem", sampling=SamplingPolicy(rate=SAMPLED_RATE,
                                               seed=seed))
    else:
        monitor = make_monitor(job.monitor)
    program = Program(machine, monitor=monitor, heap_size=HEAP_SIZE)
    workload = make_workload(job, seed)
    return machine, monitor, stack, program, workload


def run_job(job, seed, checkpoint_dir, clock):
    """Run one job, timing it on ``clock``; never raises (failures land
    in ``errors``).  :func:`run_pass` fills in the host times."""
    result = JobResult(job=job)
    clock.restart()
    try:
        _execute(job, seed, checkpoint_dir, result, clock)
    except Exception:  # the benchmark must finish and report the failure
        result.errors.append(f"{job.label}: raised\n"
                             f"{traceback.format_exc()}")
        clock.lap()
    clock.maybe_calibrate()
    return result


def _execute(job, seed, checkpoint_dir, result, clock):
    machine, monitor, stack, program, workload = boot(
        job, seed, checkpoint_dir)
    app_setup = workload.setup

    def timed_setup(program, truth):
        app_setup(program, truth)
        clock.lap()

    workload.setup = timed_setup
    stack_hook = stack.request_hook if stack is not None else None

    def request_hook(index, truth):
        clock.lap()
        # A checkpoint captured here stalls the next request's lap.
        if stack_hook is not None:
            stack_hook(index, truth)
        clock.maybe_calibrate()

    if stack is not None:
        stack.start()
    try:
        with machine.tracer.span(f"workload.{job.app}",
                                 monitor=job.monitor, buggy=job.buggy):
            truth = workload.run(program, buggy=job.buggy,
                                 request_hook=request_hook)
    finally:
        if stack is not None:
            stack.stop()
            stack.close()
    clock.lap()
    result.metrics = snapshot_document(machine.metrics.snapshot())["metrics"]
    _judge(job, result, machine, monitor, stack, workload, truth)


def _judge(job, result, machine, monitor, stack, workload, truth):
    """Fill the simulated statistics and check them against truth."""
    leak_reports = list(getattr(monitor, "leak_reports", ()))
    reported = {report.object_address for report in leak_reports}
    stopped = truth.detection is not None
    trend_firings = 0
    checkpoints = 0
    if stack is not None:
        trend_firings = sum(
            1 for transition in stack.engine.transitions
            if transition.rule.startswith("leak-trend-")
            and transition.state == "firing")
        checkpoints = len(stack.checkpoint_paths)
    if job.monitor == "pageprot":
        waste, requested = (monitor.monitor_waste_bytes,
                            monitor.requested_bytes)
    else:
        waste = result.metrics.get("safemem.space.waste_bytes", 0)
        requested = result.metrics.get("safemem.space.requested_bytes", 0)
    result.sim = {
        "cycles": machine.clock.cycles,
        "requests": truth.requests_completed,
        "leak_reports": len(leak_reports),
        "true_leak_reports": len(reported & truth.leaked_addresses),
        "stopped": stopped,
        "trend_firings": trend_firings,
        "checkpoints": checkpoints,
        "waste_bytes": waste,
        "requested_bytes": requested,
    }
    label = job.label
    if stopped and truth.corruption is None:
        result.errors.append(f"{label}: stopped on a corruption that "
                             f"never happened: {truth.detection}")
    if not stopped and truth.requests_completed != workload.requests:
        result.errors.append(
            f"{label}: completed {truth.requests_completed} of "
            f"{workload.requests} requests")
    if not job.buggy:
        result.false_reports = (len(leak_reports) + int(stopped)
                                + trend_firings)
        return
    if job.app in CORRUPTION_APPS:
        if truth.corruption is None:
            return
        result.detected = stopped
    else:
        if not truth.leaked_addresses:
            return
        result.detected = bool(reported & truth.leaked_addresses)
    if job.monitor in MUST_DETECT and not result.detected:
        result.errors.append(f"{label}: the injected bug was not "
                             f"reported")
