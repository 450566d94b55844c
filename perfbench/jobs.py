"""The benchmark's four workloads, each a fixed list of jobs.

A job is one (application, monitor, input) run on a freshly booted
machine.  Jobs run one after another in a single process -- a closed
loop with one client, no threads and no pools -- under the default
garbage collector, as validate and fleet workers run them.

Why each workload is in the benchmark:

- ``always-on``: the paper's production setting.  The seven Table 1
  applications under always-on SafeMem (leak + corruption detection),
  each on normal and buggy input, plus a native twin on normal input.
  SafeMem core, the kernel's watch syscalls and ECC traps, codec
  scramble/decode and cache flushes do the work; armed guard lines
  keep the machine's fast path off.  A per-page fast-path gate targets
  exactly this workload.
- ``unwatched``: the same applications and inputs under every monitor
  that arms no ECC watchpoint: native, SafeMem sampled at 1/1000
  (GWP-ASan's rate), Purify and page-protection guards.  The bypass
  workload for any SafeMem-core or kernel-watch change (predicted
  change: none), and the only one that runs ``baselines`` and the MMU's
  mprotect guard path.  Request counts are trimmed to fit the run
  length; corruption applications keep their bug's trigger request.
- ``monitor-stack``: the four ``*-diurnal`` leak applications on normal
  and buggy input under SafeMem with the full production stack of
  ``build_monitor_stack``: sampling profiler every 200k cycles,
  Theil-Sen trend detection with a 60M-cycle seasonal baseline, history,
  the default alert rules, and a checkpoint every 100M cycles.  ``obs``
  does most of its work here and none elsewhere; checkpoint captures
  stall single requests, which the tail latency must show.
- ``kv-churn``: a seeded key-value cache (``kvchurn.py``) under
  always-on SafeMem and a native twin.  The registry applications all
  write constant fill patterns and fit the LLC; this stream writes
  random bytes into a live set larger than the LLC, so capacity misses,
  write-backs and decoding of varied data are measured, and any
  content-keyed codec shortcut meets inputs that do not repeat.
"""

from dataclasses import dataclass

from repro.workloads.registry import (
    CORRUPTION_WORKLOADS,
    PAPER_WORKLOADS,
)
from repro.workloads.diurnal import DIURNAL_WORKLOADS

#: ``unwatched`` jobs run a quarter of an application's default
#: requests; buggy runs of a corruption application run just past the
#: request that triggers its bug.
UNWATCHED_SHARE = 4
UNWATCHED_TRIGGERS = {"gzip": 300, "tar": 320, "squid2": 350}

#: requests per ``monitor-stack`` job: five 50-request seasonal
#: periods and a little (the trend baseline warms over the first two).
#: A request slot is 1.2M cycles, so the 100M-cycle checkpoints stall
#: the requests after the 100M, 200M and 300M boundaries: 3 of 260,
#: above 1%, so the 99th percentile falls among the stalls.
DIURNAL_REQUESTS = 260

#: requests per ``kv-churn`` job.
KV_REQUESTS = 5000

#: SafeMem sampling rate of the ``unwatched`` production mode.
SAMPLED_RATE = 1 / 1000


@dataclass(frozen=True)
class Job:
    """One run: application, monitor kind, input, request count."""

    app: str
    #: ``native``, ``safemem``, ``sampled``, ``purify``, ``pageprot``
    #: or ``stack`` (SafeMem under the full monitoring stack).
    monitor: str
    buggy: bool
    #: None runs the application's default request count.
    requests: int = None

    @property
    def label(self):
        kind = "buggy" if self.buggy else "normal"
        return f"{self.app}/{self.monitor}/{kind}"


def _unwatched_requests(app, buggy):
    trigger = UNWATCHED_TRIGGERS.get(app)
    if buggy and trigger is not None:
        return trigger + 20
    return PAPER_WORKLOADS[app].default_requests // UNWATCHED_SHARE


def _always_on():
    return [job for app in PAPER_WORKLOADS for job in (
        Job(app, "safemem", False),
        Job(app, "safemem", True),
        Job(app, "native", False),
    )]


def _unwatched():
    jobs = []
    for app in PAPER_WORKLOADS:
        jobs.append(Job(app, "native", False,
                        _unwatched_requests(app, False)))
        for monitor in ("sampled", "purify", "pageprot"):
            for buggy in (False, True):
                jobs.append(Job(app, monitor, buggy,
                                _unwatched_requests(app, buggy)))
    return jobs


def _monitor_stack():
    return [Job(app, "stack", buggy, DIURNAL_REQUESTS)
            for app in DIURNAL_WORKLOADS for buggy in (False, True)]


def _kv_churn():
    return [Job("kv-churn", monitor, buggy, KV_REQUESTS)
            for monitor, buggy in (("safemem", False),
                                   ("safemem", True),
                                   ("native", False))]


#: workload name -> its jobs, in run order.  Why each is benchmarked is
#: in this module's docstring and in BENCHMARK.json.
WORKLOADS = {
    "always-on": _always_on(),
    "unwatched": _unwatched(),
    "monitor-stack": _monitor_stack(),
    "kv-churn": _kv_churn(),
}

#: applications whose bug is a corruption (the rest leak).
CORRUPTION_APPS = frozenset(CORRUPTION_WORKLOADS)

#: monitor kinds that must report every injected bug that fired:
#: always-on SafeMem and Purify's exact checker.  The stack's SafeMem
#: misses the ypserv2-diurnal leak on some seeds, which the recall
#: shows.
MUST_DETECT = frozenset({"safemem", "purify"})

#: per workload: the monitor whose normal runs are priced against the
#: native twins (simulated overhead), and the guard monitor whose waste
#: is the space overhead.
OVERHEAD_MONITOR = {"always-on": "safemem", "unwatched": "sampled",
                    "kv-churn": "safemem"}
SPACE_MONITOR = {"always-on": "safemem", "unwatched": "pageprot",
                 "monitor-stack": "stack", "kv-churn": "safemem"}
