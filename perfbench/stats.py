"""Small statistics helpers and the benchmark's naming rule."""

import math
import re

#: percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10

#: metric and workload names: a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def valid_name(name):
    return bool(NAME_RE.match(name))


def _rank(count, pct):
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count, pct):
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(count):
    """The highest percentile with at least ten samples beyond it, or
    None when even the median has fewer."""
    best = None
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best
