"""Set-associative write-back CPU cache.

The cache matters to SafeMem for one reason (Section 2.2.2, "Dealing
with Cache Effects"): ECC checks happen only on *memory* reads, so a
watched line that is still cached would never fault.  ``WatchMemory``
therefore flushes the watched line; and because a write miss performs a
line fill (write-allocate), even the first *write* to a watched line
reaches DRAM and trips the watchpoint.

This model reproduces those mechanics: LRU set-associative lookup,
write-back of dirty victims, explicit ``clflush``, and line fills that
go through the ECC controller (and may therefore raise ECC faults).
"""

from itertools import repeat

from repro.common.constants import CACHE_LINE_SIZE, line_base
from repro.common.errors import ConfigurationError
from repro.obs.metrics import attr_reader as _attr_reader


class _Line:
    """One resident cache line."""

    __slots__ = ("tag", "data", "dirty", "stamp")

    def __init__(self, tag, data, stamp):
        self.tag = tag
        self.data = bytearray(data)
        self.dirty = False
        self.stamp = stamp


class Cache:
    """Physically-indexed, physically-tagged write-back cache."""

    def __init__(self, controller, size=64 * 1024, ways=8,
                 clock=None, cost_model=None, metrics=None,
                 level="l1"):
        if size % (ways * CACHE_LINE_SIZE):
            raise ConfigurationError(
                f"cache size {size} not divisible into {ways}-way sets of "
                f"{CACHE_LINE_SIZE}-byte lines"
            )
        self.controller = controller
        self.ways = ways
        self.num_sets = size // (ways * CACHE_LINE_SIZE)
        self._sets = [dict() for _ in range(self.num_sets)]
        self._tick = 0
        self.clock = clock
        self.cost_model = cost_model
        self.level = level
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.flushes = 0
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``cache.<level>.*`` probes into a metrics registry."""
        prefix = f"cache.{self.level}"
        for name, attr in (
            (f"{prefix}.hit", "hits"),
            (f"{prefix}.miss", "misses"),
            (f"{prefix}.eviction", "evictions"),
            (f"{prefix}.writeback", "writebacks"),
            (f"{prefix}.flush", "flushes"),
        ):
            metrics.probe(name, _attr_reader(self, attr),
                          kind="counter")
        metrics.probe(
            f"{prefix}.resident_lines",
            lambda: sum(len(s) for s in self._sets),
            kind="gauge",
        )

    # ------------------------------------------------------------------
    # program-visible access path
    # ------------------------------------------------------------------
    def load(self, paddr, size):
        """Read ``size`` bytes at physical address ``paddr``.

        Splits accesses that straddle cache lines.  A miss fills the
        line through the ECC controller; an armed watchpoint on that
        line raises :class:`UncorrectableEccError` out of this call.
        """
        out = bytearray()
        for chunk_addr, chunk_size in _chunks(paddr, size):
            line = self._access_line(chunk_addr, for_write=False)
            offset = chunk_addr - line_base(chunk_addr)
            out += line.data[offset:offset + chunk_size]
        return bytes(out)

    def store(self, paddr, data):
        """Write bytes at ``paddr`` (write-allocate: misses fill first)."""
        position = 0
        for chunk_addr, chunk_size in _chunks(paddr, len(data)):
            line = self._access_line(chunk_addr, for_write=True)
            offset = chunk_addr - line_base(chunk_addr)
            line.data[offset:offset + chunk_size] = (
                data[position:position + chunk_size]
            )
            line.dirty = True
            position += chunk_size

    # ------------------------------------------------------------------
    # short-circuit access path (machine fast path)
    # ------------------------------------------------------------------
    def fast_read(self, paddr, size):
        """Serve a single-line read from a resident line, else ``None``.

        The caller guarantees ``[paddr, paddr+size)`` stays inside one
        cache line.  Bookkeeping (hit count, LRU stamp, cycle charge)
        matches :meth:`load` exactly, so taking this path never changes
        the simulated statistics or timings -- only the Python overhead.
        """
        base = paddr - (paddr % CACHE_LINE_SIZE)
        line = self._sets[
            (base // CACHE_LINE_SIZE) % self.num_sets
        ].get(base)
        if line is None:
            return None
        self.hits += 1
        self._tick += 1
        line.stamp = self._tick
        self._charge_hit()
        offset = paddr - base
        return bytes(line.data[offset:offset + size])

    def fast_write(self, paddr, data):
        """Write into a resident line; ``False`` when not resident.

        Single-line only, same bookkeeping contract as :meth:`fast_read`.
        """
        base = paddr - (paddr % CACHE_LINE_SIZE)
        line = self._sets[
            (base // CACHE_LINE_SIZE) % self.num_sets
        ].get(base)
        if line is None:
            return False
        self.hits += 1
        self._tick += 1
        line.stamp = self._tick
        self._charge_hit()
        offset = paddr - base
        line.data[offset:offset + len(data)] = data
        line.dirty = True
        return True

    # ------------------------------------------------------------------
    # span access path (Machine._span_walk's multi-line accesses)
    # ------------------------------------------------------------------
    def load_span(self, paddr, size):
        """Read ``size`` bytes, amortizing per-line Python overhead.

        Simulation-equivalent to :meth:`load`: identical hit/miss/LRU
        bookkeeping and cycle charges, applied in the same order.  The
        only liberty taken is summing the ``cache_hit`` charges of
        consecutive hits into one ``clock.tick`` -- legal while no
        timers are armed (checked up front and after every miss);
        otherwise each hit charges inline exactly like :meth:`load`.
        Any miss settles the deferred hits first and goes through
        :meth:`_access_line`, so fills, evictions, write-backs, and
        ECC faults behave identically to the scalar path.
        """
        if size < 0:
            raise ConfigurationError(f"negative access size: {size}")
        sets = self._sets
        num_sets = self.num_sets
        clock = self.clock
        charging = clock is not None and self.cost_model is not None
        hit_cost = self.cost_model.cache_hit if charging else 0
        defer = charging and clock.timer_count == 0
        tick = self._tick
        hits = 0
        pending = 0
        out = bytearray()
        cursor = paddr
        remaining = size
        while remaining > 0:
            base = cursor - (cursor % CACHE_LINE_SIZE)
            take = min(remaining, base + CACHE_LINE_SIZE - cursor)
            line = sets[(base // CACHE_LINE_SIZE) % num_sets].get(base)
            if line is None:
                # Miss: restore exact cache/clock state, then take the
                # one true fill path (an armed line raises out of it
                # with all accumulated state already applied).
                self._tick = tick
                self.hits += hits
                hits = 0
                if pending:
                    clock.tick(pending)
                    pending = 0
                line = self._access_line(base, for_write=False)
                tick = self._tick
                defer = charging and clock.timer_count == 0
            else:
                tick += 1
                hits += 1
                line.stamp = tick
                if defer:
                    pending += hit_cost
                elif charging:
                    clock.tick(hit_cost)
            offset = cursor - base
            out += line.data[offset:offset + take]
            cursor += take
            remaining -= take
        self._tick = tick
        self.hits += hits
        if pending:
            clock.tick(pending)
        return bytes(out)

    def store_span(self, paddr, data):
        """Write ``data`` at ``paddr``; span twin of :meth:`store`.

        Same equivalence contract as :meth:`load_span` (write-allocate
        misses go through :meth:`_access_line` with flushed state).
        ``data`` may be any buffer, including a memoryview.
        """
        sets = self._sets
        num_sets = self.num_sets
        clock = self.clock
        charging = clock is not None and self.cost_model is not None
        hit_cost = self.cost_model.cache_hit if charging else 0
        defer = charging and clock.timer_count == 0
        tick = self._tick
        hits = 0
        pending = 0
        position = 0
        cursor = paddr
        remaining = len(data)
        while remaining > 0:
            base = cursor - (cursor % CACHE_LINE_SIZE)
            take = min(remaining, base + CACHE_LINE_SIZE - cursor)
            line = sets[(base // CACHE_LINE_SIZE) % num_sets].get(base)
            if line is None:
                self._tick = tick
                self.hits += hits
                hits = 0
                if pending:
                    clock.tick(pending)
                    pending = 0
                line = self._access_line(base, for_write=True)
                tick = self._tick
                defer = charging and clock.timer_count == 0
            else:
                tick += 1
                hits += 1
                line.stamp = tick
                if defer:
                    pending += hit_cost
                elif charging:
                    clock.tick(hit_cost)
            offset = cursor - base
            line.data[offset:offset + take] = data[position:position + take]
            line.dirty = True
            position += take
            cursor += take
            remaining -= take
        self._tick = tick
        self.hits += hits
        if pending:
            clock.tick(pending)

    # ------------------------------------------------------------------
    # maintenance operations
    # ------------------------------------------------------------------
    def flush_line(self, paddr, count=1, resident_only=False):
        """clflush over ``count`` consecutive lines from ``paddr``.

        Writes back the dirty lines, then invalidates all of them.
        Used by WatchMemory so the next access must go to DRAM.  Every
        line counts one flush -- with ``resident_only``, only the lines
        that were resident.  Dirty lines write back as contiguous
        bursts, one controller write per run of consecutive dirty
        lines, still counting one write-back per line.
        """
        base = paddr - paddr % CACHE_LINE_SIZE
        taken = self._take(base, count)
        resident = count - taken.count(None)
        self.flushes += resident if resident_only else count
        if not resident:
            return
        burst = []
        for index, line in enumerate(taken):
            if line is not None and line.dirty:
                burst.append(line.data)
            elif burst:
                self._write_back(base + (index - len(burst))
                                 * CACHE_LINE_SIZE, burst)
                burst = []
        if burst:
            self._write_back(base + (count - len(burst))
                             * CACHE_LINE_SIZE, burst)

    def flush_all(self):
        """Write back and invalidate every resident line."""
        for index, cache_set in enumerate(self._sets):
            for base, line in list(cache_set.items()):
                if line.dirty:
                    self.controller.write_line(base, bytes(line.data))
                    self.writebacks += 1
            cache_set.clear()

    def contains(self, paddr):
        """True when the line holding ``paddr`` is resident."""
        base = line_base(paddr)
        return base in self._sets[self._set_index(base)]

    def invalidate_line(self, paddr, count=1):
        """Drop ``count`` consecutive lines without writing them back."""
        self._take(paddr - paddr % CACHE_LINE_SIZE, count)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _access_line(self, paddr, for_write):
        base = line_base(paddr)
        index = self._set_index(base)
        cache_set = self._sets[index]
        self._tick += 1
        line = cache_set.get(base)
        if line is not None:
            self.hits += 1
            self._charge_hit()
            line.stamp = self._tick
            return line

        self.misses += 1
        self._charge_hit()
        self._charge_miss()
        if len(cache_set) >= self.ways:
            self._evict_lru(cache_set)
        # The fill goes through the controller: this is where an armed
        # watchpoint fires.  If it raises, no line is installed.
        data = self.controller.read_line(base)
        line = _Line(base, data, self._tick)
        cache_set[base] = line
        return line

    def _take(self, base, count):
        """Pop ``count`` lines from ``base`` on; ``None`` where absent."""
        sets = self._sets
        first = (base // CACHE_LINE_SIZE) % self.num_sets
        chosen = sets[first:first + count]
        while len(chosen) < count:
            chosen += sets[:count - len(chosen)]
        return list(map(
            dict.pop, chosen,
            range(base, base + count * CACHE_LINE_SIZE, CACHE_LINE_SIZE),
            repeat(None, count),
        ))

    def _write_back(self, base, datas):
        """One controller burst for consecutive dirty lines from ``base``."""
        self.controller.write_line(base, b"".join(datas))
        self.writebacks += len(datas)

    def _evict_lru(self, cache_set):
        victim_base = min(cache_set, key=lambda b: cache_set[b].stamp)
        victim = cache_set.pop(victim_base)
        self.evictions += 1
        if victim.dirty:
            self.controller.write_line(victim_base, bytes(victim.data))
            self.writebacks += 1
            self._charge_writeback()

    def _set_index(self, line_address):
        return (line_address // CACHE_LINE_SIZE) % self.num_sets

    def _charge_hit(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(self.cost_model.cache_hit)

    def _charge_miss(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(self.cost_model.cache_miss)

    def _charge_writeback(self):
        if self.clock is not None and self.cost_model is not None:
            self.clock.tick(self.cost_model.writeback)


def _chunks(address, size):
    """Split ``[address, address+size)`` at cache-line boundaries."""
    if size < 0:
        raise ConfigurationError(f"negative access size: {size}")
    remaining = size
    cursor = address
    while remaining > 0:
        line_end = line_base(cursor) + CACHE_LINE_SIZE
        chunk = min(remaining, line_end - cursor)
        yield cursor, chunk
        cursor += chunk
        remaining -= chunk
