"""``kv-churn``: a seeded key-value cache the benchmark generates and owns.

Every registry application writes constant fill patterns (``b"\\xab" *
n`` and the like), so the codec sees a handful of distinct lines and
every working set fits the 2 MiB last-level cache.  This workload is
the counterweight: values are seeded random bytes, the live values
outgrow the cache, and keys follow a zipf-like popularity curve, so
capacity misses, write-backs and decoding of varied data all happen.

The cache is split into slab classes by value size, each with its own
LRU list and entry cap, as in memcached.  One request is a get of one
key: the class is drawn by weight (small values are the common case),
the key by zipf popularity within the class.  A hit reads the whole
value and refreshes its LRU position; a miss allocates the value,
fills it with fresh random bytes and, when the class is full, evicts
its least-recently used entry with ``free``.  Values also expire
:data:`TTL_REQUESTS` after they were stored.  On buggy input a seeded
fraction of evictions and expiries drops the pointer without ``free``
-- the injected leak, recorded in the ground truth.

With the constants below, live values peak near 2.2 MiB, just above
the LLC, and one 5000-request SafeMem run misses the LLC about 90k
times and writes back about 70k lines.  The caps alone would allow
3 MiB; a longer TTL would fill them, but SafeMem then needs more
requests to report the leak.

The program only ever sees the generated requests; the seed is
consumed here, in :meth:`KvChurn.__init__`.
"""

import bisect
import itertools
import random
from collections import OrderedDict, deque

from repro.workloads.base import Workload

#: slab classes: (value bytes, share of requests, distinct keys,
#: entry cap).
SLABS = (
    (256, 0.22, 600, 64),
    (512, 0.18, 600, 64),
    (1024, 0.15, 500, 96),
    (2048, 0.15, 400, 160),
    (4096, 0.15, 400, 256),
    (8192, 0.15, 400, 224),
)

#: zipf exponent of key popularity within a class.
ZIPF_EXPONENT = 0.9

#: fraction of evictions that skip ``free`` on buggy input.
LEAK_RATE = 0.05

#: requests a value lives at most.  Expired values are swept out at
#: the start of each request.  Without this bound a popular value that
#: is finally evicted sets a new maximal lifetime for its group, and
#: SafeMem's lifetime-outlier detector, which waits for that maximum to
#: settle, missed the leak on 3 of 50 seeds.
TTL_REQUESTS = 1200

#: simulated instructions per request (hashing, protocol parsing).
COMPUTE_PER_REQUEST = 80_000

#: allocation site of cache values (one leak group per slab class).
VALUE_SITE = 0xE100


class KvChurn(Workload):
    """Slab-class LRU key-value cache with random values, a TTL, and an
    eviction leak."""

    name = "kv-churn"
    description = "a seeded key-value cache with an LRU eviction leak"
    bug = "sleak"
    default_requests = 3000

    def __init__(self, requests=None, seed=0):
        super().__init__(requests=requests, seed=seed)
        rng = self.rng
        classes = rng.choices(range(len(SLABS)),
                              weights=[slab[1] for slab in SLABS],
                              k=self.requests)
        zipf = {}
        for index, (_, _, keys, _) in enumerate(SLABS):
            zipf[index] = list(itertools.accumulate(
                1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(keys)))
        #: the request stream: (slab class, key rank) per request.
        self.stream = [
            (cls, bisect.bisect(zipf[cls], rng.random() * zipf[cls][-1]))
            for cls in classes
        ]
        # Leak coins and value bytes draw from their own streams, so
        # the request stream is identical on normal and buggy input.
        self.leak_rng = random.Random(rng.getrandbits(64))
        self.value_rng = random.Random(rng.getrandbits(64))

    def setup(self, program, truth):
        #: per class: key -> (address, global slot), oldest first.
        self.slabs = [OrderedDict() for _ in SLABS]
        #: (expiry request, class, key, address), in insertion order.
        self.expiry = deque()
        self.free_slots = []
        self.next_slot = 0

    def handle_request(self, program, index, buggy, truth):
        while self.expiry and self.expiry[0][0] <= index:
            _, cls, key, address = self.expiry.popleft()
            entry = self.slabs[cls].get(key)
            if entry is not None and entry[0] == address:
                del self.slabs[cls][key]
                self._drop(program, entry, buggy, truth)
        cls, key = self.stream[index]
        size, _, _, cap = SLABS[cls]
        lru = self.slabs[cls]
        entry = lru.get(key)
        if entry is not None:
            lru.move_to_end(key)
            program.load(entry[0], size)
        else:
            if len(lru) >= cap:
                self._drop(program, lru.popitem(last=False)[1], buggy,
                           truth)
            with program.frame(VALUE_SITE):
                address = program.malloc(size)
            program.store(address, self.value_rng.randbytes(size))
            slot = self.free_slots.pop() if self.free_slots \
                else self._new_slot()
            program.set_global(slot, address)
            lru[key] = (address, slot)
            self.expiry.append((index + TTL_REQUESTS, cls, key, address))
        program.compute(COMPUTE_PER_REQUEST)

    def _new_slot(self):
        slot = self.next_slot
        self.next_slot += 1
        return slot

    def _drop(self, program, entry, buggy, truth):
        """Evict or expire one value: ``free`` it, or on buggy input
        leak it with probability :data:`LEAK_RATE`."""
        address, slot = entry
        program.set_global(slot, 0)
        self.free_slots.append(slot)
        if buggy and self.leak_rng.random() < LEAK_RATE:
            truth.leaked_addresses.add(address)
        else:
            program.free(address)
