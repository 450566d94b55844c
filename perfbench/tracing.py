"""Host-time spans around each layer's public entry points.

:func:`install` patches the entry points at class level (and the two
checkpoint functions at module level) before any machine boots, so no
code under ``src/`` changes.  Every call then records a span: boundary
name, start, end, parent boundary and request id.  ``always-on`` alone
makes millions of such calls, so spans are folded on the fly into one
record per (request, parent, boundary) -- calls, total seconds, self
seconds -- and written out when the run ends.

A span's self time is its duration minus the part covered by its child
spans.  Calls are nested and single-threaded, so children never
overlap and the covered part is the sum of their durations.

The layer of a boundary is the ``src/repro`` package that defines it
(``ecc`` and ``obs`` split by module); the benchmark's own application
model belongs to ``workloads``.
"""

import importlib
import time

#: (module, class, methods) whose definitions in the class and in all
#: its subclasses get a span.  The request root is ``handle_request``.
CLASS_TARGETS = (
    ("repro.workloads.base", "Workload", ("setup", "handle_request")),
    ("repro.machine.program", "Program", ("load", "store", "run_ops")),
    ("repro.machine.machine", "Machine",
     ("__init__", "load", "store", "run_ops")),
    ("repro.machine.monitor", "Monitor",
     ("malloc", "free", "realloc", "before_load", "before_store")),
    ("repro.heap.allocator", "Allocator", ("malloc", "free")),
    ("repro.kernel.kernel", "Kernel",
     ("watch_memory", "disable_watch_memory", "register_ecc_fault_handler",
      "mmap", "munmap", "mprotect", "register_segv_handler",
      "handle_protection_fault", "handle_uncorrectable_fault")),
    ("repro.kernel.interrupts", "InterruptController", ("deliver",)),
    ("repro.mmu.mmu", "Mmu", ("translate", "translate_fast")),
    ("repro.cache.cache", "Cache",
     ("load", "store", "fast_read", "fast_write", "load_span",
      "store_span", "flush_line")),
    ("repro.ecc.controller", "MemoryController", ("read_line", "write_line")),
    ("repro.ecc.codec", "Codec", ("encode", "encode_words", "decode")),
    ("repro.ecc.dram", "PhysicalMemory",
     ("read_raw", "write_raw", "read_group", "write_group",
      "write_group_data_only", "read_groups", "write_groups",
      "write_groups_data_only")),
    ("repro.obs.sampler", "SamplingProfiler", ("sample_now",)),
    ("repro.obs.trend", "TrendEngine", ("observe",)),
    ("repro.obs.alerts", "AlertEngine", ("evaluate",)),
    ("repro.obs.history", "HistoryStore", ("observe",)),
)

#: module-level functions that get a span (checkpoint capture).
FUNCTION_TARGETS = (
    ("repro.obs.checkpoint", ("capture_checkpoint", "write_checkpoint")),
)

#: boundaries that open a request (when no span is open) or the
#: per-run set-up phase.
REQUEST_ROOT = "Workload.handle_request"
SETUP_ROOT = "Workload.setup"

#: DRAM bytes (data and check) moved by each PhysicalMemory entry
#: point, from the instance and the call's positional arguments.
DRAM_BYTES = {
    "read_raw": lambda memory, args: args[1],
    "write_raw": lambda memory, args: len(args[1]),
    "read_group": lambda memory, args: 8 + memory.check_bytes_per_group,
    "write_group": lambda memory, args: 8 + memory.check_bytes_per_group,
    "write_group_data_only": lambda memory, args: 8,
    "read_groups": lambda memory, args:
        args[1] * (8 + memory.check_bytes_per_group),
    "write_groups": lambda memory, args: len(args[1]) + len(args[2]),
    "write_groups_data_only": lambda memory, args: len(args[1]),
}


def layer_of(module):
    """Layer name of a boundary defined in ``module``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return "workloads"
    if parts[1] in ("ecc", "obs"):
        return f"{parts[1]}.{parts[2]}"
    return parts[1]


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class SpanTracer:
    """Span recorder folded per (request, parent, boundary)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [boundary, child seconds].
        self.stack = []
        #: current request id; None outside requests.
        self.request = None
        self.requests_seen = 0
        #: (request, parent, boundary) -> [calls, total s, self s].
        self.records = {}
        #: boundary -> layer.
        self.layers = {}
        self.dram_bytes = 0
        #: codec inputs: calls, repeats of an earlier input, zero inputs.
        self.codec_calls = 0
        self.codec_repeats = 0
        self.codec_zeros = 0
        self._codec_seen = set()
        self._patches = []

    # -- recording -----------------------------------------------------
    def span(self, boundary, fn, layer="workloads"):
        """Wrap ``fn`` so each call records a ``boundary`` span."""
        self.layers[boundary] = layer
        clock = self.clock
        stack = self.stack
        records = self.records
        root = boundary in (REQUEST_ROOT, SETUP_ROOT)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if root and parent is None:
                if boundary == REQUEST_ROOT:
                    tracer.request = tracer.requests_seen
                    tracer.requests_seen += 1
                else:
                    tracer.request = "setup"
            frame = [boundary, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                key = (tracer.request,
                       parent[0] if parent is not None else None, boundary)
                if parent is not None:
                    parent[1] += duration
                elif root:
                    tracer.request = None
                record = records.get(key)
                if record is None:
                    records[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]

        wrapper.__name__ = getattr(fn, "__name__", boundary)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _codec_input(self, key, is_zero):
        self.codec_calls += 1
        if key in self._codec_seen:
            self.codec_repeats += 1
        else:
            self._codec_seen.add(key)
        if is_zero:
            self.codec_zeros += 1

    def _observe_codec(self, name, fn):
        tracer = self

        def observed(codec, *args):
            # Only inputs from outside the codec count; decode encodes
            # its data word again internally.
            stack = tracer.stack
            if len(stack) < 2 or \
                    tracer.layers[stack[-2][0]] != "ecc.codec":
                values = tuple(bytes(value) if isinstance(value, bytearray)
                               else value for value in args)
                tracer._codec_input(
                    (name, values),
                    all(not _nonzero(value) for value in values))
            return fn(codec, *args)

        return observed

    def _observe_dram(self, name, fn):
        tracer = self
        measure = DRAM_BYTES[name]

        def observed(memory, *args):
            tracer.dram_bytes += measure(memory, args)
            return fn(memory, *args)

        return observed

    # -- patching ------------------------------------------------------
    def install(self):
        """Patch every target; :meth:`uninstall` restores them."""
        for module_name, class_name, methods in CLASS_TARGETS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in _subclasses(base):
                for name in methods:
                    if name in cls.__dict__:
                        self._patch_method(cls, name)
        for module_name, names in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._patches.append((module, name, original))
                setattr(module, name, self.span(
                    f"{module_name.rsplit('.', 1)[1]}.{name}", original,
                    layer_of(module_name)))
        return self

    def _patch_method(self, cls, name):
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        layer = layer_of(cls.__module__)
        boundary = f"{cls.__name__}.{name}"
        fn = original
        if layer == "ecc.codec":
            fn = self._observe_codec(name, fn)
        elif layer == "ecc.dram":
            fn = self._observe_dram(name, fn)
        if name == "__init__":
            layer = "machine.boot"
        elif layer == "workloads" and name in ("setup", "handle_request"):
            boundary = f"Workload.{name}"
        setattr(cls, name, self.span(boundary, fn, layer))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------
    def by_boundary(self):
        """boundary -> [calls, total s, self s], summed over requests."""
        totals = {}
        for (_, _, boundary), (calls, total, own) in self.records.items():
            entry = totals.setdefault(boundary, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return totals

    def by_layer(self):
        """layer -> [calls, self s]."""
        layers = {}
        for boundary, (calls, _, own) in self.by_boundary().items():
            entry = layers.setdefault(self.layers[boundary], [0, 0.0])
            entry[0] += calls
            entry[1] += own
        return layers

    def document(self):
        """The folded spans as a JSON-able document."""
        return {
            "schema": "perfbench.spans/v1",
            "fields": ["request", "parent", "boundary", "calls",
                       "total_s", "self_s"],
            "layers": dict(sorted(self.layers.items())),
            "spans": [[request, parent, boundary, calls, total, own]
                      for (request, parent, boundary), (calls, total, own)
                      in self.records.items()],
        }


def _nonzero(value):
    if isinstance(value, int):
        return value != 0
    return value.count(0) != len(value)
