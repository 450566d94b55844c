"""Micro-benchmark for the pluggable ECC codec backends.

Measures real encode/decode throughput (simulator ops/sec) for every
registered codec, plus whole-line machine loads under each chipset
profile -- the numbers behind the README's codec table and the
"which profile can afford which codec" guidance in docs/HARDWARE.md.

Per codec:

- ``encode_ops_per_sec``       -- single-word check-bit generation,
- ``encode_words_ops_per_sec`` -- the batched line path (groups/sec),
- ``decode_clean_ops_per_sec`` -- decode of an error-free group,
- ``decode_correct_ops_per_sec`` -- decode + correction of a
  single-bit error (the scrubber's hot path).

Per profile, ``line_loads_ops_per_sec`` measures whole-line machine
loads through ``Machine.load`` with the profile's codec installed.

Writes ``BENCH_codecs.json`` at the repo root and prints a summary.
Run directly (``python benchmarks/bench_codecs.py``) or through pytest
(marked ``slow``, so the tier-1 run never pays for it).
"""

import pathlib
import random
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import pytest

from conftest import write_bench_json

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.ecc.codec import codec_names, get_codec
from repro.ecc.profile import get_profile, profile_names
from repro.machine.machine import Machine

pytestmark = pytest.mark.slow

BASE = 0x4000_0000

#: operations per timed phase.
CODEC_OPS = 20_000
LINE_OPS = 4_000


def _time(fn):
    start = time.perf_counter()
    ops = fn()
    return ops / (time.perf_counter() - start)


def _bench_codec(name):
    codec = get_codec(name)
    rng = random.Random(f"bench:{name}")
    words = [rng.getrandbits(64) for _ in range(256)]
    checks = [codec.encode(word) for word in words]
    line = rng.randbytes(CACHE_LINE_SIZE)

    def run_encode():
        encode = codec.encode
        for i in range(CODEC_OPS):
            encode(words[i & 255])
        return CODEC_OPS

    def run_encode_words():
        encode_words = codec.encode_words
        groups = CACHE_LINE_SIZE // 8
        for _ in range(CODEC_OPS // groups):
            encode_words(line)
        return CODEC_OPS // groups * groups

    def run_decode_clean():
        decode = codec.decode
        for i in range(CODEC_OPS):
            decode(words[i & 255], checks[i & 255])
        return CODEC_OPS

    def run_decode_correct():
        decode = codec.decode
        for i in range(CODEC_OPS):
            decode(words[i & 255] ^ (1 << (i % 64)), checks[i & 255])
        return CODEC_OPS

    return {
        "check_bits": codec.check_bits,
        "overhead_percent": codec.overhead_percent,
        "double_bit_guarantee": codec.double_bit_guarantee,
        "encode_ops_per_sec": _time(run_encode),
        "encode_words_ops_per_sec": _time(run_encode_words),
        "decode_clean_ops_per_sec": _time(run_decode_clean),
        "decode_correct_ops_per_sec": _time(run_decode_correct),
    }


def _bench_profile(name):
    profile = get_profile(name)
    machine = Machine(dram_size=8 * 1024 * 1024, profile=name)
    machine.kernel.mmap(BASE, 16 * PAGE_SIZE)
    addresses = [BASE + i * CACHE_LINE_SIZE for i in range(64)]
    for address in addresses:
        machine.store(address, bytes(CACHE_LINE_SIZE))

    def run():
        load = machine.load
        for i in range(LINE_OPS):
            load(addresses[i & 63], CACHE_LINE_SIZE)
        return LINE_OPS

    return {
        "codec": profile.codec,
        "line_loads_ops_per_sec": _time(run),
    }


def build_report():
    return {
        "benchmark": "codecs",
        "codec_ops": CODEC_OPS,
        "line_ops": LINE_OPS,
        "codecs": {name: _bench_codec(name) for name in codec_names()},
        "profiles": {name: _bench_profile(name)
                     for name in profile_names()},
    }


def test_bench_codecs():
    report = build_report()
    # Throughput shape, not absolute speed: every backend must sustain
    # real work on both single-word encode and decode.
    for name, stats in report["codecs"].items():
        assert stats["encode_ops_per_sec"] > 0, name
        assert stats["decode_clean_ops_per_sec"] > 0, name
    path = write_bench_json("codecs", report)
    print(f"\nwrote {path}")
    for name, stats in sorted(report["codecs"].items()):
        print(f"  {name:10s} encode {stats['encode_ops_per_sec']:>12,.0f}"
              f"/s  decode {stats['decode_clean_ops_per_sec']:>12,.0f}/s"
              f"  correct {stats['decode_correct_ops_per_sec']:>12,.0f}/s")
    for name, stats in sorted(report["profiles"].items()):
        print(f"  {name:16s} line loads "
              f"{stats['line_loads_ops_per_sec']:>12,.0f}/s")


if __name__ == "__main__":
    test_bench_codecs()
