"""Simulated OS kernel: syscalls, ECC interrupt delivery, pinning."""

from repro.kernel.interrupts import EccFaultInfo, InterruptController
from repro.kernel.kernel import Kernel
from repro.kernel.watchregistry import WatchedRegion, WatchRegistry

__all__ = [
    "EccFaultInfo",
    "InterruptController",
    "Kernel",
    "WatchedRegion",
    "WatchRegistry",
]
