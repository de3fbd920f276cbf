"""Host-speed correction for wall times.

The host this benchmark was built on (a shared Linux VM with two vCPUs)
runs the same Python code up to two fifths slower for seconds at a time
while other tenants load it. Wall times are therefore reported at the
speed of a quiet host: a fixed reference task runs between sessions, and a
session's wall time is scaled by the reference's quiet-host time over its
time around the session.
"""

from __future__ import annotations

import statistics
import struct
import time
from dataclasses import dataclass

SAMPLE_EVERY_S = 0.025   # at most one reference sample per this many seconds
WINDOW = 5               # reference samples that set a session's host speed
REF_QUIET_S = 1.0e-3     # the reference task on the quiet host (Python 3.11)


@dataclass(frozen=True)
class _Event:
    pc: int


class _Core:
    def __init__(self):
        self.regs = [0] * 16
        self.mem = bytearray(256)

    def step(self, i: int, op: int):
        regs = self.regs
        if op == 0:
            regs[i & 15] = (regs[(i + 1) & 15] + i) & 0xFFFFFFFF
        elif op == 1:
            struct.pack_into(">I", self.mem, (i * 4) & 0xFC, regs[i & 15])
        elif op == 2:
            regs[3] = struct.unpack_from(">I", self.mem, (i * 4) & 0xFC)[0]
        elif op == 3:
            return _Event(i)
        return None


def reference_work(table: list[int]) -> int:
    """A fixed task that shares no code with cfaudit, so no change to
    cfaudit can change its cost: an interpreter-bound part in the
    simulator's style (method calls, register lists, struct packing, small
    frozen objects) and a memory-bound strided walk over ``table``. The mix
    makes its slowdown under other tenants' load track the workloads'."""
    core, ops, events = _Core(), {i: (i * 7) % 5 for i in range(32)}, []
    for i in range(2000):
        ev = core.step(i, ops[i & 31])
        if ev is not None:
            events.append(ev)
            if len(events) > 64:
                events.clear()
    total = 0
    seen = {}
    for i in range(0, len(table), 37):
        total += table[i]
        seen[i & 1023] = total
    return total


class HostSpeed:
    """Reference samples taken through a run, and the conversion of wall
    times to quiet-host times."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        self._table = list(range(200_000))

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work(self._table)
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def refresh(self) -> None:
        """Sample the host unless the last sample is recent."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def quiet(self, seconds: float) -> float:
        """``seconds`` of wall time at the quiet host's speed, judged by the
        median of the last few samples."""
        return seconds * REF_QUIET_S / statistics.median(self.samples[-WINDOW:])
