"""CPU time of the benchmark's work, scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent from minute to minute: the hypervisor takes the vCPU
away (steal time), and neighbours on the same physical core or cache
slow every instruction.  Two measures keep that out of the metrics:

* Times are CPU time (``CLOCK_PROCESS_CPUTIME_ID`` of the repetition,
  plus every thread of a server shard), not wall time.  With
  paravirtual steal accounting the kernel leaves steal time out of a
  task's CPU time, and time spent waiting for a CPU never counts.
* A calibration thread runs a fixed pure-Python loop (``calibrate``)
  for about a millisecond every ``PERIOD_S`` seconds on the same vCPU
  (the repetition pins itself to one) and records each chunk's CPU
  time.  The mean chunk time over a window, divided by
  ``REFERENCE_CHUNK_S`` (the chunk's CPU time on the machine the
  benchmark was tuned on), is the host's slowdown over that window.
  Dividing a time by it gives the CPU time the work would have taken on
  that reference machine; code changes under ``src/`` do not move it.
  Each operation is scaled by the slowdown around it (``PAD_CHUNKS``
  chunks either side), because the host's speed drifts within a run too.

The calibration thread's own CPU time is subtracted from the process's,
so the scaled times cover only the workload.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

#: Mean CPU seconds of one ``calibrate()`` chunk on the reference
#: machine (2-vCPU Xeon VM at 2.1 GHz, CPython 3.11, idle host).
REFERENCE_CHUNK_S = 0.86e-3
#: Wall seconds the calibration thread sleeps between chunks.
PERIOD_S = 0.02
#: Loop trips of one chunk.
CHUNK_TRIPS = 7_000
#: Chunks either side of an operation that set its slowdown (~0.5 s).
PAD_CHUNKS = 25


class _Cell:
    __slots__ = ("count", "total")


def calibrate(trips: int = CHUNK_TRIPS) -> int:
    """Fixed interpreter work: register moves, dict stores and loads,
    slot attributes, small-int arithmetic (the mix of the simulator's
    inner loop, with none of its code)."""
    regs = [0] * 32
    memory: dict = {}
    cell = _Cell()
    cell.count = 1
    cell.total = 0
    pc = 0
    for i in range(trips):
        op = i & 7
        if op < 3:
            regs[op + 1] = (regs[op] + i * 3) & 0xFFFF
        elif op < 5:
            memory[regs[op] & 255] = regs[op - 1]
        else:
            regs[op] = memory.get(regs[op - 2] & 255, 0) + cell.count
        cell.total += op
        pc = (pc + 4) & 0xFFF
    return regs[3] + cell.total + pc


def pin_to_one_cpu() -> None:
    """Run this process (and every process it forks) on one vCPU, so the
    calibration chunks see the same host as the work."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # affinity not permitted: calibrate wherever the work runs


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of every live thread of process ``pid``."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            text = Path(f"/proc/{pid}/task/{task}/schedstat").read_text()
        except FileNotFoundError:
            continue  # the thread ended after the listing
        total += int(text.split()[0])
    return total / 1e9


class HostClock:
    """CPU time of the workload, and the host's slowdown while it ran."""

    def __init__(self):
        #: Other processes whose CPU time is part of the work (a shard).
        self.pids: list[int] = []
        self.chunks: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-calibration")
        self._clock_id = None
        self._ready = threading.Event()

    def start(self) -> "HostClock":
        self._thread.start()
        self._ready.wait()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        self._clock_id = time.pthread_getcpuclockid(threading.get_ident())
        self._ready.set()
        clock = time.thread_time
        while not self._stop.wait(PERIOD_S):
            tic = clock()
            calibrate()
            self.chunks.append(clock() - tic)

    def cpu(self) -> float:
        """CPU seconds of the work so far: this process without the
        calibration thread, plus the registered processes."""
        own = time.process_time() - time.clock_gettime(self._clock_id)
        return own + sum(tree_cpu_s(pid) for pid in self.pids)

    def settle(self, chunks: int) -> None:
        """Idle until at least ``chunks`` calibration chunks have run."""
        while len(self.chunks) < chunks:
            time.sleep(PERIOD_S)

    def begin(self) -> tuple[float, int]:
        """Start measuring one operation."""
        return self.cpu(), len(self.chunks)

    def end(self, begun: tuple[float, int]) -> tuple[float, int, int]:
        """(CPU seconds, first chunk, end chunk) of the operation."""
        cpu, first = begun
        return self.cpu() - cpu, first, len(self.chunks)

    def slowdown(self, first: int = 0, end: int | None = None) -> float:
        """Mean CPU time of chunks ``first:end`` / the reference machine's."""
        chunks = self.chunks[first:end]
        if not chunks:
            raise RuntimeError("no calibration chunk ran in the window")
        return sum(chunks) / len(chunks) / REFERENCE_CHUNK_S

    def scaled(self, measured: tuple[float, int, int],
               pad: int = PAD_CHUNKS) -> float:
        """CPU seconds of a measured operation at the reference speed.

        Call it after the run: the window reaches ``pad`` chunks past
        the operation's end.
        """
        cpu, first, end = measured
        return cpu / self.slowdown(max(0, first - pad), end + pad)
