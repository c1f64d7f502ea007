"""A fixed measure of how fast the machine runs Python right now.

The benchmark's host runs other tenants on the same cores, and a busy
neighbour makes the same pure-Python code take up to twice as long, in
phases from seconds to minutes long.  Raw host seconds therefore move
with the neighbours, not only with the simulator.

The yardstick is a small discrete-event loop of the benchmark's own:
generator processes resumed through callbacks off a heap of times, the
same kind of work the simulator's kernel does, but none of the
simulator's code, so a change to the program cannot move it.
:class:`Sampler` runs one fixed chunk of it on a process-CPU timer
while a repetition runs, keeps the chunks' time out of the probe's
clocks, and reports the mean wall (and CPU) seconds per chunk.  The
benchmark multiplies each repetition's host seconds by
:data:`NOMINAL_CHUNK_S` over that mean: seconds on a machine that runs
a chunk in :data:`NOMINAL_CHUNK_S`.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from contextlib import contextmanager

#: Events per chunk.
CHUNK_EVENTS = 4000
#: Seconds of one chunk on the nominal machine that the scaled host
#: seconds refer to (about this host's speed when it is quiet).
NOMINAL_CHUNK_S = 0.004
#: Process CPU seconds between chunks.
PERIOD_S = 0.125
#: End time of a chunk's loop, the same on every machine.
CHECKSUM = 3049


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value: int) -> None:
        self.callbacks = []
        self.value = value


class _Loop:
    def __init__(self) -> None:
        self.now = 0
        self.times = []
        self.buckets = {}

    def timeout(self, delay: int, value: int) -> _Event:
        event = _Event(value)
        when = self.now + delay
        batch = self.buckets.get(when)
        if batch is None:
            self.buckets[when] = [event]
            heapq.heappush(self.times, when)
        else:
            batch.append(event)
        return event

    def start(self, process) -> None:
        def resume(event):
            process.send(event.value).callbacks.append(resume)

        next(process).callbacks.append(resume)


def _process(loop: _Loop, seed: int):
    state = {}
    x = seed
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        state[x & 255] = state.get(x & 127, 0) + 1
        yield loop.timeout(1 + (x >> 8) % 97, x)


def run_chunk(events: int = CHUNK_EVENTS, processes: int = 64) -> int:
    """Process ``events`` events of ``processes`` processes; return the
    loop's end time (:data:`CHECKSUM` for the default arguments)."""
    loop = _Loop()
    for seed in range(processes):
        loop.start(_process(loop, seed))
    done = 0
    times, buckets = loop.times, loop.buckets
    while done < events:
        when = heapq.heappop(times)
        loop.now = when
        for event in buckets.pop(when):
            done += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
    return loop.now


class Sampler:
    """Yardstick chunks on a process-CPU timer around a block.

    Every chunk's CPU and wall seconds go to ``probe.excluded_cpu_s`` and
    ``probe.excluded_wall_s``, so the probe's clocks leave them out of
    whatever the block measures.
    """

    def __init__(self, probe) -> None:
        self.probe = probe
        self.reset()

    def reset(self) -> None:
        self.chunks = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._busy = False

    def sample(self) -> None:
        """Run and time one chunk."""
        if self._busy:
            return
        self._busy = True
        # A collection started by the chunk's allocations would scan the
        # simulator's heap on the chunk's clock.
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu, wall = time.process_time(), time.perf_counter()
            if run_chunk() != CHECKSUM:
                raise RuntimeError("the yardstick loop lost events")
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.chunks += 1
        self.cpu_s += cpu
        self.wall_s += wall
        self.probe.excluded_cpu_s += cpu
        self.probe.excluded_wall_s += wall
        self.probe.excluded_chunks += 1

    @property
    def mean_cpu_s(self) -> float:
        return self.cpu_s / self.chunks

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.chunks

    @contextmanager
    def sampling(self):
        """Sample before the block, every :data:`PERIOD_S` of process CPU
        during it, and after it."""
        self.reset()
        self.sample()
        previous = signal.signal(signal.SIGPROF,
                                 lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        self.sample()
