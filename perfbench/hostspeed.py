"""The host's speed, sampled while the benchmark runs, and times scaled by it.

On a host whose cores are shared with other tenants the same pure-Python
loop runs up to about 1.8 times slower for stretches of a fraction of a
second to minutes, so raw wall times of the same code differ by more
between runs than a change worth reporting. A ``Speedometer`` runs a fixed
probe loop (about half a millisecond) from a ``SIGPROF`` handler after
every ``period`` seconds of the measuring process's CPU time, so only
while it works and on the core it works on, and records the probe's
thread CPU time: time spent waiting for a core does not count, only the
core's speed.

``scaled(t0, t1)`` re-expresses the wall interval ``[t0, t1]`` on a
reference host on which the probe takes ``REF_PROBE_S``: each stretch
between two samples counts for its length times ``REF_PROBE_S`` over the
probe time of the sample that ends it. ``REF_PROBE_S`` is about what an
uncontended 2.0 GHz Intel Xeon vCPU gives, so scaled times read close to
that host's seconds. The probe's own time stays inside the interval; at
the workload's period it is about 1% of it.

Interval timers are not inherited across ``fork``: a process forked
while the speedometer runs (a ``verify --jobs`` pool worker) starts its
own timer and appends its samples to ``spill_dir/speed-<pid>.txt``, which
``scaled`` merges. An interval in which pool workers run is thus scaled by
the speed of the cores that do the work.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from pathlib import Path

REF_PROBE_S = 0.0004
PROBE_LOOPS = 3000
_SLOTS = [0.0] * 256


def probe_seconds() -> float:
    """CPU seconds of one fixed loop of float arithmetic and list stores.

    It allocates no object that the cyclic garbage collector tracks, so
    sampling leaves the collector's schedule, and with it the program's
    peak memory, as it would be without the probe."""
    start = time.thread_time()
    x = 0.5
    slots = _SLOTS
    for i in range(PROBE_LOOPS):
        x = (x * 1.0001 + i) % 97.0
        slots[i & 255] = x
    return time.thread_time() - start


class Speedometer:
    """Samples ``(perf_counter at the end, probe CPU seconds)`` in time order.

    Without a ``spill_dir``, forked processes are not probed."""

    def __init__(self, period: float, spill_dir: Path | None = None):
        self.period = period
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.samples: list[tuple[float, float]] = []
        self._running = False
        if spill_dir is not None:
            os.register_at_fork(after_in_child=self._start_in_child)

    def sample(self) -> None:
        probe = probe_seconds()
        end = time.perf_counter()
        if os.getpid() == self.pid:
            self.samples.append((end, probe))
            return
        with open(self.spill_dir / f"speed-{os.getpid()}.txt", "a", encoding="ascii") as fh:
            fh.write(f"{end!r} {probe!r}\n")

    def _on_tick(self, signum, frame) -> None:
        self.sample()

    def _start_in_child(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, self.period, self.period)

    @contextlib.contextmanager
    def running(self):
        """Sample once now, then after every ``period`` CPU seconds until the block ends."""
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        self.sample()
        self._running = True
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._running = False
            signal.signal(signal.SIGPROF, previous)

    def _merge_spilled(self) -> None:
        if self.spill_dir is None:
            return
        paths = sorted(self.spill_dir.glob("speed-*.txt"))
        for path in paths:
            for line in path.read_text(encoding="ascii").splitlines():
                end, probe = line.split()
                self.samples.append((float(end), float(probe)))
            path.unlink()
        if paths:
            self.samples.sort()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that ``[t0, t1]`` would have taken at the reference speed.

        A stretch with no sample after it inside ``[t0, t1]`` counts at the
        speed of the latest sample, or of the first one after ``t1``."""
        self._merge_spilled()
        total = 0.0
        start = t0
        probe = None
        for end, probe in self.samples:
            if end <= start:
                continue
            stop = min(end, t1)
            total += (stop - start) * REF_PROBE_S / probe
            start = stop
            if end >= t1:
                break
        if probe is None:
            raise ValueError("no speed sample taken")
        if start < t1:
            total += (t1 - start) * REF_PROBE_S / probe
        return total

    def mean_slowdown(self) -> float:
        """Mean probe time over ``REF_PROBE_S``: how much slower than the reference the host ran."""
        return sum(p for _, p in self.samples) / len(self.samples) / REF_PROBE_S
