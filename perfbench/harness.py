"""Pieces every workload shares: the run record, its clock and probes.

A workload module exposes ``measure(run, seed, seconds, size, tracer)``,
which fills the :class:`Run` it is given; ``run.py`` calls it inside
:meth:`Run.probing` and turns the run into the printed result.  Nothing
here knows a workload by name.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups made by a workload that needs one state; ``setup_s`` is
#: the median of a run's set-ups.
SETUPS = 9
#: Seconds between host-speed probes.
PROBE_INTERVAL = 0.25
#: An operation is compared with the probes taken from this many
#: seconds before it starts until this many after it ends.
PROBE_WINDOW = 2.0
#: The probe's median time on the host the bounds were set on (a
#: 2-vCPU x86-64 virtual machine, CPython 3.11); ``setup_s`` is scaled
#: to a host that runs the probe in this time.
REFERENCE_PROBE_S = 0.003


def probe() -> float:
    """Seconds one fixed pure-Python task takes: the host's current speed.

    The task does the kind of work the program does (tuples, strings,
    dicts, a keyed sort) and never changes, so a change to the program
    cannot move it.  On a shared host the same operation's wall time
    drifts by a quarter within minutes; its ratio to the probes taken
    while it ran moves by a few per cent.  The garbage collector is
    off meanwhile and the task frees all it allocates, so a probe that
    interrupts the program neither collects the program's garbage nor
    moves its next collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict = {}
        for index in range(3000):
            key = (f"s{index % 211}", index % 7)
            table.setdefault(key, []).append(index * 0.5)
        sorted(table.items(), key=lambda pair: (pair[0][1], pair[0][0]))
        del table
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_fraction(count: int) -> float | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for fraction in (0.99, 0.95, 0.9, 0.75):
        if count * (1 - fraction) >= 10:
            return fraction
    return None


def latency_summary(seconds: list[float], scale: float) -> dict:
    """Median, the best-supported tail and the sample count, scaled."""
    summary = {"n": len(seconds)}
    if not seconds:
        return summary
    summary["p50"] = statistics.median(seconds) * scale
    tail = tail_fraction(len(seconds))
    if tail is not None:
        summary[f"p{round(tail * 100)}"] = percentile(seconds, tail) * scale
    return summary


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    """Everything one measured pass of a workload produced.

    Workloads time everything with :meth:`clock`, which stops while a
    host-speed probe or :meth:`settle` runs, so neither counts in a
    measured time, even one that spans several operations.
    """

    # (start, end) on clock() of every set-up and of every unit
    # operation (see README.md); (claims, start, end) of every write.
    setups: list[tuple[float, float]] = field(default_factory=list)
    ops: list[tuple[float, float]] = field(default_factory=list)
    writes: list[tuple[int, float, float]] = field(default_factory=list)
    # Host-speed probes (see probe()) and the clock() when each ran.
    probe_seconds: list[float] = field(default_factory=list)
    probe_at: list[float] = field(default_factory=list)
    read_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Names of the correctness checks that failed.
    failures: list[str] = field(default_factory=list)
    # Work units the per-layer figures are normalised by, and the wall
    # time of the measured region they ran in.
    units: int = 0
    measured_seconds: float = 0.0
    traffic: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    # Raw outputs the correctness checks read (kept for the tests).
    outputs: dict = field(default_factory=dict)
    # Wall seconds spent in probes, which clock() leaves out.
    paused: float = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    @contextmanager
    def probing(self, interval: float = PROBE_INTERVAL):
        """Run :func:`probe` every ``interval`` seconds from a timer signal.

        Probes interleave with every operation, however long, so each
        run measures the host speed its operations actually met.
        """
        def fire(signum, frame) -> None:
            self._probe()

        previous = signal.signal(signal.SIGALRM, fire)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _probe(self) -> None:
        self.probe_at.append(self.clock())
        started = time.perf_counter()
        self.probe_seconds.append(probe())
        self.paused += time.perf_counter() - started

    def host_probe(self, begun: float, ended: float) -> float:
        """Median probe time within PROBE_WINDOW of ``[begun, ended]``."""
        low = bisect.bisect_left(self.probe_at, begun - PROBE_WINDOW)
        high = bisect.bisect_right(self.probe_at, ended + PROBE_WINDOW)
        near = self.probe_seconds[low:high] or self.probe_seconds
        return statistics.median(near)

    @property
    def setup_seconds(self) -> list[float]:
        return [ended - begun for begun, ended in self.setups]

    @property
    def op_seconds(self) -> list[float]:
        return [ended - begun for begun, ended in self.ops]

    @property
    def write_rates(self) -> list[float]:
        return [claims / (ended - begun) for claims, begun, ended in self.writes]

    def op(self, begun: float, ended: float) -> None:
        """Record one unit operation timed on :meth:`clock`."""
        self.ops.append((begun, ended))

    def attempt(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def settle(self) -> None:
        """Prepare a unit operation, with :meth:`clock` stopped.

        A full garbage collection: otherwise one operation's cyclic
        garbage is collected inside whichever later operation crosses
        the collector's threshold, and medians spread by a fifth from
        run to run.  Collections an operation triggers itself are still
        timed.  Then one probe, so short operations each have one beside
        them.
        """
        started = time.perf_counter()
        gc.collect()
        self.paused += time.perf_counter() - started
        self._probe()

    def wrote(self, claims: int, begun: float, ended: float) -> None:
        """Record one write of ``claims`` timed on :meth:`clock`."""
        self.writes.append((claims, begun, ended))

    def check(self, failures: list[str]) -> None:
        """Count one correctness check; ``failures`` names what failed."""
        self.attempt(not failures)
        self.failures.extend(failures)

    @contextmanager
    def measuring(self, tracer=None):
        """Time one stretch of the measured region (and trace it)."""
        started = self.clock()
        with tracer.measuring() if tracer is not None else nullcontext():
            try:
                yield
            finally:
                self.measured_seconds += self.clock() - started


class Setups:
    """Builds workload states, timing every build into ``run.setups``.

    Each build starts from a freshly collected heap, and callers drop
    the previous state first, so a run's set-ups are timed alike.
    """

    def __init__(self, make, run: Run) -> None:
        self._make = make
        self._run = run

    def build(self):
        self._run.settle()
        started = self._run.clock()
        state = self._make()
        self._run.setups.append((started, self._run.clock()))
        return state

    def warm(self, count: int = SETUPS):
        """Build ``count`` states in turn; return the last one."""
        for _ in range(count - 1):
            self.build()
        return self.build()


@contextmanager
def work_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:  # another run still uses it
            pass


def cpu_affinity() -> list[int] | None:
    getter = getattr(os, "sched_getaffinity", None)
    return sorted(getter(0)) if getter is not None else None
