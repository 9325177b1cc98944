"""Statistics, span tracing, calibrated time and oracle-check bookkeeping
for the benchmark.

Nothing here imports revca, so the arithmetic can be tested on its own.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest-rank index of percentile p among n sorted samples,
    in exact integer arithmetic on hundredths of a percent."""
    return max(1, -(-round(p * 100) * n // 10_000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least MIN_BEYOND of n samples
    above its nearest rank, or None when n is too small for any of them."""
    best = None
    for p in TAIL_LADDER:
        if n - nearest_rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(samples, n_choice: int | None = None) -> tuple[float, float, int]:
    """Tail latency as (percentile, value, samples beyond it).

    The percentile is chosen for ``n_choice`` samples (default: all of them),
    so a run that repeats a fixed set of ops can pick it from one pass and
    keep it whatever number of passes fit in the run.  With too few samples
    for any ladder percentile the maximum is reported as percentile 100.
    """
    values = sorted(samples)
    p = tail_percentile(n_choice if n_choice is not None else len(values))
    if p is None:
        return 100.0, values[-1], 0
    rank = nearest_rank(len(values), p)
    return p, values[rank - 1], len(values) - rank


class Checks:
    """Counts oracle checks; every failed one makes the run fail."""

    def __init__(self, keep: int = 10):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._keep = keep

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self._keep:
                self.messages.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Record a batch of checks of which ``failed`` went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < self._keep:
            self.messages.append(f"{what}: {failed} of {attempted} failed")

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Span:
    __slots__ = ("tracer", "name", "id", "parent", "start", "n")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.n = 0  # work items the call handled, set by the caller

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = tracer.opened
        tracer.opened += 1
        self.parent = tracer.stack[-1].id if tracer.stack else None
        tracer.stack.append(self)
        self.start = tracer.clock.now()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer.clock.now()
        tracer.stack.pop()
        tracer.records.append((self.id, self.parent, self.name, self.start, end, self.n))


class NullSpan:
    """Stand-in used when tracing is off; accepts and drops the count."""

    n = 0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = NullSpan()


class NullTracer:
    def span(self, name: str) -> NullSpan:
        return NULL_SPAN


class Tracer:
    """Keeps spans in memory: (id, parent id, name, start, end, items), with
    start and end read from ``clock`` in seconds."""

    def __init__(self, run_id: str, clock: "Clock"):
        self.run_id = run_id
        self.clock = clock
        self.records: list[tuple] = []
        self.stack: list[Span] = []
        self.opened = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_s", "end_s", "items"],
            "spans": self.records,
        }


def span_duration(rec) -> float:
    return rec[4] - rec[3]


def self_times(records, duration=span_duration) -> dict[int, float]:
    """Self time of every span: its duration minus the durations of its
    direct children.  Spans of one thread nest, so children never overlap."""
    own = {rec[0]: duration(rec) for rec in records}
    for rec in records:
        parent = rec[1]
        if parent is not None:
            own[parent] -= duration(rec)
    return own


def layer_totals(records, scale: float = 1.0, into: dict | None = None, duration=span_duration) -> dict[str, dict]:
    """Per span name: summed self seconds, wall seconds, items and calls,
    each divided by ``scale`` and added to ``into`` when given."""
    own = self_times(records, duration)
    out: dict[str, dict] = {} if into is None else into
    for rec in records:
        agg = out.setdefault(rec[2], {"self_s": 0.0, "wall_s": 0.0, "items": 0.0, "calls": 0.0})
        agg["self_s"] += own[rec[0]] / scale
        agg["wall_s"] += duration(rec) / scale
        agg["items"] += rec[5] / scale
        agg["calls"] += 1 / scale
    return out


def profile_totals(records, split: int, passes: int, duration=span_duration) -> dict[str, dict]:
    """Totals of a profile: spans before index ``split`` ran once (set-up),
    the rest ran ``passes`` times and are reported per pass."""
    return layer_totals(records[split:], passes, layer_totals(records[:split], duration=duration), duration)


def rate(items: float, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0


# The machine's speed drifts by tens of percent over seconds, for the program
# and for any fixed loop alike.  So the benchmark times a fixed reference loop
# every CALIBRATION_PERIOD seconds and scales each measured interval by the
# reference speed around it.
CALIBRATION_PERIOD = 0.1
CALIBRATION_WINDOW = 2.0  # seconds of reference samples on each side of an interval
REFERENCE_KEYS = 2000
REFERENCE_NOMINAL_S = 0.0025  # a reference sample's duration on the unit machine


class Clock:
    """Program time with the reference sampling taken out.

    ``now`` is wall time minus the time spent in the reference loop, which
    a timer signal runs between bytecodes of whatever the program is doing.
    ``calibrated`` turns an interval of that time into seconds on the unit
    machine: it multiplies by REFERENCE_NOMINAL_S over the median reference
    sample taken during the interval or within CALIBRATION_WINDOW of it.
    """

    def __init__(self):
        keys = [("ref", f"q{i % 7}", Fraction(i % 5 + 1, 3), i) for i in range(REFERENCE_KEYS)]
        self._keys = keys
        self._table = dict.fromkeys(keys, 1)
        self.spent = 0.0
        self.stamps: list[float] = []  # program time of each reference sample
        self.samples: list[float] = []  # its duration in wall seconds

    def reference(self) -> float:
        table = self._table
        t0 = time.perf_counter()
        total = 0
        for key in self._keys:
            total += table[key]
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        dt = self.reference()
        self.spent += dt
        self.stamps.append(self.now())
        self.samples.append(dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD, CALIBRATION_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def speed(self, t0: float, t1: float) -> float:
        """Median reference sample around [t0, t1], in wall seconds."""
        lo = bisect.bisect_left(self.stamps, t0 - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(self.stamps, t1 + CALIBRATION_WINDOW)
        near = self.samples[lo:hi] or self.samples
        return statistics.median(near)

    def calibrated(self, t0: float, t1: float) -> float:
        return (t1 - t0) * REFERENCE_NOMINAL_S / self.speed(t0, t1)
