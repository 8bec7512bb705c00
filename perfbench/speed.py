"""A gauge of the machine's speed, to time jobs in reference seconds.

On a shared virtual machine the same interpreter work can take twice as
long from one minute to the next, in CPU time as much as in wall time.  The
gauge runs a fixed piece of plain-Python work (no ``htsolve`` code) before
every job and, from a timer signal, every ``PERIOD_S`` seconds inside it,
and records how long the work took.  A job's time in *reference seconds* is
its measured time, the samples inside it left out, multiplied by
``REFERENCE_S / g``, where ``g`` is the median time of the gauge samples
taken during the job, or of the ``NEAREST`` samples nearest to it if there
are fewer: the job's time on a machine that runs the gauge in
``REFERENCE_S``.  A change to ``htsolve`` moves reference seconds exactly as
much as it moves measured seconds, while a slow spell of the host moves the
gauge as well and cancels out.

``REFERENCE_S`` is close to the gauge's median time on the 2-vCPU machine
the benchmark was defined on, so reference seconds read close to the
seconds measured there.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

REFERENCE_S = 0.0038
NEAREST = 9  # fewest gauge samples whose median scales one interval
PERIOD_S = 0.1  # seconds between gauge samples inside a job


def _small_tables() -> int:
    # hot, cache-resident work: small dicts and sets, tuples, sort, str
    acc = 0
    for r in range(8):
        counts: dict = {}
        seen = set()
        for i in range(150):
            k = (i * 7919 + r) % 311
            counts[k] = counts.get(k, 0) + 1
            seen.add((k, i & 7))
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        acc += len(seen) + top[0][0] + len(" ".join(str(k) for k, _ in top[:20]))
    return acc


def _wide_tables() -> int:
    # a working set of some hundred KiB: tuple keys, frozensets, a filter
    table = {}
    for i in range(900):
        table[(i % 97, i // 97, "n%d" % (i % 40))] = i
    pairs = {frozenset((a, b)) for a, b, _ in table}
    kept = [(k, v) for k, v in table.items() if k[0] in (1, 5, 9, 13) or k[1] & 3 == 0]
    return len(pairs) + len(kept)


_RULES = tuple(
    (i % 17, frozenset({i % 5, i * 3 % 11}), frozenset({i * 7 % 13})) for i in range(40)
)


def _logic() -> int:
    # recursion, generator expressions, any/all and frozenset subset tests
    hits = 0

    def walk(depth: int, chosen: tuple) -> None:
        nonlocal hits
        if depth == 0:
            s = frozenset(chosen)
            if all(a > 8 or any(h == a and p <= s for h, p, _ in _RULES) for a in s):
                hits += 1
            return
        walk(depth - 1, chosen)
        walk(depth - 1, chosen + (depth,))

    walk(7, ())
    return hits


def gauge_work() -> int:
    """The fixed work one gauge sample times: three kinds of interpreter
    work in about equal shares, so that no one kind of slowdown dominates."""
    return _small_tables() + _wide_tables() + _logic()


class Gauge:
    """Gauge samples taken during a run, as (midpoint, seconds) in time order."""

    def __init__(self):
        self.samples: list = []
        self._mids: list = []

    def sample(self) -> None:
        """Time one run of the gauge work, with the garbage collector paused
        so that the heap of the jobs around it does not weigh in."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            gauge_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((t0 + t1) / 2.0, t1 - t0))
        self._mids.append((t0 + t1) / 2.0)

    @contextlib.contextmanager
    def inside(self):
        """Sample every ``PERIOD_S`` seconds while the block runs.

        The samples interrupt the block from a SIGALRM handler.  The block
        gets a list whose only item sums the seconds they took, to be left
        out of the block's own time.
        """
        stolen = [0.0]
        if not hasattr(signal, "setitimer"):
            yield stolen
            return
        busy = []

        def handler(signum, frame):
            if busy:  # a late signal while a sample runs
                return
            busy.append(1)
            t0 = time.perf_counter()
            self.sample()
            stolen[0] += time.perf_counter() - t0
            busy.clear()

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield stolen
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for ``[start, end]``."""
        lo = bisect.bisect_left(self._mids, start)
        hi = bisect.bisect_right(self._mids, end)
        window = self.samples[lo:hi]
        if len(window) < NEAREST:
            mid = (start + end) / 2.0
            window = self.samples[max(0, lo - NEAREST):hi + NEAREST]
            window.sort(key=lambda s: abs(s[0] - mid))
            window = window[:NEAREST]
        return REFERENCE_S / statistics.median(s for _, s in window)

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
