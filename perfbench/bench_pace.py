"""Host-speed reference: the pace of a fixed pure-Python loop, timed between
the ops of a run, and the scaling of each op's time by it.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.5 times for seconds or minutes at a time.  CPU time drifts with wall
time, so the drift is not time stolen by other processes but slower work.
Every op pays that drift in proportion, so between ops the benchmark runs
chunks of a fixed loop for about a sixth of the op's own time, and reports
each op's time scaled by how long the chunks around it took:

    scaled = wall * NOMINAL_CHUNK_S / median(chunk times around the op)

An op's pace is the median over at least WINDOW chunks run just before and
after it, so one chunk's jitter does not move an op.  Scaled times are the
times the ops take on a host where one chunk takes NOMINAL_CHUNK_S; a
change to rweval moves them as it moves wall time.  The loop uses no rweval
code.  On one scope_batch run, 60 s of 1.4 s cycles whose time varied by
15% (coefficient of variation) varied by 3.5% once scaled.

The loop tracks ops that interpret Python (scope, size, report).  It does
not track a campaign of short-lived processes: over six minutes, campaign
time swung twofold while this loop, a fork, a process spawn and a 4 MB
allocation each swung by at most 1.4 times, which is why campaign_stub is
traced but not timed.
"""

from __future__ import annotations

import statistics
import time

CHUNK_LOOPS = 10_000
# About one chunk's time on a fast stretch of the 2-vCPU host the bounds
# were set on.  It only fixes the scale, so it must not change between runs
# that are compared.
NOMINAL_CHUNK_S = 0.0008
SHARE = 1 / 6
WINDOW = 50


def chunk() -> float:
    """Run one chunk of the reference loop; return its wall seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def after(elapsed: float) -> list[float]:
    """Run chunks for about SHARE of an op that took `elapsed` seconds."""
    return [chunk() for _ in range(max(1, round(SHARE * elapsed / NOMINAL_CHUNK_S)))]


def scaled(ops: list[tuple[float, list[float]]]) -> list[float]:
    """Scale each (wall seconds, chunk times after it) to the nominal pace.

    An op's pace is the median time of the chunks around it: those run just
    before it and just after it, widened by one op on each side until at
    least WINDOW chunks are pooled.
    """
    count = [0]  # count[j]: chunks run after ops[:j]
    for _, chunks in ops:
        count.append(count[-1] + len(chunks))
    out = []
    for i, (wall, _) in enumerate(ops):
        lo, hi = max(0, i - 1), i + 1
        while count[hi] - count[lo] < WINDOW and (lo > 0 or hi < len(ops)):
            lo, hi = max(0, lo - 1), min(len(ops), hi + 1)
        pace = statistics.median(t for _, chunks in ops[lo:hi] for t in chunks)
        out.append(wall * NOMINAL_CHUNK_S / pace)
    return out
