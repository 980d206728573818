"""Wall times scaled to the host's fast pace.

The shared 2-vCPU host the benchmark was written on changes speed by up to
1.7x for stretches of seconds to many minutes. Process time moves with wall
time in those stretches, so the CPU itself runs slower, for all code, though
not for all code by the same factor: interpreter-bound loops slow the most,
sorting the least. Raw wall times therefore spread by the share of each run
that fell in a slow stretch: over ten runs that met both kinds of stretch,
by 0.2-0.4 of the median.

So a reading of a short, fixed reference kernel is taken after every timed
block of work. The kernel has five parts, one for each kind of work objsearch
does: interpreter loops, JSON, numpy over a few thousand rows, sorting and
list copies. A reading's pace index is the geometric mean over the parts of
its time over the part's time in the host's fast stretches (``PART_MS``).
objsearch slows by less than the kernel: between fast and slow stretches its
times moved by about the ``ELASTICITY``-th power of the pace index. A block's
paced time is its wall time over that power of the mean pace index of the
readings just before and just after it: about the time the block would have
taken in a fast stretch. The kernel never calls objsearch, so a change to
objsearch moves paced times by the same factor as wall times.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
import time

import numpy as np

READINGS = 5  # runs of each kernel part per reading; the fastest counts

# The kernel's fixed inputs.
_rng = random.Random(0)
_DOCS = [
    {"t": i, "caption": f"a mug on the table near the sofa {i}", "pose": [i * 0.1, i * 0.2, 0.5],
     "entities": [{"id": j, "label": "mug", "pos": [j * 0.5, 1.0]} for j in range(3)]}
    for i in range(30)
]
_PAIRS = [(_rng.random(), i) for i in range(1500)]
_ARR = np.random.default_rng(0).standard_normal((3000, 64))
_VEC = _ARR[5].copy()
_LIST = list(range(8000))


def _interpreter() -> int:
    table: dict[str, int] = {}
    acc = 0
    for i in range(500):
        key = f"k{i % 61}"
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    return acc


def _json() -> int:
    return len(json.loads(json.dumps(_DOCS)))


def _numpy() -> int:
    return int(np.argsort(_ARR @ _VEC)[0]) + int(np.linalg.norm(_ARR[:, :2] - _VEC[:2], axis=1).argmin())


def _sort() -> int:
    return sorted(_PAIRS)[0][1]


def _copy() -> int:
    return sum(len(list(_LIST)) for _ in range(12))


# The kinds of work objsearch does, and each one's reading in the host's fast
# stretches (2 vCPUs, Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4: the 5th
# percentile over 5 runs of 30 s), so that paced times read as wall times there.
PARTS = (_interpreter, _json, _numpy, _sort, _copy)
PART_MS = (0.16, 0.35, 0.31, 0.37, 0.25)
# How far objsearch's times follow the pace index: the exponent that, over ten
# memory_ops runs of which five met mostly slow and five mostly fast stretches
# (raw spreads 0.22-0.41 of the median), left the smallest spreads (0.05-0.09).
# Retrievals alone follow it with about 0.6, build and persist with about 0.8.
ELASTICITY = 0.7


def pace_index(parts: list[float]) -> float:
    """How much slower than in the fast stretches: the geometric mean over the
    parts of reading / PART_MS."""
    return math.exp(sum(math.log(ms / fast) for ms, fast in zip(parts, PART_MS)) / len(parts))


def reference_parts() -> list[float]:
    """Each part's fastest of READINGS runs, in ms. The garbage collector is
    off meanwhile, so that a reading does not pay for collecting the heap
    that objsearch left."""
    best = [float("inf")] * len(PARTS)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(READINGS):
            for k, part in enumerate(PARTS):
                start = time.perf_counter()
                part()
                best[k] = min(best[k], time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return [b * 1e3 for b in best]


class Pace:
    """Kernel readings, and the timed blocks between them.

    Time a block from ``time.perf_counter()`` to ``block(start)``, which
    takes a reading right after it; the reading before the block is the one
    taken at the previous ``block`` call (or at construction). Work done
    between a ``block`` call and the next block's start is not timed, and
    should be short. Factors are worked out at the end of the run.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (perf_counter at start, pace index)
        self.parts: list[list[float]] = []  # per reading, each part's ms
        self.blocks: list[tuple[float, float]] = []  # (start, end)
        self._read()

    def _read(self) -> None:
        start = time.perf_counter()
        parts = reference_parts()
        self.readings.append((start, pace_index(parts)))
        self.parts.append(parts)

    def block(self, start: float) -> tuple[float, int]:
        """End the block that began at `start`: its wall seconds and its id."""
        end = time.perf_counter()
        self.blocks.append((start, end))
        self._read()
        return end - start, len(self.blocks) - 1

    def factors(self) -> list[float]:
        """Per block: paced time = wall time * factor, where the factor is one
        over the ELASTICITY-th power of the mean pace index of the readings
        just before and after it."""
        times = [t for t, _ in self.readings]
        out = []
        for start, _ in self.blocks:
            before = bisect.bisect_right(times, start) - 1
            index = (self.readings[before][1] + self.readings[before + 1][1]) / 2.0
            out.append(index ** -ELASTICITY)
        return out
