"""Timings scaled to a reference machine speed.

The shared host this benchmark was sized on changes speed by tens of
percent over a minute or two, and at times by half, so the same
deterministic computation reads very different wall times in runs a few
minutes apart. A ``Meter`` therefore times a fixed kernel (``kernel``: the
kind of work the program does) every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, in the same thread, while the program works.
``measure`` takes a segment's wall time without the kernel's own time and
scales it by ``REFERENCE_S`` over the median kernel time seen during the
segment: the seconds the segment would take with the machine at its
reference speed.

The kernel is independent of the program, so a change to the program moves
the scaled time as it moves the wall time; only the machine's speed is
divided out.
"""
from __future__ import annotations

import json
import signal
import time
from statistics import median

import numpy as np

INTERVAL_S = 0.2
# Median kernel time on the 2-core x86-64 VM of the README's reference
# figures, at the speed it ran most of the time. Scaled times read close to
# wall seconds there.
REFERENCE_S = 0.0100

# The kernel's inputs and buffers, made once; only the last step of the
# kernel maps fresh memory.
_RNG = np.random.default_rng(0)
_SMALL, _ROW = _RNG.random((12, 30)), _RNG.random(30)
_BIG = _RNG.random(100_000)
_BIG_OUT = np.empty_like(_BIG)
_T, _S = 20, 50
_EMIT, _TRANS = _RNG.random((_T, _S)), _RNG.random((_S, _S))
_DOC = [{"t": t, "z": int(z), "x": _EMIT[t, :8].tolist()}
        for t, z in enumerate(_EMIT.argmax(axis=1))]
_POINTS, _CENTRES = _RNG.random((500, 1, 10)), _RNG.random((1, 60, 10))
_DIFF, _DIST = np.empty((500, 60, 10)), np.empty((500, 60))
# Larger than the L2 caches, a quarter of the shared L3: its speed follows
# the memory traffic of the host's other tenants, as the program's passes
# over arrays of tens of MB (k-means, paper-scale Viterbi) do.
_STREAM = np.zeros(3_000_000)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def kernel() -> None:
    """A fixed mix like the program's: an interpreter loop, objects and
    dicts, JSON, a small max-plus dynamic programme, small numpy calls,
    passes over arrays of 0.8 and 2.4 MB and over one of 24 MB, and an 8 MB
    array made afresh (the program's large numpy temporaries map fresh
    pages too)."""
    total = 0
    for i in range(4_000):
        total += i * i % 7
    counts: dict[str, int] = {}
    for item in [_Item(str(i), i % 13) for i in range(800)]:
        counts[item.key] = counts.get(item.key, 0) + item.value
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    json.loads(json.dumps(_DOC))
    score = np.zeros(_S)
    back = np.empty((_T, _S), dtype=np.int64)
    for t in range(_T):
        cand = score[:, None] + _TRANS
        back[t] = cand.argmax(axis=0)
        score = np.take_along_axis(cand, back[t][None], 0)[0] + _EMIT[t]
        score -= score.max()
    for _ in range(50):
        (_SMALL + _ROW).max(axis=1).argmax()
    for _ in range(2):
        np.multiply(_BIG, _BIG, out=_BIG_OUT)
        np.sqrt(_BIG_OUT, out=_BIG_OUT).sum()
    np.subtract(_POINTS, _CENTRES, out=_DIFF)
    np.multiply(_DIFF, _DIFF, out=_DIFF)
    np.sum(_DIFF, axis=2, out=_DIST).argmin(axis=1)
    np.add(_STREAM, 1.0, out=_STREAM)
    np.ones(1_000_000).sum()


class Meter:
    """Samples the kernel from a timer and scales segment times by it."""

    def __init__(self):
        self.samples: list[float] = []   # kernel seconds, in order
        self._kernel_s = 0.0             # wall time spent in samples
        self._busy = False

    def sample(self) -> None:
        if self._busy:   # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        spent = time.perf_counter() - start
        self.samples.append(spent)
        self._kernel_s += spent
        self._busy = False

    def clock(self) -> float:
        """Wall seconds without the time spent sampling the kernel."""
        return time.perf_counter() - self._kernel_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int = 0) -> float:
        """Reference over the median kernel time from sample ``first``."""
        return REFERENCE_S / median(self.samples[first:])

    def measure(self, func) -> float:
        """Run ``func``; its time in reference seconds. A sample on each
        side, outside the timed span, covers segments shorter than the
        timer's interval."""
        self.sample()
        first = len(self.samples) - 1
        start = self.clock()
        func()
        wall = self.clock() - start
        self.sample()
        return wall * self.scale(first)
