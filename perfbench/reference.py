"""The host-speed reference: a fixed piece of work timed between ops.

The benchmark's vCPUs share their physical cores with other machines' work,
and the speed of one Python thread on them drifts by ±25 % over minutes
(the reference below and the ledger's ops slow down and speed up together).
Within that drift the host flips between a fast and a slow state every few
seconds, and short tight loops feel the flip more (up to 60 %) than a whole
pass of ops does, because a pass spans several flips.  Runs of 20 to 60
seconds cannot average such drift away.  So every op time is also reported
in refs: 1 ref is the time this module's `work` takes, as the mean of the
timings spread through the op's pass (one after each tenth of a second of
ops).  A change to the disktransform program moves its time in refs; the
host's drift moves both and cancels.

`work` uses the kinds of work the workloads do: interpreted loops over small
floats and ints, `fractions.Fraction` arithmetic on small values, dict and
str operations, and numpy on arrays of a few thousand elements.  It touches
nothing of disktransform, so no change to the program can move it.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_GRID = np.linspace(0.0, 1.0, 4000)


def work() -> float:
    """About 3 ms of fixed work on a 2020s x86 core; returns a checksum."""
    acc = 0.0
    for i in range(10_000):
        acc += i * 0.5
    q = Fraction(0)
    for i in range(1, 150):
        q = (q + Fraction(i % 7 + 1, i % 11 + 2)) / 2
        q = Fraction(q.numerator % 1000, q.denominator % 997 + 1)
    counts: dict = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
    for _ in range(15):
        acc += float(np.sum(np.sin(_GRID) * _GRID + 1j * _GRID).real)
    return acc + float(q) + sum(counts.values())


def sample() -> float:
    """Seconds of one `work`."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
