"""Fixed reference kernel that gauges how fast the machine runs right now.

A shared host drifts between faster and slower periods of several seconds
each, which moves every timing by up to ~1.5x.  The benchmark therefore
runs reference slices next to every timed sample and rescales the sample by
``NOMINAL_SLICE_S / mean time of its slices``: the result is the time the
sample would take with the reference slice at its nominal speed.  Samples
are rescaled one by one, before the median is taken, because the drift
moves a sample and the slices run next to it together.  The slice never
touches ``nnct``, so a change to the package under test moves the rescaled
time exactly as much as the raw one.

The slice mixes the kinds of work the package does: interpreter loops and
dict updates, small-array numpy calls (a brute NN search, a 2x2 table and a
4x4 pseudo-inverse) and a kd-tree search over a few thousand points.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# median slice time on the 2-vCPU Xeon VM (2.1 GHz) the benchmark was
# defined on; only its constancy matters, not its value
NOMINAL_SLICE_S = 0.025

_rng = np.random.default_rng(20260)
_POINTS = _rng.random((2000, 2))
_SMALL = _rng.random((100, 2))
_LABELS = _rng.integers(0, 2, 100)


def reference_slice() -> float:
    """One fixed slice of work; returns a value so nothing is optimised away."""
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    m = np.eye(4)
    for _ in range(60):
        d2 = ((_SMALL[:, None, :] - _SMALL[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        table = np.bincount(_LABELS * 2 + _LABELS[d2.argmin(axis=1)], minlength=4)
        m = np.linalg.pinv(m + table.reshape(2, 2).sum())
    _, idx = cKDTree(_POINTS).query(_POINTS, k=2)
    return acc + float(np.sort(_POINTS[:, 0] + idx[:, 1])[0]) + float(m[0, 0])


def timed_slice() -> float:
    """Seconds one reference slice takes now."""
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


def rescale(seconds: float, slices_s: list[float]) -> float:
    """``seconds`` at the nominal speed, given the slices timed next to it."""
    return seconds * NOMINAL_SLICE_S * len(slices_s) / sum(slices_s)
