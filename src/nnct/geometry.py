"""Nearest-neighbor digraph over a planar labeled point set.

Every point has exactly one nearest neighbor (NN), so the NN relation is a
digraph with constant out-degree 1.  Two structural statistics of that
digraph drive all the variance formulas downstream:

* ``R`` -- twice the number of reflexive (mutual) NN pairs, equivalently the
  number of ordered pairs (s, t) with nn(s) = t and nn(t) = s.
* ``Q`` -- the number of ordered pairs (s, t), s != t, that share a NN;
  equals 2*(Q2 + 3*Q3 + 6*Q4 + 10*Q5 + 15*Q6) where Qk counts points that
  serve as NN to exactly k others.

Distance ties are broken toward the lowest point index, which makes the
digraph deterministic (ties have probability zero for continuous data but do
occur in gridded or duplicated field records).

One dispatch, ``_nn_stack``, searches a single ``(n, 2)`` set or each set of
an ``(..., n, 2)`` stack: by brute force up to ``_BRUTE_FORCE_MAX`` points,
by the one kd-tree search ``_nearest_other_site`` above.  Both give
identical indices.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_integral, check_real_array

# Measured cutover on random points (2-vCPU Xeon, numpy 2.4, scipy 1.17,
# one BLAS thread): per set, brute force (matmul differences) in 40-set
# stacks vs the kd-tree search, medians of 21 rounds of alternating order
# in each of 3 processes: 180-188 vs 196-216 us at n = 256 (brute force
# faster in 54 of 63 rounds), 166-182 vs 211-220 us at n = 272 (56 of 63),
# 241-347 vs 223-332 us at n = 280 (10 of 63) and 331-354 vs 240-269 us
# at n = 320 (2 of 63).
_BRUTE_FORCE_MAX = 272
# (sets x n x n) squared distances per block of the brute-force search:
# 2^14 (128 kB temporaries) beat 2^13 at n = 10-100; 2^15 was 35-65%
# slower at n = 20 and 100 and 4-12% faster at n = 10 and 50, 2^16 30-120%
# slower at n = 20-100 (stacks of 2048 // n sets, as the Monte Carlo engine
# makes them, medians of 21 rounds of rotating order in each of 3 processes)
_BRUTE_BLOCK_ENTRIES = 1 << 14
# first candidate count of the site search: the 8th candidate lies beyond the
# tied ring of a square (4) or hexagonal (6) lattice, so grids resolve at once
_SITE_K0 = 8
# (sites x k) candidates per block, 10922 points at the first k = 3: its dozen
# temporaries stay near 3 MB, below what large inputs already hold
_SITE_BLOCK_ENTRIES = 1 << 15
_NO_SITE = np.iinfo(np.intp).max


@dataclass(frozen=True)
class LabeledPointSet:
    """Planar points with class labels in {1, 2}.

    Attributes
    ----------
    points : ndarray, shape (n, 2)
        Cartesian coordinates, finite, with a bounding box whose squared
        diagonal is finite (the diagonal below about 1.34e154), so that no
        squared distance overflows.
    labels : ndarray, shape (n,)
        Class label of each point, 1 or 2.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(check_real_array(self.points, "coordinates"))
        labs = check_integral(self.labels, "labels")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise InvalidInputError("need at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("coordinates must be finite")
        # every squared distance is at most the bounding box's squared
        # diagonal; Python floats overflow to inf without a warning.  One
        # column at a time: min(axis=0) on an (n, 2) array is ~10x slower
        dx, dy = (float(col.max()) - float(col.min()) for col in pts.T)
        if not math.isfinite(dx * dx + dy * dy):
            raise InvalidInputError(
                "coordinates spread too far for their squared distances: the bounding "
                "box's diagonal must stay below about 1.34e154")
        if labs.shape != (pts.shape[0],):
            raise InvalidInputError("labels must be one per point")
        if not np.all((labs == 1) | (labs == 2)):
            raise InvalidInputError("labels must be 1 or 2")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def class_sizes(self) -> tuple[int, int]:
        """(n1, n2) member counts of classes 1 and 2."""
        n1 = int(np.count_nonzero(self.labels == 1))
        return n1, self.n - n1

    def has_duplicate_points(self, nns: NNStructure) -> bool:
        """True when two points share exact coordinates.  Such points have
        their NN at squared distance 0 (``dx*dx + dy*dy``, as both searches
        compute it), so of ``nns``, this set's NN digraph, only the points
        whose NN lies at distance 0 are sorted into sites."""
        if nns.nn_index.shape != (self.n,):
            raise InvalidInputError(f"NN indices of shape {nns.nn_index.shape} for {self.n} points")
        d = np.take(self.points, nns.nn_index, axis=0)  # faster than fancy indexing
        d -= self.points
        d *= d
        zero = np.flatnonzero(d[:, 0] + d[:, 1] == 0)
        return zero.size > 0 and not _point_sites(self.points[zero])[1].all()


@dataclass(frozen=True)
class NNStructure:
    """Summary of the NN digraph: neighbor indices, in-degrees, Q and R."""

    nn_index: np.ndarray
    indegree: np.ndarray
    Q: int
    R: int


def _nn_brute(coords: np.ndarray) -> np.ndarray:
    """O(n^2) nearest neighbor indices of one ``(n, 2)`` set or of each set
    of an ``(..., n, 2)`` stack; ties resolve to the lowest index.

    Squared distances are ``dx*dx + dy*dy``.  The sets go through in blocks
    whose ``(sets, n, n)`` temporaries hold about ``_BRUTE_BLOCK_ENTRIES``
    entries.

    Each coordinate's differences ``c_i - c_j`` come from one batched
    ``np.matmul`` per block, of the rows ``(c_i, 1)`` by the columns
    ``(1, -c_j)``, which runs one call per block where a broadcast
    subtraction pays numpy's iterator overhead once per row.  The result is
    the subtraction's to the bit: both products are exact, so the only
    rounding is that of the two-term sum, fl(c_i - c_j), in either order,
    with or without FMA.  Flush-to-zero could only change a difference
    below ~2e-292, which squares to 0 either way, and a zero's sign is
    squared away.  The rows are a transposed view of ``(sets, 3, n)``
    storage ``(c, 1, -c)`` whose last two rows are the columns, so no
    operand is copied.  The layout is chosen for speed only: with numpy 2.4
    a 3000-point product maps OpenBLAS's work buffer in this layout, in a
    contiguous one and in a negative-stride one alike, so no layout keeps
    OpenBLAS out, and exactness does not depend on which loop runs.
    """
    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    nn = np.empty(flat.shape[:2], dtype=np.intp)
    step = max(1, _BRUTE_BLOCK_ENTRIES // (n * n))
    for start in range(0, flat.shape[0], step):
        block = flat[start:start + step]
        terms = np.empty((2, block.shape[0], 3, n))  # x, then y
        terms[:, :, 0] = block.transpose(2, 0, 1)
        terms[:, :, 1] = 1
        np.negative(terms[:, :, 0], out=terms[:, :, 2])
        rows, cols = terms[:, :, :2].swapaxes(-1, -2), terms[:, :, 1:]
        d2 = np.matmul(rows[0], cols[0])
        d2 *= d2
        dy = np.matmul(rows[1], cols[1])
        dy *= dy
        d2 += dy
        d2.reshape(-1, n * n)[:, ::n + 1] = np.inf  # no point is its own NN
        # argmin returns the first minimum, i.e. the lowest index on ties
        d2.argmin(axis=-1, out=nn[start:start + step])
    return nn.reshape(coords.shape[:-1])


def _distinct_x(coords: np.ndarray) -> bool:
    """True when no two points of one ``(n, 2)`` set share an x-coordinate
    (0.0 and -0.0 compare equal), so that no two of them coincide."""
    x = np.sort(coords[:, 0])
    return bool((x[1:] != x[:-1]).all())


def _point_sites(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group points that share exact coordinates into sites.

    Returns ``(order, starts)``: ``order`` sorts the points by (x, y), stably,
    so each site's members are contiguous and in increasing index order;
    ``starts[t]`` is True where position ``t`` of that order begins a new
    site.  Coordinates compare by value, so 0.0 and -0.0 share a site.
    """
    # numpy orders complex numbers by real, then imaginary part: viewed as
    # x + iy, one stable sort gives the (x, y) order of a two-key lexsort
    xy = np.ascontiguousarray(coords, dtype=np.float64).view(np.complex128)
    order = np.argsort(xy[:, 0], kind="stable")
    ordered = np.take(coords, order, axis=0)  # faster than fancy indexing
    starts = np.empty(order.shape[0], dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, starts


def _search_cpus() -> int:
    """CPUs over which the kd-tree search shares a round's blocks and a
    permutation p-value its blocks: those this process may run on, or 1 in
    a ``multiprocessing`` child, whose sibling processes (``--workers``)
    already fill them."""
    # a child has imported multiprocessing; any other process need not
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared(fn, items, cpus: int) -> list:
    """``[fn(x) for x in items]``, computed by the calling thread and
    ``min(cpus, len(items)) - 1`` helper threads started once per call (an
    iterator without a length hint counts as ``cpus`` items).  Each thread
    takes the next item left, reading ``items`` lazily under a lock, and
    stores its result; the first exception stops further takes and is
    raised once the helpers are joined.
    """
    cpus = min(cpus, operator.length_hint(items, cpus))
    if cpus <= 1:
        return list(map(fn, items))
    import threading

    source = enumerate(items)
    lock = threading.Lock()
    results, failures = {}, []

    def work():
        try:
            while True:
                with lock:
                    if failures or (item := next(source, None)) is None:
                        return
                j, x = item
                results[j] = fn(x)
        except BaseException as e:  # raised by the caller after the join
            with lock:
                failures.append(e)

    helpers = [threading.Thread(target=work) for _ in range(cpus - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]
    return [results[j] for j in range(len(results))]


def _nearest_other_site(site_xy: np.ndarray, k: int, winner: np.ndarray,
                        lowest: np.ndarray | None = None) -> np.ndarray:
    """Fill ``winner`` with the lowest index over the other sites nearest to
    each site (``_NO_SITE`` if none), and return whether that nearest other
    site lies at squared distance 0.  ``lowest`` maps a site to the index it
    stands for, its lowest member; None when the sites are the points.

    A kd-tree that is neither balanced nor shrunk to its points' bounds at
    each node (cheaper to build, slower to query only on points that lie
    along a curve) is queried for ``k`` candidates per site, in its leaf
    order.  A site whose
    first other candidate is strictly nearer than the next takes it as the
    query found it.  The others recompute ``dx*dx + dy*dy``, as
    ``_nn_brute`` does, and ``k`` grows on those whose k-th candidate is not
    yet strictly farther than their minimum, so no tied site is cut off.

    A round of more than one block is shared by ``_search_cpus()`` threads
    (``cKDTree.query`` releases the GIL), each block then ``cpus`` times
    smaller, so that the blocks in flight hold what one block holds.  Blocks
    write disjoint sites and their open sites join in block order, so the
    result does not depend on the thread count.
    """
    from scipy.spatial import cKDTree

    ns = site_xy.shape[0]
    zero = np.zeros(ns, dtype=bool)
    tree = cKDTree(site_xy, balanced_tree=False, compact_nodes=False)

    def resolve(q, k):
        """Answer the sites ``q`` from ``k`` candidates; return those left open."""
        dist, cand = tree.query(np.take(site_xy, q, axis=0), k=k)
        cand = cand.reshape(q.size, k)
        ids = cand if lowest is None else lowest[cand]
        if k > 2:
            # the site itself comes first, alone at distance 0
            gap = (dist[:, 1] > 0) & (dist[:, 1] < dist[:, 2])
            if gap.all():
                winner[q] = ids[:, 1]
                return q[:0]
            if gap.any():  # a grid's sites have none
                winner[q[gap]] = ids[gap, 1]
                q, cand, ids = q[~gap], cand[~gap], ids[~gap]
        dx = site_xy[cand, 0] - site_xy[q, 0][:, None]
        dy = site_xy[cand, 1] - site_xy[q, 1][:, None]
        d2 = dx * dx + dy * dy
        kth = d2[:, -1].copy()
        other = cand != q[:, None]
        d2[~other] = np.inf
        m = d2.min(axis=1)
        done = (kth > m) | (k == ns)
        best = np.where(other & (d2 == m[:, None]), ids, _NO_SITE)
        zero[q[done]] = m[done] == 0
        winner[q[done]] = best[done].min(axis=1)
        return q[~done]

    todo = tree.indices
    k = min(ns, k)
    while todo.size:
        block = max(1, _SITE_BLOCK_ENTRIES // k)
        cpus = _search_cpus() if todo.size > block else 1
        block = max(1, _SITE_BLOCK_ENTRIES // (k * cpus))
        todo = np.concatenate(_shared(lambda start: resolve(todo[start:start + block], k),
                                      range(0, todo.size, block), cpus))
        k = min(ns, 4 * k)
    return zero


def _nn_kdtree(coords: np.ndarray) -> np.ndarray:
    """kd-tree nearest neighbor indices of one ``(n, 2)`` set or of each set
    of an ``(..., n, 2)`` stack, by the lowest-index rule of ``_nn_brute``,
    from the one search ``_nearest_other_site``.  Points with distinct
    x-coordinates cannot coincide, so each is its own site, with k = 3
    candidates at first: itself, its NN and one that must lie farther.  Any
    other set is grouped into sites by ``_point_sites`` and searched over
    them from k = ``_SITE_K0``.  Members of a site sit at squared distance 0
    from each other, so a point whose site has several members takes the
    lowest-index other member, unless another site also lies at squared
    distance 0 (possible only through underflow), in which case the lower
    index of the two wins.  Every other point takes the winner among the
    other sites.  scipy is imported by the search only, so that importing
    the package and brute force searches never load it.
    """
    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    nn = np.empty(flat.shape[:2], dtype=np.intp)
    for c, out in zip(flat, nn):
        if _distinct_x(c):
            _nearest_other_site(c, 3, out)
            continue
        order, starts = _point_sites(c)
        first = np.flatnonzero(starts)  # sorted position of each site's first member
        lowest = order[first]
        winner = np.empty(first.size, dtype=np.intp)
        zero = _nearest_other_site(np.take(c, lowest, axis=0), _SITE_K0, winner, lowest)
        # everything below runs over the points in sorted order
        site = np.cumsum(starts) - 1
        shared = np.diff(first, append=n)[site] > 1
        z, w = zero[site], winner[site]
        # a site's first member takes the next one; every later member the first
        own = np.where(starts, np.roll(order, -1), lowest[site])
        out[order] = np.where(shared & (~z | (own < w)), own, w)
    return nn.reshape(coords.shape[:-1])


def _nn_stack(coords: np.ndarray) -> np.ndarray:
    """NN indices of one ``(n, 2)`` set or of each set of an ``(..., n, 2)``
    stack: brute force up to ``_BRUTE_FORCE_MAX`` points, the kd-tree above.
    The only place that chooses between the two searches."""
    if coords.shape[-2] <= _BRUTE_FORCE_MAX:
        return _nn_brute(coords)
    return _nn_kdtree(coords)


def _nn_indices(coords: np.ndarray) -> np.ndarray:
    """NN indices of one ``(n, 2)`` set.  A name of its own because the
    benchmark tracer (``bench/tracing.py``) times and counts these calls."""
    return _nn_stack(coords)


def digraph_q_r(nn: np.ndarray) -> tuple[np.ndarray, int | np.ndarray, int | np.ndarray]:
    """In-degrees, Q and R of the NN digraph given by intp indices ``nn``.

    ``nn`` may also be an ``(..., n)`` stack of digraphs; the in-degrees
    then have its shape, and Q and R are ``(...)`` integer arrays.
    """
    n = nn.shape[-1]
    sets = nn.size // n
    # one bincount over all sets, each set's targets shifted into its own range
    shifted = (nn.reshape(sets, n) + np.arange(0, sets * n, n)[:, None]).ravel()
    indegree = np.bincount(shifted, minlength=sets * n).reshape(nn.shape)
    q = np.sum(indegree * (indegree - 1), axis=-1)
    # s is reflexive when nn(nn(s)) = s: one gather over the shifted targets
    mutual = np.take(shifted, shifted) == np.arange(sets * n)
    r = np.count_nonzero(mutual.reshape(nn.shape), axis=-1)
    if nn.ndim == 1:
        return indegree, int(q), int(r)
    return indegree, q, r


def structure_from_nn_index(nn_index: np.ndarray) -> NNStructure:
    """Derive in-degrees, Q and R from nearest neighbor indices."""
    nn = np.asarray(nn_index, dtype=np.intp)
    indegree, q, r = digraph_q_r(nn)
    return NNStructure(nn_index=nn, indegree=indegree, Q=q, R=r)


def compute_nn(pts: LabeledPointSet) -> NNStructure:
    """Build the NN digraph of a point set.  Both searches apply the
    lowest-index tie rule and give identical indices on every input."""
    return structure_from_nn_index(_nn_indices(pts.points))

