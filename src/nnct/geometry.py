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
by kd-tree with tie repair above.  Both searches give identical indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Measured cutover on random points (2-vCPU Xeon, numpy 2.4, scipy 1.17),
# per set, brute force in the stacks the Monte Carlo engine searches vs the
# kd-tree, alternating: 87-89 vs 210-231 us at n = 128, 204-229 vs
# 249-327 us at n = 192, 288-302 vs 324-335 us at n = 224, even at n = 256
# and 493-553 vs 381-431 us at n = 288.  The cutover keeps a margin below
# the break-even point, since brute force grows as n^2.
_BRUTE_FORCE_MAX = 192
# (sets x n x n) squared distances per block of the brute-force search:
# 2^14 (128 kB temporaries) beat 2^12, 2^13 and 2^15 at n = 10-128
_BRUTE_BLOCK_ENTRIES = 1 << 14
# first candidate count of the tie repair: the 8th candidate lies beyond the
# tied ring of a square (4) or hexagonal (6) lattice, so grids resolve at once
_REPAIR_K0 = 8
# (rows x k) candidates per block: its dozen temporaries stay near 3 MB, far
# below what ingesting and searching large inputs already holds
_REPAIR_BLOCK_ENTRIES = 1 << 15
_NO_SITE = np.iinfo(np.intp).max


@dataclass(frozen=True)
class LabeledPointSet:
    """Planar points with class labels in {1, 2}.

    Attributes
    ----------
    points : ndarray, shape (n, 2)
        Cartesian coordinates, finite.
    labels : ndarray, shape (n,)
        Class label of each point, 1 or 2.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        labs = np.asarray(self.labels, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise InvalidInputError("need at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("coordinates must be finite")
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

    def has_duplicate_points(self) -> bool:
        """True when two points share exact coordinates."""
        return not _point_sites(self.points)[1].all()


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
    """
    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    nn = np.empty(flat.shape[:2], dtype=np.intp)
    step = max(1, _BRUTE_BLOCK_ENTRIES // (n * n))
    for start in range(0, flat.shape[0], step):
        x = flat[start:start + step, :, 0]
        y = flat[start:start + step, :, 1]
        d2 = x[:, :, None] - x[:, None, :]
        d2 *= d2
        dy = y[:, :, None] - y[:, None, :]
        dy *= dy
        d2 += dy
        d2.reshape(-1, n * n)[:, ::n + 1] = np.inf  # no point is its own NN
        # argmin returns the first minimum, i.e. the lowest index on ties
        d2.argmin(axis=-1, out=nn[start:start + step])
    return nn.reshape(coords.shape[:-1])


def _point_sites(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group points that share exact coordinates into sites.

    Returns ``(order, starts)``: ``order`` sorts the points by (x, y), stably,
    so each site's members are contiguous and in increasing index order;
    ``starts[t]`` is True where position ``t`` of that order begins a new
    site.  Coordinates compare by value, so 0.0 and -0.0 share a site.
    """
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    ordered = coords[order]
    starts = np.empty(order.shape[0], dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, starts


def _nearest_other_site(site_xy: np.ndarray, lowest: np.ndarray,
                        query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each site in ``query``: the squared distance to the nearest other
    site, and the lowest member index over the other sites at that distance
    (``inf`` and ``_NO_SITE`` when there is no other site).

    A kd-tree over the sites supplies candidates.  ``k`` grows only on rows
    whose k-th candidate is not yet strictly farther than their minimum, so
    no tied site can have been cut off.  Distances are recomputed as
    ``dx*dx + dy*dy``, with the rounding of ``_nn_brute``.
    """
    from scipy.spatial import cKDTree

    ns = site_xy.shape[0]
    d2min = np.full(query.shape[0], np.inf)
    winner = np.full(query.shape[0], _NO_SITE, dtype=np.intp)
    tree = cKDTree(site_xy)
    todo = np.arange(query.shape[0])
    k = min(ns, _REPAIR_K0)
    while todo.size:
        block = max(1, _REPAIR_BLOCK_ENTRIES // k)
        unresolved = []
        for start in range(0, todo.size, block):
            rows = todo[start:start + block]
            q = query[rows]
            cand = tree.query(site_xy[q], k=k)[1].reshape(rows.size, k)
            dx = site_xy[cand, 0] - site_xy[q, 0][:, None]
            dy = site_xy[cand, 1] - site_xy[q, 1][:, None]
            d2 = dx * dx + dy * dy
            kth = d2[:, -1].copy()
            other = cand != q[:, None]
            d2[~other] = np.inf
            m = d2.min(axis=1)
            done = (kth > m) | (k == ns)
            best = np.where(other & (d2 == m[:, None]), lowest[cand], _NO_SITE)
            d2min[rows[done]] = m[done]
            winner[rows[done]] = best[done].min(axis=1)
            unresolved.append(rows[~done])
        todo = np.concatenate(unresolved)
        k = min(ns, 4 * k)
    return d2min, winner


def _repair_ties(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact lowest-index NN of the points ``rows``, by brute-force rules.

    Members of a site sit at squared distance 0 from each other, so a
    point whose site has several members takes the lowest-index other
    member, unless another site also lies at squared distance 0 (possible
    only through underflow), in which case the lower index of the two wins.
    Every other point takes the winner among the other sites.
    """
    n = coords.shape[0]
    order, starts = _point_sites(coords)
    first = np.flatnonzero(starts)  # sorted position of each site's first member
    site_of = np.empty(n, dtype=np.intp)
    site_of[order] = np.cumsum(starts) - 1
    lowest = order[first]
    size = np.diff(first, append=n)
    s = site_of[rows]
    query, slot = np.unique(s, return_inverse=True)
    d2min, winner = _nearest_other_site(coords[lowest], lowest, query)
    m, w = d2min[slot], winner[slot]
    own = np.where(rows == lowest[s], order[np.minimum(first[s] + 1, n - 1)], lowest[s])
    take_own = (size[s] > 1) & ((m > 0) | (own < w))
    return np.where(take_own, own, w)


def _nn_kdtree(coords: np.ndarray) -> np.ndarray:
    """kd-tree nearest neighbor indices of one ``(n, 2)`` set or of each set
    of an ``(..., n, 2)`` stack, with exact lowest-index tie repair.

    scipy is imported here, on the kd-tree path only, so that importing the
    package and searching small sets by brute force never load it.
    """
    from scipy.spatial import cKDTree

    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    nn = np.empty(flat.shape[:2], dtype=np.intp)
    rows = np.arange(n)
    for c, out in zip(flat, nn):
        dist, idx = cKDTree(c).query(c, k=min(n, 3))
        nonself = idx != rows[:, None]
        first = nonself.argmax(axis=1)
        out[:] = idx[rows, first]
        dmin = dist[rows, first]
        # a tie needs repair when several returned neighbors sit at the minimum
        # distance, or when the last returned distance equals it (further tied
        # candidates may have been truncated by k)
        multiple = np.count_nonzero(nonself & (dist == dmin[:, None]), axis=1) > 1
        truncated = dist[:, -1] <= dmin
        tied = np.flatnonzero(multiple | truncated)
        if tied.size:
            out[tied] = _repair_ties(c, tied)
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
    shifted = nn.reshape(sets, n) + np.arange(0, sets * n, n)[:, None]
    indegree = np.bincount(shifted.ravel(), minlength=sets * n).reshape(nn.shape)
    q = np.sum(indegree * (indegree - 1), axis=-1)
    r = np.count_nonzero(np.take_along_axis(nn, nn, axis=-1) == np.arange(n), axis=-1)
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

