"""NN digraph construction: hand-enumerated cases, tie rule, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnct import InvalidInputError, LabeledPointSet, compute_nn, geometry
from nnct.contingency import tabulate_pairs
from nnct.geometry import (
    _BRUTE_FORCE_MAX,
    _SITE_BLOCK_ENTRIES,
    _nn_brute,
    _nn_kdtree,
    _point_sites,
    digraph_q_r,
    structure_from_nn_index,
)

from conftest import random_point_set


def pts(coords, labels=None):
    coords = np.asarray(coords, dtype=float)
    if labels is None:
        labels = np.ones(len(coords), dtype=int)
    return LabeledPointSet(coords, np.asarray(labels))


def search_nn(search, p):
    return structure_from_nn_index(search(p.points))


def duplicate_flag(coords):
    p = pts(coords)
    return p.has_duplicate_points(compute_nn(p))


@pytest.mark.parametrize("search", [_nn_brute, _nn_kdtree], ids=["brute", "kdtree"])
class TestHandEnumerated:
    def test_three_point_line(self, search):
        nns = search_nn(search, pts([(0, 0), (1, 0), (3, 0)]))
        assert nns.nn_index.tolist() == [1, 0, 1]
        assert nns.R == 2
        assert nns.Q == 2  # points 0 and 2 share NN 1

    def test_two_points_mutual(self, search):
        nns = search_nn(search, pts([(0, 0), (1, 1)]))
        assert nns.nn_index.tolist() == [1, 0]
        assert nns.R == 2
        assert nns.Q == 0

    def test_unit_square_corners_lowest_index_ties(self, search):
        nns = search_nn(search, pts([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert nns.nn_index.tolist() == [1, 0, 0, 1]
        assert nns.R == 2
        assert np.bincount(nns.indegree)[2] == 2  # two points serve as NN twice
        assert nns.Q == 4

    def test_duplicate_points_are_valid_neighbors(self, search):
        p = pts([(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (9.0, 9.0)])
        nns = search_nn(search, p)
        # coincident points pick the lowest-index duplicate
        assert nns.nn_index.tolist() == [1, 0, 0, 0]
        assert nns.R == 2
        assert p.has_duplicate_points(nns)


class TestValidation:
    def test_fewer_than_two_points(self):
        with pytest.raises(InvalidInputError):
            pts([(0, 0)])

    @pytest.mark.parametrize("coords", [np.zeros((4, 3)), np.arange(4.0)], ids=["n-by-3", "1-D"])
    def test_points_not_n_by_2(self, coords):
        with pytest.raises(InvalidInputError, match=r"shape \(n, 2\)"):
            pts(coords)

    def test_nonfinite_coordinate(self):
        with pytest.raises(InvalidInputError):
            pts([(0, 0), (np.nan, 1)])
        with pytest.raises(InvalidInputError):
            pts([(0, 0), (np.inf, 1)])

    def test_squared_distances_that_overflow(self):
        edge = 9e153  # 2 * edge^2 is finite, 2 * (2 * edge)^2 is not
        pts([(0.0, 0.0), (edge, edge)])
        with pytest.raises(InvalidInputError, match="spread too far"):
            pts([(-edge, -edge), (edge, edge)])
        with pytest.raises(InvalidInputError, match="spread too far"):
            pts([(-1e308, 0.0), (1e308, 0.0)])  # the span itself overflows

    @pytest.mark.parametrize("coords", [[[1, 2], [3, "x"]], [[1, 2], [3, "4"]], [[1, 2], [3]],
                                        [[1, 2], [3, 4 + 1j]], np.array([[1, 2], [3, 4 + 0j]]),
                                        [[1, 2], [3, None]]],
                             ids=["text", "numeric-text", "ragged", "complex", "complex-array",
                                  "none"])
    def test_coordinates_that_are_not_real_numbers(self, coords):
        # refused, never parsed from text or truncated to their real part
        with pytest.raises(InvalidInputError, match="coordinates must be"):
            LabeledPointSet(coords, [1, 2])

    def test_bad_labels(self):
        with pytest.raises(InvalidInputError):
            pts([(0, 0), (1, 1)], labels=[1, 3])
        with pytest.raises(InvalidInputError):
            pts([(0, 0), (1, 1)], labels=[1])
        # refused, never truncated to 1 or parsed from text
        for labels in ([1.5, 2], [1, np.nan], ["1", "2"]):
            with pytest.raises(InvalidInputError, match="labels must be integers"):
                pts([(0, 0), (1, 1)], labels=labels)
        assert pts([(0, 0), (1, 1)], labels=[1.0, 2.0]).labels.tolist() == [1, 2]


def pair_list(p):
    """The (base label, NN label) pairs, in point order."""
    return list(zip(p.labels.tolist(), p.labels[compute_nn(p).nn_index].tolist()))


class TestPairList:
    """labels[nn_index] gives the (base, NN) pairs that ``tabulate_pairs``
    counts."""

    def test_three_point_line_labels(self):
        p = pts([(0, 0), (1, 0), (3, 0)], labels=[1, 1, 2])
        assert pair_list(p) == [(1, 1), (1, 1), (2, 1)]
        assert tabulate_pairs(p.labels, compute_nn(p).nn_index).tolist() == [[2, 0], [1, 0]]

    def test_all_one_class(self):
        p = pts([(0, 0), (1, 0), (3, 0)])
        assert pair_list(p) == [(1, 1)] * 3
        assert tabulate_pairs(p.labels, compute_nn(p).nn_index).tolist() == [[3, 0], [0, 0]]

    def test_two_points_two_classes(self):
        p = pts([(0, 0), (1, 0)], labels=[1, 2])
        assert pair_list(p) == [(1, 2), (2, 1)]
        assert tabulate_pairs(p.labels, compute_nn(p).nn_index).tolist() == [[0, 1], [1, 0]]


class TestRandomInvariants:
    def test_structure_identities(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            p = random_point_set(rng, int(rng.integers(5, 120)))
            nns = compute_nn(p)
            n = p.n
            assert np.all(nns.nn_index != np.arange(n))
            assert nns.indegree.sum() == n
            assert np.all(nns.indegree <= 6)
            # Q: counting form vs the indegree formula
            pair_count = int(np.sum(nns.nn_index[:, None] == nns.nn_index[None, :])) - n
            assert nns.Q == pair_count
            k = np.arange(2, 7)
            q_counts = np.bincount(nns.indegree, minlength=7)[2:]
            assert nns.Q == 2 * int(np.sum(k * (k - 1) // 2 * q_counts))
            assert nns.Q % 2 == 0
            # R: ordered mutual pairs, even, at least one mutual pair
            mutual = int(np.sum(nns.nn_index[nns.nn_index] == np.arange(n)))
            assert nns.R == mutual
            assert nns.R % 2 == 0
            assert nns.R >= 2

    def test_brute_and_kdtree_agree(self):
        rng = np.random.default_rng(202)
        for n in (2, 3, 10, 57, 400, 700):
            coords = rng.random((n, 2))
            assert np.array_equal(_nn_brute(coords), _nn_kdtree(coords))
        # every x differs, yet the k = 3 pass cannot be trusted: exact ties,
        # distances that underflow to 0, or 0.0 beside -0.0
        t = rng.permutation(300).astype(float)
        line = np.column_stack([t, 2 * t])  # interior points tie left and right
        i, j = np.divmod(np.arange(256), 16)
        lattice = np.column_stack([16 * i - j, i + 16 * j]).astype(float)
        # pairs 1e-200 apart in x: each point sits at distance 0 from its partner
        k = np.arange(50)
        underflow = np.column_stack([k * 1e-200, k // 2]).astype(float)
        signed_zero = rng.random((40, 2))
        signed_zero[[3, 17], 0] = 0.0, -0.0
        # a centre with 5 neighbours tied at distance 5, every x distinct:
        # more ties than the first round's k = 3 candidates hold
        ring = np.array([(0, 0), (5, 0), (3, 4), (4, -3), (-3, -4), (-4, 3)]) + 100.0
        ringed = np.vstack([rng.random((400, 2)), ring])[rng.permutation(406)]
        for coords in (line, lattice[rng.permutation(256)], underflow, signed_zero, ringed):
            assert np.array_equal(_nn_brute(coords), _nn_kdtree(coords))

    def test_kdtree_tie_repair_on_grid(self):
        # integer grid: every interior point has 4 equidistant neighbors
        g = np.arange(5)
        coords = np.array([(x, y) for x in g for y in g], dtype=float)
        assert np.array_equal(_nn_brute(coords), _nn_kdtree(coords))


# ---------------------------------------------------------------------------
# ties and duplicates: the kd-tree path must reproduce the brute-force
# lowest-index rule

small_int = st.integers(-6, 6)


@st.composite
def integer_grid(draw):
    """Points on a small integer lattice: many equidistant ties, some repeats."""
    xy = draw(st.lists(st.tuples(small_int, small_int), min_size=2, max_size=120))
    return np.array(xy, dtype=float)


@st.composite
def collinear(draw):
    """Integer steps along one line, of any slope; repeats allowed."""
    t = draw(st.lists(small_int, min_size=2, max_size=120))
    dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (-3.0, 1.0)]))
    t = np.array(t, dtype=float)
    return np.column_stack([dx * t, 0.5 + dy * t])


@st.composite
def stacked_duplicates(draw):
    """A few sites, each holding several points, in random file order."""
    sites = draw(st.lists(st.tuples(small_int, small_int), min_size=1, max_size=5))
    which = draw(st.lists(st.integers(0, len(sites) - 1), min_size=2, max_size=120))
    return np.array(sites, dtype=float)[which] * 0.25


@st.composite
def cloud_beside_cluster(draw):
    """A CSR cloud plus one large duplicate cluster, shuffled together."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_cloud = draw(st.integers(0, 150))
    n_cluster = draw(st.integers(2, 150))
    rng = np.random.default_rng(seed)
    coords = np.vstack([rng.random((n_cloud, 2)), np.full((n_cluster, 2), 0.5)])
    return coords[rng.permutation(len(coords))]


class TestTieRepair:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(integer_grid(), collinear(), stacked_duplicates(),
                     cloud_beside_cluster()))
    def test_kdtree_matches_brute(self, coords):
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))

    def test_kdtree_matches_brute_when_distances_underflow(self):
        # distinct sites 1e-200 apart sit at squared distance 0, like duplicates
        base = np.array([[0, 0], [0, 0], [1, 0], [0, 1], [2, 2], [1, 0], [5, 5]])
        coords = base * 1e-200
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))

    @pytest.mark.parametrize("n", [100, 300])
    def test_tiny_coordinates_search_alike(self, n):
        # squared distances near 1e-320 are subnormal, and many underflow to 0
        coords = np.random.default_rng(5).random((n, 2)) * 1e-160
        p = pts(coords)
        assert np.array_equal(_nn_kdtree(p.points), _nn_brute(p.points))

    def test_ring_of_tied_sites_beyond_first_round(self):
        # the 12 lattice points at distance 5 from the centre tie for its NN,
        # more than the site search's first candidate count holds
        ring = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
        rng = np.random.default_rng(13)
        for _ in range(20):
            coords = np.array(ring + [(0, 0)] * int(rng.integers(1, 3)), dtype=float)
            coords = coords[rng.permutation(len(coords))]
            assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))

    def test_shuffled_grid_takes_lowest_index_lattice_neighbour(self):
        side = 200
        rng = np.random.default_rng(11)
        cell = rng.permutation(side * side)  # point p sits at lattice cell cell[p]
        coords = np.column_stack([cell // side, cell % side]).astype(float)
        index_of = np.empty_like(cell)
        index_of[cell] = np.arange(cell.size)
        i, j = cell // side, cell % side
        expected = np.full(cell.size, cell.size)
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ii, jj = i + di, j + dj
            inside = (ii >= 0) & (ii < side) & (jj >= 0) & (jj < side)
            neighbour = index_of[np.clip(ii, 0, side - 1) * side + np.clip(jj, 0, side - 1)]
            expected = np.minimum(expected, np.where(inside, neighbour, cell.size))
        assert np.array_equal(compute_nn(pts(coords)).nn_index, expected)

    def test_points_on_two_sites(self, monkeypatch):
        # the search builds trees over the sites only, never one over the
        # points, whose duplicate-heavy query is quadratic
        import scipy.spatial

        sizes = []
        tree = scipy.spatial.cKDTree

        def spy(data, *args, **kwargs):
            sizes.append(len(data))
            return tree(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
        rng = np.random.default_rng(12)
        site = rng.integers(0, 2, 3000)
        coords = np.array([[0.25, 0.25], [0.75, 0.75]])[site]
        expected = np.empty(site.size, dtype=np.intp)
        for s in (0, 1):
            members = np.flatnonzero(site == s)
            expected[members] = members[0]
            expected[members[0]] = members[1]
        nns = compute_nn(pts(coords))
        assert np.array_equal(nns.nn_index, expected)
        assert nns.R == 4
        assert sizes and max(sizes) <= 2

    def test_duplicate_flag(self):
        assert not duplicate_flag([(0, 0), (1, 0), (0, 1)])
        assert duplicate_flag([(0.0, 1.0), (2.0, 2.0), (-0.0, 1.0)])

    def test_duplicate_flag_matches_unique_rows(self):
        rng = np.random.default_rng(14)
        sets = [rng.random((n, 2)) for n in (2, 3, 50, 1000)]
        for n in (2, 40, 500):  # a repeated x, and no two points coincide
            c = rng.random((n, 2))
            c[::2, 0] = c[1::2, 0]
            sets.append(c)
        for n in (2, 9, 300):  # signed zeros: x all ±0.0, then y too
            zeros = rng.choice([0.0, -0.0], n)
            sets += [np.column_stack([zeros, np.arange(n)]),
                     np.column_stack([zeros, rng.choice([0.0, -0.0], n)])]
        for n in (3, 60, 700):  # one planted duplicate
            c = rng.random((n, 2))
            c[-1] = c[int(rng.integers(0, n - 1))]
            sets.append(c)
        for c in sets:
            expected = len(np.unique(c, axis=0)) < len(c)
            assert duplicate_flag(c) == expected


@st.composite
def signed_zero_sets(draw):
    """Coordinates from a few values, ±0.0 among them, so that duplicates,
    shared x and shared y are common."""
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300])
    xy = draw(st.lists(st.tuples(values, values), min_size=1, max_size=60))
    return np.array(xy, dtype=float)


@st.composite
def signed_zero_sets_among_random_points(draw):
    """A set of ``signed_zero_sets`` among distinct random points on
    [2, 3)^2, in random order, with at most or more than
    ``_BRUTE_FORCE_MAX`` points in all, so that either search finds its NN."""
    coords = draw(signed_zero_sets())
    size = _BRUTE_FORCE_MAX + 1 if draw(st.booleans()) else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.integers(0, 30)) + max(0, size - len(coords))
    coords = np.vstack([coords, 2.0 + rng.random((extra, 2))])
    return coords[rng.permutation(len(coords))]


@pytest.mark.parametrize("search", [_nn_brute, _nn_kdtree], ids=["brute", "kdtree"])
class TestDuplicateFlag:
    """The flag groups only the points whose NN lies at squared distance 0."""

    def test_twins_whose_nn_is_a_lower_index_underflow(self, search):
        p = pts([(0.0, 0.0), (1e-300, 0.0), (1e-300, 0.0), (5.0, 5.0)])
        nns = search_nn(search, p)
        assert nns.nn_index.tolist() == [1, 0, 0, 0]  # neither twin's NN is its twin
        assert p.has_duplicate_points(nns)

    def test_an_underflow_pair_without_twins(self, search):
        p = pts([(0.0, 0.0), (1e-300, 0.0), (5.0, 5.0)])
        nns = search_nn(search, p)
        assert nns.nn_index.tolist() == [1, 0, 0]
        assert not p.has_duplicate_points(nns)

    def test_a_structure_of_another_size_is_refused(self, search):
        p = pts([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        for q in (pts([(0.0, 0.0), (1.0, 0.0)]), pts(np.zeros((4, 2)))):
            with pytest.raises(InvalidInputError, match="NN indices"):
                p.has_duplicate_points(search_nn(search, q))


class TestDuplicateFlagSets:
    @settings(max_examples=150, deadline=None)
    @given(signed_zero_sets_among_random_points())
    def test_flag_is_whether_rows_repeat(self, coords):
        assert duplicate_flag(coords) == (len(np.unique(coords, axis=0)) < len(coords))

    @pytest.mark.parametrize("n, decimals", [(200, 2), (20000, 6)])
    def test_rounded_sets_with_and_without_a_planted_pair(self, n, decimals):
        rng = np.random.default_rng(n)
        c = np.round(rng.random((n, 2)), decimals)
        c = c[np.sort(np.unique(c, axis=0, return_index=True)[1])]
        assert len(np.unique(c[:, 0])) < len(c)  # repeated x, no two points coincide
        assert not duplicate_flag(c)
        c[-1] = c[len(c) // 3]
        assert duplicate_flag(c)


class TestPointSites:
    @settings(max_examples=100, deadline=None)
    @given(signed_zero_sets())
    def test_order_is_the_two_key_lexsort(self, coords):
        order, starts = _point_sites(coords)
        expected = np.lexsort((coords[:, 1], coords[:, 0]))
        assert np.array_equal(order, expected)
        ordered = coords[expected]
        assert starts.tolist() == [True] + [
            bool((a != b).any()) for a, b in zip(ordered[1:], ordered[:-1])]


def lowest_index_nn(coords: np.ndarray, rows: int = 128) -> np.ndarray:
    """Reference lowest-index NN, by the squared distances ``_nn_brute``
    computes, a block of rows at a time so that large sets fit in memory."""
    x, y = coords[:, 0], coords[:, 1]
    nn = np.empty(len(coords), dtype=np.intp)
    for s in range(0, len(coords), rows):
        dx = x[s:s + rows, None] - x
        dy = y[s:s + rows, None] - y
        d2 = dx * dx + dy * dy
        d2[np.arange(d2.shape[0]), np.arange(s, s + d2.shape[0])] = np.inf
        nn[s:s + rows] = d2.argmin(axis=1)
    return nn


class TestKdBlocks:
    """The kd-tree search's first round answers a set of points with
    distinct x ``_SITE_BLOCK_ENTRIES // 3`` points at a time, in the tree's
    leaf order; a defect in any block, not only the first, is searched
    exactly."""

    @pytest.mark.parametrize("n", [_SITE_BLOCK_ENTRIES // 3, _SITE_BLOCK_ENTRIES // 3 + 1])
    def test_block_boundary_sizes(self, n):
        coords = np.random.default_rng(n).random((n, 2))
        assert np.array_equal(_nn_kdtree(coords), lowest_index_nn(coords))

    @pytest.mark.parametrize("block", [32, 33])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_small_blocks_at_their_boundary(self, monkeypatch, block, extra):
        monkeypatch.setattr(geometry, "_SITE_BLOCK_ENTRIES", 3 * block)
        for seed in range(5):
            coords = np.random.default_rng(seed).random((block + extra, 2))
            assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))

    @staticmethod
    def planted(defect):
        """303 points with every x distinct but for the duplicate: a cloud
        on [-2, 0] x [0, 1], whose points the unbalanced tree's first split
        in x puts first in its leaf order, and 3 planted points at x >= 0."""
        rng = np.random.default_rng(15)
        cloud = rng.random((300, 2)) * [2.0, 1.0] - [2.0, 0.0]
        a = np.array([0.0, 0.5])
        planted = {
            "duplicate": [a, a + [2.0**-8, 0.0], a + [2.0**-8, 0.0]],
            # b and c lie at exactly the same distance from a, all x differ
            "tie": [a, a + [2.0**-8, 2.0**-7], a + [2.0**-7, 2.0**-8]],
            # x differs by 1e-300, whose square underflows to 0
            "underflow": [a, a + [1e-300, 0.0], a + [2.0**-8, 0.0]],
        }[defect]
        return np.vstack([cloud, planted])[rng.permutation(303)]

    @pytest.mark.parametrize("defect", ["duplicate", "tie", "underflow"])
    def test_defect_planted_after_the_first_block(self, monkeypatch, defect):
        from scipy.spatial import cKDTree

        block = 32
        monkeypatch.setattr(geometry, "_SITE_BLOCK_ENTRIES", 3 * block)
        coords = self.planted(defect)
        at = np.argsort(cKDTree(coords, balanced_tree=False).indices)
        defect_rows = np.flatnonzero(coords[:, 0] >= 0)
        assert at[defect_rows].min() >= block  # none of them in the first block
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))

    def test_a_tie_requeries_only_its_own_rows(self, monkeypatch):
        import scipy.spatial

        queries = []

        class Spy(scipy.spatial.cKDTree):
            def query(self, x, k=1, **kwargs):
                queries.append((len(x), k))
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Spy)
        coords = self.planted("tie")
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))
        # one first round over all points; then only a, whose two nearest tie
        assert queries == [(303, 3), (1, 12)]


def signed_zero_grid(side: int, rng) -> np.ndarray:
    """A shuffled integer lattice whose zero coordinates carry random signs,
    so that 0.0 and -0.0 must meet as one coordinate."""
    cell = rng.permutation(side * side)
    coords = np.column_stack([cell // side, cell % side]).astype(float)
    return np.where(coords == 0, rng.choice([0.0, -0.0], coords.shape), coords)


class TestSplitRounds:
    """A round of more than one block is shared between the calling thread
    and ``cpus - 1`` helpers, in blocks ``cpus`` times smaller; indices,
    winners and zero flags do not depend on ``cpus``."""

    BLOCK = 32  # rows per block of the first k = 3 round, before the split

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SITE_BLOCK_ENTRIES", 3 * self.BLOCK)

        def at(cpus):
            monkeypatch.setattr(geometry, "_search_cpus", lambda: cpus)
        return at

    @staticmethod
    def sets():
        rng = np.random.default_rng(16)
        dup = rng.random((40, 2))
        yield "random", rng.random((500, 2))
        yield "grid", signed_zero_grid(15, rng)
        yield "duplicates", dup[rng.integers(0, 40, 300)]
        zeros = signed_zero_grid(12, rng)[rng.integers(0, 144, 400)]
        yield "signed zeros", np.where(zeros == 0, rng.choice([0.0, -0.0], zeros.shape), zeros)
        for defect in ("duplicate", "tie", "underflow"):
            yield defect, TestKdBlocks.planted(defect)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_thread_count_gives_the_brute_force_indices(self, small_blocks, cpus):
        small_blocks(cpus)
        for name, coords in self.sets():
            assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords)), name

    def test_more_threads_than_cpus_switching_often(self, monkeypatch):
        # one-row blocks and a short switch interval: a block no thread took
        # would leave its winners unwritten and its open rows out of the next
        # round
        import sys

        monkeypatch.setattr(geometry, "_SITE_BLOCK_ENTRIES", 3)
        monkeypatch.setattr(geometry, "_search_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, coords in self.sets():
                assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords)), name
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("lowest", [False, True])
    def test_winners_and_zero_flags_match_the_serial_search(self, small_blocks, cpus, lowest):
        for name, coords in self.sets():
            order, starts = _point_sites(coords)
            sites = order[starts] if lowest else np.arange(len(coords))
            low = sites if lowest else None
            found = []
            for c in (1, cpus):
                small_blocks(c)
                winner = np.empty(sites.size, dtype=np.intp)
                zero = geometry._nearest_other_site(coords[sites], 3, winner, low)
                found.append((winner, zero))
            (w1, z1), (w2, z2) = found
            assert np.array_equal(w1, w2) and np.array_equal(z1, z2), name

    def test_a_second_round_over_several_blocks(self, small_blocks, monkeypatch):
        import scipy.spatial

        queries = []

        class Spy(scipy.spatial.cKDTree):
            def query(self, x, k=1, **kwargs):
                queries.append((k, len(x)))
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Spy)
        # every inner lattice point ties four ways, so k = 3 leaves it open
        coords = signed_zero_grid(20, np.random.default_rng(17))
        expected = _nn_brute(coords)
        for cpus in (1, 2, 3):
            small_blocks(cpus)
            queries.clear()
            winner = np.empty(len(coords), dtype=np.intp)
            zero = geometry._nearest_other_site(coords, 3, winner)
            assert np.array_equal(winner, expected) and not zero.any()
            # blocks finish in any order; count them per round
            rows = {k: sorted(n for kk, n in queries if kk == k) for k, _ in queries}
            assert sum(rows[3]) == len(coords) and max(rows[3]) == self.BLOCK // cpus
            assert len(rows[12]) > cpus and max(rows[12]) == 3 * self.BLOCK // (12 * cpus)

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        made = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        return made

    def test_a_pool_only_for_rounds_of_several_blocks(self, small_blocks, pools):
        small_blocks(2)
        coords = np.random.default_rng(18).random((self.BLOCK, 2))
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))
        assert pools == []  # one block
        coords = np.random.default_rng(18).random((self.BLOCK + 1, 2))
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))
        assert pools == [(1,)]  # one helper beside the calling thread

    def test_cpu_count(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert geometry._search_cpus() == 3
        monkeypatch.delattr(geometry.os, "sched_getaffinity")
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: 4)
        assert geometry._search_cpus() == 4
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert geometry._search_cpus() == 1

    def test_a_multiprocessing_child_searches_serially(self, monkeypatch, pools):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(geometry, "_SITE_BLOCK_ENTRIES", 3 * self.BLOCK)
        coords = np.random.default_rng(19).random((5 * self.BLOCK, 2))
        assert np.array_equal(_nn_kdtree(coords), _nn_brute(coords))
        assert pools == []

    def test_a_real_child_process_counts_one_cpu(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(geometry._search_cpus).result() == 1


# ---------------------------------------------------------------------------
# stacked search: one brute-force call over many sets, as the Monte Carlo
# engine makes it, must give each set's own lowest-index NN


@st.composite
def point_stacks(draw):
    """A stack of equal-sized sets, random, gridded, duplicated or 1e-200
    apart (squared distances underflow to 0), up to just past the cutover."""
    n = draw(st.integers(2, _BRUTE_FORCE_MAX + 1))
    sets = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "grid", "duplicates", "underflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.random((sets, n, 2))
    if kind == "grid":
        return rng.integers(-6, 7, (sets, n, 2)).astype(float)
    if kind == "duplicates":
        return rng.integers(0, 3, (sets, n, 2)) * 0.25
    return rng.integers(-2, 3, (sets, n, 2)) * 1e-200


class TestStackedSearch:
    @settings(max_examples=120, deadline=None)
    @given(point_stacks())
    def test_stacked_brute_matches_kdtree_per_set(self, stack):
        nn = _nn_brute(stack)
        assert nn.shape == stack.shape[:-1]
        assert np.array_equal(nn, np.stack([_nn_kdtree(c) for c in stack]))

    @settings(max_examples=60, deadline=None)
    @given(point_stacks())
    def test_stacked_q_r_matches_each_set(self, stack):
        nn = _nn_brute(stack)
        indegree, q, r = digraph_q_r(nn)
        for k, row in enumerate(nn):
            one = digraph_q_r(row)
            assert np.array_equal(indegree[k], one[0])
            assert (q[k], r[k]) == one[1:]
            assert type(one[1]) is int and type(one[2]) is int

    def test_many_blocks_and_leading_axes(self):
        # 600 sets of 10 points span several blocks of the search
        stack = np.random.default_rng(21).random((3, 200, 10, 2))
        nn = _nn_brute(stack)
        assert nn.shape == (3, 200, 10)
        per_set = np.array([_nn_kdtree(c) for c in stack.reshape(-1, 10, 2)])
        assert np.array_equal(nn.reshape(-1, 10), per_set)
        assert np.array_equal(_nn_kdtree(stack), nn)
        _, q, r = digraph_q_r(nn)
        assert q.shape == r.shape == (3, 200)
        assert q[2, 7] == digraph_q_r(nn[2, 7])[1]
