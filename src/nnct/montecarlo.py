"""Point-pattern generators and the Monte Carlo size/power machinery.

Replications are independent units of work: replication ``i`` of a study
draws from an RNG substream keyed by (seed, stream tag, study parameters,
i), so results are bit-identical for a fixed seed regardless of worker
count or execution order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .contingency import cell_covariance, tabulate_pairs
from .errors import (InvalidArgumentError, InvalidInputError, check_count, check_real,
                     check_seed)
from .geometry import LabeledPointSet, _nn_stack, digraph_q_r
from .numerics import chi2_sf
from .segregation import OVERALL_DF, OVERALL_FLAVORS, _statistic_only

# Large-n CSR expectations of Q/n and R/n on the unit square (Monte Carlo
# estimates; used by the "asymptotic" flavor of the adjustment).  R/n has a
# closed form for a planar Poisson process, the share of points in reflexive
# NN pairs: 6 pi / (8 pi + 3 sqrt 3) = 0.6215049 (Cox 1981, Pickard 1982),
# 3.85e-4 above the constant here.
CSR_Q_PER_POINT = 0.6327860
CSR_R_PER_POINT = 0.6211200

# Sample-size combinations in the fixed 1..12 order used by the long-format
# plot output.
PAPER_COMBOS: tuple[tuple[int, int], ...] = (
    (10, 10), (10, 30), (10, 50), (30, 10), (30, 30), (30, 50),
    (50, 10), (50, 30), (50, 50), (50, 100), (100, 50), (100, 100),
)

QR_MODES = ("observed", "adjusted")

# stream tags: the second entropy word of every random stream of the package
_STREAM_QR = 1
_STREAM_SIZE = 2
_STREAM_POWER = 3
_STREAM_PERM = 4  # permutation p-values, one stream per block of permutations
_ALT_CODES = {"segregation": 11, "association": 12}
_CHUNK = 500
# coordinates per sub-block of a chunk: the points of a few replications are
# drawn, stacked and searched together, and a chunk's memory stays that of
# one sub-block at any n
_DRAW_BLOCK = 1 << 12
# (n, seed) pairs whose Q/R replications a process keeps: the 7 distinct n
# of the paper's combos, twice over
_QR_KEYS = 16
# bytes of Q/n and R/n kept per pair: 65,536 replications, so 16 pairs hold
# at most 16 MiB
_QR_KEY_BYTES = 1 << 20

# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx),
# with its default pool of 4 uint32 words
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_POOL = 4
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class PatternSpec:
    """Recipe for one random point pattern on (or around) the unit square.

    ``kind`` is "csr", "segregation" or "association", ``n1`` and ``n2`` are
    the class sizes, and ``param`` is the pattern's one parameter: the
    segregation offset s in [0, 1) or the association radius r in (0, 1).
    CSR ignores it.
    """

    kind: str
    n1: int
    n2: int
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("csr", "segregation", "association"):
            raise InvalidArgumentError(f"unknown pattern kind {self.kind!r}")
        for name in ("n1", "n2"):
            object.__setattr__(self, name, check_count(getattr(self, name), "class sizes", 1))
        object.__setattr__(self, "param", check_real(self.param, "pattern parameter"))
        if self.kind == "segregation" and not (0.0 <= self.param < 1.0):
            raise InvalidArgumentError(
                f"segregation offset must be in [0, 1), got {self.param}")
        if self.kind == "association" and not (0.0 < self.param < 1.0):
            raise InvalidArgumentError(
                f"association radius must be in (0, 1), got {self.param}")


def generate(spec: PatternSpec, rng: np.random.Generator) -> LabeledPointSet:
    """Draw one realization of a pattern.

    csr: both classes iid uniform on the unit square.
    segregation: class 1 uniform on (0, 1-s)^2, class 2 on (s, 1)^2.
    association: class 1 uniform; each class-2 point is a uniformly chosen
    class-1 point plus a polar offset with radius ~ U(0, r) and angle
    ~ U(0, 2 pi).  Offsets may land outside the unit square; they are kept
    as generated.
    """
    return LabeledPointSet(_draw_points(spec, rng), np.repeat([1, 2], [spec.n1, spec.n2]))


def _draw_points(spec: PatternSpec, rng: np.random.Generator) -> np.ndarray:
    """The ``(n1 + n2, 2)`` coordinates of ``generate``, class 1 first, from
    the same rng calls, unvalidated: a study checks its stacked draws once."""
    n1, n2 = spec.n1, spec.n2
    if spec.kind == "csr":
        return rng.random((n1 + n2, 2))
    if spec.kind == "segregation":
        width = 1.0 - spec.param
        x = rng.random((n1, 2)) * width
        y = spec.param + rng.random((n2, 2)) * width
        return np.vstack([x, y])
    # association
    x = rng.random((n1, 2))
    anchor = rng.integers(0, n1, size=n2)
    radius = rng.uniform(0.0, spec.param, size=n2)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n2)
    y = x[anchor] + radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return np.vstack([x, y])


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs shared by the size and power studies.

    Every study reports observed and adjusted columns.  The adjusted Q and
    R of each total n come from ``adjusted_qr`` with ``adjusted_source``:
    per-n Monte Carlo estimation ("estimate", ``qr_estimate_nmc``
    replications under ``seed``) or the large-n ratios ("asymptotic").
    """

    n_mc: int
    seed: int
    alpha: float = 0.05
    parallelism: int = 1  # worker processes, the CLI's --workers
    adjusted_source: str = "estimate"
    qr_estimate_nmc: int = 10000

    def __post_init__(self):
        size_band(self.alpha, self.n_mc)  # the rule for alpha and n_mc
        # reports write these to JSON and CSV: counts are stored as Python ints,
        # and alpha as given if it is a Python int or float, else as a float
        if type(self.alpha) not in (int, float):
            object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "n_mc", check_count(self.n_mc, "n_mc", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "parallelism", check_count(self.parallelism, "workers", 1))
        object.__setattr__(self, "qr_estimate_nmc",
                           check_count(self.qr_estimate_nmc, "qr_estimate_nmc", 1))
        if self.adjusted_source not in ("estimate", "asymptotic"):
            raise InvalidArgumentError(f"unknown adjusted_source {self.adjusted_source!r}")


@dataclass(frozen=True)
class SizePowerRow:
    n1: int
    n2: int
    combo_index: int | None
    alternative: str | None
    param: float | None
    flavor: str
    qr_mode: str
    q_hat: float | None
    r_hat: float | None
    rejection_rate: float
    mc_se: float
    flag: str
    n_degenerate: int  # replications whose statistic was undefined


@dataclass(frozen=True)
class SizePowerReport:
    kind: str  # "size" or "power"
    alpha: float
    n_mc: int
    seed: int
    band: tuple[float, float]
    rows: tuple[SizePowerRow, ...]

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "alpha": self.alpha,
            "n_mc": self.n_mc,
            "seed": self.seed,
            "band": list(self.band),
            "rows": [vars(r) for r in self.rows],
        }, indent=2, sort_keys=True)

    _CSV_FIELDS = (
        "combo_index", "n1", "n2", "alternative", "param", "flavor",
        "qr_mode", "q_hat", "r_hat", "n_mc", "alpha",
        "rejection_rate", "mc_se", "flag",
    )

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(self._CSV_FIELDS)
        for r in self.rows:
            w.writerow([
                _blank(r.combo_index), r.n1, r.n2, _blank(r.alternative),
                _blank(r.param), r.flavor, r.qr_mode, _blank(r.q_hat),
                _blank(r.r_hat), self.n_mc, self.alpha,
                repr(r.rejection_rate), repr(r.mc_se), r.flag,
            ])

    def write_plot_csv(self, fh) -> None:
        """Long format keyed by combo index 1..12, one series per
        (flavor, qr mode, alternative parameter)."""
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["combo_index", "n1", "n2", "series", "alternative",
                    "param", "estimate"])
        for r in self.rows:
            series = f"{r.flavor}:{r.qr_mode}"
            w.writerow([
                _blank(r.combo_index), r.n1, r.n2, series,
                _blank(r.alternative), _blank(r.param), repr(r.rejection_rate),
            ])


def _blank(v):
    return "" if v is None else v


def size_band(alpha: float, n_mc: int) -> tuple[float, float]:
    """Acceptance band for an empirical size estimate at nominal level
    ``alpha``: alpha -/+ z_0.95 * sqrt(alpha (1 - alpha) / n_mc), a
    one-sided normal proportion test in each direction."""
    alpha = check_real(alpha, "alpha")
    if not (0.0 <= alpha < 1.0):
        raise InvalidArgumentError(f"alpha must be in [0, 1), got {alpha}")
    n_mc = check_count(n_mc, "n_mc", 1)
    z95 = 1.6448536269514722  # the standard normal 0.95 quantile
    half = z95 * np.sqrt(alpha * (1.0 - alpha) / n_mc)
    return alpha - half, alpha + half


def _band_flag(rate: float, band: tuple[float, float]) -> str:
    if rate < band[0]:
        return "conservative"
    if rate > band[1]:
        return "liberal"
    return "ok"


def _hashmix(value, hash_const: int):
    """numpy's ``hashmix`` of ``value`` (a uint32 as a Python int or a uint32
    array) under multiplier ``hash_const``: the hash and the next multiplier."""
    mult = hash_const * _SS_MULT_A & _MASK32
    value = (value ^ hash_const) * mult & _MASK32
    return value ^ value >> 16, mult


def _mix(x, y):
    """numpy's ``mix`` of two uint32 values, Python ints or uint32 arrays."""
    value = ((_SS_MIX_L * x & _MASK32) - (_SS_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _seed_words(key: tuple, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence([*key, rep]).generate_state(4, np.uint64)`` for every
    ``rep`` in [lo, hi), as a ``(hi - lo, 4)`` uint64 array.

    This is numpy's SeedSequence (pool of 4 words, ``hashmix``/``mix`` over
    the entropy words, ``INIT_B``/``MULT_B`` output hashing read
    little-endian), run once for the whole range: the key's words are hashed
    as Python ints while they are the same for every rep, and the rest as
    uint32 arrays over the reps.  Each nonnegative int of the entropy is its
    uint32 words, low word first, and 0 is one word, as in numpy; reps with
    as many words are hashed together.
    """
    prefix = []
    for k in key:
        k = int(k)
        prefix.extend((k >> s) & _MASK32 for s in range(0, max(k.bit_length(), 1), 32))
    out = np.empty((hi - lo, 2 * _SS_POOL), dtype=np.uint32)
    # reps below 2**32 are one word, the rest two (a rep is below 2**64)
    for a, b, n_words in ((lo, min(hi, 1 << 32), 1), (max(lo, 1 << 32), hi, 2)):
        if a >= b:
            continue
        reps = np.arange(a, b, dtype=np.uint64)
        entropy = prefix + [(reps >> np.uint64(32 * j)).astype(np.uint32)
                            for j in range(n_words)]
        entropy += [0] * (_SS_POOL - len(entropy))
        hash_const = _SS_INIT_A
        pool = []
        for word in entropy[:_SS_POOL]:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
        for src in range(_SS_POOL):
            for dst in range(_SS_POOL):
                if src != dst:
                    value, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], value)
        for word in entropy[_SS_POOL:]:
            for dst in range(_SS_POOL):
                value, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], value)
        hash_const = _SS_INIT_B
        for i in range(2 * _SS_POOL):
            value = pool[i % _SS_POOL] ^ hash_const
            hash_const = hash_const * _SS_MULT_B & _MASK32
            value = value * hash_const & _MASK32
            out[a - lo:b - lo, i] = value ^ value >> 16
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _word_seed_class():
    """An ``ISeedSequence`` class built on the 4 uint64 seed words of one
    ``_seed_words`` row: ``PCG64(_word_seed_class()(words))`` is the bit
    generator of ``default_rng`` on the entropy of those words.

    Its instances raise on any other request, so a numpy whose PCG64 seeds
    itself differently fails here instead of drawing other streams.  The
    class is made on first use, with the import of ``numpy.random``, which
    ``import nnct`` does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"PCG64 asked its seed for ({n_words}, {np.dtype(dtype)}); "
                    "the precomputed stream seeds are (4, uint64)")
            return self.words

    return WordSeed


def _streams(key: tuple, lo: int, hi: int):
    """The generators of ``default_rng([*key, rep])`` for ``rep`` in
    [lo, hi), in order, built on the seed words of one ``_seed_words`` call."""
    from numpy.random import PCG64, Generator

    word_seed = _word_seed_class()
    return (Generator(PCG64(word_seed(w))) for w in _seed_words(key, lo, hi))


def _digraphs(key: tuple, draw, n: int, lo: int, hi: int):
    """NN digraphs of replications [lo, hi) of ``n`` points each.

    Replication ``rep`` draws its ``(n, 2)`` points as ``draw(rng)`` from
    its own stream, the generator of ``default_rng([*key, rep])``; a
    non-finite coordinate raises ``InvalidInputError``.  Yields
    ``(rows, nn, q, r)`` per sub-block: its slice ``rows`` of [lo, hi), its
    ``(sets, n)`` NN indices and their Q and R.
    """
    streams = _streams(key, lo, hi)
    step = max(1, _DRAW_BLOCK // (2 * n))
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        coords = np.stack([draw(next(streams)) for _ in range(start, stop)])
        if not np.isfinite(coords).all():
            raise InvalidInputError("coordinates must be finite")
        nn = _nn_stack(coords)
        _, q, r = digraph_q_r(nn)
        yield slice(start - lo, stop - lo), nn, q, r


def _run_chunks(worker, start: int, stop: int, workers: int) -> list:
    """Run worker(lo, hi) over the replication range [start, stop) in chunks
    of ``_CHUNK`` replications from ``start`` and return the parts in chunk
    order (deterministic reduction).  A replication draws from its own
    stream, so no part depends on where the chunks start.  At most one
    process runs per chunk: a forking pool starts all its processes at once."""
    bounds = [(lo, min(lo + _CHUNK, stop)) for lo in range(start, stop, _CHUNK)]
    if workers <= 1 or len(bounds) <= 1:
        return [worker(lo, hi) for lo, hi in bounds]
    from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

    with ProcessPoolExecutor(max_workers=min(workers, len(bounds))) as pool:
        return list(pool.map(worker, *zip(*bounds)))


# ---------------------------------------------------------------------------
# Q/R estimation under CSR


@dataclass(frozen=True)
class QREstimate:
    n: int
    n_mc: int
    q_over_n: float
    r_over_n: float
    se_q: float
    se_r: float


def _qr_chunk(n: int, seed: int, lo: int, hi: int):
    qs = np.empty(hi - lo)
    rs = np.empty(hi - lo)
    key = (seed, _STREAM_QR, n)
    for rows, _, q, r in _digraphs(key, lambda rng: rng.random((n, 2)), n, lo, hi):
        qs[rows] = q / n
        rs[rows] = r / n
    return qs, rs


@lru_cache(maxsize=_QR_KEYS)
def _qr_draws(n: int, seed: int) -> list:
    """The Q/n and R/n of the replications of ``estimate_qr(n, ., seed)``
    kept so far in this process: a one-item list holding a ``(qs, rs)``
    pair of float64 arrays over replications [0, len(qs)), empty at first,
    that ``estimate_qr`` replaces by a longer one in one assignment."""
    return [(np.empty(0), np.empty(0))]


def estimate_qr(n: int, n_mc: int, seed: int, workers: int = 1) -> QREstimate:
    """Monte Carlo estimate of E[Q/n] and E[R/n] under CSR on the unit
    square, with standard errors, over replications [0, n_mc).

    Replication ``i`` draws from ``default_rng([seed, 1, n, i])`` whatever
    ``n_mc`` is, so a process keeps the replications it has drawn for the
    last ``_QR_KEYS`` (n, seed) pairs (``_qr_draws``, 16 bytes each, up to
    ``_QR_KEY_BYTES`` per pair): a later call draws only the replications
    beyond them, in chunks from the first one missing, and a shorter one
    reads a prefix.  A call over the budget draws all of its replications
    and touches no key.  The estimate is bit-reproducible for a fixed seed
    at any worker count and call order.
    """
    n = check_count(n, "n", 2)
    n_mc = check_count(n_mc, "n_mc", 1)
    workers = check_count(workers, "workers", 1)
    seed = check_seed(seed)
    fits = 16 * n_mc <= _QR_KEY_BYTES  # the float64 Q/n and R/n of n_mc replications
    stored = _qr_draws(n, seed) if fits else [(np.empty(0), np.empty(0))]
    # local arrays only: another thread may replace the stored pair meanwhile
    qs, rs = stored[0]
    if qs.size < n_mc:
        parts = _run_chunks(partial(_qr_chunk, n, seed), qs.size, n_mc, workers)
        qs = np.concatenate([qs, *(p[0] for p in parts)])
        rs = np.concatenate([rs, *(p[1] for p in parts)])
        stored[0] = qs, rs
    qs, rs = qs[:n_mc], rs[:n_mc]
    se_q = float(qs.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    se_r = float(rs.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return QREstimate(
        n=n, n_mc=n_mc,
        q_over_n=float(qs.mean()), r_over_n=float(rs.mean()),
        se_q=se_q, se_r=se_r,
    )


# ---------------------------------------------------------------------------
# rejection engine shared by the size and power studies


def _rejection_chunk(kind, param, n1, n2, seed, alpha, q_hat, r_hat, lo, hi):
    """Counts over replications [lo, hi) as a (2, 4 tests, 2 modes) integer
    array: rejections, then undefined statistics; modes are observed then
    adjusted.  An undefined statistic is a non-rejection of its test only."""
    spec = PatternSpec(kind, n1, n2, param)
    if kind == "csr":
        key = (seed, _STREAM_SIZE, n1, n2)
    else:
        key = (seed, _STREAM_POWER, _ALT_CODES[kind], int(round(param * 1e9)), n1, n2)
    reps = hi - lo
    n = n1 + n2
    labels = np.repeat([1, 2], [n1, n2])
    counts = np.empty((reps, 2, 2), dtype=np.int64)
    q_obs = np.empty(reps)
    r_obs = np.empty(reps)
    for rows, nn, q, r in _digraphs(key, partial(_draw_points, spec), n, lo, hi):
        q_obs[rows] = q
        r_obs[rows] = r
        counts[rows] = tabulate_pairs(labels, nn)
    # both modes in one stack: observed rows first, then adjusted rows
    sigma = np.concatenate([
        cell_covariance(n1, n2, n, q_obs, r_obs),
        np.broadcast_to(cell_covariance(n1, n2, n, q_hat, r_hat), (reps, 4, 4)),
    ])
    both = np.concatenate([counts, counts])
    out = np.zeros((2, 4, 2), dtype=np.int64)
    for t, flavor in enumerate(OVERALL_FLAVORS):
        stats = _statistic_only(flavor, both, sigma)
        undefined = np.isnan(stats)
        # an undefined statistic scores 0, which no alpha < 1 rejects
        rejected = [chi2_sf(x, OVERALL_DF[flavor]) <= alpha
                    for x in np.where(undefined, 0.0, stats).tolist()]
        out[0, t] = np.reshape(rejected, (2, reps)).sum(axis=1)
        out[1, t] = undefined.reshape(2, reps).sum(axis=1)
    return out


def adjusted_qr(n: int, source: str, n_mc: int, seed: int,
                workers: int = 1) -> tuple[float, float]:
    """The Q and R that the QR-adjusted tests substitute for a set of n
    points: CSR expectations of Q/n and R/n times n, estimated by
    ``estimate_qr(n, n_mc, seed, workers)`` ("estimate") or the large-n
    ratios ``CSR_Q_PER_POINT`` and ``CSR_R_PER_POINT`` ("asymptotic")."""
    n = check_count(n, "n", 2)
    if source == "asymptotic":
        return CSR_Q_PER_POINT * n, CSR_R_PER_POINT * n
    if source != "estimate":
        raise InvalidArgumentError(f"unknown adjusted_source {source!r}")
    est = estimate_qr(n, n_mc, seed, workers=workers)
    return est.q_over_n * n, est.r_over_n * n


def _combo_index(n1: int, n2: int) -> int | None:
    try:
        return PAPER_COMBOS.index((n1, n2)) + 1
    except ValueError:
        return None


def _study(kind_params, combos, config: SimulationConfig, report_kind: str):
    band = size_band(config.alpha, config.n_mc)
    combos = list(combos)  # an iterator is read once, not once per alternative
    # every block is checked before the first replication; it runs and reports
    # from its checked spec, whose class sizes are Python ints
    specs = [PatternSpec(kind, n1, n2, param) for kind, param in kind_params for n1, n2 in combos]
    if not specs:
        raise InvalidArgumentError("need at least one combo")
    for spec in specs:
        if spec.n1 + spec.n2 < 4:  # the covariance model's minimum
            raise InvalidArgumentError(f"combo ({spec.n1}, {spec.n2}) has n = "
                                       f"{spec.n1 + spec.n2}; the tests need n >= 4")
    # the adjusted Q and R depend on n only: one estimate per distinct n
    adjusted = {
        n: adjusted_qr(n, config.adjusted_source, config.qr_estimate_nmc,
                       config.seed, config.parallelism)
        for n in dict.fromkeys(spec.n1 + spec.n2 for spec in specs)
    }
    rows = []
    for spec in specs:
        q_hat, r_hat = adjusted[spec.n1 + spec.n2]
        worker = partial(_rejection_chunk, spec.kind, spec.param, spec.n1, spec.n2,
                         config.seed, config.alpha, q_hat, r_hat)
        rej, degenerate = sum(_run_chunks(worker, 0, config.n_mc, config.parallelism))
        alternative = None if spec.kind == "csr" else spec.kind
        for m, mode in enumerate(QR_MODES):
            for t, flavor in enumerate(OVERALL_FLAVORS):
                rate = float(rej[t, m]) / config.n_mc
                se = float(np.sqrt(rate * (1.0 - rate) / config.n_mc))
                rows.append(SizePowerRow(
                    n1=spec.n1, n2=spec.n2, combo_index=_combo_index(spec.n1, spec.n2),
                    alternative=alternative,
                    param=None if alternative is None else spec.param,
                    flavor=flavor, qr_mode=mode,
                    q_hat=q_hat if mode == "adjusted" else None,
                    r_hat=r_hat if mode == "adjusted" else None,
                    rejection_rate=rate, mc_se=se,
                    flag=_band_flag(rate, band),
                    n_degenerate=int(degenerate[t, m]),
                ))
    return SizePowerReport(
        kind=report_kind, alpha=config.alpha, n_mc=config.n_mc,
        seed=config.seed, band=band, rows=tuple(rows),
    )


def empirical_size(combos, config: SimulationConfig) -> SizePowerReport:
    """Null rejection rates under CSR for every combo, all four overall
    tests, observed and adjusted modes."""
    return _study([("csr", 0.0)], combos, config, "size")


def empirical_power(alternatives, combos, config: SimulationConfig) -> SizePowerReport:
    """Rejection rates under segregation/association alternatives.

    ``alternatives`` is a sequence of ("segregation" | "association",
    parameter) pairs; the report has one block per (alternative, combo).
    """
    alts = []
    for kind, param in alternatives:
        if kind not in _ALT_CODES:
            raise InvalidArgumentError(f"unknown alternative kind {kind!r}")
        alts.append((kind, check_real(param, f"{kind} parameter")))
    if not alts:
        raise InvalidArgumentError("need at least one alternative")
    return _study(alts, combos, config, "power")
