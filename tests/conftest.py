from pathlib import Path

import numpy as np
import pytest

from nnct import ContingencyTable, LabeledPointSet, ingest, montecarlo, segregation

DATA_DIR = Path(__file__).parent / "data"

# Frozen reference fixtures: 2x2 tables with their digraph statistics.
SWAMP_COUNTS = [[157, 54], [52, 131]]
SWAMP_Q, SWAMP_R = 270, 236
SWAMP_Q_ADJ, SWAMP_R_ADJ = 249.68, 244.95

ARTI_COUNTS = [[30, 20], [19, 31]]
ARTI_Q, ARTI_R = 70, 60
ARTI_Q_ADJ, ARTI_R_ADJ = 63.37, 62.17


def pytest_report_header(config):
    """The stack a golden digest depends on, so that a digest that differs
    on one test row can be traced to its versions from the log alone."""
    import scipy

    from nnct import geometry

    return (f"nnct stack: numpy {np.__version__}, scipy {scipy.__version__}, "
            f"search cpus {geometry._search_cpus()}")


@pytest.fixture(autouse=True)
def no_stored_draws():
    """Every test starts without a stored permutation run or Q/R
    replications, so that no p-value or estimate reuses another test's
    draws."""
    segregation._permutation_run.cache_clear()
    montecarlo._qr_draws.cache_clear()


@pytest.fixture
def swamp_table():
    return ContingencyTable.from_counts(SWAMP_COUNTS)


@pytest.fixture
def artificial_table():
    return ContingencyTable.from_counts(ARTI_COUNTS)


@pytest.fixture
def helper_threads(monkeypatch) -> list:
    """The helper threads started during the test, one entry each."""
    import threading

    made = []

    class Spy(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Spy)
    return made


@pytest.fixture(scope="session")
def artificial_points() -> LabeledPointSet:
    """100-point two-class configuration whose NNCT is [[30,20],[19,31]]
    with Q=70, R=60 (frozen; see tests/data/artificial_100.csv)."""
    return ingest(str(DATA_DIR / "artificial_100.csv"))


def random_point_set(rng: np.random.Generator, n: int, n1: int | None = None) -> LabeledPointSet:
    """Random CSR instance with both classes nonempty."""
    if n1 is None:
        n1 = int(rng.integers(2, n - 1))
    labels = np.repeat([1, 2], [n1, n - n1])
    return LabeledPointSet(rng.random((n, 2)), labels)


def pair_points(pairs: int) -> np.ndarray:
    """``pairs`` far-apart mutual NN pairs on a line: Q = 0 and R = 2 pairs,
    so on any labeling N11 and N22 are perfectly correlated and the
    observed Dixon block is singular."""
    return np.array([(10.0 * k + d, 0.0) for k in range(pairs) for d in (0.0, 0.5)])


def mutual_pairs(spec, rng) -> np.ndarray:
    """Stand-in for ``montecarlo._draw_points``: ten mutual NN pairs,
    classes 1 then 2 (Q = 0 and R = 20)."""
    return pair_points(10)
