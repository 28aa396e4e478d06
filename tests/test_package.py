"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
import numpy as np
import nnct

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

print(nnct.__file__)
print(scipy_modules())
m = nnct.geometry._BRUTE_FORCE_MAX + 1  # the fewest points the kd-tree searches
labels = np.resize([1, 2], m)
nnct.compute_nn(nnct.LabeledPointSet(np.random.default_rng(1).random((60, 2)), labels[:60]))
print(scipy_modules())
nnct.compute_nn(nnct.LabeledPointSet(np.random.default_rng(2).random((m, 2)), labels))
print("scipy.spatial" in sys.modules)
"""


def test_import_loads_no_scipy_until_the_kdtree_runs():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "nnct"
    assert out[1] == "[]"  # after import nnct
    assert out[2] == "[]"  # after a brute-force search (n = 60)
    assert out[3] == "True"  # the kd-tree search (n = m) loaded scipy.spatial


_RANDOM_PROBE = """
import sys
import numpy

def random_modules():
    return {m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")}

before = random_modules()
import nnct
print(sorted(random_modules() - before))
"""


def test_import_loads_no_numpy_random_beyond_numpy():
    # numpy 2 imports numpy.random on first use (numpy 1.x with numpy itself);
    # the Monte Carlo streams import it when a chunk runs
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _RANDOM_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_benchmark_binding_resolves():
    # the benchmark tracer (bench/tracing.py) times the package's layers by
    # name; a renamed or moved layer would silently drop out of its metrics
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_tracing", SRC.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().unmeasured == []


def test_generalized_inverse_is_not_exported():
    import nnct
    from nnct.numerics import generalized_inverse

    assert "generalized_inverse" not in nnct.__all__
    assert not hasattr(nnct, "generalized_inverse")
    assert callable(generalized_inverse)


def _bench_worker(monkeypatch):
    """The benchmark worker (bench/worker.py), which empties every lru_cache
    bound in an nnct module before each iteration, so that no iteration
    reuses a draw."""
    import importlib.util

    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    spec = importlib.util.spec_from_file_location("bench_worker", SRC.parent / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_the_stored_permutation_run_is_a_cache_the_benchmark_clears(monkeypatch):
    import nnct.segregation

    run = vars(nnct.segregation)["_permutation_run"]
    assert callable(run.cache_clear)
    assert any(cache is run for cache in _bench_worker(monkeypatch)._lru_caches())


def test_the_stored_qr_replications_are_a_cache_the_benchmark_clears(monkeypatch):
    import nnct.montecarlo

    draws = vars(nnct.montecarlo)["_qr_draws"]
    nnct.montecarlo.estimate_qr(20, 30, 1)
    assert draws.cache_info().currsize == 1
    caches = [c for c in _bench_worker(monkeypatch)._lru_caches() if c is draws]
    assert len(caches) == 1
    caches[0].cache_clear()
    assert draws.cache_info().currsize == 0
