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
labels = np.repeat([1, 2], 150)
nnct.compute_nn(nnct.LabeledPointSet(np.random.default_rng(1).random((60, 2)), labels[120:180]))
print(scipy_modules())
nnct.compute_nn(nnct.LabeledPointSet(np.random.default_rng(2).random((300, 2)), labels))
print("scipy.spatial" in sys.modules)
"""


def test_import_loads_no_scipy_until_the_kdtree_runs():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "nnct"
    assert out[1] == "[]"  # after import nnct
    assert out[2] == "[]"  # after a brute-force search (n = 60)
    assert out[3] == "True"  # the kd-tree search (n = 300) loaded scipy.spatial


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
