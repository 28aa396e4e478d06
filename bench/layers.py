"""Ungated layer timings: the ROADMAP baseline rows, repeated.

    python3 bench/layers.py

Run from the repository root.  Each row is timed in rounds of ``number``
calls (chosen so a round lasts at least 0.2 s); the table shows the median
and quartiles of the per-call time over ``REPEAT`` rounds next to the
single-run baseline the ROADMAP recorded, and the brute/kd-tree NN cutover
measured on this machine.  Nothing here is a gate; the JSON goes to
``.bench_out/layers.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import nnct  # noqa: E402
from nnct import contingency, geometry, montecarlo, numerics, segregation  # noqa: E402

REPEAT = 7
SEED = 1
NN_SIZES = (20, 50, 100, 200, 300, 512)
# single-run baseline (seconds per call) from the ROADMAP table, by row name
BASELINE = {
    "import nnct (fresh interpreter)": 0.7,
    "analyze 100 pts observed (whole process)": 0.84,
    "analyze 100 pts adjusted (whole process)": 4.1,
    "nn brute n=20": 34e-6, "nn kdtree n=20": 96e-6,
    "nn brute n=100": 349e-6, "nn kdtree n=100": 165e-6,
    "nn brute n=300": 2580e-6, "nn kdtree n=300": 477e-6,
    "nn brute n=512": 7760e-6, "nn kdtree n=512": 620e-6,
    "nn kdtree 10^4 CSR": 0.021, "nn kdtree 200x200 grid": 1.24,
    "nn kdtree 2*10^5 CSR": 0.62, "nn kdtree 3000 pts on 2 sites": 2.06,
    "size replication (50,50), 8 tests": 2.06e-3,
    "generalized_inverse 4x4": 92e-6,
    "dixon_overall": 22e-6, "version_I": 151e-6, "version_II": 142e-6,
    "version_III": 168e-6,
    "permutation_pvalue n=100, 999 perms": 0.266,
    "estimate_qr per rep n=100": 0.43e-3, "estimate_qr per rep n=1000": 1.97e-3,
}


def _time(fn, per_call: int) -> list[float]:
    """Per-call seconds of each round; slow rows get fewer (at least 3)
    rounds so that no row takes much over 10 s."""
    timer = timeit.Timer(fn)
    number, total = timer.autorange()
    rounds = max(3, min(REPEAT, int(8 / total)))
    return [t / (number * per_call) for t in timer.repeat(repeat=rounds, number=number)]


def _process(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cases(seed: int):
    """(row name, zero-argument callable, calls per invocation)."""
    rng = np.random.default_rng(seed)
    art = str(ROOT / "tests" / "data" / "artificial_100.csv")
    yield "import nnct (fresh interpreter)", lambda: _process(["-c", "import nnct"]), 1
    yield ("analyze 100 pts observed (whole process)",
           lambda: _process(["-m", "nnct.cli", "analyze", art]), 1)
    yield ("analyze 100 pts adjusted (whole process)",
           lambda: _process(["-m", "nnct.cli", "analyze", art, "--qr-mode", "adjusted"]), 1)
    brute = getattr(geometry, "_nn_brute", None)
    tree = getattr(geometry, "_nn_kdtree", None)
    for n in NN_SIZES:
        pts = rng.random((n, 2))
        yield f"nn brute n={n}", brute and (lambda p=pts: brute(p)), 1
        yield f"nn kdtree n={n}", tree and (lambda p=pts: tree(p)), 1
    side = np.arange(200.0)
    grid = np.column_stack([np.repeat(side, 200), np.tile(side, 200)])
    sites = np.array([[0.25, 0.25], [0.75, 0.75]])[rng.integers(0, 2, 3000)]
    for name, pts in (("10^4 CSR", rng.random((10_000, 2))), ("200x200 grid", grid),
                      ("2*10^5 CSR", rng.random((200_000, 2))),
                      ("3000 pts on 2 sites", sites)):
        yield f"nn kdtree {name}", tree and (lambda p=pts: tree(p)), 1

    chunk = getattr(montecarlo, "_rejection_chunk", None)
    yield ("size replication (50,50), 8 tests",
           chunk and (lambda: chunk("csr", 0.0, 50, 50, seed, 0.05, 63.3, 62.1, 0, 20)), 20)
    ps = nnct.LabeledPointSet(rng.random((100, 2)), np.repeat([1, 2], 50))
    nns = nnct.compute_nn(ps)
    table = nnct.build_nnct(ps, nns)
    model = nnct.covariance_model(50, 50, 100, nns.Q, nns.R)
    yield ("generalized_inverse 4x4",
           lambda: numerics.generalized_inverse(model.sigma_full), 1)
    for flavor in ("dixon_overall", "version_I", "version_II", "version_III"):
        fn = getattr(segregation, flavor)
        yield flavor, lambda f=fn: f(table, model), 1
    yield "cell_specific_test", lambda: segregation.cell_specific_test(table, model, 1, 1), 1
    yield ("covariance_model", lambda: contingency.covariance_model(50, 50, 100, 70, 60), 1)
    yield ("permutation_pvalue n=100, 999 perms",
           lambda: nnct.permutation_pvalue(ps, "dixon_overall", 999, seed), 1)
    for n in (100, 1000):
        yield (f"estimate_qr per rep n={n}",
               lambda n=n: nnct.estimate_qr(n, 100, seed), 100)


def main() -> int:
    rows = {}
    print(f"{'row':<44}{'median':>12}{'q1':>12}{'q3':>12}{'baseline':>12}{'ratio':>8}")
    for name, fn, per_call in cases(SEED):
        if fn is None:
            rows[name] = None
            print(f"{name:<44}{'unmeasured: binding missing':>40}")
            continue
        samples = _time(fn, per_call)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        med = statistics.median(samples)
        base = BASELINE.get(name)
        rows[name] = {"median_s": med, "q1_s": q1, "q3_s": q3, "samples_s": samples,
                      "baseline_s": base}
        ratio = f"{med / base:8.2f}" if base else ""
        print(f"{name:<44}{med:12.3e}{q1:12.3e}{q3:12.3e}"
              f"{base if base else float('nan'):12.3e}{ratio}")
    cutover = next((n for n in NN_SIZES
                    if rows.get(f"nn kdtree n={n}") and rows.get(f"nn brute n={n}")
                    and rows[f"nn kdtree n={n}"]["median_s"]
                    < rows[f"nn brute n={n}"]["median_s"]), None)
    print(f"kd-tree first beats brute at n = {cutover} (of {NN_SIZES})")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "layers.json").write_text(json.dumps({"rows": rows, "nn_cutover_n": cutover},
                                                indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
