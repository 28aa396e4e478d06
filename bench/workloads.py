"""Workload plans, their seeded inputs, reference answers and output checks.

This module never imports ``nnct``: every reference answer comes from
numpy/scipy or from a closed form, so a wrong answer from the package under
test cannot also be the expected one.

A *plan* is a JSON-serialisable dict that the worker process executes.  Its
``ops`` list holds the operations of one body iteration; each op carries the
``check`` spec that ``check_output`` applies to its output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

OVERALL_FLAVORS = ("dixon_overall", "version_I", "version_II", "version_III")
CELL_FLAVORS = ("cell_Z_11", "cell_Z_12", "cell_Z_21", "cell_Z_22")
QR_MODES = ("observed", "adjusted")

ARTIFICIAL = Path("tests") / "data" / "artificial_100.csv"

# analyze_files: (name, kind, size, extra analyze flags)
ANALYZE_FILES = (
    ("csr_200k", "csr", 200_000, []),
    ("csr_10k_cells", "csr", 10_000, ["--cells"]),
    ("grid_200x200", "grid", 200, []),
    ("dup_2sites_3000", "dup", 3000, []),
)
ANALYZE_ADJUSTED_NMC = 1000

# mc_study: combos share total n = 50 so the per-n Q/R estimate repeats.
MC_COMBOS = ("20,30", "30,20", "40,40")
MC_POWER_COMBOS = ("20,30", "30,20")
MC_SIZE_NMC = 300  # --qr-nmc = 1x --nmc, the CLI's default ratio for size
MC_POWER_NMC = 40  # --qr-nmc = 10x --nmc, the CLI's default ratio for power
MC_SEG_S = ("1/6", "1/3")
MC_ASSOC_R = ("1/4",)

# permutation: (name, n, n1)
PERM_SETS = (("csr_100", 100, 50), ("csr_1000", 1000, 400))
PERM_N = 999

WORKLOADS = ("analyze_files", "mc_study", "permutation")


# ---------------------------------------------------------------------------
# reference NN digraph (lowest-index tie rule)


def reference_nn(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NN index of every point and whether its NN distance is tied.

    Candidates come from a kd-tree query whose k grows until no row can
    have lost a tied candidate to truncation; ties are decided on exact
    squared distances and resolved toward the lowest index.
    """
    n = coords.shape[0]
    tree = cKDTree(coords)
    nn = np.empty(n, dtype=np.intp)
    tied = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    k = 4
    while todo.size:
        kk = min(k, n)
        _, idx = tree.query(coords[todo], k=kk)
        idx = idx.reshape(todo.size, kk)
        d2 = ((coords[idx] - coords[todo][:, None, :]) ** 2).sum(axis=2)
        last = d2[:, -1].copy()
        d2[idx == todo[:, None]] = np.inf
        dmin = d2.min(axis=1)
        at_min = d2 == dmin[:, None]
        # a k-th candidate (self included) at the minimum means more may sit
        # beyond k
        done = (kk == n) | (last > dmin)
        rows = todo[done]
        nn[rows] = np.where(at_min[done], idx[done], n).min(axis=1)
        tied[rows] = at_min[done].sum(axis=1) > 1
        todo = todo[~done]
        k *= 4
    return nn, tied


def grid_nn(side: int, order: np.ndarray) -> np.ndarray:
    """Closed form for a side x side unit grid whose point ``p`` of the file
    sits at lattice cell ``order[p]``: the NN is the lowest file index among
    the (2 to 4) lattice neighbours at distance 1."""
    n = side * side
    index_of = np.empty(n, dtype=np.intp)
    index_of[order] = np.arange(n)
    cell = order
    i, j = cell // side, cell % side
    best = np.full(n, n, dtype=np.intp)
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ii, jj = i + di, j + dj
        inside = (ii >= 0) & (ii < side) & (jj >= 0) & (jj < side)
        cand = np.where(inside, index_of[np.clip(ii, 0, side - 1) * side
                                         + np.clip(jj, 0, side - 1)], n)
        best = np.minimum(best, cand)
    return best


def duplicate_sites_nn(site: np.ndarray) -> np.ndarray:
    """Closed form for points stacked on a few sites: a site's lowest-index
    member points to its second-lowest, every other member to the lowest."""
    nn = np.empty(site.shape[0], dtype=np.intp)
    for s in np.unique(site):
        members = np.flatnonzero(site == s)
        nn[members] = members[0]
        nn[members[0]] = members[1]
    return nn


def nnct_answer(nn: np.ndarray, cls: np.ndarray) -> dict:
    """Table, margins, Q and R implied by NN indices and classes in {1, 2}."""
    n = nn.shape[0]
    counts = np.zeros((2, 2), dtype=np.int64)
    np.add.at(counts, (cls - 1, cls[nn] - 1), 1)
    deg = np.bincount(nn, minlength=n)
    return {
        "n": int(n),
        "n1": int(np.count_nonzero(cls == 1)),
        "n2": int(np.count_nonzero(cls == 2)),
        "counts": counts.tolist(),
        "q": int(np.sum(deg * (deg - 1))),
        "r": int(np.count_nonzero(nn[nn] == np.arange(n))),
    }


def classes_first_seen(labels) -> np.ndarray:
    """Class numbers 1, 2 assigned to labels in first-seen order."""
    first = labels[0]
    return np.where(np.asarray(labels) == first, 1, 2)


# ---------------------------------------------------------------------------
# input generation


def _write_points(path: Path, coords: np.ndarray, labels: np.ndarray, integer: bool) -> None:
    fmt = "{:d},{:d},{}" if integer else "{!r},{!r},{}"
    values = coords.astype(np.int64) if integer else coords
    rows = (fmt.format(x, y, lab) for (x, y), lab in zip(values.tolist(), labels.tolist()))
    path.write_text("x,y,label\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _read_points(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    coords = np.array([[float(r[0]), float(r[1])] for r in rows])
    return coords, np.array([r[2].strip() for r in rows])


def _analyze_input(kind: str, size: int, rng: np.random.Generator):
    """(coords, labels, nn, tied, integer_coords) for one generated file."""
    if kind == "csr":
        coords = rng.random((size, 2))
        labels = np.where(rng.random(size) < 0.5, "A", "B")
        nn, tied = reference_nn(coords)
        return coords, labels, nn, tied, False
    if kind == "grid":
        order = rng.permutation(size * size)
        coords = np.column_stack([order // size, order % size]).astype(float)
        labels = np.where(rng.random(size * size) < 0.5, "A", "B")
        return coords, labels, grid_nn(size, order), np.ones(size * size, bool), True
    site = rng.integers(0, 2, size)
    site[:2] = (0, 1)  # both sites hold at least two points
    site[2:4] = (0, 1)
    coords = np.array([[0.25, 0.25], [0.75, 0.75]])[site]
    labels = np.where(rng.random(size) < 0.5, "A", "B")
    # Every NN is one of the sites' first two members, so if those shared a
    # class a column sum would be 0 and version I undefined (exit code 5).
    labels[:2] = ("A", "B")
    return coords, labels, duplicate_sites_nn(site), np.ones(size, bool), False


def _analyze_expect(nn, labels, coords, mode: str, cells: bool) -> dict:
    cls = classes_first_seen(labels)
    expect = nnct_answer(nn, cls)
    expect.update(
        duplicate_points=bool(len(np.unique(coords, axis=0)) < coords.shape[0]),
        qr_mode=mode,
        flavors=list(OVERALL_FLAVORS + (CELL_FLAVORS if cells else ())),
    )
    return expect


def build_ops(workload: str, seed: int, workdir: Path, root: Path) -> tuple[list, dict]:
    """Generate the workload's inputs under ``workdir`` and return
    (ops, facts); facts holds per-input properties for the run record."""
    plans = {
        "analyze_files": _plan_analyze,
        "mc_study": _plan_mc,
        "permutation": _plan_permutation,
    }
    return plans[workload](seed, workdir, root)


def _plan_analyze(seed, workdir, root):
    ops, facts = [], {"tied_share": {}}
    for k, (name, kind, size, flags) in enumerate(ANALYZE_FILES):
        rng = np.random.default_rng([seed, 1, k])
        coords, labels, nn, tied, integer = _analyze_input(kind, size, rng)
        path = workdir / f"{name}.csv"
        _write_points(path, coords, labels, integer)
        facts["tied_share"][name] = float(tied.mean())
        ops.append({
            "name": name, "kind": "cli", "argv": ["analyze", str(path), *flags],
            "check": {"type": "analyze",
                      "expect": _analyze_expect(nn, labels, coords, "observed",
                                                "--cells" in flags)},
        })
    coords, labels = _read_points(root / ARTIFICIAL)
    nn, tied = reference_nn(coords)
    facts["tied_share"]["artificial_100"] = float(tied.mean())
    ops.append({
        "name": "artificial_100_adjusted", "kind": "cli",
        "argv": ["analyze", str(root / ARTIFICIAL), "--qr-mode", "adjusted",
                 "--nmc", str(ANALYZE_ADJUSTED_NMC), "--seed", str(seed)],
        "check": {"type": "analyze",
                  "expect": _analyze_expect(nn, labels, coords, "adjusted", False)},
    })
    return ops, facts


def _study_op(name, sub, values_flag, values, combos, nmc, qr_nmc, seed, workdir):
    prefix = str(workdir / name)
    argv = ["simulate", sub]
    if values_flag:
        argv += [values_flag, ",".join(values)]
    argv += ["--combos", *combos, "--nmc", str(nmc), "--qr-nmc", str(qr_nmc),
             "--seed", str(seed), "--workers", "1", "--out", prefix]
    params = [None] if not values_flag else [_fraction(v) for v in values]
    return {
        "name": name, "kind": "cli", "argv": argv,
        "files": [f"{prefix}.csv", f"{prefix}.json", f"{prefix}_plot.csv"],
        "check": {"type": "study", "combos": [list(map(int, c.split(","))) for c in combos],
                  "params": params, "nmc": nmc},
    }


def _fraction(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _plan_mc(seed, workdir, root):
    ops = [
        _study_op("size", "size", None, (), MC_COMBOS, MC_SIZE_NMC, MC_SIZE_NMC,
                  seed, workdir),
        _study_op("power_seg", "power-seg", "--s", MC_SEG_S, MC_POWER_COMBOS,
                  MC_POWER_NMC, 10 * MC_POWER_NMC, seed, workdir),
        _study_op("power_assoc", "power-assoc", "--r", MC_ASSOC_R, MC_POWER_COMBOS,
                  MC_POWER_NMC, 10 * MC_POWER_NMC, seed, workdir),
    ]
    return ops, {"tied_share": {}}


def _plan_permutation(seed, workdir, root):
    ops, facts = [], {"tied_share": {}}
    for k, (name, n, n1) in enumerate(PERM_SETS):
        rng = np.random.default_rng([seed, 3, k])
        coords = rng.random((n, 2))
        labels = rng.permutation(np.repeat([1, 2], [n1, n - n1]))
        np.save(workdir / f"{name}_points.npy", coords)
        np.save(workdir / f"{name}_labels.npy", labels)
        facts["tied_share"][name] = float(reference_nn(coords)[1].mean())
        for flavor in OVERALL_FLAVORS + CELL_FLAVORS:
            ops.append({
                "name": f"{name}:{flavor}", "kind": "perm",
                "points": str(workdir / f"{name}_points.npy"),
                "labels": str(workdir / f"{name}_labels.npy"),
                "flavor": flavor, "n_perm": PERM_N, "seed": seed,
                "check": {"type": "perm", "n_perm": PERM_N},
            })
    return ops, facts


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def check_output(op: dict, out: dict) -> list[str]:
    """Problems with one operation's output (``out`` as the worker records
    it); an exception, a non-zero exit code or a failed check is a problem."""
    if out.get("error"):
        return [f"raised {out['error']}"]
    if out.get("exit", 0) != 0:
        return [f"exit code {out['exit']}"]
    check = op["check"]
    try:
        if check["type"] == "analyze":
            return _check_analyze(out["stdout"], check["expect"])
        if check["type"] == "study":
            return _check_study(out["files"], check)
        return _check_perm(out["value"], check["n_perm"])
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def _check_analyze(text: str, expect: dict) -> list[str]:
    doc = json.loads(text)
    problems = []

    def want(label, got, value):
        if got != value:
            problems.append(f"{label}: got {got!r}, expected {value!r}")

    want("schema_version", doc["schema_version"], 1)
    want("input.n", doc["input"]["n"], expect["n"])
    want("input.n1", doc["input"]["n1"], expect["n1"])
    want("input.n2", doc["input"]["n2"], expect["n2"])
    want("input.duplicate_points", doc["input"]["duplicate_points"],
         expect["duplicate_points"])
    want("nnct.counts", doc["nnct"]["counts"], expect["counts"])
    want("nnct.row_sums", doc["nnct"]["row_sums"], [expect["n1"], expect["n2"]])
    want("nnct.total", doc["nnct"]["total"], expect["n"])
    want("q", doc["q"], expect["q"])
    want("r", doc["r"], expect["r"])
    want("qr_mode", doc["qr_mode"], expect["qr_mode"])
    want("flavors", [t["flavor"] for t in doc["tests"]], expect["flavors"])
    if expect["qr_mode"] == "observed":
        want("q_used", doc["q_used"], float(expect["q"]))
        want("r_used", doc["r_used"], float(expect["r"]))
    elif not (doc["q_used"] > 0 and doc["r_used"] > 0):
        problems.append(f"adjusted Q/R not positive: {doc['q_used']}, {doc['r_used']}")
    for t in doc["tests"]:
        if not (math.isfinite(t["statistic"]) and 0.0 <= t["p_value"] <= 1.0):
            problems.append(f"{t['flavor']}: statistic {t['statistic']}, p {t['p_value']}")
    return problems


def _check_study(files: dict, check: dict) -> list[str]:
    csv_text, json_text, plot_text = files.values()
    nmc = check["nmc"]
    expected = {
        (n1, n2, param, flavor, mode)
        for param in check["params"]
        for n1, n2 in check["combos"]
        for mode in QR_MODES
        for flavor in OVERALL_FLAVORS
    }
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    problems = []
    seen = set()
    for row in rows:
        param = _fraction(row["param"]) if row["param"] else None
        key = (int(row["n1"]), int(row["n2"]), param, row["flavor"], row["qr_mode"])
        seen.add(key)
        rate = float(row["rejection_rate"])
        if not 0.0 <= rate <= 1.0 or abs(rate * nmc - round(rate * nmc)) > 1e-6:
            problems.append(f"{key}: rejection rate {rate} is not k/{nmc} in [0, 1]")
        if int(row["n_mc"]) != nmc:
            problems.append(f"{key}: n_mc {row['n_mc']} != {nmc}")
        adjusted = row["qr_mode"] == "adjusted"
        if adjusted != bool(row["q_hat"]) or (adjusted and float(row["q_hat"]) <= 0):
            problems.append(f"{key}: q_hat {row['q_hat']!r} for mode {row['qr_mode']}")
    if len(rows) != len(expected) or seen != expected:
        problems.append(f"rows: got {len(rows)} ({len(seen)} distinct), "
                        f"expected {len(expected)}")
    if len(json.loads(json_text)["rows"]) != len(expected):
        problems.append("JSON report row count differs")
    if len(plot_text.splitlines()) != len(expected) + 1:
        problems.append("plot CSV row count differs")
    return problems


def _check_perm(p: float, n_perm: int) -> list[str]:
    k = p * (1 + n_perm)
    if abs(k - round(k)) > 1e-9 * (1 + n_perm) or not 1 <= round(k) <= 1 + n_perm:
        return [f"p-value {p!r} is not k/{1 + n_perm} with 1 <= k <= {1 + n_perm}"]
    return []
