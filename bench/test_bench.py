"""Tests of the benchmark itself; from the repository root:

    python3 -m pytest bench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    names = [*run.END_TO_END_UNITS, *tracing.PER_LAYER_UNITS, *workloads.WORKLOADS]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_rescale_cancels_machine_speed():
    nominal = reference.NOMINAL_SLICE_S
    assert reference.rescale(2.0, [nominal] * 3) == pytest.approx(2.0)
    # twice as slow a machine doubles the op time and its slices' mean time
    assert reference.rescale(4.0, [nominal, 3 * nominal]) == pytest.approx(2.0)
    assert reference.timed_slice() > 0


def _brute_nn(coords):
    """Independent O(n^2) oracle: argmin takes the lowest index on ties."""
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return d2.argmin(axis=1), (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1


def test_reference_nn_and_closed_forms_agree_with_brute_force():
    rng = np.random.default_rng(5)
    order = rng.permutation(144)
    grid = np.column_stack([order // 12, order % 12]).astype(float)
    site = rng.integers(0, 3, 90)
    site[:6] = (0, 1, 2, 0, 1, 2)
    sites = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])[site]
    csr = rng.random((400, 2))
    for coords, closed in ((grid, workloads.grid_nn(12, order)),
                           (sites, workloads.duplicate_sites_nn(site)), (csr, None)):
        nn, tied = _brute_nn(coords)
        ref_nn, ref_tied = workloads.reference_nn(coords)
        assert (ref_nn == nn).all() and (ref_tied == tied).all()
        if closed is not None:
            assert (closed == nn).all() and tied.all()
    assert not _brute_nn(csr)[1].any()


@pytest.fixture(scope="module")
def small_plan(tmp_path_factory):
    """A few ops of every kind, small enough to run in a test."""
    workdir = tmp_path_factory.mktemp("plan")
    rng = np.random.default_rng([7, 1])
    coords, labels, nn, _, integer = workloads._analyze_input("grid", 15, rng)
    path = workdir / "grid.csv"
    workloads._write_points(path, coords, labels, integer)
    ops = [{
        "name": "grid", "kind": "cli", "argv": ["analyze", str(path), "--cells"],
        "check": {"type": "analyze",
                  "expect": workloads._analyze_expect(nn, labels, coords, "observed", True)},
    }]
    ops.append(workloads._study_op("size", "size", None, (), ("10,15", "15,10"), 20, 20,
                                   7, workdir))
    pts = rng.random((60, 2))
    np.save(workdir / "p.npy", pts)
    np.save(workdir / "l.npy", np.repeat([1, 2], 30))
    ops.append({"name": "perm", "kind": "perm", "points": str(workdir / "p.npy"),
                "labels": str(workdir / "l.npy"), "flavor": "version_I", "n_perm": 99,
                "seed": 7, "check": {"type": "perm", "n_perm": 99}})
    return {"workload": "small", "seconds": 0, "budget_s": 60, "trace": 1, "ops": ops,
            "spans_file": str(workdir / "spans.npz")}


@pytest.fixture(scope="module")
def traced_runs(small_plan):
    return [worker.execute(small_plan) for _ in range(2)]


def test_outputs_of_small_plan_pass_their_checks(small_plan, traced_runs):
    attempted, failed, problems = run.tally(small_plan["ops"], traced_runs[0]["iterations"])
    assert attempted == 3 * len(traced_runs[0]["iterations"]) >= 12
    assert failed == 0, problems


def _planted(out: dict, edit) -> dict:
    doc = json.loads(out["stdout"])
    edit(doc)
    return {**out, "stdout": json.dumps(doc)}


def test_planted_wrong_answers_count_as_failed(small_plan, traced_runs):
    ops = small_plan["ops"]
    good = traced_runs[0]["iterations"][0]["outputs"]
    q_off = _planted(good[0], lambda d: d.update(q=d["q"] + 1))
    rows_off = _planted(good[0], lambda d: d["nnct"].update(row_sums=d["nnct"]["row_sums"][::-1]))
    rate_off = {**good[1], "files": {k: v.replace(",0.05,", ",0.05,1.5") if k.endswith(".csv")
                                     else v for k, v in good[1]["files"].items()}}
    bad_p = {"value": 0.5 / 100}
    for k, bad in ((0, q_off), (0, rows_off), (1, rate_off), (2, bad_p)):
        assert workloads.check_output(ops[k], bad), ops[k]["name"]
        outputs = list(good)
        outputs[k] = bad
        assert run.tally(ops, [{"outputs": good}, {"outputs": outputs}])[:2] == (6, 1)
    assert workloads.check_output(ops[0], {"exit": 5}) == ["exit code 5"]
    assert workloads.check_output(ops[2], {"error": "ValueError: x"})


def test_traced_counts_repeat_and_self_times_add_up(traced_runs):
    exact = [*tracing.COUNT_METRICS, "geometry.tied_share",
             "montecarlo.estimate_qr_repeat_share", "contingency.sigma_basis_hit_ratio"]
    seen = [{m: it["layers"][m] for m in exact}
            for result in traced_runs for it in result["iterations"] if it["traced"]]
    assert len(seen) >= 4 and all(s == seen[0] for s in seen)
    assert seen[0]["geometry.nn_calls"] > 0 and seen[0]["segregation.test_calls"] > 0
    assert seen[0]["geometry.tied_share"] > 0  # the grid file ties everywhere
    for it in traced_runs[0]["iterations"]:
        if it["traced"]:
            parts = sum(it["layers"][m] for m in tracing.TIME_METRICS)
            assert parts == pytest.approx(it["layers"]["trace.wall_s"], rel=1e-9)
    metrics = run.layer_metrics(traced_runs[0]["iterations"], [])
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


def test_renamed_binding_is_reported_unmeasured(monkeypatch):
    monkeypatch.setattr(tracing, "BINDINGS", tracing.BINDINGS + (
        ("nnct.geometry", "_renamed_away", "geometry.nn_s", None, None),
        ("nnct.gone", "f", "geometry.nn_s", None, None)))
    tracer = tracing.Tracer()
    assert tracer.unmeasured == ["nnct.geometry._renamed_away", "nnct.gone.f"]
    _, layers = tracer.run(lambda: None)
    assert layers["geometry.nn_calls"] == 0
