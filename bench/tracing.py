"""Span recorder for the traced run, and the layer bindings it wraps.

Each binding names a function where ``nnct`` defines it.  ``Tracer.install``
replaces that function at every ``nnct`` module attribute bound to it (the
names the engine calls through, e.g. ``nnct.montecarlo._nn_indices`` as well
as ``nnct.geometry._nn_indices``) and ``uninstall`` puts the originals back,
so untraced iterations run the unmodified package.  A binding that no longer
resolves is reported as unmeasured instead of failing the run.

A span's self time is its duration minus the durations of its direct child
spans.  Every iteration is one root span, so the self times of all spans in
an iteration add up to its duration; the root's own self time is the part no
layer accounts for (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np
from scipy.spatial import cKDTree

# (defining module, attribute, self-time metric, call-count metric, observer)
BINDINGS = (
    ("nnct.cli", "main", "cli.main_s", None, None),
    ("nnct.report", "AnalysisReport.to_json", "report.render_s", None, None),
    ("nnct.report", "AnalysisReport.to_dict", "report.render_s", None, None),
    ("nnct.report", "AnalysisReport.write_csv", "report.render_s", None, None),
    ("nnct.montecarlo", "SizePowerReport.to_json", "report.render_s", None, None),
    ("nnct.montecarlo", "SizePowerReport.write_csv", "report.render_s", None, None),
    ("nnct.montecarlo", "SizePowerReport.write_plot_csv", "report.render_s", None, None),
    ("nnct.dataio", "ingest", "dataio.ingest_s", None, None),
    ("nnct.geometry", "_nn_indices", "geometry.nn_s", "geometry.nn_calls", "nn_input"),
    ("nnct.geometry", "compute_nn", "geometry.nn_s", None, None),
    ("nnct.geometry", "structure_from_nn_index", "geometry.nn_s", None, None),
    ("nnct.geometry", "LabeledPointSet.has_duplicate_points", "geometry.dup_check_s",
     None, None),
    ("nnct.contingency", "tabulate_pairs", "contingency.tabulate_s", None, None),
    ("nnct.contingency", "build_nnct", "contingency.tabulate_s", None, None),
    ("nnct.contingency", "ContingencyTable.__post_init__", "contingency.tabulate_s",
     None, None),
    ("nnct.contingency", "covariance_model", "contingency.model_s",
     "contingency.model_calls", None),
    ("nnct.segregation", "dixon_overall", "segregation.dixon_s",
     "segregation.test_calls", None),
    ("nnct.segregation", "version_I", "segregation.version_I_s",
     "segregation.test_calls", None),
    ("nnct.segregation", "version_II", "segregation.version_II_s",
     "segregation.test_calls", None),
    ("nnct.segregation", "version_III", "segregation.version_III_s",
     "segregation.test_calls", None),
    ("nnct.segregation", "cell_specific_test", "segregation.cell_z_s",
     "segregation.test_calls", None),
    ("nnct.segregation", "run_battery_from_table", "segregation.battery_s", None, None),
    ("nnct.segregation", "_statistic_only", "segregation.battery_s", None, None),
    ("nnct.segregation", "permutation_pvalue", "segregation.permutation_s", None, None),
    ("nnct.numerics", "generalized_inverse", "numerics.ginv_s", "numerics.ginv_calls",
     None),
    ("nnct.numerics", "chi2_sf", "numerics.tail_s", None, None),
    ("nnct.numerics", "normal_sf", "numerics.tail_s", None, None),
    ("nnct.montecarlo", "generate", "montecarlo.generate_s", None, None),
    ("nnct.montecarlo", "_rejection_chunk", "montecarlo.replicate_s", None, "replicate"),
    ("nnct.montecarlo", "_study", "montecarlo.study_s", None, None),
    ("nnct.montecarlo", "estimate_qr", "montecarlo.estimate_qr_s",
     "montecarlo.estimate_qr_calls", "estimate_qr"),
    ("nnct.montecarlo", "_qr_chunk", "montecarlo.estimate_qr_s", None, None),
)
SIGMA_BASIS = ("nnct.contingency", "_sigma_basis")

ROOT = "body"
TIME_METRICS = tuple(dict.fromkeys(b[2] for b in BINDINGS)) + ("trace.unattributed_s",)
COUNT_METRICS = tuple(dict.fromkeys(b[3] for b in BINDINGS if b[3]))
# per_layer metrics of a traced run, in report order, with their units
PER_LAYER_UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "geometry.tied_share": "ratio",
    "contingency.sigma_basis_hit_ratio": "ratio",
    "montecarlo.estimate_qr_repeat_share": "ratio",
    "montecarlo.reps_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.unmeasured_bindings": "count",
}


class SpanRecorder:
    """Spans kept in flat arrays: name id, parent index, root index, start
    and end (``time.perf_counter`` seconds).  Spans of one body iteration
    share a root, which plays the role of a request id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.root[stack[0]] if stack else i)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def arrays(self, lo: int = 0) -> dict:
        """Copies of the span fields from span ``lo`` on."""
        return {
            "name_id": np.array(self.name_id[lo:], dtype=np.int32),
            "parent": np.array(self.parent[lo:], dtype=np.int32),
            "root": np.array(self.root[lo:], dtype=np.int32),
            "start": np.array(self.start[lo:], dtype=np.float64),
            "end": np.array(self.end[lo:], dtype=np.float64),
        }

    def save(self, path, workload: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), workload=np.array(workload),
                            **self.arrays())


def self_times(spans: dict, lo: int) -> np.ndarray:
    """Self time of each span in ``spans`` (whose first index is ``lo``)."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent] - lo, dur[has_parent])
    return dur - child


def tied_share(inputs: list) -> float:
    """Share of points, over all NN searches recorded, whose NN distance is
    tied: with self or a duplicate at rank 0, the NN distance is the
    rank-1 distance and a tie means rank 2 equals it."""
    tied = total = 0
    for coords in inputs:
        n = coords.shape[0]
        total += n
        if n >= 3:
            d, _ = cKDTree(coords).query(coords, k=3)
            tied += int(np.count_nonzero(d[:, 2] == d[:, 1]))
    return tied / total if total else 0.0


class Tracer:
    """Installs span-recording wrappers on the layer bindings for one
    traced body iteration at a time and turns its spans into metrics."""

    def __init__(self):
        self.rec = SpanRecorder()
        self.root_id = self.rec.name_index(ROOT)
        self.unmeasured: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets = []  # (owner, attr, original, span name, observer)
        for module, attr, _, _, observer in BINDINGS:
            found = _resolve(module, attr)
            if found is None:
                self.unmeasured.append(f"{module}.{attr}")
            else:
                self._targets.append((*found, f"{module}.{attr}", observer))
        self._sigma_basis = _resolve(*SIGMA_BASIS)
        if self._sigma_basis is None or not hasattr(self._sigma_basis[2], "cache_info"):
            self._sigma_basis = None
            self.unmeasured.append(".".join(SIGMA_BASIS))
        self._reset_observations()

    def _reset_observations(self):
        self.nn_inputs: list[np.ndarray] = []
        self.qr_keys: list[tuple] = []
        self.reps = 0

    # Observers run just before their span opens, so their small cost is
    # part of the caller's self time.
    def _observe_nn_input(self, sig, args, kwargs):
        self.nn_inputs.append(np.asarray(args[0] if args else next(iter(kwargs.values()))))

    def _observe_estimate_qr(self, sig, args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        self.qr_keys.append((a.get("n"), a.get("n_mc"), a.get("seed")))

    def _observe_replicate(self, sig, args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        self.reps += a.get("hi", 0) - a.get("lo", 0)

    def _wrapper(self, fn, name: str, observer: str | None):
        nid = self.rec.name_index(name)
        begin, finish = self.rec.begin, self.rec.finish
        if observer is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
            return traced
        observe = getattr(self, f"_observe_{observer}")
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            observe(sig, args, kwargs)
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return observed

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nnct" or name.startswith("nnct."))]
        for owner, attr, original, name, observer in self._targets:
            wrapper = self._wrapper(original, name, observer)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, body):
        """Run ``body()`` as one traced iteration; returns (result, metrics)."""
        self._reset_observations()
        self._cache_before = self._sigma_basis_lookups()
        lo = len(self.rec.start)
        self.install()
        try:
            i = self.rec.begin(self.root_id)
            try:
                result = body()
            finally:
                self.rec.finish(i)
        finally:
            self.uninstall()
        return result, self._metrics(lo)

    def _metrics(self, lo: int) -> dict:
        spans = self.rec.arrays(lo)
        own = self_times(spans, lo)
        nid = spans["name_id"]
        per_name = np.bincount(nid, weights=own, minlength=len(self.rec.names))
        calls = np.bincount(nid, minlength=len(self.rec.names))
        out = {m: 0.0 for m in TIME_METRICS}
        out.update({m: 0 for m in COUNT_METRICS})
        for module, attr, time_metric, count_metric, _ in BINDINGS:
            name = f"{module}.{attr}"
            if name not in self.rec.names:
                continue
            k = self.rec.names.index(name)
            out[time_metric] += float(per_name[k])
            if count_metric:
                out[count_metric] += int(calls[k])
        out["trace.unattributed_s"] = float(per_name[self.root_id])
        out["trace.wall_s"] = float(spans["end"][0] - spans["start"][0])

        repl = "nnct.montecarlo._rejection_chunk"
        if repl in self.rec.names and self.reps:
            mask = nid == self.rec.names.index(repl)
            inclusive = float((spans["end"][mask] - spans["start"][mask]).sum())
            out["montecarlo.reps_per_s"] = self.reps / inclusive
        else:
            out["montecarlo.reps_per_s"] = 0.0
        repeats = len(self.qr_keys) - len(set(self.qr_keys))
        out["montecarlo.estimate_qr_repeat_share"] = (
            repeats / len(self.qr_keys) if self.qr_keys else 0.0)
        out["geometry.tied_share"] = tied_share(self.nn_inputs)
        hits, misses = np.subtract(self._sigma_basis_lookups(), self._cache_before)
        out["contingency.sigma_basis_hit_ratio"] = (
            float(hits / (hits + misses)) if hits + misses else 0.0)
        self._reset_observations()
        return out

    def _sigma_basis_lookups(self) -> tuple[int, int]:
        """(hits, misses) of the ``_sigma_basis`` cache so far."""
        if self._sigma_basis is None:
            return 0, 0
        info = self._sigma_basis[2].cache_info()
        return info.hits, info.misses


def _resolve(module: str, attr: str):
    """(owner, attribute, original) for ``module.attr``, where ``attr`` may
    be ``Class.method``; None when the binding no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(last) if isinstance(owner, type) else getattr(owner, last, None)
    return None if original is None else (owner, last, original)
