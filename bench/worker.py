"""Runs one workload plan in a fresh process: ``worker.py PLAN RESULT``.

The process imports ``nnct`` from the plan's ``src`` directory, then runs
the plan's body (all its ops, in order) again and again until the measuring
time is used up, timing each iteration.  Every iteration starts with the
package's ``lru_cache`` caches empty, as a fresh CLI process does, so no
iteration reuses work of an earlier one.  Untraced iterations run one
reference slice (see ``reference.py``) after every op, outside the op's
timing, to gauge the machine's speed at that moment.  With tracing on,
untraced and traced iterations alternate so both are measured in the same
process.  The result file holds every iteration's wall time, reference
slice times and op outputs, the traced iterations' layer metrics and the
process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

MIN_UNTRACED = 2  # two runs at one seed are compared byte for byte
MIN_TRACED = 2  # traced counts are compared across iterations


def _run_op(op: dict, nnct, inputs: dict) -> dict:
    try:
        if op["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = nnct.cli.main(op["argv"])
            return {"exit": code, "stdout": buf.getvalue()}
        pts = inputs[op["points"]]
        return {"value": nnct.permutation_pvalue(pts, op["flavor"], op["n_perm"], op["seed"])}
    except SystemExit as e:  # argparse rejects a command line this way
        return {"exit": e.code}
    except Exception as e:  # one failing op must not stop the run
        traceback.print_exc()
        return {"error": f"{type(e).__name__}: {e}"}


def _collect_files(op: dict, out: dict) -> dict:
    if op.get("files") and "stdout" in out:
        files = {}
        for path in op["files"]:
            try:
                files[path] = Path(path).read_text(encoding="utf-8")
            except OSError as e:
                files[path] = f"unreadable: {e}"
        out["files"] = files
    return out


def _load_inputs(ops: list, nnct) -> dict:
    """Point sets the perm ops use, built before any timing starts."""
    import numpy as np

    inputs = {}
    for op in ops:
        if op["kind"] == "perm" and op["points"] not in inputs:
            inputs[op["points"]] = nnct.LabeledPointSet(np.load(op["points"]),
                                                        np.load(op["labels"]))
    return inputs


def _lru_caches() -> list:
    """Every ``functools.lru_cache`` bound in a loaded ``nnct`` module."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "nnct" or name.startswith("nnct.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def execute(plan: dict) -> dict:
    """Run the plan's iterations and return the result record."""
    import nnct
    import nnct.cli  # noqa: F401  (the analyze/simulate entry point)

    ops = plan["ops"]
    inputs = _load_inputs(ops, nnct)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    def body(ref_s=None):
        times, outs = [], []
        for op in ops:
            t0 = time.perf_counter()
            outs.append(_run_op(op, nnct, inputs))
            times.append(time.perf_counter() - t0)
            if ref_s is not None:
                ref_s.append(reference.timed_slice())
        return times, outs

    caches = _lru_caches()
    for _ in range(3):  # warm the reference slice up
        reference.timed_slice()
    iterations, spent = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        layers, ref_s = None, []
        for cache in caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        if traced:
            (op_s, outs), layers = tracer.run(body)
            wall = layers["trace.wall_s"]
        else:
            op_s, outs = body(ref_s)
            wall = sum(op_s)
        spent.append(time.perf_counter() - t0)
        iterations.append({
            "traced": traced, "wall_s": wall, "op_s": op_s, "ref_s": ref_s,
            "layers": layers,
            "outputs": [_collect_files(op, out) for op, out in zip(ops, outs)],
        })
        untraced = sum(not it["traced"] for it in iterations)
        n_traced = len(iterations) - untraced
        elapsed = time.perf_counter() - start
        typical = statistics.median(spent)
        enough = untraced >= MIN_UNTRACED and (tracer is None or n_traced >= MIN_TRACED)
        if elapsed + typical > (plan["seconds"] if enough else plan["budget_s"]):
            break
    if tracer is not None:
        tracer.rec.save(plan["spans_file"], plan["workload"])
    return {
        "iterations": iterations,
        "unmeasured": tracer.unmeasured if tracer else [],
        "peak_rss_kb": _peak_rss_kb(),
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set.  ``ru_maxrss`` would also count
    the parent's resident set at fork time, so read the high-water mark of
    the current address space when the kernel exposes it."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import nnct

    src = Path(plan["src"]).resolve()
    if src not in Path(nnct.__file__).resolve().parents:
        print(f"imported nnct from {nnct.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = execute(plan)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
