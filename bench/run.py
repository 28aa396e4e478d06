"""nnct benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload analyze_files --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The run generates the workload's inputs from ``--seed`` under
``.bench_out/``, times ``import nnct`` in several fresh interpreters
(``setup_s``), then runs the workload body in one fresh worker process with
``--workers 1`` for about ``--seconds`` seconds and checks every output of
every iteration against references computed without ``nnct``.  Both times
are medians of samples each rescaled to the speed of a fixed reference
slice run next to it (``reference.py``), so that the host's drift between
faster and slower periods cancels; the raw medians are in the run record.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a traced run).  A full run record, with the
environment, goes to ``.bench_out/record-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread here and in the children: the body runs with
# --workers 1, and idle pool threads would only contend for the few cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 7
# prints when ``import nnct`` returned, then two reference slice times taken
# after it in the same interpreter (the first, unprinted slice warms up)
SETUP_PROBE = ("import time, nnct; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
               "import reference; reference.timed_slice(); "
               "print(repr(t), *(repr(reference.timed_slice()) for _ in range(2)))")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_times(root: Path, samples: int) -> tuple[list[float], list[list[float]]]:
    """Seconds from starting a fresh interpreter to ``import nnct``
    returning, and each interpreter's reference slice times; one unrecorded
    probe first compiles the bytecode cache."""
    env = _child_env(root)
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    out, slices = [], []
    for k in range(samples + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise BenchError(f"import nnct failed:\n{probe.stderr}")
        if k:
            t_import, *ref_s = map(float, probe.stdout.split()[-3:])
            out.append(t_import - t0)
            slices.append(ref_s)
    return out, slices


def _blas_threads():
    """Threads OpenBLAS uses, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _run_worker(root: Path, plan: dict, workdir: Path, timeout: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    worker = Path(__file__).resolve().parent / "worker.py"
    proc = subprocess.run([sys.executable, str(worker), str(plan_path), str(result_path)],
                          cwd=root, env=_child_env(root), timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tally(ops: list, iterations: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every op of every iteration is checked
    and must also equal the same op's output in the first iteration."""
    failed, problems = 0, []
    for k, it in enumerate(iterations):
        for op, out, first in zip(ops, it["outputs"], iterations[0]["outputs"]):
            found = workloads.check_output(op, out)
            if out != first:
                found.append("output differs from the first run at this seed")
            failed += bool(found)
            problems += [f"iteration {k} {op['name']}: {p}" for p in found]
    return len(ops) * len(iterations), failed, problems


def layer_metrics(iterations: list, unmeasured: list) -> dict:
    traced = [it["layers"] for it in iterations if it["traced"]]
    untraced = [it["wall_s"] for it in iterations if not it["traced"]]
    out = {m: statistics.fmean(t[m] for t in traced)
           for m in tracing.PER_LAYER_UNITS if m in traced[0]}
    for m in tracing.COUNT_METRICS:
        if out[m].is_integer():  # equal in every traced iteration, as expected
            out[m] = int(out[m])
    out["trace.overhead"] = (statistics.median(t["trace.wall_s"] for t in traced)
                             / statistics.median(untraced))
    out["trace.unmeasured_bindings"] = len(unmeasured)
    return out


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_ref = ([], []) if trace else setup_times(root, SETUP_SAMPLES)
        ops, facts = workloads.build_ops(workload, seed, workdir, root)
        remaining = TIME_LIMIT_S - (time.monotonic() - t_start)
        plan = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "budget_s": remaining - 15, "src": str(root / "src"), "ops": ops,
            "spans_file": str(out_dir / f"spans-{workload}-seed{seed}.npz"),
        }
        result = _run_worker(root, plan, workdir, timeout=remaining - 5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = result["iterations"]
    attempted, failed, failures = tally(ops, iterations)
    raw = {}
    if trace:
        values = layer_metrics(iterations, result["unmeasured"])
        units = tracing.PER_LAYER_UNITS
    else:
        raw = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(it["wall_s"] for it in iterations)}
        values = {
            "setup_s": statistics.median(reference.rescale(t, ref_s)
                                         for t, ref_s in zip(setup, setup_ref)),
            "wall_s": statistics.median(reference.rescale(it["wall_s"], it["ref_s"])
                                        for it in iterations),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "raw_medians_s": raw,
        "setup_samples_s": setup,
        "setup_ref_slices_s": setup_ref,
        "ops": [op["name"] for op in ops],
        "iterations": [{k: it[k] for k in ("traced", "wall_s", "op_s", "ref_s", "layers")}
                       for it in iterations],
        "input_tied_share": facts["tied_share"],
        "unmeasured_bindings": result["unmeasured"],
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "result": line,
    }
    (out_dir / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    for name in result["unmeasured"]:
        print(f"unmeasured layer binding: {name}", file=sys.stderr)
    return line


def _print_table(lines: dict) -> None:
    """One row per metric, one column per workload."""
    first = next(iter(lines.values()))["metrics"]
    print(f"{'metric [unit]':<42}" + "".join(f"{name:>16}" for name in lines))
    print(f"{'error_rate [ratio]':<42}"
          + "".join(f"{ln['failed'] / ln['attempted']:>16.4g}" for ln in lines.values()))
    for m, v in first.items():
        print(f"{m + ' [' + v['unit'] + ']':<42}"
              + "".join(f"{ln['metrics'][m]['value']:>16.6g}" for ln in lines.values()))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    missing = [p for p in ("src/nnct/__init__.py", str(workloads.ARTIFICIAL))
               if not (root / p).is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            lines[name] = run_one(root, name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        _print_table(lines)
        print(json.dumps(lines))
        return 0
    print(json.dumps(lines[names[-1]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
