"""Command-line front end.

Subcommands: ``analyze`` (test battery on a point file), ``simulate size`` /
``power-seg`` / ``power-assoc`` (Monte Carlo studies), ``estimate-qr``
(CSR expectations of Q/n and R/n).

Exit codes: 0 success, 2 usage error, 3 parse error, 4 invalid input,
5 degenerate test.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .dataio import check_delimiter, ingest
from .errors import DegenerateTestError, InvalidInputError, ParseError
from .geometry import compute_nn
from .montecarlo import (
    PAPER_COMBOS,
    SimulationConfig,
    adjusted_qr,
    empirical_power,
    empirical_size,
    estimate_qr,
)
from .report import AnalysisReport
from .segregation import run_battery_from_table
from .contingency import build_nnct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INVALID = 4
EXIT_DEGENERATE = 5

_SIDED = {"two": "two-sided", "greater": "greater", "less": "less"}
# spellings of a tab delimiter that survive a config file's value stripping
_TAB_NAMES = ("tab", "\\t")


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nnct",
        description="Nearest-neighbor contingency table tests of spatial "
        "segregation and association.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the test battery on a point file")
    pa.add_argument("input", help="CSV file with columns x,y,label")
    pa.add_argument("--qr-mode", dest="qr_mode",
                    choices=["observed", "adjusted", "adjusted-asymptotic"])
    pa.add_argument("--nmc", type=int,
                    help="replications for the adjusted-mode Q/R estimate")
    pa.add_argument("--seed", type=int)
    pa.add_argument("--cells", action="store_true", default=None,
                    help="include the four cell-specific Z tests")
    pa.add_argument("--sided", choices=["two", "greater", "less"],
                    help="sidedness of the cell Z tests")
    pa.add_argument("--format", choices=["json", "csv"])
    pa.add_argument("--classes", help="comma-separated labels mapping to classes 1,2")
    pa.add_argument("--no-header", dest="no_header", action="store_true", default=None,
                    help="treat the first row as data")
    pa.add_argument("--delimiter")
    pa.add_argument("--config", help="key=value file supplying flag defaults")

    ps = sub.add_parser("simulate", help="Monte Carlo size and power studies")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    for name in ("size", "power-seg", "power-assoc"):
        q = ssub.add_parser(name)
        q.add_argument("--combos", nargs="+", metavar="N1,N2",
                       help="class size combinations (default: the 12 standard ones)")
        q.add_argument("--nmc", type=int)
        q.add_argument("--seed", type=int)
        q.add_argument("--alpha", type=float)
        q.add_argument("--workers", type=int)
        q.add_argument("--qr-nmc", dest="qr_nmc", type=int,
                       help="replications for the per-n adjusted Q/R estimates")
        q.add_argument("--adjusted-source", dest="adjusted_source",
                       choices=["estimate", "asymptotic"])
        q.add_argument("--out", help="output path prefix")
        q.add_argument("--config")
        if name == "power-seg":
            q.add_argument("--s", help="comma-separated offsets, fractions allowed")
        if name == "power-assoc":
            q.add_argument("--r", help="comma-separated radii, fractions allowed")

    pe = sub.add_parser("estimate-qr", help="estimate E[Q/n], E[R/n] under CSR")
    pe.add_argument("--n", help="comma-separated sample sizes")
    pe.add_argument("--nmc", type=int)
    pe.add_argument("--seed", type=int)
    pe.add_argument("--workers", type=int)
    pe.add_argument("--config")
    return p


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read config file {path}: {e}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, val = line.split(sep, 1)
                    break
            else:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _as_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"cannot interpret {text!r} as a boolean")


def _get(args, cfg, key, cast, default):
    """Flag value if given, else config file value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        try:
            return cast(cfg[key])
        except (ValueError, TypeError) as e:
            raise _UsageError(f"config value for {key}: {e}")
    return default


def _parse_fraction_list(text: str, what: str) -> list[float]:
    out = []
    for item in text.split(","):
        item = item.strip()
        try:
            out.append(float(Fraction(item)))
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"cannot parse {what} value {item!r}")
    if not out:
        raise _UsageError(f"empty {what} list")
    return out


def _parse_combos(items) -> list[tuple[int, int]]:
    combos = []
    for item in items:
        parts = item.split(",")
        try:
            n1, n2 = (int(x) for x in parts)
        except ValueError:
            raise _UsageError(f"combo {item!r} is not of the form N1,N2")
        if n1 < 1 or n2 < 1:
            raise _UsageError(f"combo {item!r} has class sizes < 1")
        combos.append((n1, n2))
    return combos


def _cmd_analyze(args, cfg) -> int:
    fmt = _get(args, cfg, "format", str, "json")
    seed = _get(args, cfg, "seed", int, 1)
    nmc = _get(args, cfg, "nmc", int, 10000)
    mode = _get(args, cfg, "qr_mode", str, "observed")
    sided = _SIDED.get(_get(args, cfg, "sided", str, "two"))
    if sided is None:
        raise _UsageError("--sided must be two, greater, or less")
    delim = _get(args, cfg, "delimiter", str, ",")
    if delim in _TAB_NAMES:
        delim = "\t"
    try:
        check_delimiter(delim)
    except InvalidInputError as e:
        raise _UsageError(str(e))
    no_header = _get(args, cfg, "no_header", _as_bool, False)
    with_cells = _get(args, cfg, "cells", _as_bool, False)
    classes_opt = _get(args, cfg, "classes", str, None)
    classes = None
    if classes_opt:
        parts = tuple(s.strip() for s in classes_opt.split(","))
        if len(parts) != 2:
            raise _UsageError("--classes needs exactly two comma-separated labels")
        classes = parts
    if nmc < 1:
        raise _UsageError(f"--nmc must be >= 1, got {nmc}")

    pts = ingest(args.input, has_header=not no_header, delimiter=delim, classes=classes)
    nns = compute_nn(pts)
    table = build_nnct(pts, nns)
    if mode == "observed":
        q_used, r_used = float(nns.Q), float(nns.R)
    else:
        source = "asymptotic" if mode == "adjusted-asymptotic" else "estimate"
        q_used, r_used = adjusted_qr(pts.n, source, nmc, seed)

    results = run_battery_from_table(table, q_used, r_used, sided)
    tests = results[:4] if not with_cells else results
    n1, n2 = pts.class_sizes
    rep = AnalysisReport(
        n=pts.n, n1=n1, n2=n2,
        duplicate_points=pts.has_duplicate_points(),
        table=table, q=nns.Q, r=nns.R,
        qr_mode=mode, q_used=q_used, r_used=r_used,
        tests=tuple(tests), seed=seed, version=__version__,
    )
    if fmt == "json":
        sys.stdout.write(rep.to_json() + "\n")
    else:
        rep.write_csv(sys.stdout)
    return EXIT_OK


def _write_report(report, prefix: str) -> list[str]:
    paths = [f"{prefix}.csv", f"{prefix}.json", f"{prefix}_plot.csv"]
    with open(paths[0], "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    with open(paths[2], "w", encoding="utf-8") as fh:
        report.write_plot_csv(fh)
    return paths


def _cmd_simulate(args, cfg) -> int:
    sub = args.subcommand
    default_nmc = 10000 if sub == "size" else 1000
    nmc = _get(args, cfg, "nmc", int, default_nmc)
    seed = _get(args, cfg, "seed", int, 1)
    alpha = _get(args, cfg, "alpha", float, 0.05)
    workers = _get(args, cfg, "workers", int, 1)
    qr_nmc = _get(args, cfg, "qr_nmc", int, 10000)
    source = _get(args, cfg, "adjusted_source", str, "estimate")
    combos_opt = _get(args, cfg, "combos", lambda s: s.split(), None)
    combos = _parse_combos(combos_opt) if combos_opt else list(PAPER_COMBOS)
    if nmc < 1:
        raise _UsageError(f"--nmc must be >= 1, got {nmc}")
    if not (0.0 < alpha < 1.0):
        raise _UsageError(f"--alpha must be in (0, 1), got {alpha}")
    try:
        config = SimulationConfig(
            n_mc=nmc, seed=seed, alpha=alpha, parallelism=workers,
            adjusted_source=source, qr_estimate_nmc=qr_nmc,
        )
    except InvalidInputError as e:
        raise _UsageError(str(e))

    if sub == "size":
        report = empirical_size(combos, config)
        prefix = _get(args, cfg, "out", str, "size")
    elif sub == "power-seg":
        values = _parse_fraction_list(_get(args, cfg, "s", str, "1/6,1/4,1/3"), "--s")
        for v in values:
            if not (0.0 <= v < 1.0):
                raise _UsageError(f"--s values must be in [0, 1), got {v}")
        report = empirical_power([("segregation", v) for v in values], combos, config)
        prefix = _get(args, cfg, "out", str, "power_seg")
    else:
        values = _parse_fraction_list(_get(args, cfg, "r", str, "1/4,1/7,1/10"), "--r")
        for v in values:
            if not (0.0 < v < 1.0):
                raise _UsageError(f"--r values must be in (0, 1), got {v}")
        report = empirical_power([("association", v) for v in values], combos, config)
        prefix = _get(args, cfg, "out", str, "power_assoc")

    paths = _write_report(report, prefix)
    for path in paths:
        print(f"wrote {path}")
    counts = [r.n_degenerate for r in report.rows if r.n_degenerate]
    if counts:
        print(f"{sum(counts)} undefined statistics in {len(counts)} rows counted as "
              f"non-rejections; see n_degenerate in {paths[1]}", file=sys.stderr)
    return EXIT_OK


def _cmd_estimate_qr(args, cfg) -> int:
    ns_opt = _get(args, cfg, "n", str, None)
    if not ns_opt:
        raise _UsageError("estimate-qr needs --n (comma-separated sample sizes)")
    try:
        ns = [int(x) for x in ns_opt.split(",")]
    except ValueError:
        raise _UsageError(f"cannot parse --n list {ns_opt!r}")
    nmc = _get(args, cfg, "nmc", int, 10000)
    seed = _get(args, cfg, "seed", int, 1)
    workers = _get(args, cfg, "workers", int, 1)
    if nmc < 1:
        raise _UsageError(f"--nmc must be >= 1, got {nmc}")
    if any(n < 2 for n in ns):
        raise _UsageError("--n values must be >= 2")
    print("n,n_mc,q_over_n,r_over_n,se_q,se_r")
    for n in ns:
        est = estimate_qr(n, nmc, seed, workers=workers)
        print(f"{est.n},{est.n_mc},{est.q_over_n!r},{est.r_over_n!r},"
              f"{est.se_q!r},{est.se_r!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        if args.command == "analyze":
            return _cmd_analyze(args, cfg)
        if args.command == "simulate":
            return _cmd_simulate(args, cfg)
        return _cmd_estimate_qr(args, cfg)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidInputError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateTestError as e:
        print(f"degenerate test: {e}", file=sys.stderr)
        return EXIT_DEGENERATE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
