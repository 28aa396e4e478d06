"""Command-line front end.

Subcommands: ``analyze`` (test battery on a point file), ``simulate size`` /
``power-seg`` / ``power-assoc`` (Monte Carlo studies), ``estimate-qr``
(CSR expectations of Q/n and R/n).

Each option's type, choices and default sit on its argparse action.  The
``key = value`` (or ``key: value``) lines of a ``--config`` file pass the same
conversion and checks and become the chosen subcommand's defaults, so explicit
flags still win; keys that name none of its options are ignored.

Exit codes: 0 success, 2 usage error (an ``InvalidArgumentError``: a bad
flag or config value, whether this module or the library finds it), 3 parse
error, 4 invalid input data, 5 degenerate test.  ``main`` alone picks them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .dataio import ingest
from .errors import (DegenerateTestError, InvalidArgumentError, InvalidInputError,
                     ParseError, check_seed)
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nnct",
        description="Nearest-neighbor contingency table tests of spatial "
        "segregation and association.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the test battery on a point file")
    pa.set_defaults(run=_cmd_analyze, parser=pa)
    pa.add_argument("input", help="CSV file with columns x,y,label")
    pa.add_argument("--qr-mode", dest="qr_mode", default="observed",
                    choices=["observed", "adjusted", "adjusted-asymptotic"])
    pa.add_argument("--nmc", type=int, default=10000,
                    help="replications for the adjusted-mode Q/R estimate")
    pa.add_argument("--seed", type=int, default=1)
    pa.add_argument("--cells", action="store_true",
                    help="include the four cell-specific Z tests")
    pa.add_argument("--sided", choices=list(_SIDED), default="two",
                    help="sidedness of the cell Z tests")
    pa.add_argument("--format", choices=["json", "csv"], default="json")
    pa.add_argument("--classes", help="comma-separated labels mapping to classes 1,2")
    pa.add_argument("--no-header", dest="no_header", action="store_true",
                    help="treat the first row as data")
    pa.add_argument("--delimiter", default=",")
    pa.add_argument("--config", help="key=value file supplying flag defaults")

    ps = sub.add_parser("simulate", help="Monte Carlo size and power studies")
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    for name in ("size", "power-seg", "power-assoc"):
        q = ssub.add_parser(name)
        q.set_defaults(run=_cmd_simulate, parser=q)
        q.add_argument("--combos", nargs="+", metavar="N1,N2",
                       default=[f"{n1},{n2}" for n1, n2 in PAPER_COMBOS],
                       help="class size combinations (default: the 12 standard ones)")
        q.add_argument("--nmc", type=int, default=10000 if name == "size" else 1000)
        q.add_argument("--seed", type=int, default=1)
        q.add_argument("--alpha", type=float, default=0.05)
        q.add_argument("--workers", type=int, default=1)
        q.add_argument("--qr-nmc", dest="qr_nmc", type=int, default=10000,
                       help="replications for the per-n adjusted Q/R estimates")
        q.add_argument("--adjusted-source", dest="adjusted_source", default="estimate",
                       choices=["estimate", "asymptotic"])
        q.add_argument("--out", default=name.replace("-", "_"),
                       help="output path prefix")
        q.add_argument("--config")
        if name == "power-seg":
            q.add_argument("--s", default="1/6,1/4,1/3",
                           help="comma-separated offsets, fractions allowed")
        if name == "power-assoc":
            q.add_argument("--r", default="1/4,1/7,1/10",
                           help="comma-separated radii, fractions allowed")

    pe = sub.add_parser("estimate-qr", help="estimate E[Q/n], E[R/n] under CSR")
    pe.set_defaults(run=_cmd_estimate_qr, parser=pe)
    pe.add_argument("--n", help="comma-separated sample sizes")
    pe.add_argument("--nmc", type=int, default=10000)
    pe.add_argument("--seed", type=int, default=1)
    pe.add_argument("--workers", type=int, default=1)
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
            # the first "=" or ":" ends the key; the value may hold either
            key, *val = re.split("[=:]", line, maxsplit=1)
            if not val:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            cfg[key.strip().replace("-", "_")] = val[0].strip()
    return cfg


def _as_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot interpret {text!r} as a boolean")


def _config_defaults(parser: argparse.ArgumentParser, cfg: dict[str, str]) -> dict:
    """Config values for the options of ``parser``, converted and checked as
    its own actions convert and check a flag's value.  Other keys are
    ignored."""
    defaults = {}
    for action in parser._actions:
        if not action.option_strings or action.dest not in cfg:
            continue
        text = cfg[action.dest]
        try:
            if isinstance(action, argparse._StoreTrueAction):
                value = _as_bool(text)
            elif action.nargs == "+":
                value = text.split()
                if not value:
                    raise ValueError("expected at least one value")
            else:
                value = (action.type or str)(text)
        except ValueError as e:
            raise InvalidArgumentError(f"config value for {action.dest}: {e}")
        if action.choices is not None and value not in action.choices:
            raise InvalidArgumentError(f"config value for {action.dest}: {value!r} is "
                                       f"not one of {', '.join(map(str, action.choices))}")
        defaults[action.dest] = value
    return defaults


def _parse_fraction_list(text: str, what: str) -> list[float]:
    out = []
    for item in text.split(","):
        item = item.strip()
        try:
            out.append(float(Fraction(item)))
        except (ValueError, ZeroDivisionError):
            raise InvalidArgumentError(f"cannot parse {what} value {item!r}")
    return out


def _parse_combos(items) -> list[tuple[int, int]]:
    combos = []
    for item in items:
        try:
            n1, n2 = (int(x) for x in item.split(","))
        except ValueError:
            raise InvalidArgumentError(f"combo {item!r} is not of the form N1,N2")
        combos.append((n1, n2))
    return combos


def _cmd_analyze(args) -> int:
    if args.nmc < 1:
        raise InvalidArgumentError(f"--nmc must be >= 1, got {args.nmc}")
    if args.qr_mode == "adjusted":
        check_seed(args.seed)  # the Q/R estimate's seed, before the file is read
    classes = tuple(s.strip() for s in args.classes.split(",")) if args.classes else None
    pts = ingest(args.input, has_header=not args.no_header,
                 delimiter="\t" if args.delimiter in _TAB_NAMES else args.delimiter,
                 classes=classes)
    nns = compute_nn(pts)
    table = build_nnct(pts, nns)
    if args.qr_mode == "observed":
        q_used, r_used = float(nns.Q), float(nns.R)
    else:
        source = "asymptotic" if args.qr_mode == "adjusted-asymptotic" else "estimate"
        q_used, r_used = adjusted_qr(pts.n, source, args.nmc, args.seed)

    results = run_battery_from_table(table, q_used, r_used, _SIDED[args.sided])
    tests = results if args.cells else results[:4]
    rep = AnalysisReport(
        duplicate_points=pts.has_duplicate_points(),
        table=table, q=nns.Q, r=nns.R,
        qr_mode=args.qr_mode, q_used=q_used, r_used=r_used,
        tests=tuple(tests), seed=args.seed,
    )
    if args.format == "json":
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


def _cmd_simulate(args) -> int:
    combos = _parse_combos(args.combos)
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise InvalidArgumentError(f"--out directory {out_dir!r} does not exist")
    config = SimulationConfig(
        n_mc=args.nmc, seed=args.seed, alpha=args.alpha, parallelism=args.workers,
        adjusted_source=args.adjusted_source, qr_estimate_nmc=args.qr_nmc,
    )

    if args.subcommand == "size":
        report = empirical_size(combos, config)
    elif args.subcommand == "power-seg":
        values = _parse_fraction_list(args.s, "--s")
        report = empirical_power([("segregation", v) for v in values], combos, config)
    else:
        values = _parse_fraction_list(args.r, "--r")
        report = empirical_power([("association", v) for v in values], combos, config)

    paths = _write_report(report, args.out)
    for path in paths:
        print(f"wrote {path}")
    counts = [r.n_degenerate for r in report.rows if r.n_degenerate]
    if counts:
        print(f"{sum(counts)} undefined statistics in {len(counts)} rows counted as "
              f"non-rejections; see n_degenerate in {paths[1]}", file=sys.stderr)
    return EXIT_OK


def _cmd_estimate_qr(args) -> int:
    if not args.n:
        raise InvalidArgumentError("estimate-qr needs --n (comma-separated sample sizes)")
    try:
        ns = [int(x) for x in args.n.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse --n list {args.n!r}")
    if any(n < 2 for n in ns):
        raise InvalidArgumentError("--n values must be >= 2")
    for i, n in enumerate(ns):
        est = estimate_qr(n, args.nmc, args.seed, workers=args.workers)
        if i == 0:  # after the first call, which rejects a bad --nmc or --workers
            print("n,n_mc,q_over_n,r_over_n,se_q,se_r")
        print(f"{est.n},{est.n_mc},{est.q_over_n!r},{est.r_over_n!r},"
              f"{est.se_q!r},{est.se_r!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the chosen subcommand's defaults, so the
            # flags of a second parse still win
            args.parser.set_defaults(**_config_defaults(args.parser,
                                                        _load_config(args.config)))
            args = parser.parse_args(argv)
        return args.run(args)
    except InvalidArgumentError as e:
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
