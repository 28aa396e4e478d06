"""Analysis report assembly and serialization for the CLI."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from . import __version__
from .contingency import ContingencyTable
from .segregation import TestResult

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command reports for one input file.  The
    class sizes are the table's row sums and n its total."""

    duplicate_points: bool
    table: ContingencyTable
    q: int
    r: int
    qr_mode: str  # observed | adjusted | adjusted-asymptotic
    q_used: float
    r_used: float
    tests: tuple[TestResult, ...]
    seed: int | None

    def row_percent(self) -> list[list[float]]:
        """Cell percentages relative to their row sums."""
        out = []
        for i, row_sum in enumerate(self.table.row_sums):
            if row_sum == 0:
                out.append([0.0, 0.0])
            else:
                out.append([100.0 * self.table.counts[i, j] / row_sum for j in range(2)])
        return out

    def to_dict(self) -> dict:
        n1, n2 = self.table.row_sums
        return {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "seed": self.seed,
            "input": {
                "n": self.table.total,
                "n1": n1,
                "n2": n2,
                "duplicate_points": self.duplicate_points,
            },
            "nnct": {
                "counts": self.table.counts.tolist(),
                "row_sums": list(self.table.row_sums),
                "col_sums": list(self.table.col_sums),
                "total": self.table.total,
                "row_percent": self.row_percent(),
            },
            "q": self.q,
            "r": self.r,
            "qr_mode": self.qr_mode,
            "q_used": self.q_used,
            "r_used": self.r_used,
            "tests": [vars(t) for t in self.tests],  # flavor, statistic, df, p_value
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "flavor", "statistic", "df", "p_value", "qr_mode",
            "q_used", "r_used", "n", "n1", "n2",
            "n11", "n12", "n21", "n22", "q", "r", "seed",
        ])
        c = self.table.counts
        n1, n2 = self.table.row_sums
        for t in self.tests:
            w.writerow([
                t.flavor, repr(t.statistic),
                "" if t.df is None else t.df, repr(t.p_value),
                self.qr_mode, repr(self.q_used), repr(self.r_used),
                self.table.total, n1, n2,
                c[0, 0], c[0, 1], c[1, 0], c[1, 1],
                self.q, self.r, "" if self.seed is None else self.seed,
            ])
