"""Nearest-neighbor contingency table (NNCT) tests of spatial segregation
and association for two-class planar point patterns.

The library builds the NN digraph of a labeled point set, cross-tabulates
the (base, NN) class pairs into a 2x2 table, models the cell-count moments
under random labeling, and runs four overall tests (Dixon's overall test
and three quadratic-form variants) plus cell-specific Z tests, in both the
conditional (observed Q, R) and QR-adjusted modes.  A Monte Carlo engine
provides pattern generators and empirical size/power studies.
"""

__version__ = "0.1.0"

from .contingency import (
    CELL_ORDER,
    ContingencyTable,
    CovarianceModel,
    build_nnct,
    covariance_model,
    expected_counts,
)
from .dataio import ingest
from .errors import (
    DegenerateTestError,
    InvalidArgumentError,
    InvalidInputError,
    NnctError,
    ParseError,
)
from .geometry import LabeledPointSet, NNStructure, compute_nn
from .montecarlo import (
    CSR_Q_PER_POINT,
    CSR_R_PER_POINT,
    PAPER_COMBOS,
    PatternSpec,
    QREstimate,
    SimulationConfig,
    SizePowerReport,
    SizePowerRow,
    adjusted_qr,
    empirical_power,
    empirical_size,
    estimate_qr,
    generate,
    size_band,
)
from .numerics import DEFAULT_REL_CUTOFF, chi2_sf, generalized_inverse, normal_sf
from .report import AnalysisReport
from .segregation import (
    CELL_FLAVORS,
    OVERALL_FLAVORS,
    TestResult,
    cell_specific_test,
    dixon_overall,
    permutation_pvalue,
    run_battery,
    run_battery_from_table,
    version_I,
    version_II,
    version_III,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "CELL_FLAVORS",
    "CELL_ORDER",
    "CSR_Q_PER_POINT",
    "CSR_R_PER_POINT",
    "ContingencyTable",
    "CovarianceModel",
    "DEFAULT_REL_CUTOFF",
    "DegenerateTestError",
    "InvalidArgumentError",
    "InvalidInputError",
    "LabeledPointSet",
    "NNStructure",
    "NnctError",
    "OVERALL_FLAVORS",
    "PAPER_COMBOS",
    "ParseError",
    "PatternSpec",
    "QREstimate",
    "SimulationConfig",
    "SizePowerReport",
    "SizePowerRow",
    "TestResult",
    "adjusted_qr",
    "build_nnct",
    "cell_specific_test",
    "chi2_sf",
    "compute_nn",
    "covariance_model",
    "dixon_overall",
    "empirical_power",
    "empirical_size",
    "estimate_qr",
    "expected_counts",
    "generalized_inverse",
    "generate",
    "ingest",
    "normal_sf",
    "permutation_pvalue",
    "run_battery",
    "run_battery_from_table",
    "size_band",
    "version_I",
    "version_II",
    "version_III",
]
