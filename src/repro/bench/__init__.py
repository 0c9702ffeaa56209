"""Benchmark workload definitions and the paper-table reporting harness.

One module per concern: :mod:`~repro.bench.workloads` holds every query of
the paper's evaluation (Tables 2/3, Figures 7/8);
:mod:`~repro.bench.corpora` adds the self-verifying decision-support and
sensor/edge workload families (``benchmarks/ledger/`` builds its inputs
from their generators); :mod:`~repro.bench.harness` runs queries on
configured engines and prints the paper-shaped rows. Performance claims
are made on the ledger (``benchmarks/ledger/README.md``), not here.
"""

from .workloads import (
    TABLE2_QUERIES,
    TABLE3_QUERIES,
    FIGURE8_QUERIES,
    TABLE3_CATEGORIES,
)
from .harness import (
    BenchResult,
    run_query,
    measure,
    format_table3_row,
)

__all__ = [
    "TABLE2_QUERIES",
    "TABLE3_QUERIES",
    "FIGURE8_QUERIES",
    "TABLE3_CATEGORIES",
    "BenchResult",
    "run_query",
    "measure",
    "format_table3_row",
]
