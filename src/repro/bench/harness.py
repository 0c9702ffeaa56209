"""Benchmark measurement and reporting helpers.

``measure`` runs one query on one engine at a thread count and returns the
measured serial time plus the makespan at the configured thread count
(DESIGN.md §4 item 2 explains the simulated-mode makespan model). The
``format_*`` helpers print rows shaped like the paper's tables.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..api import Database
from ..execution.context import EngineConfig


class BenchResult(NamedTuple):
    """One query × engine × thread-count measurement.

    ``makespan`` is the wall time at the configured thread count: the
    *measured* parallel wall time in parallel mode, the list-scheduled
    makespan in simulated mode.
    """

    query: str
    engine: str
    threads: int
    serial_time: float
    makespan: float
    rows: int

    @property
    def time(self) -> float:
        """Wall time at the configured thread count: the measured serial
        time at 1 thread, else ``makespan``."""
        return self.serial_time if self.threads == 1 else self.makespan


def run_query(
    db: Database, sql: str, engine: str, threads: int, **config_kwargs
) -> BenchResult:
    config = EngineConfig(num_threads=threads, **config_kwargs)
    result = db.sql(sql, engine=engine, config=config)
    return BenchResult(
        sql, engine, threads, result.serial_time, result.simulated_time, len(result)
    )


def measure(
    db: Database,
    sql: str,
    engines: List[str],
    threads: List[int],
    **config_kwargs,
) -> Dict[str, Dict[int, BenchResult]]:
    out: Dict[str, Dict[int, BenchResult]] = {}
    for engine in engines:
        out[engine] = {}
        for t in threads:
            out[engine][t] = run_query(db, sql, engine, t, **config_kwargs)
    return out


def format_table3_row(
    number: int,
    category: str,
    results: Dict[str, Dict[int, BenchResult]],
    paper_factor: Optional[float] = None,
) -> str:
    """One Table 3 row: Umbra/HyPer at 1 and N threads plus the factors."""
    lol = results["lolepop"]
    mono = results["monolithic"]
    threads = sorted(lol)
    one, many = threads[0], threads[-1]
    f1 = mono[one].time / max(lol[one].time, 1e-9)
    fN = mono[many].time / max(lol[many].time, 1e-9)
    row = (
        f"{number:>3} {category:<13} "
        f"| 1T  lolepop {lol[one].time * 1000:9.1f}ms  "
        f"monolithic {mono[one].time * 1000:9.1f}ms  x{f1:5.2f} "
        f"| {many}T lolepop {lol[many].time * 1000:9.1f}ms  "
        f"monolithic {mono[many].time * 1000:9.1f}ms  x{fN:5.2f}"
    )
    if paper_factor is not None:
        row += f" | paper x{paper_factor:5.2f}"
    return row
