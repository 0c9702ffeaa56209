"""Interactive SQL shell.

``python -m repro`` starts a REPL against an in-memory database. Dot
commands:

    .help                      this text
    .tables                    list tables
    .schema <table>            show a table's columns
    .load tpch [SF]            generate and load TPC-H tables
    .engine [name]             show or switch the engine
    .threads <n>               set the thread count
    .mode [simulated|parallel] show or switch the execution mode
    .explain <sql>             show the logical plan
    .lolepop <sql>             show the LOLEPOP DAG
    .analyze <sql>             EXPLAIN ANALYZE: run and annotate the DAG
    .verify <sql>              statically verify the LOLEPOP DAG (no execution)
    .trace <sql>               run with trace collection and render it
    .trace json <path> <sql>   export the trace as Chrome trace_event JSON
    .profile <sql>             per-operator work breakdown
    .profile json <path> <sql> write the full query profile as JSON
    .metrics                   the query service's metrics registry
    .metrics reset             zero the query service's metrics registry
    .server                    query-service stats (admission, caches, queue)
    .server on [clients]       route SQL through a QueryService
    .server off                back to direct execution
    .health                    query-service health now (queue, memory, caches)
    .slowlog [n]               slow-query log (last n records)
    .fingerprints [n]          per-plan-fingerprint workload stats + drift
    .reuse [stats|list|clear]  materialization manager (cached buffers/views)
    .timing on|off             toggle per-query timing output
    .quit                      exit

Everything else is executed as SQL (terminate with ``;`` or a newline).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .api import Database
from .errors import ReproError
from .execution.context import EngineConfig
from .format import format_table
from .observability.telemetry import render_slow_records, render_templates

_NO_SERVICE = "(no query service — enable it with .server on)"


class Shell:
    """Stateful command processor; the REPL loop feeds it lines."""

    def __init__(self, database: Optional[Database] = None, out=None):
        self.db = database or Database()
        self.engine = "lolepop"
        self.threads = 4
        self.mode = "simulated"
        self.timing = True
        self.out = out or sys.stdout
        #: Lazily created QueryService; SQL routes through it when
        #: ``self.server_enabled`` (the ``.server on`` command).
        self.service = None
        self.server_enabled = False
        self._session = None

    # ------------------------------------------------------------------
    def write(self, text: str) -> None:
        print(text, file=self.out)

    def execute_line(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit."""
        line = line.strip().rstrip(";").strip()
        if not line:
            return True
        if line.startswith("."):
            return self._dot_command(line)
        self._run_sql(line)
        return True

    # ------------------------------------------------------------------
    def _dot_command(self, line: str) -> bool:
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self.write(__doc__ or "")
        elif command == ".tables":
            names = sorted(self.db.catalog.names())
            self.write("\n".join(names) if names else "(no tables)")
        elif command == ".schema":
            try:
                table = self.db.table(argument)
            except ReproError as error:
                self.write(f"error: {error}")
                return True
            for field in table.schema:
                self.write(f"  {field.name:<24} {field.dtype.value}")
            self.write(f"  ({table.num_rows} rows)")
        elif command == ".load":
            self._load(argument)
        elif command == ".engine":
            if argument:
                if argument not in ("lolepop", "monolithic", "naive", "columnar"):
                    self.write(f"unknown engine: {argument}")
                else:
                    self.engine = argument
            self.write(f"engine: {self.engine}")
        elif command == ".threads":
            try:
                self.threads = max(1, int(argument))
            except ValueError:
                self.write("usage: .threads <n>")
            self.write(f"threads: {self.threads}")
        elif command == ".mode":
            from .execution.context import EXECUTION_MODES

            if argument:
                if argument not in EXECUTION_MODES:
                    self.write(
                        f"unknown mode: {argument} "
                        f"(choose from {', '.join(EXECUTION_MODES)})"
                    )
                else:
                    self.mode = argument
            self.write(f"mode: {self.mode}")
        elif command == ".timing":
            self.timing = argument.lower() != "off"
            self.write(f"timing: {'on' if self.timing else 'off'}")
        elif command == ".explain":
            self._guarded(lambda: self.write(self.db.explain(argument)))
        elif command == ".lolepop":
            self._guarded(lambda: self.write(self.db.explain_lolepop(argument)))
        elif command == ".analyze":
            self._guarded(
                lambda: self.write(
                    self.db.explain_analyze(argument, config=self._config())
                )
            )
        elif command == ".verify":
            self._guarded(lambda: self.write(self.db.verify_plan(argument)))
        elif command == ".trace":
            self._trace(argument)
        elif command == ".profile":
            self._profile(argument)
        elif command == ".metrics":
            self._metrics(argument)
        elif command == ".server":
            self._server(argument)
        elif command == ".health":
            self._health()
        elif command == ".slowlog":
            self._slowlog(argument)
        elif command == ".fingerprints":
            self._fingerprints(argument)
        elif command == ".reuse":
            self._reuse(argument)
        else:
            self.write(f"unknown command: {command} (try .help)")
        return True

    def _load(self, argument: str) -> None:
        parts = argument.split()
        if not parts or parts[0] != "tpch":
            self.write("usage: .load tpch [scale-factor]")
            return
        scale = float(parts[1]) if len(parts) > 1 else 0.01
        from .tpch import populate_database

        populate_database(self.db, scale_factor=scale)
        self.write(
            f"loaded TPC-H at SF {scale} "
            f"({self.db.table('lineitem').num_rows} lineitem rows)"
        )

    def _config(self, collect_trace: bool = False) -> EngineConfig:
        return EngineConfig(
            num_threads=self.threads,
            collect_trace=collect_trace,
            execution_mode=self.mode,
        )

    @staticmethod
    def _split_json_target(argument: str):
        """Parse ``json <path> <sql>`` subcommand syntax; returns
        ``(path, sql)`` or ``(None, argument)``."""
        parts = argument.split(None, 2)
        if len(parts) == 3 and parts[0].lower() == "json":
            return parts[1], parts[2]
        return None, argument

    def _guarded(self, action) -> None:
        try:
            action()
        except ReproError as error:
            self.write(f"error: {error}")

    def _server(self, argument: str) -> None:
        parts = argument.split()
        if parts and parts[0] == "on":
            if self.service is None:
                from .server import QueryService, ServiceConfig

                clients = int(parts[1]) if len(parts) > 1 else 4
                self.service = QueryService(
                    self.db, ServiceConfig(max_concurrent=clients)
                )
                self._session = self.service.session()
            self.server_enabled = True
            self.write(
                f"server: on "
                f"({self.service.config.max_concurrent} slots, "
                f"queue {self.service.config.max_queue})"
            )
            return
        if parts and parts[0] == "off":
            self.server_enabled = False
            self.write("server: off")
            return
        if self.service is None:
            self.write("server: off (enable with .server on [clients])")
            return
        stats = self.service.stats()
        state = "on" if self.server_enabled else "off (stats retained)"
        self.write(f"server: {state}")
        self._write_health(stats)
        self._write_metrics(stats["service"])

    def _write_health(self, stats: dict) -> None:
        """The admission controller's and the caches' state in ``stats``."""
        self.write(
            f"  running {stats['running']}, queued {stats['queue_depth']}, "
            f"reserved {stats['reserved_bytes']:.0f} bytes"
        )
        for cache in ("plan_cache", "result_cache"):
            if cache in stats:
                c = stats[cache]
                self.write(
                    f"  {cache}: {c['size']}/{c['capacity']} entries, "
                    f"{c['hits']} hits / {c['misses']} misses "
                    f"(rate {c['hit_rate']:.2f})"
                )

    def _write_metrics(self, snapshot: dict) -> None:
        """One line per registry metric; a histogram as its count and mean."""
        for name in sorted(snapshot):
            value = snapshot[name]
            if isinstance(value, dict):
                self.write(
                    f"  {name}: n={value['total']} mean={value['mean']:.6f}s"
                )
            else:
                self.write(f"  {name}: {value:g}")

    def _run_sql(self, sql: str) -> None:
        try:
            if self.server_enabled and self._session is not None:
                self._session.config_overrides = {
                    "num_threads": self.threads,
                    "execution_mode": self.mode,
                }
                result = self._session.execute(
                    sql, engine=self.engine, use_result_cache=False
                )
            else:
                result = self.db.sql(
                    sql, engine=self.engine, config=self._config()
                )
        except ReproError as error:
            self.write(f"error: {error}")
            return
        self.write(
            format_table(result.schema.names(), result.rows())
        )
        if self.timing:
            kind = (
                "measured" if self.mode == "parallel" else "simulated"
            )
            self.write(
                f"work {result.serial_time * 1000:.2f} ms, "
                f"{kind} {self.threads}-thread makespan "
                f"{result.simulated_time * 1000:.2f} ms [{self.engine}]"
            )

    def _profile(self, argument: str) -> None:
        from .observability.metrics import executed_nodes, profile_dict

        path, sql = self._split_json_target(argument)
        try:
            result = self.db.sql(
                sql, engine=self.engine, config=self._config(collect_trace=True)
            )
        except ReproError as error:
            self.write(f"error: {error}")
            return
        if path is not None:
            if self.engine != "lolepop":
                self.write(
                    "error: .profile json requires the lolepop engine "
                    f"(current: {self.engine})"
                )
                return
            import json

            with open(path, "w", encoding="utf-8") as handle:
                json.dump(profile_dict(result), handle, indent=1)
            self.write(f"profile written to {path}")
            return
        for operator, (work, count) in sorted(
            result.operator_summary().items(), key=lambda kv: -kv[1][0]
        ):
            self.write(
                f"  {operator:<16} {work * 1000:10.3f} ms  ({count} work items)"
            )
        for _, node_index, node in executed_nodes(result.dags):
            detail = f" [{node.describe()}]" if node.describe() else ""
            self.write(
                f"  #{node_index} {node.name()}{detail}: "
                f"rows_out={node.span.attrs['rows_out']} "
                f"wall={node.span.duration * 1000:.3f} ms"
            )
        for entry in result.rewrites:
            self.write(f"  rewrite: {entry}")

    def _trace(self, argument: str) -> None:
        path, sql = self._split_json_target(argument)
        try:
            result = self.db.sql(
                sql, engine=self.engine, config=self._config(collect_trace=True)
            )
        except ReproError as error:
            self.write(f"error: {error}")
            return
        if path is not None:
            from .observability import write_chrome_trace

            count = write_chrome_trace(path, result.trace)
            self.write(f"{count} trace events written to {path}")
            return
        self.write(result.trace.render(width=100))
        self.write(
            f"  {len(result.trace.records)} work items in "
            f"{len(result.trace.regions)} regions"
        )

    def _metrics(self, argument: str = "") -> None:
        sub = argument.strip().lower()
        if sub not in ("", "reset"):
            self.write("usage: .metrics [reset]")
            return
        if self.service is None:
            self.write(_NO_SERVICE)
            return
        if sub == "reset":
            self.service.metrics.reset()
            self.write("metrics reset")
            return
        snapshot = self.service.metrics.snapshot()
        if not snapshot:
            self.write("(no metrics recorded yet)")
            return
        self._write_metrics(snapshot)

    # ------------------------------------------------------------------
    # Service telemetry views (repro.observability.telemetry)
    # ------------------------------------------------------------------
    def _telemetry(self):
        """The telemetry the shell's queries feed (the database's sink)."""
        from .observability.telemetry import GLOBAL_TELEMETRY

        return getattr(self.db, "telemetry", None) or GLOBAL_TELEMETRY

    @staticmethod
    def _parse_count(argument: str, default: int) -> int:
        argument = argument.strip()
        try:
            return max(1, int(argument)) if argument else default
        except ValueError:
            return default

    def _health(self) -> None:
        if self.service is None:
            self.write(_NO_SERVICE)
            return
        self._write_health(self.service.stats())
        telemetry = self.service.telemetry
        recorder = telemetry.recorder.stats()
        self.write(
            f"  flight recorder: {recorder['retained']}/{recorder['capacity']}"
            f" events, {recorder['dropped']} dropped; "
            f"{telemetry.queries_recorded} queries recorded"
        )

    def _slowlog(self, argument: str) -> None:
        slow = self._telemetry().slow_queries(self._parse_count(argument, 10))
        if not slow["records"]:
            self.write(
                f"(slow-query log empty; threshold "
                f"{slow['threshold_s'] * 1000:.0f} ms, "
                f"{slow['observed']} observed)"
            )
            return
        self.write("\n".join(render_slow_records(slow["records"])))

    def _fingerprints(self, argument: str) -> None:
        doc = self._telemetry().report(top=self._parse_count(argument, 15))
        if not doc["workload"]["templates"]:
            self.write("(no fingerprints tracked yet)")
            return
        self.write("\n".join(render_templates(doc["workload"]["templates"], doc["drifting"])))

    def _reuse(self, argument: str) -> None:
        manager = getattr(self.db, "reuse", None)
        if manager is None:
            self.write(
                "(reuse disabled — open the database with reuse=True)"
            )
            return
        sub = argument.strip().lower() or "stats"
        if sub == "clear":
            dropped = manager.clear()
            self.write(f"reuse: {dropped} entries dropped")
            return
        if sub == "list":
            entries = manager.list_entries()
            if not entries:
                self.write("(no resident entries)")
                return
            for row in entries:
                self.write(
                    f"  [{row['kind']}] {row['key']} {row['detail']} "
                    f"rows={row['rows']} bytes={row['bytes']} "
                    f"uses={row['uses']}"
                )
            return
        if sub != "stats":
            self.write("usage: .reuse [stats|list|clear]")
            return
        stats = manager.stats()
        self.write(
            f"  hits {stats['hits']} / misses {stats['misses']} "
            f"(rate {stats['hit_rate']:.2f}), "
            f"evictions {stats['evictions']}, "
            f"invalidations {stats['invalidations']}"
        )
        self.write(
            f"  resident {stats['resident_bytes']} / "
            f"{stats['budget_bytes']} bytes in "
            f"{stats['buffers']} buffers + {stats['views']} views"
        )
        self.write(
            f"  maintenance: {stats['maintenance_events']} events, "
            f"{stats['maintenance_s'] * 1000:.2f} ms total"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """REPL entry point (``python -m repro``)."""
    shell = Shell()
    shell.write("repro — LOLEPOP SQL engine. Type .help for commands.")
    try:
        while True:
            try:
                line = input("repro> ")
            except EOFError:
                break
            if not shell.execute_line(line):
                break
    except KeyboardInterrupt:
        pass
    shell.write("bye")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
