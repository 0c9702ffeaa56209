"""Tests for the interactive shell and table formatting."""

import io

import pytest

from repro.format import format_table, format_value
from repro.shell import Shell


class TestFormatting:
    def test_value_rendering(self):
        assert format_value(None) == "NULL"
        assert format_value(1.5) == "1.5"
        assert format_value(2.0) == "2"
        assert format_value("x") == "x"
        assert format_value(0.0) == "0"

    def test_table_alignment(self):
        text = format_table(["name", "n"], [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert lines[1] == "| name |  n |"
        assert "| a    |  1 |" in lines
        assert "(2 rows)" in text

    def test_row_cap(self):
        rows = [(i,) for i in range(100)]
        text = format_table(["x"], rows, max_rows=5)
        assert "showing first 5" in text


@pytest.fixture
def shell():
    out = io.StringIO()
    sh = Shell(out=out)
    sh.execute_line("")  # no-op
    yield sh, out
    if sh.service is not None:
        sh.service.shutdown()


def output_of(shell_tuple):
    shell_obj, out = shell_tuple
    return out.getvalue()


class TestShell:
    def test_create_and_query(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [3, 1, 2]})
        sh.execute_line("SELECT sum(a) AS s FROM t;")
        text = out.getvalue()
        assert "| 6 |" in text
        assert "makespan" in text  # timing on by default

    def test_timing_toggle(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [1]})
        sh.execute_line(".timing off")
        out.truncate(0), out.seek(0)
        sh.execute_line("SELECT a FROM t")
        assert "makespan" not in out.getvalue()

    def test_tables_and_schema(self, shell):
        sh, out = shell
        sh.db.create_table("zoo", {"x": "int64", "s": "string"})
        sh.execute_line(".tables")
        sh.execute_line(".schema zoo")
        text = out.getvalue()
        assert "zoo" in text and "string" in text and "(0 rows)" in text

    def test_engine_switch(self, shell):
        sh, out = shell
        sh.execute_line(".engine naive")
        assert sh.engine == "naive"
        sh.execute_line(".engine duckdb")
        assert sh.engine == "naive"
        assert "unknown engine" in out.getvalue()

    def test_threads(self, shell):
        sh, _ = shell
        sh.execute_line(".threads 8")
        assert sh.threads == 8

    def test_explain_commands(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64", "b": "float64"})
        sh.execute_line(".explain SELECT a, sum(b) FROM t GROUP BY a")
        sh.execute_line(".lolepop SELECT a, median(b) FROM t GROUP BY a")
        text = out.getvalue()
        assert "AGGREGATE" in text and "ORDAGG" in text

    def test_trace(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": list(range(100))})
        sh.execute_line(".trace SELECT a, count(*) FROM t GROUP BY a")
        assert "makespan" in out.getvalue()

    def test_analyze(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64", "b": "float64"})
        sh.db.insert("t", {"a": [1, 1, 2, 3] * 25, "b": [0.5] * 100})
        sh.execute_line(".analyze SELECT a, sum(b) FROM t GROUP BY a")
        text = out.getvalue()
        assert "EXPLAIN ANALYZE" in text
        assert "rows=" in text and "est=" in text and "max Q-error" in text

    def test_profile(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": list(range(200))})
        sh.execute_line(".profile SELECT a, count(*) FROM t GROUP BY a")
        text = out.getvalue()
        assert "work items" in text
        assert "HASHAGG" in text and "rows_out=" in text

    def test_profile_json(self, shell, tmp_path):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": list(range(50))})
        path = tmp_path / "profile.json"
        sh.execute_line(f".profile json {path} SELECT a, count(*) FROM t GROUP BY a")
        assert f"profile written to {path}" in out.getvalue()
        import json

        payload = json.loads(path.read_text())
        assert payload["dags"][0]["operators"]
        assert payload["trace_events"]

    def test_trace_json(self, shell, tmp_path):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": list(range(50))})
        path = tmp_path / "trace.json"
        sh.execute_line(f".trace json {path} SELECT a, count(*) FROM t GROUP BY a")
        assert "trace events written to" in out.getvalue()
        import json

        from repro.observability import validate_trace_events

        validate_trace_events(json.loads(path.read_text()))

    def test_trace_and_profile_parallel_mode(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64", "b": "float64"})
        sh.db.insert(
            "t", {"a": [i % 7 for i in range(500)], "b": [0.25] * 500}
        )
        sh.execute_line(".mode parallel")
        sh.execute_line(".threads 2")
        out.truncate(0), out.seek(0)
        sh.execute_line(".trace SELECT a, sum(b) FROM t GROUP BY a")
        text = out.getvalue()
        assert "makespan" in text and "regions" in text
        out.truncate(0), out.seek(0)
        sh.execute_line(".profile SELECT a, median(b) FROM t GROUP BY a")
        text = out.getvalue()
        assert "work items" in text and "rows_out=" in text

    def test_metrics(self, shell):
        """``.metrics`` prints the running service's own registry."""
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [1, 2, 3]})
        sh.execute_line(".metrics")
        assert "no query service" in out.getvalue()
        sh.execute_line(".server on 2")
        sh.execute_line("SELECT count(*) FROM t")
        out.truncate(0), out.seek(0)
        sh.execute_line(".metrics")
        text = out.getvalue()
        assert "service.completed: 1" in text
        assert "service.latency_seconds: n=1" in text

    def test_metrics_reset(self, shell):
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [1, 2, 3]})
        sh.execute_line(".server on")
        sh.execute_line("SELECT count(*) FROM t")
        sh.execute_line(".metrics reset")
        assert "metrics reset" in out.getvalue()
        out.truncate(0), out.seek(0)
        sh.execute_line(".metrics")
        assert "(no metrics recorded yet)" in out.getvalue()
        out.truncate(0), out.seek(0)
        sh.execute_line(".metrics bogus")
        assert "usage: .metrics [reset]" in out.getvalue()

    def test_telemetry_commands(self, shell):
        from repro.observability.telemetry import Telemetry, TelemetryConfig

        sh, out = shell
        # Private sink with every query slow-logged, so the views populate.
        sh.db.telemetry = Telemetry(
            TelemetryConfig(enabled=True, slow_query_threshold_s=0.0)
        )
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [1, 2, 3]})
        sh.execute_line("SELECT sum(a) FROM t")
        out.truncate(0), out.seek(0)
        sh.execute_line(".slowlog")
        text = out.getvalue()
        assert "rows=1" in text and "fp=" in text
        out.truncate(0), out.seek(0)
        sh.execute_line(".fingerprints")
        text = out.getvalue()
        assert "n=1" in text and "p95~" in text
        out.truncate(0), out.seek(0)
        sh.execute_line(".health")
        assert "no query service" in out.getvalue()

    def test_health_reads_the_service_now(self, shell):
        """``.health`` is the service's state when asked, not a sample."""
        sh, out = shell
        sh.db.create_table("t", {"a": "int64"})
        sh.db.insert("t", {"a": [1, 2, 3]})
        sh.execute_line(".server on")
        sh.execute_line("SELECT count(*) FROM t")
        out.truncate(0), out.seek(0)
        sh.execute_line(".health")
        text = out.getvalue()
        assert "running 0, queued 0, reserved 0 bytes" in text
        assert "plan_cache: 1/" in text and "0 hits / 1 misses" in text
        assert "flight recorder:" in text

    def test_telemetry_commands_empty_state(self, shell):
        from repro.observability.telemetry import Telemetry, TelemetryConfig

        sh, out = shell
        sh.db.telemetry = Telemetry(TelemetryConfig(enabled=True))
        sh.execute_line(".slowlog")
        assert "slow-query log empty" in out.getvalue()
        out.truncate(0), out.seek(0)
        sh.execute_line(".fingerprints")
        assert "no fingerprints tracked" in out.getvalue()

    def test_sql_error_reported(self, shell):
        sh, out = shell
        sh.execute_line("SELECT nope FROM nowhere")
        assert "error:" in out.getvalue()

    def test_load_tpch(self, shell):
        sh, out = shell
        sh.execute_line(".load tpch 0.001")
        assert "lineitem rows" in out.getvalue()
        sh.execute_line("SELECT count(*) AS n FROM nation")
        assert "| 25 |" in out.getvalue()

    def test_quit(self, shell):
        sh, _ = shell
        assert sh.execute_line(".quit") is False

    def test_unknown_dot_command(self, shell):
        sh, out = shell
        sh.execute_line(".frobnicate")
        assert "unknown command" in out.getvalue()

    def test_help(self, shell):
        sh, out = shell
        sh.execute_line(".help")
        assert ".tables" in out.getvalue()
