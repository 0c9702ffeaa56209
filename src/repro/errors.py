"""Error hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch one base class. The hierarchy mirrors the query life cycle:
lexing/parsing -> binding -> planning -> execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SqlError(ReproError):
    """Base class for errors in the SQL frontend."""


class LexError(SqlError):
    """Raised when the lexer encounters an invalid token.

    Carries the 1-based line and column of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the token stream."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.line = line
        self.column = column


class BindError(SqlError):
    """Raised during semantic analysis: unknown tables/columns, type errors,
    misuse of aggregates or window functions."""


class CatalogError(ReproError):
    """Raised for catalog violations (duplicate/unknown tables, schema
    mismatches on insert)."""


class PlanError(ReproError):
    """Raised when a logical plan cannot be translated to LOLEPOPs."""


class PlanVerificationError(PlanError):
    """Raised when the static plan verifier rejects a LOLEPOP DAG.

    Carries the full list of
    :class:`~repro.lolepop.verify.Diagnostic` objects so callers (tests,
    the shell's ``.verify`` command) can inspect individual findings.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class ExecutionError(ReproError):
    """Raised when a plan fails during execution (e.g. division by zero in
    strict mode, buffer misuse)."""


class SpillError(ExecutionError):
    """Raised when a partition's spill file cannot be created, written or
    read back (an ``OSError`` from the file system, or a file shorter than
    the bytes the partition wrote). The message names the partition file."""


class NotSupportedError(ReproError):
    """Raised for SQL features that are recognized but outside the
    reproduction's scope (see DESIGN.md section 7)."""


class QueryCancelled(ExecutionError):
    """Raised when a query is cancelled cooperatively — either by an
    explicit ``cancel()`` or because its deadline expired. Surfaces at the
    next ``run_region`` barrier of whichever scheduler runs the query."""

    def __init__(self, message: str = "query cancelled", query_id=None):
        super().__init__(message)
        self.query_id = query_id


class AdmissionError(ReproError):
    """Raised when the query service refuses a submission: the admission
    queue is full, or the query's estimated memory footprint exceeds the
    service's aggregate budget."""

    def __init__(self, message: str, reason: str = "rejected"):
        super().__init__(message)
        #: Machine-readable cause: ``"queue_full"``, ``"over_budget"``, or
        #: ``"shutdown"``.
        self.reason = reason
