"""Logical query plans.

The SQL binder produces trees of the operators in :mod:`repro.logical.plan`.
Plans are *normalized*: grouping keys, join keys, sort keys and aggregate /
window arguments are plain column references into a child projection that
computes any needed expressions. This single invariant keeps every consumer
(the LOLEPOP translator and all three baseline engines) free of expression
plumbing. Binding ends with :func:`~repro.logical.prune.prune_columns`, so
every operator's input carries only the columns something above it reads.
"""

from .plan import (
    LogicalPlan,
    Scan,
    Filter,
    Project,
    Join,
    JoinKind,
    Aggregate,
    Window,
    Sort,
    Limit,
    UnionAll,
    explain_plan,
    key_hash,
    template_key,
)
from .prune import prune_columns

__all__ = [
    "LogicalPlan",
    "Scan",
    "Filter",
    "Project",
    "Join",
    "JoinKind",
    "Aggregate",
    "Window",
    "Sort",
    "Limit",
    "UnionAll",
    "explain_plan",
    "key_hash",
    "template_key",
    "prune_columns",
]
