"""Physical properties of LOLEPOP outputs — the plan verifier's type
system.

Every operator class declares its own contract (see
:class:`~repro.lolepop.base.Lolepop`): the kinds it consumes and produces,
which physical properties of its input it **requires** (``PartitionedOn``,
``SortedPerPartition``, ``UniqueOn``, column existence) and which
properties its output **derives**, both stated over the :class:`PhysProps`
defined here. :mod:`repro.lolepop.verify` propagates them through a DAG and
reports contract violations before execution.

The property lattice is deliberately three-valued: every property is either
known-exactly or ``None`` (= unknown), and **unknown never produces a
diagnostic** — the verifier's zero-false-positive guarantee on hand-built
DAGs rests on that.

Property encodings:

- ``partitioned_by``: ``None`` = round-robin / unknown clustering (rows of
  one key may span partitions), ``()`` = a single co-located partition,
  ``(k, ...)`` = hash-clustered on those keys. The lattice order is
  ``keys ⊆ keys' ⇒ PartitionedOn(keys) ⊑ PartitionedOn(keys')``: grouping
  stays partition-local whenever the partition keys are a subset of the
  group keys (paper §3.3).
- ``ordered_by``: the exact per-partition ordering as ``(column, desc)``
  pairs; a requirement is met when it is a prefix (SORT's runtime elision
  uses the same rule via ``TupleBuffer.ordering_satisfies``).
- ``unique_on``: a set of key-sets the value is known unique on. At most
  one row per ``S`` implies at most one row per any superset of ``S``, so
  a requirement ``UniqueOn(keys)`` is met when some known key-set ``S``
  satisfies ``S ⊆ keys``.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..expr.nodes import ColumnRef, Expr
from ..types import Schema

#: One ``(column name, descending)`` sort key.
OrderKey = Tuple[str, bool]


class PhysProps:
    """Statically derived physical properties of one operator's output.

    ``None`` always means *unknown* (checks are skipped), never *absent*.
    """

    __slots__ = ("kind", "schema", "partitioned_by", "ordered_by", "unique_on")

    def __init__(
        self,
        kind: str,
        schema: Optional[Schema] = None,
        partitioned_by: Optional[Tuple[str, ...]] = None,
        ordered_by: Sequence[OrderKey] = (),
        unique_on: Optional[Iterable[Iterable[str]]] = None,
    ) -> None:
        #: 'stream' (list of batches) or 'buffer' (TupleBuffer).
        self.kind = kind
        self.schema = schema
        self.partitioned_by = (
            tuple(partitioned_by) if partitioned_by is not None else None
        )
        self.ordered_by: Tuple[OrderKey, ...] = tuple(
            (name, bool(desc)) for name, desc in ordered_by
        )
        self.unique_on: Optional[FrozenSet[FrozenSet[str]]] = (
            None
            if unique_on is None
            else frozenset(frozenset(s) for s in unique_on)
        )

    # ------------------------------------------------------------------
    @property
    def columns(self) -> Optional[FrozenSet[str]]:
        if self.schema is None:
            return None
        return frozenset(name.lower() for name in self.schema.names())

    def ordering_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.ordered_by)

    def ordering_satisfies(self, required: Sequence[OrderKey]) -> bool:
        """Prefix rule, identical to ``TupleBuffer.ordering_satisfies``."""
        req = tuple((name, bool(desc)) for name, desc in required)
        return len(req) <= len(self.ordered_by) and (
            self.ordered_by[: len(req)] == req
        )

    def unique_implies(self, keys: Sequence[str]) -> Optional[bool]:
        """Does known uniqueness imply at most one row per ``keys``?
        ``None`` when nothing is known about uniqueness."""
        if self.unique_on is None:
            return None
        target = frozenset(keys)
        return any(s <= target for s in self.unique_on)

    def grouping_is_partition_local(self, keys: Sequence[str]) -> Optional[bool]:
        """Is every group of ``keys`` contained in one partition?"""
        if self.partitioned_by is None:
            return False
        return set(self.partitioned_by) <= set(keys) or not self.partitioned_by

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Compact per-node suffix for EXPLAIN / EXPLAIN ANALYZE."""
        parts: List[str] = []
        if self.kind == "buffer":
            if self.partitioned_by is None:
                parts.append("part=rr")
            elif self.partitioned_by:
                parts.append("part=" + ",".join(self.partitioned_by))
            else:
                parts.append("part=1")
            if self.ordered_by:
                parts.append(
                    "ord="
                    + ",".join(
                        ("-" if desc else "") + name
                        for name, desc in self.ordered_by
                    )
                )
        if self.unique_on:
            best = min(self.unique_on, key=lambda s: (len(s), sorted(s)))
            parts.append("uniq=(" + ",".join(sorted(best)) + ")")
        return " ".join(parts)

    def __repr__(self) -> str:  # debugging aid only
        return f"PhysProps({self.kind}, {self.render() or 'unknown'})"


# ----------------------------------------------------------------------
# Shared helpers for requires/derive rules
# ----------------------------------------------------------------------
def expr_column_refs(expr: object) -> FrozenSet[str]:
    """All column names referenced anywhere inside an expression tree."""
    out: set = set()

    def visit(node: object) -> None:
        if isinstance(node, ColumnRef):
            out.add(node.name)
            return
        if isinstance(node, Expr):
            for owner in type(node).__mro__:
                for slot in getattr(owner, "__slots__", ()):
                    visit(getattr(node, slot, None))
        elif isinstance(node, (list, tuple)):
            for item in node:
                visit(item)

    visit(expr)
    return frozenset(out)


def _missing_columns(
    props: Optional[PhysProps], names: Sequence[str], what: str
) -> List[str]:
    """Diagnostics for referenced columns absent from a *known* schema."""
    if props is None or props.columns is None:
        return []
    missing = sorted(set(n.lower() for n in names) - props.columns)
    if not missing:
        return []
    return [f"{what} references missing column(s) {', '.join(missing)}"]


def unique_groups(
    ins: Sequence[Optional[PhysProps]],
    output_schema: Callable[[Schema], Schema],
    key_names: Sequence[str],
) -> PhysProps:
    """A grouped aggregate's output (HASHAGG, ORDAGG): one row per group,
    so unique on the group keys — HASHAGG's two-phase scatter keeps that
    global, its partitions being disjoint by key hash."""
    source = ins[0] if ins else None
    schema = None
    if source is not None and source.schema is not None:
        try:
            schema = output_schema(source.schema)
        except Exception:
            schema = None
    return PhysProps("stream", schema=schema, unique_on=[list(key_names)])
