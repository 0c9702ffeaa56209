"""Reuse SOURCEs — DAG entry points served by the materialization manager.

Two operators let the translator substitute cross-query cached state for
freshly computed subtrees (see :mod:`repro.reuse`):

- :class:`CachedBufferOp` replaces a SOURCE → PARTITION (and, when the
  cached entry carries the required ordering, the downstream SORT's work
  elides at runtime) with a snapshot of a previously materialized
  :class:`~repro.storage.TupleBuffer`. Its contract *declares* the
  partitioning/ordering the cache key guarantees, so ``verify_dag``
  checks every substitution against the same physical-property rules as
  the operators it replaced.
- :class:`ViewSourceOp` replaces a whole aggregation region with rows
  served from an incrementally-maintained aggregate view (exact grouping
  or lattice re-aggregation of a finer one).

Both keep :attr:`~repro.lolepop.base.SourceOp.plan` populated, so cached
DAG templates containing them stay rebindable, and both degrade to
correct recomputation when the entry was evicted or invalidated between
translation and execution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..execution.context import ExecutionContext
from .base import OpResult, SourceOp
from .partition_op import PartitionOp, hash_clustering
from .properties import PhysProps
from .sort_op import SortOp


class CachedBufferOp(SourceOp):
    """A buffer-kind SOURCE backed by the materialization manager.

    On a hit it returns a private snapshot of the cached buffer (chunk
    lists are shared, containers are not — the engine only ever mutates
    containers). On a miss (entry evicted/invalidated since translation)
    it recomputes exactly what the substituted operators would have:
    evaluate the fragment thunk, PARTITION it, SORT it to the declared
    ordering — and offers the result back to the cache.
    """

    legend = "CACHEDBUF"
    produces = "buffer"
    # Every acquire returns a fresh snapshot container, and the miss path
    # materializes a fresh buffer: downstream in-place mutators (SORT /
    # WINDOW) only ever touch this query's private copy.
    buffer_role = "creates"

    def __init__(
        self,
        spec,
        ordering: Sequence[Tuple[str, bool]],
        source_plan,
        thunk,
        keys: Sequence[str],
        num_partitions: int,
    ):
        super().__init__(thunk, label=f"cached {spec.describe()}", plan=source_plan)
        self.spec = spec
        self.ordering: Tuple[Tuple[str, bool], ...] = tuple(
            (name, bool(desc)) for name, desc in ordering
        )
        self.keys = tuple(keys)
        self.num_partitions = num_partitions

    def describe(self) -> str:
        parts = [self.spec.describe()]
        if self.ordering:
            parts.append(
                "ord=" + ",".join(
                    ("-" if desc else "") + name for name, desc in self.ordering
                )
            )
        return " ".join(parts)

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        # What PARTITION (and SORT) would have derived: the cache key pins
        # the partitioning and the entry's stored ordering is declared
        # outright — the contract verify_dag holds every substitution to.
        return PhysProps(
            "buffer",
            schema=getattr(self.plan, "schema", None),
            partitioned_by=hash_clustering(self.keys, self.num_partitions),
            ordered_by=self.ordering,
        )

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        manager = getattr(ctx.config, "reuse", None)
        if manager is not None:
            buffer = manager.acquire_buffer(self.spec, self.ordering)
            if buffer is not None:
                return buffer
        # Fallback: recompute the substituted subtree verbatim. Transient
        # operator instances run outside the DAG, so the node count and
        # phase structure match what translation without a cache hit
        # would have produced.
        batches = self._thunk()
        partition = PartitionOp(self, self.keys, self.num_partitions)
        buffer = partition.execute(ctx, [batches])
        if self.ordering:
            buffer = SortOp(self, list(self.ordering)).execute(ctx, [buffer])
        if manager is not None:
            manager.offer_buffer(self.spec, buffer)
        return buffer


class ViewSourceOp(SourceOp):
    """A stream SOURCE serving an aggregation region from a materialized
    view. :attr:`plan` is the full :class:`~repro.logical.plan.Aggregate`
    region; serving (including the evicted-view rebuild path) happens
    entirely inside the manager — never through the engine's stream
    evaluator, which would re-enter region accounting."""

    legend = "MATVIEW"

    def __init__(self, aggregate_plan, thunk=None):
        super().__init__(thunk, label="materialized view", plan=aggregate_plan)

    def describe(self) -> str:
        plan = self.plan
        return "view " + ",".join(plan.group_names)

    def derive(self, ins: Sequence[Optional[PhysProps]]) -> PhysProps:
        plan = self.plan
        unique_on = None
        if plan is not None and getattr(plan, "grouping_sets", None) is None:
            unique_on = [list(plan.group_names)]
        return PhysProps(
            "stream", schema=getattr(plan, "schema", None), unique_on=unique_on
        )

    def execute(self, ctx: ExecutionContext, inputs: List[OpResult]) -> OpResult:
        manager = getattr(ctx.config, "reuse", None)
        if manager is None:
            raise ExecutionError(
                "materialized-view SOURCE executed without a materialization "
                "manager on the engine config"
            )
        return manager.serve_view(self.plan)

