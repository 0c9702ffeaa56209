"""Relational substrate: the non-statistics part of the engine.

The paper's LOLEPOPs cover aggregation, window functions and sorting; plans
still need scans, filters, projections and joins underneath ("the biggest
exceptions are joins and set operations", §1). This package provides those
as vectorized physical operators, plus the grouped-reduction kernels every
aggregation operator (LOLEPOP or baseline) shares.
"""

from .kernels import grouped_reduce, sorted_reduce
from .hash_join import HashJoinTable
from .executor import RelationalExecutor

__all__ = [
    "grouped_reduce",
    "sorted_reduce",
    "HashJoinTable",
    "RelationalExecutor",
]
