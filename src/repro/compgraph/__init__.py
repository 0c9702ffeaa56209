"""Computation graphs and the planner API (paper §3.2 / §3.4).

The :class:`~repro.compgraph.planner.AggregatePlanner` is the paper's
"planner API that lets us define nodes with attached ordering and key
properties": complex statistics are composed from primitive aggregates,
window functions and scalar expressions *without touching operator logic* —
the ``planMSSD`` example of §3.4 is :func:`~repro.compgraph.functions.mssd`.

It is also how SQL lowers composed aggregates: the binder builds one
planner per SELECT and runs each call's lowering from
:data:`~repro.compgraph.functions.LOWERINGS`, the registry that
:func:`~repro.compgraph.functions.register` extends at run time.

:mod:`~repro.compgraph.graph` renders the dependency graph between input
values, aggregates and expressions (the middle of Figure 1).
"""

from .planner import AggregatePlanner, Node
from . import functions
from .graph import computation_graph, render_computation_graph

__all__ = [
    "AggregatePlanner",
    "Node",
    "functions",
    "computation_graph",
    "render_computation_graph",
]
