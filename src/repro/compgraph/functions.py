"""Low-Level-Functions: complex statistics composed through the planner API.

These are the paper's §3.4 examples — ``planMSSD`` and friends — plus the
further statistics it name-drops (interquartile range, kurtosis, central
moments). Each function takes an :class:`AggregatePlanner` and value nodes
and returns a result node; none of them touch operator logic.

:data:`LOWERINGS` maps a SQL function name to its lowering: it is the one
place a composed aggregate is defined, for the planner API and the SQL
binder alike. :func:`register` adds a statistic, which SQL can then call
(see ``docs/sql_reference.md`` for how arguments are passed).
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..aggregates import AggregateCall, FrameSpec, WindowCall, is_window_name
from ..errors import BindError
from ..expr.functions import FUNCTIONS as SCALAR_FUNCTIONS
from ..expr.nodes import ColumnRef
from .planner import AggregatePlanner, Node, NodeLike

#: ORDER BY keys: one node (ascending), or (node, descending) pairs.
OrderLike = Union[NodeLike, Sequence[Tuple[NodeLike, bool]]]


def _value(planner: AggregatePlanner, x: NodeLike) -> Node:
    return x if isinstance(x, Node) else planner.value(x)


def avg(planner: AggregatePlanner, x: NodeLike) -> Node:
    """AVG decomposed into SUM/COUNT (shared with any other user)."""
    total = planner.aggregate("sum", x)
    count = planner.aggregate("count", x)
    return total.as_float() / count


def _variance(planner: AggregatePlanner, x: NodeLike, sample: bool) -> Node:
    """VAR via the moment decomposition of §3.3: (Σx² - (Σx)²/n) / n, with
    n - 1 (NULL for one row) as the sample divisor."""
    x = _value(planner, x)
    total = planner.aggregate("sum", x).as_float()
    count = planner.aggregate("count", x)
    squares = planner.aggregate("sum", x * x).as_float()
    return (squares - total * total / count) / (
        (count - 1).nullif(0) if sample else count
    )


def var_pop(planner: AggregatePlanner, x: NodeLike) -> Node:
    return _variance(planner, x, sample=False)


def var_samp(planner: AggregatePlanner, x: NodeLike) -> Node:
    return _variance(planner, x, sample=True)


def stddev_pop(planner: AggregatePlanner, x: NodeLike) -> Node:
    return var_pop(planner, x).sqrt()


def stddev_samp(planner: AggregatePlanner, x: NodeLike) -> Node:
    return var_samp(planner, x).sqrt()


def median(planner: AggregatePlanner, x: NodeLike) -> Node:
    return planner.aggregate("percentile_cont", x, fraction=0.5)


def percentile(planner: AggregatePlanner, x: NodeLike, fraction: float) -> Node:
    return planner.aggregate("percentile_disc", x, fraction=fraction)


def mad(planner: AggregatePlanner, x: NodeLike) -> Node:
    """Median Absolute Deviation: MEDIAN(|x - MEDIAN(x)|), the nested
    aggregate of §3.3 — the inner median is a per-group window."""
    x = _value(planner, x)
    center = planner.window("percentile_cont", x, fraction=0.5)
    return planner.aggregate(
        "percentile_cont", (x - center).abs(), fraction=0.5
    )


def mssd(
    planner: AggregatePlanner, x: NodeLike, order_by: Optional[OrderLike] = None
) -> Node:
    """Mean Square Successive Difference along ``order_by`` (default:
    ``x`` ascending) — the paper's planMSSD example:

        lead = plan(LEAD, arg, key, ord)
        ssd  = plan(power(sub(lead, arg), 2))
        sum  = plan(SUM, ssd, key)
        cnt  = plan(COUNT, ssd, key)
        res  = plan(sqrt(div(sum, cnt)))
    """
    x = _value(planner, x)
    if order_by is None:
        order_by = [(x, False)]
    elif not isinstance(order_by, (list, tuple)):
        order_by = [(order_by, False)]
    lead = planner.window("lead", x, order_by=order_by)
    ssd = (lead - x) ** 2
    return (planner.aggregate("sum", ssd) / planner.aggregate("count", ssd)).sqrt()


def iqr(planner: AggregatePlanner, x: NodeLike) -> Node:
    """Interquartile range: PCTL(x, .75) - PCTL(x, .25)."""
    upper = planner.aggregate("percentile_cont", x, fraction=0.75)
    lower = planner.aggregate("percentile_cont", x, fraction=0.25)
    return upper - lower


def central_moment(planner: AggregatePlanner, x: NodeLike, k: int) -> Node:
    """k-th central moment: AVG((x - AVG(x))^k); the mean is a per-group
    window aggregate, the outer average a plain aggregation."""
    x = _value(planner, x)
    total = planner.window("sum", x, frame=FrameSpec.whole_partition())
    count = planner.window("count", x, frame=FrameSpec.whole_partition())
    mean = total.as_float() / count
    deviation_k = (x - mean) ** k
    outer_sum = planner.aggregate("sum", deviation_k)
    outer_count = planner.aggregate("count", deviation_k)
    return outer_sum.as_float() / outer_count


def kurtosis(planner: AggregatePlanner, x: NodeLike) -> Node:
    """Excess kurtosis: m4 / m2^2 - 3 (moments shared via interning)."""
    m4 = central_moment(planner, x, 4)
    m2 = central_moment(planner, x, 2)
    return m4 / (m2 * m2).nullif(0.0) - 3.0


def skewness(planner: AggregatePlanner, x: NodeLike) -> Node:
    """Skewness: m3 / m2^(3/2)."""
    m3 = central_moment(planner, x, 3)
    m2 = central_moment(planner, x, 2)
    return m3 / (m2 * m2 * m2).sqrt().nullif(0.0)


Lowering = Callable[..., Node]

#: SQL name → lowering: every composed aggregate the binder knows.
LOWERINGS: Dict[str, Lowering] = {
    fn.__name__: fn
    for fn in (
        avg, var_pop, var_samp, stddev_pop, stddev_samp, median, mad, mssd,
        iqr, central_moment, kurtosis, skewness,
    )
}


def emitted_calls(name: str) -> List[Union[AggregateCall, WindowCall]]:
    """The primitive aggregate and window calls ``name``'s lowering emits
    over one value (an ``int`` parameter gets 2, optional ones their
    defaults)."""
    lowering = LOWERINGS.get(name)
    if lowering is None:
        raise BindError(f"unknown aggregate: {name}")
    params = list(inspect.signature(lowering).parameters.values())[1:]
    planner = AggregatePlanner(source=None)
    lowering(planner, *(
        2 if param.annotation in (int, "int") else Node(ColumnRef("x"))
        for param in params
        if param.default is param.empty
    ))
    return planner.calls


def register(name: str, lowering: Lowering) -> None:
    """Make ``lowering`` callable from SQL as ``name(...)``.

    SQL arguments bind to the parameters after the planner in order: a
    parameter annotated ``int`` takes an integer literal, any other a value
    node. A parameter named ``order_by`` takes the WITHIN GROUP keys as
    (node, descending) pairs; a lowering without one reads ``f() WITHIN
    GROUP (ORDER BY x)`` as ``f(x)``. Names are never replaced, so plans
    cached for a statement keep their meaning."""
    key = name.lower()
    if is_window_name(key) or key in SCALAR_FUNCTIONS:
        raise BindError(f"function {name} is already defined")
    LOWERINGS[key] = lowering
