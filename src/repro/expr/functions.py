"""Scalar function registry.

Each :class:`ScalarFunction` bundles a vectorized kernel (numpy arrays in,
array out), a scalar kernel (Python values, ``None`` = NULL), and a
return-type rule. Registering both keeps the naive row engine and the
vectorized engines in lock-step, which the differential tests exploit.

NULL handling: unless a function opts out via ``handles_nulls=True`` (e.g.
``coalesce``), the evaluator applies the standard strict rule — the result is
NULL wherever any argument is NULL — so kernels only see the value arrays.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..errors import BindError
from ..types import DataType


class ScalarFunction:
    """A registered scalar function."""

    __slots__ = ("name", "arity", "vector_fn", "scalar_fn", "type_fn", "handles_nulls")

    def __init__(
        self,
        name: str,
        arity: int,
        vector_fn: Callable,
        scalar_fn: Callable,
        type_fn: Callable[[List[DataType]], DataType],
        handles_nulls: bool = False,
    ):
        self.name = name
        self.arity = arity  # -1 means variadic
        self.vector_fn = vector_fn
        self.scalar_fn = scalar_fn
        self.type_fn = type_fn
        self.handles_nulls = handles_nulls

    def check_arity(self, n: int) -> None:
        if self.arity >= 0 and n != self.arity:
            raise BindError(f"{self.name} expects {self.arity} arguments, got {n}")

    def return_type(self, arg_types: List[DataType]) -> DataType:
        return self.type_fn(arg_types)


def _numeric_result(arg_types: List[DataType]) -> DataType:
    if any(t is DataType.FLOAT64 for t in arg_types):
        return DataType.FLOAT64
    return DataType.INT64


def _float_result(_: List[DataType]) -> DataType:
    return DataType.FLOAT64


def _int_result(_: List[DataType]) -> DataType:
    return DataType.INT64


def _first_arg_type(arg_types: List[DataType]) -> DataType:
    return arg_types[0]


FUNCTIONS: Dict[str, ScalarFunction] = {}


def register(function: ScalarFunction) -> None:
    FUNCTIONS[function.name] = function


def lookup(name: str) -> ScalarFunction:
    key = name.lower()
    if key not in FUNCTIONS:
        raise BindError(f"unknown function: {name}")
    return FUNCTIONS[key]


# ----------------------------------------------------------------------
# Numeric functions
# ----------------------------------------------------------------------
register(
    ScalarFunction(
        "abs", 1,
        vector_fn=lambda x: np.abs(x),
        scalar_fn=lambda x: abs(x),
        type_fn=_first_arg_type,
    )
)
register(
    ScalarFunction(
        "sqrt", 1,
        vector_fn=lambda x: np.sqrt(np.maximum(x.astype(np.float64), 0.0)),
        scalar_fn=lambda x: float(max(x, 0.0)) ** 0.5,
        type_fn=_float_result,
    )
)
def _ieee(kernel: Callable) -> Callable:
    """``kernel`` answering IEEE inf / NaN without a warning: ``power(0.0,
    -1)`` is inf, ``power(-3.0, 0.5)`` and ``ln(-1.0)`` are NaN, ``ln(0.0)``
    is -inf."""

    def quiet(*args):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return kernel(*args)

    return quiet


def _power(x, y):
    return np.power(np.asarray(x, dtype=np.float64), y)


for _name in ("pow", "power"):
    register(
        ScalarFunction(
            _name, 2,
            vector_fn=_ieee(_power),
            # numpy's pow, not Python's ``**``, which raises for 0.0 ** -1
            # and turns -3.0 ** 0.5 complex. An array exponent, as a column
            # is: a scalar 0.5 would be sqrt, which differs at -0.0.
            scalar_fn=_ieee(lambda x, y: float(_power(x, np.array([y], np.float64))[0])),
            type_fn=_float_result,
        )
    )
register(
    ScalarFunction(
        "ln", 1,
        vector_fn=_ieee(lambda x: np.log(x.astype(np.float64))),
        scalar_fn=_ieee(lambda x: float(np.log(np.float64(x)))),
        type_fn=_float_result,
    )
)
register(
    ScalarFunction(
        "exp", 1,
        vector_fn=lambda x: np.exp(x.astype(np.float64)),
        scalar_fn=lambda x: float(np.exp(x)),
        type_fn=_float_result,
    )
)
register(
    ScalarFunction(
        "floor", 1,
        vector_fn=lambda x: np.floor(x.astype(np.float64)),
        scalar_fn=lambda x: float(np.floor(x)),
        type_fn=_float_result,
    )
)
register(
    ScalarFunction(
        "ceil", 1,
        vector_fn=lambda x: np.ceil(x.astype(np.float64)),
        scalar_fn=lambda x: float(np.ceil(x)),
        type_fn=_float_result,
    )
)
register(
    ScalarFunction(
        "round", 2,
        vector_fn=lambda x, d: np.round(x.astype(np.float64), d[0] if len(d) else 0),
        scalar_fn=lambda x, d: round(float(x), int(d)),
        type_fn=_float_result,
    )
)
register(
    ScalarFunction(
        "mod", 2,
        vector_fn=lambda x, y: np.mod(x, y),
        scalar_fn=lambda x, y: x % y,
        type_fn=_numeric_result,
    )
)
register(
    ScalarFunction(
        "sign", 1,
        vector_fn=lambda x: np.sign(x).astype(np.int64),
        scalar_fn=lambda x: int(np.sign(x)),
        type_fn=_int_result,
    )
)
register(
    ScalarFunction(
        "greatest", -1,
        vector_fn=lambda *xs: np.maximum.reduce(list(xs)),
        scalar_fn=lambda *xs: max(xs),
        type_fn=_numeric_result,
    )
)
register(
    ScalarFunction(
        "least", -1,
        vector_fn=lambda *xs: np.minimum.reduce(list(xs)),
        scalar_fn=lambda *xs: min(xs),
        type_fn=_numeric_result,
    )
)

# ----------------------------------------------------------------------
# String functions
# ----------------------------------------------------------------------
register(
    ScalarFunction(
        "lower", 1,
        vector_fn=lambda x: np.array([s.lower() for s in x], dtype=object),
        scalar_fn=lambda s: s.lower(),
        type_fn=lambda _: DataType.STRING,
    )
)
register(
    ScalarFunction(
        "upper", 1,
        vector_fn=lambda x: np.array([s.upper() for s in x], dtype=object),
        scalar_fn=lambda s: s.upper(),
        type_fn=lambda _: DataType.STRING,
    )
)
register(
    ScalarFunction(
        "length", 1,
        vector_fn=lambda x: np.array([len(s) for s in x], dtype=np.int64),
        scalar_fn=lambda s: len(s),
        type_fn=_int_result,
    )
)
register(
    ScalarFunction(
        "substr", 3,
        vector_fn=lambda x, start, count: np.array(
            [s[int(b) - 1 : int(b) - 1 + int(c)] for s, b, c in zip(x, start, count)],
            dtype=object,
        ),
        scalar_fn=lambda s, b, c: s[int(b) - 1 : int(b) - 1 + int(c)],
        type_fn=lambda _: DataType.STRING,
    )
)
register(
    ScalarFunction(
        "concat", -1,
        vector_fn=lambda *xs: np.array(
            ["".join(str(p) for p in parts) for parts in zip(*xs)], dtype=object
        ),
        scalar_fn=lambda *xs: "".join(str(p) for p in xs),
        type_fn=lambda _: DataType.STRING,
    )
)

# ----------------------------------------------------------------------
# Date functions (dates are int day numbers since 1970-01-01)
# ----------------------------------------------------------------------
def _extract_years_vec(days: np.ndarray) -> np.ndarray:
    dates = days.astype("datetime64[D]")
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


register(
    ScalarFunction(
        "year", 1,
        vector_fn=_extract_years_vec,
        scalar_fn=lambda d: (
            d.year if hasattr(d, "year")
            else int(_extract_years_vec(np.array([d], dtype=np.int64))[0])
        ),
        type_fn=_int_result,
    )
)

# ----------------------------------------------------------------------
# NULL-aware functions (receive masked Column-level handling in eval)
# ----------------------------------------------------------------------
# nullif/coalesce are special-cased in the evaluator because they inspect
# NULL-ness; they are registered with handles_nulls=True and the kernels are
# placeholders never called directly.
register(
    ScalarFunction(
        "nullif", 2,
        vector_fn=None, scalar_fn=None,
        type_fn=_first_arg_type,
        handles_nulls=True,
    )
)
register(
    ScalarFunction(
        "coalesce", -1,
        vector_fn=None, scalar_fn=None,
        type_fn=_first_arg_type,
        handles_nulls=True,
    )
)
