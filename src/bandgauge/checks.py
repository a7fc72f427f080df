"""Field checks shared by the config dataclasses.

Every check raises ValueError naming the field, so a bad setting fails the
same way through the Python API and the command line, and before any image
is read.
"""

from __future__ import annotations

import math
import numbers
import operator

_BOUNDS = {
    "gt": (operator.gt, ">"),
    "ge": (operator.ge, ">="),
    "lt": (operator.lt, "<"),
    "le": (operator.le, "<="),
}


def check(name: str, value, kind=float, optional: bool = False, **bounds) -> None:
    """Require a finite real (kind float) or integer (kind int) within bounds.

    bounds are any of gt/ge/lt/le.  bool counts as neither kind; optional
    lets None through.
    """
    if value is None and optional:
        return
    want = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, want) or not math.isfinite(value):
        what = "an int" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    for key, bound in bounds.items():
        op, symbol = _BOUNDS[key]
        if not op(value, bound):
            raise ValueError(f"{name} must be {symbol} {bound}, got {value!r}")

