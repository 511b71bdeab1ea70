"""Closed-form references for the characteristic tracer.

AnalyticFieldHistory is a field history from a formula B(s, x), and
constant_field_oracle the exact trajectory under a constant field.  The
tracer is checked against both; no program path uses them.
"""

from typing import Callable

import numpy as np


class AnalyticFieldHistory:
    """Field history from a closed-form B(s, x), defined on all of R."""

    def __init__(self, fn: Callable, sup_bound: float):
        self._fn = fn
        self._sup = sup_bound

    @classmethod
    def constant(cls, b: float) -> "AnalyticFieldHistory":
        value = float(b)
        return cls(lambda s, x: np.full(np.shape(np.asarray(x, float)), value),
                   sup_bound=abs(value))

    def eval(self, s: float, x):
        return np.asarray(self._fn(s, np.asarray(x, dtype=float)), dtype=float)

    def range_bound(self):
        """(lo, hi) bounding every value eval returns: +-sup_bound."""
        return -self._sup, self._sup


def constant_field_oracle(x, v, t: float, s: float, b: float):
    """Closed-form trajectory for a constant field B = b:

        X(s) = x + v (s - t) + b (s - t)^2 / 2,   V(s) = v + b (s - t).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = s - t
    return x + v * h + 0.5 * b * h * h, v + b * h
