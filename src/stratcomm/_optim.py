"""Deterministic 1-D minimization by golden-section search.

Solvers that need a numerical search locate the basin on a fixed grid and
refine it here, so results are reproducible across platforms.  No
stochastic or quasi-Newton methods.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def golden_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (argmin, min).  ``tol`` bounds the final bracket width, hence
    the position error of the reported argmin.
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        return mid, f(mid)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    n = int(np.ceil(np.log(tol / h) / np.log(_INVPHI)))
    for _ in range(max(n, 1)):
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = f(d)
    if yc < yd:
        return c, yc
    return d, yd
