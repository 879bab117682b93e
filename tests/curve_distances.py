"""L2 and sup distances between two curves, for the tests.

The package works on whole arrays of curves (``core.l2_norm_rows``,
``core.sup_norm_rows``).  These scalar forms are written out directly
from the definitions: the tests check metric properties on them and use
``l2_distance`` as the reference for ``l2_norm_rows``.
"""

from __future__ import annotations

import numpy as np

from curvedepth.core import Curve, InputError


def _check_shared_grid(x: Curve, y: Curve) -> None:
    if x.grid is not y.grid and x.grid != y.grid:
        raise InputError("curves live on different grids")


def l2_distance(x: Curve, y: Curve) -> float:
    """L2(lambda) distance between two curves on the same grid.

    sqrt( sum_i w_i (x(v_i) - y(v_i))^2 ) with the grid's quadrature
    weights; symmetric, and zero iff the curves agree at every grid point.
    """
    _check_shared_grid(x, y)
    d = x.values - y.values
    return float(np.sqrt(max(float(d * d @ x.grid.weights), 0.0)))


def sup_distance(x: Curve, y: Curve) -> float:
    """Supremum distance max_i |x(v_i) - y(v_i)| on the shared grid."""
    _check_shared_grid(x, y)
    return float(np.max(np.abs(x.values - y.values)))
