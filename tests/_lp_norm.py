"""Lp norms on the disk by quadrature, a test-only reference.

(int |f|^p dA)^{1/p} against normalized area measure, through the oracle's
quad_disk; f is a DiskPolynomial or a callable on complex arrays.
"""
import math

import numpy as np

from disktransform.oracle import DEFAULT_BUDGET, _as_fn, quad_disk


def lp_norm_numeric(f, p: float, tol: float, budget: int = DEFAULT_BUDGET) -> float:
    """(int |f|^p dA)^{1/p} over the disk, p >= 1 finite."""
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError("p must be a finite real >= 1")
    fn = _as_fn(f)
    res = quad_disk(lambda w: np.abs(fn(w)) ** p, tol, budget)
    return res.value.real ** (1.0 / p)
