"""Helpers shared by several test modules."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import born_f_2d


def _arc_reference(v, side, lo, panels=128, nodes=64):
    """int |f|^2 over the arc [lo, lo + pi] by a fixed composite
    Gauss-Legendre rule, independent of the adaptive Kronrod route."""
    x, w = leggauss(nodes)
    edges = np.linspace(lo, lo + np.pi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    rad = 0.5 * np.diff(edges)
    theta = mid[:, None] + rad[:, None] * x
    return float(np.sum(rad * (np.abs(born_f_2d(v, side, theta)) ** 2 @ w)))


@pytest.fixture
def arc_reference():
    """(v, side, lo) -> int |f|^2 over [lo, lo + pi] (128 panels x 64 nodes)."""
    return _arc_reference
