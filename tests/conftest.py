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


def _brute_ft_2d(v, kx, ky, nx=260, ny=260):
    """Dense tensor-product quadrature of the defining Fourier integral."""
    x0, x1 = v.x_support
    y0, y1 = v.y_support
    gx, wx = leggauss(nx)
    gy, wy = leggauss(ny)
    X = x0 + 0.5 * (x1 - x0) * (gx + 1.0)
    Y = y0 + 0.5 * (y1 - y0) * (gy + 1.0)
    WX = 0.5 * (x1 - x0) * wx
    WY = 0.5 * (y1 - y0) * wy
    V = v.value(X[:, None], Y[None, :])
    kx = np.atleast_1d(np.asarray(kx, dtype=float))
    ky = np.atleast_1d(np.asarray(ky, dtype=float))
    ex = np.exp(-1j * np.outer(kx, X)) * WX
    ey = np.exp(-1j * np.outer(ky, Y)) * WY
    return np.einsum("ma,ab,mb->m", ex, V, ey)


@pytest.fixture
def brute_ft_2d():
    """(v, kx, ky, nx=260, ny=260) -> int dx dy e^{-i(kx x + ky y)} v(x, y)
    by an nx x ny Gauss-Legendre tensor rule over v's support."""
    return _brute_ft_2d


def _envelope_ft_quadrature(env, q, n=400):
    """Brute-force gt(q) by Gauss-Legendre quadrature over the support."""
    lo, hi = env.support
    x, w = leggauss(n)
    y = lo + 0.5 * (hi - lo) * (x + 1.0)
    wy = 0.5 * (hi - lo) * w
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return np.exp(-1j * np.outer(q, y)) @ (wy * env.value(y))


@pytest.fixture
def envelope_ft_quadrature():
    """(env, q, n=400) -> int dy e^{-i q y} g(y) by an n-node Gauss-Legendre
    rule over the envelope's support."""
    return _envelope_ft_quadrature
