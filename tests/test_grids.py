"""Momentum grid and dispersion helpers."""

from __future__ import annotations

import numpy as np
import pytest

from uniscat import (
    MomentumGrid,
    WaveContext,
    delta_vector,
    gauss_grid,
    omega,
)

SQRT35 = np.sqrt(3.0 / 5.0)


def test_wave_context_rejects_bad_wavenumbers():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            WaveContext(k=bad)


def test_omega_closed_values():
    ctx = WaveContext(k=5.0)
    assert omega(0.0, ctx) == 5.0
    assert omega(3.0, ctx) == pytest.approx(4.0, rel=0, abs=1e-15)
    assert omega(-3.0, ctx) == omega(3.0, ctx)


def test_omega_rejects_evanescent_momenta():
    ctx = WaveContext(k=2.0)
    with pytest.raises(ValueError):
        omega(2.0, ctx)
    with pytest.raises(ValueError):
        omega(np.array([0.0, 1.0, -2.5]), ctx)


def test_gauss_grid_three_node_rule():
    # the 3-node Gauss-Legendre rule on (-k, k) is known in closed form
    ctx = WaveContext(k=2.0)
    grid = gauss_grid(3, ctx)
    assert np.allclose(grid.nodes, 2.0 * np.array([-SQRT35, 0.0, SQRT35]), atol=1e-15)
    assert np.allclose(grid.weights, 2.0 * np.array([5, 8, 5]) / 9.0, atol=1e-15)
    assert grid.center_index == 1
    assert grid.nodes[grid.center_index] == 0.0


def test_gauss_grid_integrates_polynomials_exactly():
    ctx = WaveContext(k=1.5)
    grid = gauss_grid(9, ctx)
    # degree-16 polynomial is within the exactness range of 9 nodes
    val = np.sum(grid.weights * grid.nodes**16)
    exact = 2.0 * ctx.k**17 / 17.0
    assert val == pytest.approx(exact, rel=1e-14)
    assert np.sum(grid.weights) == pytest.approx(2.0 * ctx.k, rel=1e-15)


def test_gauss_grid_symmetry_and_reversal():
    grid = gauss_grid(41, WaveContext(k=4 * np.pi))
    rev = grid.reversal()
    assert np.array_equal(grid.nodes[rev], -grid.nodes)
    assert np.array_equal(grid.weights[rev], grid.weights)
    assert np.allclose(grid.omegas, omega(grid.nodes, grid.ctx))


def test_gauss_grid_rejects_even_or_tiny_counts():
    ctx = WaveContext(k=1.0)
    # a boolean or a fractional count is refused too; an integral float is a count
    for bad in (2, 4, 1, 0, -3, True, 41.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            gauss_grid(bad, ctx)
    assert np.array_equal(gauss_grid(41.0, ctx).nodes, gauss_grid(41, ctx).nodes)


def test_delta_vector_reproduces_point_evaluation():
    ctx = WaveContext(k=3.0)
    grid = gauss_grid(21, ctx)
    d = delta_vector(grid)
    assert d.dtype == complex
    assert np.count_nonzero(d) == 1
    # quadrature against a smooth function picks out 2 pi f(0)
    f = np.cos(grid.nodes / 3.0) * np.exp(0.1j * grid.nodes)
    val = np.sum(grid.weights * f * d)
    assert val == pytest.approx(2.0 * np.pi, rel=1e-15)


def test_grid_is_frozen():
    grid = gauss_grid(5, WaveContext(k=1.0))
    with pytest.raises(AttributeError):
        grid.center_index = 0
