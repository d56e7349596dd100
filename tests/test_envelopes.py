"""Transverse envelope profiles and their transforms.

The Fourier convention throughout is gt(q) = integral dy exp(-i q y) g(y);
every analytic transform here is checked against direct quadrature of that
integral.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    Envelope,
    gaussian_envelope,
    quartic_envelope,
    tabulated_envelope,
)


def _ft_quadrature(env, q, n=400):
    """Brute-force gt(q) by Gauss-Legendre quadrature over the support."""
    lo, hi = env.support
    x, w = leggauss(n)
    y = lo + 0.5 * (hi - lo) * (x + 1.0)
    wy = 0.5 * (hi - lo) * w
    q = np.atleast_1d(np.asarray(q, dtype=float))
    vals = env.value(y)
    out = np.exp(-1j * np.outer(q, y)) @ (wy * vals)
    return out


def test_quartic_pointwise_values():
    env = quartic_envelope(2.0, 1.0)
    # g(b/2) = g0 / 16 for the normalized double-parabola bump
    assert env.value(0.5) == pytest.approx(2.0 / 16.0, rel=1e-15)
    assert env.value(0.0) == 0.0
    assert env.value(1.0) == 0.0
    assert env.value(-0.2) == 0.0
    assert env.value(1.2) == 0.0


def test_quartic_zero_frequency_moment():
    # integral of y^2 (y-b)^2 / b^4 over (0, b) is b / 30
    for g0, b in ((1.0, 1.0), (1e-2, 1.0), (0.7, 2.5)):
        env = quartic_envelope(g0, b)
        assert complex(env.ft(0.0)) == pytest.approx(g0 * b / 30.0, rel=1e-14)


def test_quartic_ft_matches_quadrature():
    env = quartic_envelope(1e-2, 1.3)
    rng = np.random.default_rng(11)
    q = np.concatenate(
        [
            rng.uniform(-40.0, 40.0, 40),
            rng.uniform(-0.7, 0.7, 20),  # exercises the series branch
            [0.0, 1.0 / 1.3, -1.0 / 1.3],
        ]
    )
    got = env.ft(q)
    want = _ft_quadrature(env, q)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_quartic_ft_branch_seam_is_continuous():
    # the series/closed-form handoff at |q b| = 1 must be seamless; at a
    # 2e-12 argument spacing the function itself moves by ~3e-14, so any
    # visible jump would be a branch mismatch
    env = quartic_envelope(1.0, 1.0)
    below, above = complex(env.ft(1.0 - 1e-12)), complex(env.ft(1.0 + 1e-12))
    assert abs(below - above) < 1e-10 * abs(below)


def test_quartic_second_derivative():
    env = quartic_envelope(3.0, 2.0)
    y = np.array([0.3, 1.0, 1.7])
    want = 3.0 * 2.0**-4 * (12.0 * y**2 - 12.0 * 2.0 * y + 2.0 * 2.0**2)
    assert np.allclose(env.second_derivative(y), want, rtol=1e-14)
    assert env.second_derivative(-0.5) == 0.0
    assert env.second_derivative(2.5) == 0.0


def test_gaussian_ft_closed_form_and_quadrature():
    env = gaussian_envelope(0.5, 0.8)
    q = np.array([0.0, 0.7, -2.1, 5.0])
    want = 0.5 * 0.8 * np.sqrt(2.0 * np.pi) * np.exp(-(0.8**2) * q**2 / 2.0)
    assert np.allclose(env.ft(q), want, rtol=1e-14)
    quad = _ft_quadrature(env, q, n=600)
    assert np.max(np.abs(env.ft(q) - quad)) < 1e-12 * np.max(np.abs(want))


def test_gaussian_second_derivative_by_differences():
    env = gaussian_envelope(1.2, 0.6)
    h = 1e-4
    for y0 in (-0.4, 0.0, 0.9):
        fd = (env.value(y0 + h) - 2.0 * env.value(y0) + env.value(y0 - h)) / h**2
        assert env.second_derivative(y0) == pytest.approx(fd, rel=1e-6)


def test_gaussian_support_window_is_negligible():
    env = gaussian_envelope(1.0, 1.0)
    lo, hi = env.support
    assert abs(env.value(lo)) < 1e-13
    assert abs(env.value(hi)) < 1e-13


def test_tabulated_envelope_tracks_its_samples():
    y = np.linspace(0.0, 1.0, 41)
    g = np.sin(np.pi * y) ** 2 * np.exp(0.3j * y)
    env = tabulated_envelope(y, g)
    assert np.allclose(env.value(y), g, atol=1e-14)
    # spline interpolation error for a smooth profile on this grid
    yy = np.linspace(0.0, 1.0, 173)
    assert np.max(np.abs(env.value(yy) - np.sin(np.pi * yy) ** 2 * np.exp(0.3j * yy))) < 1e-5


def test_tabulated_ft_matches_quadrature_of_the_spline():
    y = np.linspace(-1.0, 1.0, 61)
    g = np.exp(-4.0 * y**2) * (1.0 + 0.5j * y)
    env = tabulated_envelope(y, g)
    q = np.array([0.0, 1.5, -3.0])
    got = env.ft(q)
    want = _ft_quadrature(env, q, n=500)
    assert np.max(np.abs(got - want)) < 1e-9


def test_envelope_validation():
    with pytest.raises(ValueError):
        quartic_envelope(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_envelope(1.0, -2.0)
    with pytest.raises(ValueError):
        Envelope(kind="triangle", g0=1.0, b=1.0)
    with pytest.raises(ValueError):
        tabulated_envelope(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        tabulated_envelope(np.array([0.0, 1.0]), np.zeros(2))
