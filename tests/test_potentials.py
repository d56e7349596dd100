"""PotentialSpec containers, sampling, and generic Fourier transforms."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    PotentialSpec,
    SeparableTerm,
    potential_from_samples,
    random_smooth_potential,
    sample_potential,
)


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


def test_random_potential_is_deterministic():
    a = random_smooth_potential(42)
    b = random_smooth_potential(42)
    x = np.linspace(0.0, 1.0, 13)
    y = np.linspace(-2.0, 2.0, 13)
    assert np.array_equal(a.value(x[:, None], y[None, :]), b.value(x[:, None], y[None, :]))
    c = random_smooth_potential(43)
    assert not np.allclose(a.value(x[:, None], y[None, :]), c.value(x[:, None], y[None, :]))


def test_random_potential_support_and_terms():
    v = random_smooth_potential(7)
    assert v.dim == 2
    assert v.terms is not None and len(v.terms) == 3
    assert v.value(-0.1, 0.0) == 0.0
    assert v.value(1.1, 0.0) == 0.0
    assert v.value(0.5, 0.3) != 0.0


def test_generic_ft_matches_brute_force():
    v = random_smooth_potential(5)
    rng = np.random.default_rng(1)
    kx = rng.uniform(-20.0, 20.0, 8)
    ky = rng.uniform(-10.0, 10.0, 8)
    got = v.ft(kx, ky)
    want = _brute_ft_2d(v, kx, ky)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_transverse_ft_reduces_to_term_sum():
    v = random_smooth_potential(9)
    q = np.array([-3.0, 0.0, 4.5])
    for x in (0.2, 0.55, 0.9):
        direct = sum(complex(t.fx(x)) * np.asarray(t.fy_ft(q)) for t in v.terms)
        assert np.allclose(v.ft_y(x, q), direct, rtol=1e-13, atol=1e-15)
    assert v.ft_y(-0.5, 1.0) == 0.0
    assert np.array_equal(v.ft_y(1.7, q), np.zeros(3))


def test_transverse_ft_quadrature_route_agrees_with_terms():
    v = random_smooth_potential(3)
    # strip the separable decomposition to force the quadrature path
    vq = PotentialSpec(
        kind="custom2d",
        x_support=v.x_support,
        y_support=v.y_support,
        value_fn=v.value_fn,
        quad_nodes=220,
    )
    q = np.array([-2.0, 1.0, 5.0])
    for x in (0.35, 0.7):
        a = v.ft_y(x, q)
        b = vq.ft_y(x, q)
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_sampled_copy_reproduces_the_transform():
    # accuracy here is limited by cubic interpolation of the samples, not by
    # the transform quadrature; 260 points across an 8-sigma window leave a
    # few-times-1e-8 relative floor
    v = random_smooth_potential(2)
    x = np.linspace(*v.x_support, 260)
    y = np.linspace(*v.y_support, 260)
    vs = potential_from_samples(x, y, v.value(x[:, None], y[None, :]))
    kx = np.array([0.0, 3.0, -7.0])
    ky = np.array([1.0, -2.0, 0.5])
    a = v.ft(kx, ky)
    b = vs.ft(kx, ky)
    assert np.max(np.abs(a - b)) < 5e-7 * np.max(np.abs(a))


def test_potential_from_samples_validates_shape():
    with pytest.raises(ValueError):
        potential_from_samples(np.linspace(0, 1, 5), np.linspace(0, 1, 6), np.zeros((6, 5)))


def test_dimension_guards():
    v = random_smooth_potential(0)
    with pytest.raises(ValueError):
        v.value(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        v.ft(1.0, 1.0, 1.0)


def test_separable_3d_box_ft_by_quadrature():
    # a product potential with a known transform: the 3D quadrature route
    # must reproduce the product of 1D factors
    def value_fn(x, y, z):
        box = ((x >= 0) & (x <= 1) & (y >= 0) & (y <= 1) & (z >= 0) & (z <= 1))
        return np.where(box, np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0j), 0.0)

    v = PotentialSpec(
        kind="custom3d",
        x_support=(0.0, 1.0),
        y_support=(0.0, 1.0),
        z_support=(0.0, 1.0),
        value_fn=value_fn,
        quad_nodes=80,
    )

    def sine_ft(q):
        # integral_0^1 exp(-i q t) sin(pi t) dt
        gx, wx = leggauss(300)
        t = 0.5 * (gx + 1.0)
        return 0.5 * np.sum(wx * np.exp(-1j * q * t) * np.sin(np.pi * t))

    def box_ft(q):
        gx, wx = leggauss(300)
        t = 0.5 * (gx + 1.0)
        return 0.5 * np.sum(wx * np.exp(-1j * q * t))

    for kx, ky, kz in [(0.0, 0.0, 0.0), (2.0, -1.0, 3.0), (np.pi, np.pi, -np.pi)]:
        want = sine_ft(kx) * sine_ft(ky) * box_ft(kz)
        got = complex(v.ft(kx, ky, kz))
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_sample_potential_layout():
    v = random_smooth_potential(4)
    x, y, vals = sample_potential(v, nx=11, ny=7)
    assert x.shape == (11,) and y.shape == (7,) and vals.shape == (11, 7)
    assert vals[3, 2] == v.value(x[3], y[2])


def test_term_container_is_lightweight():
    t = SeparableTerm(fx=np.cos, fy=np.sin, fy_ft=np.exp)
    assert t.fx is np.cos and t.fy is np.sin and t.fy_ft is np.exp
