"""The three-harmonic right-invisible construction.

The closed-form full transform is the production surface; everything here
pins it against independent routes: the harmonic series, brute-force
quadrature of the defining integral, and a real-space reassembly from the
coefficient formulas.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    ConstructionParams,
    WaveContext,
    build_potential_2d,
    build_potential_3d,
    constructed_ft_2d,
    constructed_ft_3d,
    fourier_coeff_ft,
    gaussian_envelope,
    phase_over_offset,
    potential_value_2d,
    potential_value_3d,
    quartic_envelope,
    series_ft_2d,
)


def _params(ell=-1, m=1, k=4 * np.pi, g0=1e-2, b=1.0, slab=1.0, kind="quartic"):
    env = quartic_envelope(g0, b) if kind == "quartic" else gaussian_envelope(g0, b)
    return ConstructionParams(ell=ell, m=m, envelope=env, ctx=WaveContext(k=k), slab=slab)


def test_phase_over_offset_limit_and_seam():
    assert complex(phase_over_offset(0.0)) == 1j
    # series / exact handoff
    for t in (9.99e-4, 1.001e-3, -9.99e-4, -1.001e-3):
        exact = (1.0 - np.exp(-1j * t)) / t
        assert complex(phase_over_offset(t)) == pytest.approx(exact, rel=1e-13)
    t = np.array([-7.3, 2.0, 40.0])
    assert np.allclose(phase_over_offset(t), (1.0 - np.exp(-1j * t)) / t, rtol=1e-15)


def test_coefficient_transforms():
    params = _params(k=2 * np.pi, slab=1.0)  # k = K
    K = params.K
    env = params.envelope
    p = np.array([0.0, 1.0, -2.5])
    assert np.allclose(fourier_coeff_ft(params, 0, p), p**2 * env.ft(p), rtol=1e-14)
    # at k = K, l = -1, m = 1 the zero-momentum harmonic weight collapses to
    # -(3/2) K^2 gt(0)
    got = complex(fourier_coeff_ft(params, -1, 0.0))
    want = -1.5 * K**2 * complex(env.ft(0.0))
    assert got == pytest.approx(want, rel=1e-13)
    # inactive harmonics carry nothing
    assert np.array_equal(fourier_coeff_ft(params, 2, p), np.zeros(3))


def test_series_and_closed_form_agree():
    rng = np.random.default_rng(8)
    for params in (_params(), _params(ell=1, m=2, kind="gaussian"), _params(ell=-2, m=3)):
        kx = rng.uniform(-4.0, 4.0, 60) * params.K
        ky = rng.uniform(-3.0, 3.0, 60) / 1.0
        a = constructed_ft_2d(params, kx, ky)
        b = series_ft_2d(params, kx, ky)
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def test_closed_form_matches_brute_quadrature(brute_ft_2d):
    params = _params()
    K = params.K
    rng = np.random.default_rng(21)
    kx = np.concatenate(
        [
            rng.uniform(-3.0 * K, 3.0 * K, 12),
            # removable-pole neighborhoods
            [1e-7, -1e-7, -K + 1e-7, K - 1e-7, 0.0, -K, K],
        ]
    )
    ky = np.concatenate([rng.uniform(-6.0, 6.0, 12), np.full(7, 1.3)])
    got = constructed_ft_2d(params, kx, ky)
    want = brute_ft_2d(build_potential_2d(params), kx, ky, nx=420, ny=220)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_transform_vanishes_on_the_right_arcs_only():
    params = _params(k=4 * np.pi)
    k = params.ctx.k
    p = np.linspace(-0.97, 0.97, 41) * k
    w = np.sqrt(k**2 - p**2)
    on_minus = constructed_ft_2d(params, k - w, p)
    on_plus = constructed_ft_2d(params, k + w, p)
    off_left = constructed_ft_2d(params, -(k - w), p)
    scale = np.max(np.abs(off_left))
    assert scale > 0.0
    assert np.max(np.abs(on_minus)) < 1e-14 * scale
    assert np.max(np.abs(on_plus)) < 1e-14 * scale


def test_real_space_values_reassemble_from_harmonics():
    params = _params(ell=-2, m=3, k=3.7, slab=1.4, kind="gaussian")
    env = params.envelope
    ell, m, K, k = params.ell, params.m, params.K, params.ctx.k
    x = np.linspace(0.0, params.slab, 9)
    y = np.linspace(-2.0, 2.0, 7)

    def coeff(n, yy):
        g, d2 = env.value(yy), env.second_derivative(yy)
        if n == 0:
            return -d2
        if n == ell:
            return m * (ell * K * (ell * K - 2 * k) * g - d2) / (ell - m)
        return ell * (m * K * (m * K - 2 * k) * g - d2) / (m - ell)

    want = sum(
        coeff(n, y[None, :]) * np.exp(1j * n * K * x[:, None]) for n in (0, ell, m)
    )
    got = potential_value_2d(params, x[:, None], y[None, :])
    assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_slab_support():
    params = _params()
    assert potential_value_2d(params, -0.01, 0.5) == 0.0
    assert potential_value_2d(params, 1.01, 0.5) == 0.0
    assert potential_value_2d(params, 0.5, 0.5) != 0.0


def test_build_potential_2d_bundles_the_closed_form():
    params = _params()
    v = build_potential_2d(params)
    assert v.dim == 2
    assert v.params is params
    kx, ky = 2.3, -1.1
    assert v.ft(kx, ky) == constructed_ft_2d(params, kx, ky)
    assert v.value(0.4, 0.6) == potential_value_2d(params, 0.4, 0.6)
    assert v.x_support == (0.0, params.slab)


def test_3d_construction_against_quadrature():
    ctx = WaveContext(k=4 * np.pi)
    params = ConstructionParams(
        ell=-1,
        m=1,
        envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 1.0)),
        ctx=ctx,
        slab=1.0,
    )
    gx, wx = leggauss(140)
    t = 0.5 * (gx + 1.0)
    wt = 0.5 * wx
    W = np.einsum("i,j,l->ijl", wt, wt, wt)
    V = potential_value_3d(params, t[:, None, None], t[None, :, None], t[None, None, :])
    vals, wants = [], []
    for kx, ky, kz in [(0.3, -1.2, 2.0), (2 * np.pi, 0.5, -0.7), (-4.4, 3.3, 0.0)]:
        phase = np.exp(
            -1j * (kx * t[:, None, None] + ky * t[None, :, None] + kz * t[None, None, :])
        )
        wants.append(complex(np.sum(W * V * phase)))
        vals.append(complex(constructed_ft_3d(params, kx, ky, kz)))
    vals, wants = np.array(vals), np.array(wants)
    assert np.max(np.abs(vals - wants)) < 1e-10 * np.max(np.abs(wants))


def test_3d_box_support_and_bundle():
    ctx = WaveContext(k=4 * np.pi)
    params = ConstructionParams(
        ell=-1,
        m=1,
        envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 2.0)),
        ctx=ctx,
        slab=0.5,
    )
    v = build_potential_3d(params)
    assert v.dim == 3
    assert v.z_support == (0.0, 0.5)
    assert v.y_support == (0.0, 2.0)
    assert potential_value_3d(params, 0.5, 1.0, -0.1) == 0.0
    assert potential_value_3d(params, 0.5, 1.0, 0.6) == 0.0
    assert potential_value_3d(params, -0.2, 1.0, 0.25) == 0.0
    assert v.value(0.5, 1.0, 0.25) == potential_value_3d(params, 0.5, 1.0, 0.25)


def test_construction_validation():
    env = quartic_envelope(1.0, 1.0)
    ctx = WaveContext(k=1.0)
    with pytest.raises(ValueError):
        ConstructionParams(ell=1, m=1, envelope=env, ctx=ctx)
    with pytest.raises(ValueError):
        ConstructionParams(ell=0, m=1, envelope=env, ctx=ctx)
    with pytest.raises(ValueError):
        ConstructionParams(ell=-1, m=1, envelope=env, ctx=ctx, slab=0.0)
    with pytest.raises(ValueError):
        ConstructionParams(ell=-1, m=1, envelope="not an envelope", ctx=ctx)
    # a 3D envelope is a pair of Envelope objects
    with pytest.raises(ValueError):
        ConstructionParams(ell=-1, m=1, envelope=(env, env, env), ctx=ctx)
    with pytest.raises(ValueError):
        ConstructionParams(ell=-1, m=1, envelope=(env, "not an envelope"), ctx=ctx)
    params3 = ConstructionParams(ell=-1, m=1, envelope=(env, env), ctx=ctx)
    with pytest.raises(ValueError):
        build_potential_2d(params3)
    params2 = ConstructionParams(ell=-1, m=1, envelope=env, ctx=ctx)
    with pytest.raises(ValueError):
        build_potential_3d(params2)
    with pytest.raises(ValueError):
        potential_value_3d(params2, 0.5, 0.5, 0.25)
    with pytest.raises(ValueError):
        constructed_ft_3d(params2, 0.0, 0.0, 0.0)
