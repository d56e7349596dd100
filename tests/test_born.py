"""First-order scattering amplitudes and the closed forms for the
constructed potentials."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from uniscat import (
    ConstructionParams,
    WaveContext,
    amplitude_from_t,
    amplitude_table,
    born_f_2d,
    born_f_3d,
    born_t_3d,
    born_t_values,
    build_potential_2d,
    build_potential_3d,
    closed_form_f_left,
    closed_form_t_left,
    gaussian_envelope,
    potential_from_samples,
    quartic_envelope,
    random_smooth_potential,
    sample_potential,
)
from uniscat.born import _amplitude_2d, _born_vtt_2d

K4 = 4 * np.pi


def _construction(ell=-1, m=1, k=K4, g0=1e-2, b=1.0, kind="quartic"):
    env = quartic_envelope(g0, b) if kind == "quartic" else gaussian_envelope(g0, b)
    return ConstructionParams(ell=ell, m=m, envelope=env, ctx=WaveContext(k=k), slab=1.0)


def test_born_t_matches_the_closed_form():
    for kind in ("quartic", "gaussian"):
        params = _construction(kind=kind)
        v = build_potential_2d(params)
        p = np.linspace(-0.99, 0.99, 81) * params.ctx.k
        for sign in ("plus", "minus"):
            a = born_t_values(v, "left", sign, p)
            b = closed_form_t_left(params, sign, p)
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_born_f_matches_the_closed_form():
    params = _construction(ell=1, m=2)
    v = build_potential_2d(params)
    th = np.concatenate([np.linspace(-1.2, 1.2, 41), np.linspace(1.95, 4.3, 41)])
    a = born_f_2d(v, "left", th)
    b = closed_form_f_left(params, th)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_right_transmission_vanishes_at_first_order():
    params = _construction()
    v = build_potential_2d(params)
    p = np.linspace(-0.98, 0.98, 101) * params.ctx.k
    left_scale = np.max(np.abs(born_t_values(v, "left", "plus", p)))
    for sign in ("plus", "minus"):
        sup = np.max(np.abs(born_t_values(v, "right", sign, p)))
        assert sup < 1e-14 * left_scale


def test_forward_amplitude_zero_is_quadratic():
    # the constructed left amplitude vanishes at theta = 0 like
    # -sqrt(2/pi) a k^2 gt(0) theta^2 / 2
    params = _construction()
    v = build_potential_2d(params)
    k, a = params.ctx.k, params.slab
    g0b30 = 1e-2 * 1.0 / 30.0
    assert abs(born_f_2d(v, "left", 0.0)) < 1e-20
    for th in (0.01, 0.005):
        f = born_f_2d(v, "left", th)
        want = -np.sqrt(2.0 / np.pi) * a * k**2 * g0b30 * th**2 / 2.0
        assert f.real == pytest.approx(want, rel=2e-2)
        assert abs(f) == pytest.approx(abs(want), rel=2e-2)
    # quadratic order: |f| / theta^2 is already angle-independent at 1e-4
    # (the complex phase still carries the O(theta) envelope centroid)
    r = abs(born_f_2d(v, "left", 0.01)) / 1e-4
    r2 = abs(born_f_2d(v, "left", 0.005)) / 2.5e-5
    assert abs(r / r2 - 1.0) < 5e-3


def test_forward_reciprocity_of_the_born_amplitude():
    v = random_smooth_potential(17)
    fl = born_f_2d(v, "left", 0.0, ctx=WaveContext(k=K4))
    fr = born_f_2d(v, "right", np.pi, ctx=WaveContext(k=K4))
    th = np.linspace(-1.3, 1.3, 41)
    scale = np.max(np.abs(born_f_2d(v, "left", th, ctx=WaveContext(k=K4))))
    assert abs(fl - fr) < 1e-13 * scale


def test_amplitude_follows_t_on_both_halves():
    v = random_smooth_potential(23)
    ctx = WaveContext(k=K4)
    # forward half: p = k sin(theta), plus branch
    th_f = np.array([-0.4, 0.0, 0.7])
    t = born_t_values(v, "left", "plus", ctx.k * np.sin(th_f), ctx=ctx)
    assert np.allclose(
        amplitude_from_t(t, th_f, ctx), born_f_2d(v, "left", th_f, ctx=ctx), rtol=1e-13
    )
    # backward half: same transverse momentum law, minus branch
    th_b = np.pi - np.array([-0.4, 0.0, 0.7])
    t = born_t_values(v, "left", "minus", ctx.k * np.sin(th_b), ctx=ctx)
    assert np.allclose(
        amplitude_from_t(t, th_b, ctx), born_f_2d(v, "left", th_b, ctx=ctx), rtol=1e-13
    )


def test_amplitude_from_t_normalization():
    ctx = WaveContext(k=1.0)
    got = complex(amplitude_from_t(np.array([1.0]), np.array([0.0]), ctx)[0])
    assert got == pytest.approx(-1j / np.sqrt(2.0 * np.pi), rel=1e-15)


def test_grazing_guards():
    params = _construction()
    v = build_potential_2d(params)
    # f carries no 1/cos theta, so the amplitude is finite at grazing; only
    # the T route (1/omega) refuses it
    f = born_f_2d(v, "left", np.pi / 2)
    assert np.isfinite(f)
    assert f == pytest.approx(closed_form_f_left(params, np.pi / 2), rel=1e-12)
    with pytest.raises(ValueError):
        born_t_values(v, "left", "plus", v.params.ctx.k)
    with pytest.raises(ValueError):
        born_t_values(v, "up", "plus", 0.0)
    with pytest.raises(ValueError):
        born_t_values(v, "left", "sideways", 0.0)
    with pytest.raises(ValueError):
        closed_form_t_left(params, "sideways", 0.0)
    # a potential that is not a construction carries no wavenumber
    with pytest.raises(ValueError):
        born_f_2d(random_smooth_potential(1), "left", 0.0)


def test_amplitudes_return_complex_for_a_scalar_and_keep_an_array_shape():
    params = _construction()
    v = build_potential_2d(params)
    v3 = build_potential_3d(
        replace(params, envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 1.0)))
    )
    routes = {
        "closed_form_f_left": lambda x: closed_form_f_left(params, x),
        "closed_form_t_left": lambda x: closed_form_t_left(params, "plus", x),
        "born_f_2d": lambda x: born_f_2d(v, "left", x),
        "born_t_values": lambda x: born_t_values(v, "left", "plus", x),
        "born_t_3d": lambda x: born_t_3d(v3, "left", "plus", x, 0.5 * x),
        "born_f_3d": lambda x: born_f_3d(v3, "left", x, 0.7),
    }
    grid = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, 0.6]])
    for name, route in routes.items():
        scalar = route(0.3)
        assert type(scalar) is complex, name
        array = route(grid)
        assert array.shape == grid.shape, name
        assert array[0, 2] == pytest.approx(scalar, rel=1e-13), name


@pytest.mark.parametrize("tabulated", [False, True])
def test_quadrature_transform_does_not_depend_on_the_batch(tabulated):
    # potentials with no closed-form transform go through the x-quadrature
    v = random_smooth_potential(1)
    if tabulated:
        v = potential_from_samples(*sample_potential(v, 41, 41))
    ctx = WaveContext(k=K4)
    th = np.r_[0.0, np.random.default_rng(5).uniform(-np.pi, np.pi, 100)]
    for side in ("left", "right"):
        batch = born_f_2d(v, side, th, ctx)
        assert np.array_equal(born_f_2d(v, side, th[:3], ctx), batch[:3])
        assert np.array_equal(born_f_2d(v, side, th.reshape(-1, 1), ctx).ravel(), batch)
        vtt = _born_vtt_2d(v, th, side == "right", ctx)
        for i, t in enumerate(th[:20]):
            assert np.array_equal(born_f_2d(v, side, th[i : i + 1], ctx), batch[i : i + 1])
            # a scalar call divides its one sample as a Python complex
            assert born_f_2d(v, side, t, ctx) == _amplitude_2d(vtt[i])
    # the forward sample alone equals element 0 of a 3- and a 101-angle batch
    alone = born_f_2d(v, "left", 0.0, ctx)
    assert alone == born_f_2d(v, "left", th[:3], ctx)[0] == born_f_2d(v, "left", th, ctx)[0]


def test_amplitude_table_round_trip_and_validation():
    params = _construction()
    v = build_potential_2d(params)
    th = np.linspace(-1.2, 1.2, 161)
    fb = amplitude_table(v, "left", th, method="born")
    fc = amplitude_table(v, "left", th, method="closed")
    assert np.max(np.abs(fb - fc)) < 1e-12 * np.max(np.abs(fb))
    with pytest.raises(ValueError):
        amplitude_table(v, "right", th, method="closed")
    with pytest.raises(ValueError):
        amplitude_table(v, "left", th, method="magic")


def test_3d_right_invisibility_and_reciprocity():
    ctx = WaveContext(k=K4)
    params = ConstructionParams(
        ell=-1,
        m=1,
        envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 1.0)),
        ctx=ctx,
        slab=1.0,
    )
    v = build_potential_3d(params)
    rng = np.random.default_rng(6)
    r = 0.97 * ctx.k * np.sqrt(rng.uniform(0, 1, 40))
    ph = rng.uniform(0, 2 * np.pi, 40)
    px, py = r * np.cos(ph), r * np.sin(ph)
    left = max(
        np.max(np.abs(born_t_3d(v, "left", "plus", px, py))),
        np.max(np.abs(born_t_3d(v, "left", "minus", px, py))),
    )
    for sign in ("plus", "minus"):
        assert np.max(np.abs(born_t_3d(v, "right", sign, px, py))) < 1e-14 * left
    az = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    fl = born_f_3d(v, "left", 0.0, az)
    fr = born_f_3d(v, "right", np.pi, az)
    th = np.linspace(0.0, 1.5, 25)
    scale = np.max(np.abs(born_f_3d(v, "left", th[:, None], az[None, :])))
    assert np.max(np.abs(fl - fr)) < 1e-13 * scale
    with pytest.raises(ValueError):
        born_t_3d(v, "left", "plus", ctx.k, 0.0)
    # the 3D f has no 1/cos theta either: it is finite at grazing and
    # continuous there (measured 1.6e-10 of the scale over the 1e-9 step)
    grazing = born_f_3d(v, "left", np.pi / 2, az)
    assert np.all(np.isfinite(grazing))
    near = born_f_3d(v, "left", np.pi / 2 - 1e-9, az)
    assert np.max(np.abs(grazing - near)) < 1e-8 * scale
    with pytest.raises(ValueError):
        born_t_values(v, "left", "plus", 0.0)
    with pytest.raises(ValueError):
        born_f_2d(v, "left", 0.0)
    # and the 3D routes refuse a 2D potential
    v2 = build_potential_2d(replace(params, envelope=quartic_envelope(1e-2, 1.0)))
    with pytest.raises(ValueError):
        born_t_3d(v2, "left", "plus", 0.0, 0.0)
    with pytest.raises(ValueError):
        born_f_3d(v2, "left", 0.0, 0.0)


def test_closed_form_pole_neighborhoods_are_finite():
    # negative harmonics put removable zeros of the denominator on the
    # physical shift range; values must stay smooth through them
    params = _construction(ell=-1, m=1, k=2 * np.pi)  # k = K: shift hits -ell K at cos = 0 edge
    th = np.linspace(0.0, np.pi / 2, 200)  # up to grazing itself
    f = closed_form_f_left(params, th)
    assert np.all(np.isfinite(f))
    t = closed_form_t_left(params, "minus", np.linspace(-0.999, 0.999, 501) * 2 * np.pi)
    assert np.all(np.isfinite(t))
