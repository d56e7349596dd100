"""PotentialSpec containers, sampling, and generic Fourier transforms."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    ConstructionParams,
    PotentialSpec,
    SeparableTerm,
    WaveContext,
    build_potential_2d,
    potential_from_samples,
    quartic_envelope,
    random_smooth_potential,
    sample_potential,
)
from uniscat.potentials import QUAD_NODES, _gl_rule


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
    assert v.terms.fx(0.5).shape == (3,) and v.terms.fy_ft(np.zeros(2)).shape == (2, 3)
    assert v.value(-0.1, 0.0) == 0.0
    assert v.value(1.1, 0.0) == 0.0
    assert v.value(0.5, 0.3) != 0.0


def test_generic_ft_matches_brute_force(brute_ft_2d):
    v = random_smooth_potential(5)
    rng = np.random.default_rng(1)
    kx = rng.uniform(-20.0, 20.0, 8)
    ky = rng.uniform(-10.0, 10.0, 8)
    got = v.ft(kx, ky)
    want = brute_ft_2d(v, kx, ky)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_transverse_ft_reduces_to_term_sum():
    v = random_smooth_potential(9)
    q = np.array([-3.0, 0.0, 4.5])
    for x in (0.2, 0.55, 0.9):
        direct = np.sum(v.terms.fx(x) * v.terms.fy_ft(q), axis=-1)
        assert np.allclose(v.ft_y(x, q), direct, rtol=1e-13, atol=1e-15)
    assert v.ft_y(-0.5, 1.0) == 0.0
    assert np.array_equal(v.ft_y(1.7, q), np.zeros(3))


def test_transverse_ft_quadrature_route_agrees_with_terms():
    env = quartic_envelope(1.0, 1.0)
    construction = build_potential_2d(
        ConstructionParams(ell=-1, m=1, envelope=env, ctx=WaveContext(k=4.0 * np.pi))
    )
    q = np.array([-2.0, 1.0, 5.0])
    for v in (random_smooth_potential(3), construction):
        # strip the separable decomposition to force the quadrature path
        vq = replace(v, terms=None)
        for x in (0.35, 0.7):
            a = v.ft_y(x, q)
            b = vq.ft_y(x, q)
            assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_transverse_transform_takes_an_array_of_x():
    # one fx evaluation and one product for a whole array of x must equal
    # the stacked one-x transforms, with exact zeros outside the support;
    # neither fx below vanishes there by itself: the term is e^{2ix} times a
    # y-box (whose transform is a sinc), and the spline of the sampled copy
    # extrapolates
    terms = PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(-0.5, 0.5),
        value_fn=lambda x, y: np.exp(2j * x) * (np.abs(y) <= 0.5),
        terms=SeparableTerm(
            fx=lambda x: np.exp(2j * np.asarray(x))[..., None],
            fy_ft=lambda q: np.sinc(q / (2.0 * np.pi))[..., None],
        ),
    )
    v = random_smooth_potential(6)
    copy = potential_from_samples(*sample_potential(v, 41, 41))
    assert copy.terms is not None and copy.x_support == (0.0, 1.0)
    # record which x reach the copy's one fx evaluation
    seen = []

    def fx(x):
        seen.append(x)
        return copy.terms.fx(x)

    spy = replace(copy, terms=copy.terms._replace(fx=fx))
    q = np.array([[-3.0, 0.0], [1.5, 4.0]])
    sorted_xs = np.array([-0.5, 0.0, 0.13, 0.5, 0.87, 1.0, 1.7])
    # a permuted array takes the same route as a sorted one; an array inside
    # the support skips the zero-filled buffer
    permuted = sorted_xs[[3, 6, 1, 4, 0, 5, 2]]
    inside = np.array([0.0, 0.13, 0.5, 0.87, 1.0])
    for xs in (sorted_xs, permuted, inside):
        outside = (xs < 0.0) | (xs > 1.0)
        for pot in (terms, spy):
            seen.clear()
            got = pot._transverse_transform(q)(xs)
            if pot is spy:
                assert len(seen) == 1 and np.array_equal(seen[0], xs[~outside])
            want = np.stack([pot.ft_y(x, q) for x in xs])
            assert got.shape == xs.shape + q.shape
            assert np.all(got[outside] == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("samples", [41, 401])
def test_tensor_grid_values_equal_the_pointwise_values(samples):
    # the spline's tensor evaluation serves the kernel of a tabulated copy,
    # so it must reproduce the pointwise values exactly, on a chunk of x-nodes
    # against the y-quadrature nodes
    v = random_smooth_potential(6)
    copy = potential_from_samples(*sample_potential(v, samples, samples))
    # the 65 nodes of the sixth 32-slice chunk of a 400-slice evolution
    x = np.linspace(*copy.x_support, 801)[320:385]
    yn, wn = _gl_rule(QUAD_NODES, *copy.y_support)
    want = wn * copy.value(x[:, None], yn)
    assert np.array_equal(copy.terms.fx(x), want)


def test_sampled_terms_take_x_of_any_shape_and_order():
    # the copy's y-quadrature terms evaluate the spline on x by the y-nodes
    # for any x, unsorted and repeated or two-dimensional, with the pointwise
    # values bit for bit
    copy = potential_from_samples(*sample_potential(random_smooth_potential(6), 101, 101))
    yn, wn = _gl_rule(QUAD_NODES, *copy.y_support)
    rng = np.random.default_rng(8)
    unsorted = rng.uniform(*copy.x_support, 37)
    unsorted[5] = unsorted[30]
    for x in (unsorted, unsorted[:36].reshape(4, 9), np.float64(0.4)):
        got = copy.terms.fx(x)
        assert got.shape == np.shape(x) + yn.shape
        assert np.array_equal(got, wn * copy.value(x[..., None], yn))
    q = np.array([-3.0, 0.5])
    assert np.array_equal(copy.terms.fy_ft(q), np.exp(-1j * np.multiply.outer(q, yn)))


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


@pytest.mark.parametrize(
    "x, values, match",
    [
        (np.linspace(0.0, 1.0, 3), np.zeros((3, 5)), "x must be 1-D with at least 4 samples"),
        (np.array([0.0, 0.5, 0.5, 1.0, 1.5]), np.zeros((5, 5)), "strictly increasing"),
        (np.linspace(0.0, 1.0, 5), np.full((5, 5), np.nan), "must be finite"),
    ],
)
def test_potential_from_samples_rejects_bad_samples(x, values, match):
    with pytest.raises(ValueError, match=match):
        potential_from_samples(x, np.linspace(0.0, 1.0, 5), values)


@pytest.mark.parametrize("nx, ny", [(4, 4), (9, 13)])
def test_sampled_spline_reproduces_a_bicubic(nx, ny):
    # a not-a-knot cubic spline reproduces any cubic, so the tensor spline
    # reproduces p(x) q(y) exactly, on any strictly increasing axes
    rng = np.random.default_rng(nx)
    x = np.linspace(0.0, 2.0, nx) + rng.uniform(0.0, 0.3, nx) * 2.0 / nx
    y = np.linspace(-1.0, 1.5, ny) + rng.uniform(0.0, 0.3, ny) * 2.5 / ny

    def p(t):
        return 1.0 + 2.0 * t - 0.7 * t**2 + 0.3 * t**3

    def q(t):
        return (0.5 - 1.0j) - 0.2j * t + 1.1 * t**2 - 0.4j * t**3

    copy = potential_from_samples(x, y, p(x)[:, None] * q(y))
    xs = np.sort(rng.uniform(x[0], x[-1], 50))
    ys = np.sort(rng.uniform(y[0], y[-1], 40))
    want = p(xs)[:, None] * q(ys)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(copy.value(xs[:, None], ys) - want)) <= 1e-13 * scale
    yn, wn = _gl_rule(QUAD_NODES, *copy.y_support)
    want = wn * p(xs)[:, None] * q(yn)
    assert np.max(np.abs(copy.terms.fx(xs) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nx, ny", [(41, 41), (101, 81), (401, 401)])
def test_sampled_spline_is_the_fitpack_interpolant(nx, ny):
    # FITPACK's interpolating bicubic spline (no smoothing) has the
    # not-a-knot knots, and it clamps its argument to the sample rectangle;
    # SciPy is a test-only dependency (the `test` extra)
    from scipy.interpolate import RectBivariateSpline

    rng = np.random.default_rng([nx, ny])
    x = np.linspace(0.0, 1.0, nx)
    y = np.linspace(-2.3, 2.1, ny)
    values = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    copy = potential_from_samples(x, y, values)
    re = RectBivariateSpline(x, y, values.real)
    im = RectBivariateSpline(x, y, values.imag)
    # three quarters of the points lie outside the rectangle
    xs = rng.uniform(-0.5, 1.5, 20000)
    ys = rng.uniform(-4.5, 4.3, 20000)
    want = re(xs, ys, grid=False) + 1j * im(xs, ys, grid=False)
    assert np.max(np.abs(copy.value(xs, ys) - want)) <= 1e-14 * np.max(np.abs(values))


def test_dimension_guards():
    v = random_smooth_potential(0)
    with pytest.raises(ValueError):
        v.value(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        v.ft(1.0, 1.0, 1.0)
    v3 = PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(0.0, 1.0),
        z_support=(0.0, 1.0),
        value_fn=lambda x, y, z: x * y * z,
    )
    with pytest.raises(ValueError):
        v3.value(0.5, 0.5)
    with pytest.raises(ValueError):
        v3.ft(1.0, 1.0)
    with pytest.raises(ValueError):
        sample_potential(v3, 5, 5)


def test_separable_3d_box_ft_by_quadrature():
    # a product potential with a known transform: the 3D quadrature route
    # must reproduce the product of 1D factors
    def value_fn(x, y, z):
        box = ((x >= 0) & (x <= 1) & (y >= 0) & (y <= 1) & (z >= 0) & (z <= 1))
        return np.where(box, np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0j), 0.0)

    v = PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(0.0, 1.0),
        z_support=(0.0, 1.0),
        value_fn=value_fn,
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
    for nx, ny in ((0, 7), (11, 0), (-3, 7)):
        with pytest.raises(ValueError, match="at least 1"):
            sample_potential(v, nx=nx, ny=ny)
    # a fractional or boolean count is refused, not truncated
    for nx, ny in ((2.9, 3), (3, True), (np.inf, 3)):
        with pytest.raises(ValueError, match="integer"):
            sample_potential(v, nx=nx, ny=ny)
    assert sample_potential(v, nx=11.0, ny=7)[2].shape == (11, 7)


def test_term_container_is_lightweight():
    t = SeparableTerm(fx=np.cos, fy_ft=np.exp)
    assert t.fx is np.cos and t.fy_ft is np.exp
