"""Transverse envelope profiles and their transforms.

The Fourier convention throughout is gt(q) = integral dy exp(-i q y) g(y);
every analytic transform here is checked against direct quadrature of that
integral.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import Envelope, gaussian_envelope, quartic_envelope
from uniscat.envelopes import _quartic_moment_integral


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


def test_quartic_ft_matches_quadrature(envelope_ft_quadrature):
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
    want = envelope_ft_quadrature(env, q)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_quartic_ft_branch_seam_is_continuous():
    # the series/closed-form handoff at |q b| = 1 must be seamless; at a
    # 2e-12 argument spacing the function itself moves by ~3e-14, so any
    # visible jump would be a branch mismatch
    env = quartic_envelope(1.0, 1.0)
    below, above = complex(env.ft(1.0 - 1e-12)), complex(env.ft(1.0 + 1e-12))
    assert abs(below - above) < 1e-10 * abs(below)


def _extended_gauss_legendre(n):
    """Gauss-Legendre nodes and weights on (-1, 1) in long double: the
    double nodes polished by Newton steps on P_n."""
    x = leggauss(n)[0].astype(np.longdouble)
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def test_quartic_moment_integral_matches_a_brute_reference():
    # the closed form cancels most just above the switch at |q b| = 1, so
    # the band around it is dense; the brute rule runs in long double,
    # since in double its own cancellation at |q b| = 60 is ~1e-12
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the reference needs an extended-precision long double")
    x, w = _extended_gauss_legendre(96)
    for b in (1.0, 1.3):
        t = np.concatenate([np.linspace(0.0, 60.0, 3001), 1.0 + np.linspace(-0.02, 0.02, 2001)])
        q = np.concatenate([t, -t]) / b
        bl = np.longdouble(b)
        y = 0.5 * bl * (x + 1)
        wg = 0.5 * bl * w * y**2 * (y - bl) ** 2
        phase = np.outer(q.astype(np.longdouble), y)
        ref_re = (np.cos(phase) @ wg).astype(float)
        ref_im = (-np.sin(phase) @ wg).astype(float)
        re, im = _quartic_moment_integral(q, b)
        # |I| is below int |y^2 (y-b)^2| = b^5 / 30 and below the amplitude
        # b^5 sqrt(h^4 + 3 h^2 + 9) / (2 h^5) of its oscillation (h = q b / 2),
        # which vanishes only at the zeros of that oscillation; the error is
        # measured against the smaller bound
        h = np.maximum(0.5 * b * np.abs(q), 1e-3)
        scale = b**5 * np.minimum(1.0 / 30.0, np.sqrt(h**4 + 3 * h**2 + 9) / (2 * h**5))
        assert np.all(np.hypot(ref_re, ref_im) <= scale * (1 + 1e-12))
        err = np.hypot(re - ref_re, im - ref_im) / scale
        assert np.max(err) <= 3e-13, (b, t[np.argmax(err) % t.size])


@pytest.mark.parametrize("kind", ["gaussian", "quartic"])
def test_even_part_transform(kind):
    env = Envelope(kind=kind, g0=0.3 - 0.7j, b=1.3)
    rng = np.random.default_rng(5)
    q = np.concatenate([rng.uniform(-40.0, 40.0, 200), rng.uniform(-0.7, 0.7, 50), [0.0, 1 / 1.3]])
    want = 0.5 * (env.ft(q) + env.ft(-q))
    assert np.max(np.abs(env.ft_even(q) - want)) <= 1e-15 * np.max(np.abs(want))
    assert isinstance(env.ft_even(0.4), complex)


def test_gaussian_ft_is_its_closed_form_bit_for_bit():
    env = gaussian_envelope(0.5 - 0.2j, 0.8)
    q = np.linspace(-9.0, 9.0, 101)
    want = env.g0 * env.b * np.sqrt(2.0 * np.pi) * np.exp(-(env.b**2) * q**2 / 2.0)
    assert np.array_equal(env.ft(q), want)
    assert env.ft(q[7]) == want[7]


def test_quartic_second_derivative():
    env = quartic_envelope(3.0, 2.0)
    y = np.array([0.3, 1.0, 1.7])
    want = 3.0 * 2.0**-4 * (12.0 * y**2 - 12.0 * 2.0 * y + 2.0 * 2.0**2)
    assert np.allclose(env.second_derivative(y), want, rtol=1e-14)
    assert env.second_derivative(-0.5) == 0.0
    assert env.second_derivative(2.5) == 0.0


def test_gaussian_ft_closed_form_and_quadrature(envelope_ft_quadrature):
    env = gaussian_envelope(0.5, 0.8)
    q = np.array([0.0, 0.7, -2.1, 5.0])
    want = 0.5 * 0.8 * np.sqrt(2.0 * np.pi) * np.exp(-(0.8**2) * q**2 / 2.0)
    assert np.allclose(env.ft(q), want, rtol=1e-14)
    quad = envelope_ft_quadrature(env, q, n=600)
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


def test_envelope_validation():
    with pytest.raises(ValueError):
        quartic_envelope(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_envelope(1.0, -2.0)
    with pytest.raises(ValueError):
        Envelope(kind="triangle", g0=1.0, b=1.0)
    for g0 in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="strength must be finite"):
            quartic_envelope(g0, 1.0)
        with pytest.raises(ValueError, match="strength must be finite"):
            Envelope(kind="gaussian", g0=g0, b=1.0)
