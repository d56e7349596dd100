"""Complex scattering potentials as value + Fourier-transform bundles.

A potential enters the scattering machinery through exactly three queries:

* ``value(x, y[, z])``        -- the complex field itself,
* ``ft(Kx, Ky[, Kz])``        -- the full Fourier transform
                                 integral dx dy exp(-i(Kx x + Ky y)) v,
* ``ft_y(x, q)``  (2D only)   -- the transform in the transverse direction
                                 at fixed x, which is what the
                                 momentum-space transfer matrix consumes.

:class:`PotentialSpec` bundles those queries with the support box.  Closed
forms are attached where they exist (the one-way-invisible construction in
:mod:`uniscat.construct` supplies them); otherwise the transforms fall back
to Gauss-Legendre quadrature over the support at a resolution far beyond the
phase content of any argument this package produces (|K| <= a few times k).

Potentials that are finite sums of separable terms f_x(x) f_y(y) with
analytic transverse transforms declare them as ``terms``; the transfer-matrix
kernel assembly then costs a few scalar products per slice instead of a
quadrature, which is what keeps dense parameter scans cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import RectBivariateSpline

__all__ = [
    "SeparableTerm",
    "PotentialSpec",
    "potential_from_samples",
    "random_smooth_potential",
    "sample_potential",
]


class SeparableTerm(NamedTuple):
    """One product contribution f_x(x) * f_y(y), with the y-transform attached.

    All three callables must accept numpy arrays elementwise.
    """

    fx: Callable
    fy: Callable
    fy_ft: Callable


@lru_cache(maxsize=64)
def _gl_rule(n: int, a: float, b: float):
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A complex potential with rectangular (2D) or box (3D) support.

    Attributes
    ----------
    kind : str
        "constructed2d", "constructed3d" or "custom2d".
    x_support, y_support : (float, float)
        Support intervals; the potential vanishes outside.
    z_support : (float, float) or None
        Present only for 3D potentials; the scattering axis is then z.
    value_fn : callable
        Vectorized (x, y) -> complex (2D) or (x, y, z) -> complex (3D).
    ft_fn : callable or None
        Closed-form full Fourier transform, same argument order as `ft`.
    terms : tuple of SeparableTerm or None
        Separable decomposition for fast transverse transforms (2D only).
    params : object or None
        Construction parameters when kind is constructed*.
    label : str
        Short identifier used in exported metadata.
    """

    kind: str
    x_support: tuple
    y_support: tuple
    value_fn: Callable
    z_support: tuple = None
    ft_fn: Callable = None
    terms: tuple = None
    params: object = None
    label: str = "potential"
    quad_nodes: int = field(default=160, repr=False)

    @property
    def dim(self) -> int:
        return 2 if self.z_support is None else 3

    # -- values ---------------------------------------------------------

    def value(self, x, y, z=None):
        if self.dim == 2:
            if z is not None:
                raise ValueError("2D potential takes no z argument")
            x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
            out = np.asarray(self.value_fn(x, y), dtype=complex)
        else:
            if z is None:
                raise ValueError("3D potential needs a z argument")
            x, y, z = np.broadcast_arrays(
                np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
            )
            out = np.asarray(self.value_fn(x, y, z), dtype=complex)
        return out if out.ndim else complex(out)

    # -- Fourier transforms ---------------------------------------------

    def ft(self, kx, ky, kz=None):
        """Full Fourier transform at paired arguments (broadcast elementwise)."""
        if self.dim == 2:
            if kz is not None:
                raise ValueError("2D potential takes no Kz argument")
            kx, ky = np.broadcast_arrays(np.asarray(kx, float), np.asarray(ky, float))
            if self.ft_fn is not None:
                out = np.asarray(self.ft_fn(kx, ky), dtype=complex)
            elif self.terms is not None:
                out = self._ft_from_terms(kx, ky)
            else:
                out = self._ft_quad_2d(kx, ky)
        else:
            if kz is None:
                raise ValueError("3D potential needs a Kz argument")
            kx, ky, kz = np.broadcast_arrays(
                np.asarray(kx, float), np.asarray(ky, float), np.asarray(kz, float)
            )
            if self.ft_fn is not None:
                out = np.asarray(self.ft_fn(kx, ky, kz), dtype=complex)
            else:
                out = self._ft_quad_3d(kx, ky, kz)
        return out if out.ndim else complex(out)

    def ft_y(self, x, q):
        """Transverse transform vtld(x, q) = integral dy exp(-i q y) v(x, y).

        x is a scalar, q a scalar or array.  2D only.
        """
        if self.dim != 2:
            raise ValueError("transverse transform is defined for 2D potentials")
        x = float(x)
        q = np.asarray(q, dtype=float)
        x0, x1 = self.x_support
        if x < x0 or x > x1:
            return np.zeros(q.shape, dtype=complex) if q.ndim else 0.0j
        if self.terms is not None:
            out = np.zeros(q.shape, dtype=complex)
            for t in self.terms:
                out = out + np.asarray(t.fx(x)) * np.asarray(t.fy_ft(q), dtype=complex)
        else:
            yn, wn = _gl_rule(self.quad_nodes, *map(float, self.y_support))
            vals = self.value(np.full(yn.shape, x), yn)
            out = np.exp(-1j * np.multiply.outer(q, yn)) @ (wn * vals)
        return out if out.ndim else complex(out)

    # -- quadrature fallbacks -------------------------------------------

    def _ft_from_terms(self, kx, ky):
        xn, wn = _gl_rule(self.quad_nodes, *map(float, self.x_support))
        ex = np.exp(-1j * np.multiply.outer(kx, xn))
        out = np.zeros(kx.shape, dtype=complex)
        for t in self.terms:
            xint = ex @ (wn * np.asarray(t.fx(xn), dtype=complex))
            out = out + xint * np.asarray(t.fy_ft(ky), dtype=complex)
        return out

    def _ft_quad_2d(self, kx, ky):
        xn, wx = _gl_rule(self.quad_nodes, *map(float, self.x_support))
        yn, wy = _gl_rule(self.quad_nodes, *map(float, self.y_support))
        vw = self.value(xn[:, None], yn[None, :]) * wx[:, None] * wy[None, :]
        ex = np.exp(-1j * np.multiply.outer(kx, xn))
        ey = np.exp(-1j * np.multiply.outer(ky, yn))
        flat_ex = ex.reshape(-1, xn.size)
        flat_ey = ey.reshape(-1, yn.size)
        out = np.einsum("ma,ab,mb->m", flat_ex, vw, flat_ey)
        return out.reshape(kx.shape)

    def _ft_quad_3d(self, kx, ky, kz, n=None):
        n = n or max(48, self.quad_nodes // 2)
        xn, wx = _gl_rule(n, *map(float, self.x_support))
        yn, wy = _gl_rule(n, *map(float, self.y_support))
        zn, wz = _gl_rule(n, *map(float, self.z_support))
        vw = (
            self.value(xn[:, None, None], yn[None, :, None], zn[None, None, :])
            * wx[:, None, None]
            * wy[None, :, None]
            * wz[None, None, :]
        )
        ex = np.exp(-1j * np.multiply.outer(kx, xn)).reshape(-1, xn.size)
        ey = np.exp(-1j * np.multiply.outer(ky, yn)).reshape(-1, yn.size)
        ez = np.exp(-1j * np.multiply.outer(kz, zn)).reshape(-1, zn.size)
        out = np.einsum("ma,mb,mc,abc->m", ex, ey, ez, vw)
        return out.reshape(kx.shape)


def potential_from_samples(x, y, values, label="sampled") -> PotentialSpec:
    """Build a custom2d potential from a complex field sampled on a rectangle.

    Cubic bivariate splines (real and imaginary parts separately) interpolate
    between samples; the support is exactly the sample rectangle, so the
    samples should cover the region where the field is smooth and nonzero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.shape != (x.size, y.size):
        raise ValueError(
            f"sample array must have shape (len(x), len(y)) = "
            f"({x.size}, {y.size}), got {values.shape}"
        )
    sre = RectBivariateSpline(x, y, values.real)
    sim = RectBivariateSpline(x, y, values.imag)

    def value_fn(xx, yy):
        return sre(xx, yy, grid=False) + 1j * sim(xx, yy, grid=False)

    return PotentialSpec(
        kind="custom2d",
        x_support=(float(x[0]), float(x[-1])),
        y_support=(float(y[0]), float(y[-1])),
        value_fn=value_fn,
        label=label,
    )


def random_smooth_potential(
    seed, n_terms=3, amplitude=1.0, x_length=1.0, label=None
) -> PotentialSpec:
    """Deterministic pseudo-random smooth complex potential on [0, L] x R.

    A sum of separable terms: smooth sine profiles along x times complex
    Gaussian wave packets in y.  Every term carries an analytic transverse
    transform, so both the Born amplitudes and the transfer-matrix kernel
    are assembled without numerical quadrature.  Used by the verification
    command and by randomized consistency tests.
    """
    rng = np.random.default_rng(seed)
    L = float(x_length)
    terms = []
    y_lo, y_hi = np.inf, -np.inf
    for _ in range(int(n_terms)):
        z = amplitude * (rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform()))
        nx = int(rng.integers(1, 4))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mu = rng.uniform(-0.5, 0.5)
        sigma = rng.uniform(0.3, 0.8)
        qy = rng.uniform(-2.0, 2.0)
        y_lo = min(y_lo, mu - 8.0 * sigma)
        y_hi = max(y_hi, mu + 8.0 * sigma)

        def fx(x, z=z, nx=nx, phase=phase):
            x = np.asarray(x, dtype=float)
            inside = (x >= 0.0) & (x <= L)
            return np.where(inside, z * np.sin(np.pi * nx * x / L + phase) ** 2, 0.0)

        def fy(y, mu=mu, sigma=sigma, qy=qy):
            y = np.asarray(y, dtype=float)
            return np.exp(-((y - mu) ** 2) / (2.0 * sigma**2) + 1j * qy * y)

        def fy_ft(q, mu=mu, sigma=sigma, qy=qy):
            q = np.asarray(q, dtype=float)
            return (
                sigma
                * np.sqrt(2.0 * np.pi)
                * np.exp(-1j * (q - qy) * mu - sigma**2 * (q - qy) ** 2 / 2.0)
            )

        terms.append(SeparableTerm(fx=fx, fy=fy, fy_ft=fy_ft))

    def value_fn(x, y):
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for t in terms:
            out = out + np.asarray(t.fx(x)) * np.asarray(t.fy(y))
        return out

    return PotentialSpec(
        kind="custom2d",
        x_support=(0.0, L),
        y_support=(float(y_lo), float(y_hi)),
        value_fn=value_fn,
        terms=tuple(terms),
        label=label or f"random-smooth-{seed}",
    )


def sample_potential(v: PotentialSpec, nx=101, ny=101):
    """Sample a 2D potential on a uniform grid over its support.

    Returns (x, y, values) with values[i, j] = v(x[i], y[j]); used by the
    export command.
    """
    if v.dim != 2:
        raise ValueError("sampling export is for 2D potentials")
    x = np.linspace(*v.x_support, int(nx))
    y = np.linspace(*v.y_support, int(ny))
    return x, y, v.value(x[:, None], y[None, :])
