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

One factorization vtld(x, q) = sum_t fy_t(q) fx_t(x) defines every 2D
transverse transform: ``ft_y``, the quadrature ``ft`` and the transfer-matrix
kernel.  A potential declares it as one :class:`SeparableTerm` whose two
callables carry the term index t on a trailing axis.  Finite sums of
separable terms f_x(x) f_y(y) with analytic transverse transforms declare
fx_t = f_x and fy_t = the transform of f_y, so the kernel costs one
vectorized evaluation per chunk of slices instead of a quadrature, which is
what keeps dense parameter scans cheap.  Otherwise each y-quadrature node
y_j is one term, with fy_j(q) = exp(-i q y_j) and fx_j(x) = w_j v(x, y_j):
a tabulated potential declares that pair with its spline on the x by y-node
tensor grid, and a potential without terms falls back to it through
``value``.  Either way the transform takes an array of x at once, as
fx(x) @ fy.T, so a chunk of x-nodes costs one fx evaluation and one matrix
product.

A tabulated potential (``potential_from_samples``) interpolates its samples
with a not-a-knot bicubic spline in numpy, the interpolant FITPACK builds
with no smoothing; outside the samples it clamps its argument to the sample
rectangle, as FITPACK does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import _count

__all__ = [
    "SeparableTerm",
    "PotentialSpec",
    "potential_from_samples",
    "random_smooth_potential",
    "sample_potential",
]

# Gauss-Legendre nodes per axis of the quadrature fallbacks; the 3D
# transform uses half as many per axis.
QUAD_NODES = 160


class SeparableTerm(NamedTuple):
    """The products sum_t f_x,t(x) f_y,t(y), as the pair (fx, fy_ft).

    fx(x) gives every f_x,t and fy_ft(q) every transverse transform of
    f_y,t, each with the shape of its argument plus a trailing term axis;
    the f_y,t themselves are carried only by the potential's value function.
    """

    fx: Callable
    fy_ft: Callable


# Separable terms in every random_smooth_potential.
RANDOM_TERMS = 3


@lru_cache(maxsize=64)
def _gl_rule(n: int, a: float, b: float):
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _quadrature_terms(y_support, on_nodes) -> SeparableTerm:
    """The y-quadrature as separable terms, one per node y_j: fy_j(q) =
    exp(-i q y_j) and fx_j(x) = w_j v(x, y_j), with on_nodes(x, yn) giving
    v(x[..., None], yn) for x of any shape."""
    yn, wn = _gl_rule(QUAD_NODES, *map(float, y_support))
    return SeparableTerm(
        fx=lambda x: wn * on_nodes(np.asarray(x, dtype=float), yn),
        fy_ft=lambda q: np.exp(-1j * np.multiply.outer(q, yn)),
    )


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A complex potential with rectangular (2D) or box (3D) support.

    ``value(*xyz)`` and ``ft(*ks)`` take exactly ``dim`` arguments (x, y
    or x, y, z; Kx, Ky or Kx, Ky, Kz), raise ValueError on any other count,
    and broadcast them against each other.

    Attributes
    ----------
    x_support, y_support : (float, float)
        Support intervals. The transforms and the transfer-matrix kernel
        treat the potential as zero outside them; ``value`` of a sampled
        copy (:func:`potential_from_samples`) clamps its arguments to them
        instead, as FITPACK's interpolant does.
    z_support : (float, float) or None
        Present only for 3D potentials; the scattering axis is then z.
    value_fn : callable
        Vectorized (x, y) -> complex (2D) or (x, y, z) -> complex (3D).
    ft_fn : callable or None
        Closed-form full Fourier transform, same argument order as `ft`.
    terms : SeparableTerm or None
        The transverse factorization (2D only; see the module docstring);
        without it, the y-quadrature of ``value``.
    params : object or None
        Construction parameters of a constructed potential.
    label : str
        Short identifier used in exported metadata.
    """

    x_support: tuple
    y_support: tuple
    value_fn: Callable
    z_support: tuple = None
    ft_fn: Callable = None
    terms: SeparableTerm = None
    params: object = None
    label: str = "potential"

    @property
    def dim(self) -> int:
        return 2 if self.z_support is None else 3

    def _args(self, args):
        """The query arguments as float arrays broadcast together, after
        checking that there is one per dimension."""
        if len(args) != self.dim:
            raise ValueError(
                f"{self.dim}D potential takes {self.dim} arguments, got {len(args)}"
            )
        return np.broadcast_arrays(*(np.asarray(a, float) for a in args))

    # -- values ---------------------------------------------------------

    def value(self, *xyz):
        out = np.asarray(self.value_fn(*self._args(xyz)), dtype=complex)
        return out if out.ndim else complex(out)

    # -- Fourier transforms ---------------------------------------------

    def ft(self, *ks):
        """Full Fourier transform at paired arguments (broadcast elementwise)."""
        ks = self._args(ks)
        if self.ft_fn is not None:
            out = np.asarray(self.ft_fn(*ks), dtype=complex)
        elif self.dim == 2:
            out = self._ft_quad_2d(*ks)
        else:
            out = self._ft_quad_3d(*ks)
        return out if out.ndim else complex(out)

    def ft_y(self, x, q):
        """Transverse transform vtld(x, q) = integral dy exp(-i q y) v(x, y).

        x is a scalar, q a scalar or array.  2D only.  This is the one-x
        case of the array-x transform the transfer-matrix kernel uses.
        """
        out = self._transverse_transform(q)(float(x))
        return out if out.ndim else complex(out)

    def _transverse_factors(self, q):
        """(fy, fx) with vtld(x, q) = fy @ fx(x); see the module docstring.

        fy has the shape of q plus a trailing term axis; fx(x) appends the
        term axis to the shape of x and is not support-checked.
        """
        if self.dim != 2:
            raise ValueError("transverse transform is defined for 2D potentials")
        terms = self.terms or _quadrature_terms(
            self.y_support, lambda x, yn: self.value(x[..., None], yn)
        )
        return np.asarray(terms.fy_ft(np.asarray(q, dtype=float)), dtype=complex), terms.fx

    def _transverse_transform(self, q):
        """x -> vtld(x, q) at fixed q, for a scalar or an array of x.

        The result has the shape of x followed by the shape of q.  All the
        x inside the support share one fx evaluation and one product
        fx(x) @ fy.T; every x outside it gives exact zeros.  When every x is
        inside, that product is the result itself, with no zero-filled
        buffer or masked copy.
        """
        fy, fx = self._transverse_factors(q)
        shape, fyt = fy.shape[:-1], fy.reshape(-1, fy.shape[-1]).T
        x0, x1 = self.x_support

        def vtld(x):
            x = np.asarray(x, dtype=float)
            inside = (x >= x0) & (x <= x1)
            if inside.all():
                return (fx(x.reshape(-1)) @ fyt).reshape(x.shape + shape)
            out = np.zeros(x.shape + shape, dtype=complex)
            if inside.any():
                out[inside] = (fx(x[inside]) @ fyt).reshape((-1,) + shape)
            return out

        return vtld

    # -- quadrature fallbacks -------------------------------------------

    def _ft_quad_2d(self, kx, ky):
        """sum_t fy_t(Ky) * integral dx exp(-i Kx x) fx_t(x), by x-quadrature.

        Each sample's x-quadrature is its own vector-matrix product (a
        stacked matmul, not one matrix product over the batch), so a sample
        rounds the same whatever batch it is evaluated in.
        """
        xn, wx = _gl_rule(QUAD_NODES, *map(float, self.x_support))
        fy, fx = self._transverse_factors(ky)
        ex = np.exp(-1j * np.multiply.outer(kx, xn))
        fxt = (ex[..., None, :] @ (wx[:, None] * fx(xn)))[..., 0, :]
        return np.sum(fy * fxt, axis=-1)

    def _ft_quad_3d(self, kx, ky, kz):
        n = QUAD_NODES // 2
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


def _not_a_knot_slopes(t, v):
    """Slopes at the knots t of the not-a-knot cubic splines through the
    columns of v (one spline per column, along axis 0).

    The slopes solve the spline's tridiagonal system (de Boor, ch. IV):
    interior rows from continuity of the second derivative, end rows from
    continuity of the third derivative across the second and the next-to-last
    knot.  One elimination sweep and one back substitution over the rows
    solve every column at once; every pivot is positive for strictly
    increasing knots.
    """
    h = np.diff(t)
    d = np.diff(v, axis=0) / h[:, None]
    sub = np.r_[h[1:], h[-2] + h[-1]]
    diag = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]]
    sup = np.r_[h[0] + h[1], h[:-1]]
    s = np.empty_like(v)
    s[0] = ((3.0 * h[0] + 2.0 * h[1]) * h[1] * d[0] + h[0] ** 2 * d[1]) / (h[0] + h[1])
    s[1:-1] = 3.0 * (h[1:, None] * d[:-1] + h[:-1, None] * d[1:])
    s[-1] = (h[-1] ** 2 * d[-2] + (2.0 * h[-2] + 3.0 * h[-1]) * h[-2] * d[-1]) / (h[-2] + h[-1])
    for i in range(1, t.size):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(t.size - 2, -1, -1):
        s[i] -= sup[i] * s[i + 1]
        s[i] /= diag[i]
    return s


def _hermite_weights(t, knots):
    """Cell index i of each t, with knots[i] <= t <= knots[i + 1], and the
    cubic Hermite weights of the values and the slopes at knots i and i + 1.

    t is first clamped to the knots' range, as FITPACK clamps its argument,
    so a spline is constant along the normal outside its sample rectangle.
    """
    t = np.clip(t, knots[0], knots[-1])
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
    h = knots[i + 1] - knots[i]
    u = (t - knots[i]) / h
    w = 1.0 - u
    return i, (
        w * w * (1.0 + 2.0 * u),
        u * u * (3.0 - 2.0 * u),
        h * u * w * w,
        -h * u * u * w,
    )


def _blend(a0, a1, s0, s1, w):
    """One Hermite step: values a0, a1 and slopes s0, s1 at a cell's two
    knots, combined with the weights of `_hermite_weights`."""
    return a0 * w[0] + a1 * w[1] + s0 * w[2] + s1 * w[3]


def potential_from_samples(x, y, values) -> PotentialSpec:
    """Build a potential from a complex field sampled on a rectangle.

    A not-a-knot bicubic spline interpolates between samples; it is the
    interpolating spline FITPACK builds with no smoothing (knots at the
    samples, less the second and the next-to-last on each axis).  It is held
    as the samples and their slopes along x, along y and across, and each
    point is evaluated from the 4 x 4 nodal data of its cell, a Hermite step
    along y and then one along x.  Outside the sample rectangle the argument
    is clamped to it; the support is exactly that rectangle, so the samples
    should cover the region where the field is smooth and nonzero.
    The potential declares the y-quadrature terms (see the module
    docstring), with fx(x) the spline on the tensor grid of x, of any shape
    or order, by the y-quadrature nodes.  It takes the steps along y once per
    x-knot between the lowest and the highest cell that x reaches, and then
    gives the pointwise values bit for bit.

    x and y must be finite, strictly increasing and at least 4 long, and the
    samples finite; otherwise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.array(values, dtype=complex)
    if v.shape != (x.size, y.size):
        raise ValueError(
            f"sample array must have shape (len(x), len(y)) = "
            f"({x.size}, {y.size}), got {v.shape}"
        )
    for name, t in (("x", x), ("y", y)):
        if t.ndim != 1 or t.size < 4:
            raise ValueError(
                f"{name} must be 1-D with at least 4 samples for a bicubic spline, "
                f"got shape {t.shape}"
            )
        if not (np.all(np.isfinite(t)) and np.all(t[1:] > t[:-1])):
            raise ValueError(f"the {name} samples must be finite and strictly increasing")
    if not np.all(np.isfinite(v)):
        raise ValueError("the sampled values must be finite")
    vx = _not_a_knot_slopes(x, v)
    vy = _not_a_knot_slopes(y, v.T).T
    vxy = _not_a_knot_slopes(x, vy)

    def along_y(rows, j, wy):
        """The spline and its x-slope at the x-knots `rows`, by Hermite steps
        along y in the cells j."""
        return (
            _blend(v[rows, j], v[rows, j + 1], vy[rows, j], vy[rows, j + 1], wy),
            _blend(vx[rows, j], vx[rows, j + 1], vxy[rows, j], vxy[rows, j + 1], wy),
        )

    def value_fn(xx, yy):
        i, wx = _hermite_weights(xx, x)
        j, wy = _hermite_weights(yy, y)
        (a0, s0), (a1, s1) = along_y(i, j, wy), along_y(i + 1, j, wy)
        return _blend(a0, a1, s0, s1, wx)

    def on_nodes(xx, yn):
        i, wx = _hermite_weights(xx, x)
        j, wy = _hermite_weights(yn, y)
        # the cells of xx reach only the x-knots i.min() .. i.max() + 1
        lo, hi = (i.min(), i.max() + 2) if i.size else (0, 0)
        a, s = along_y(slice(lo, hi), j, wy)
        i = i - lo
        return _blend(a[i], a[i + 1], s[i], s[i + 1], [w[..., None] for w in wx])

    y_support = (float(y[0]), float(y[-1]))
    return PotentialSpec(
        x_support=(float(x[0]), float(x[-1])),
        y_support=y_support,
        value_fn=value_fn,
        terms=_quadrature_terms(y_support, on_nodes),
        label="sampled",
    )


def random_smooth_potential(seed, amplitude=1.0) -> PotentialSpec:
    """Deterministic pseudo-random smooth complex potential on [0, 1] x R.

    A sum of RANDOM_TERMS separable terms: smooth sine profiles along x
    times complex Gaussian wave packets in y.  Every term carries an
    analytic transverse transform, so both the Born amplitudes and the
    transfer-matrix kernel are assembled without numerical quadrature.  The
    randomized consistency tests and the benchmark's verification pool draw
    from it.
    """
    rng = np.random.default_rng(seed)
    L = 1.0
    draws = []
    for _ in range(RANDOM_TERMS):
        z = amplitude * (rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform()))
        nx = rng.integers(1, 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mu = rng.uniform(-0.5, 0.5)
        sigma = rng.uniform(0.3, 0.8)
        qy = rng.uniform(-2.0, 2.0)
        # sigma**2 of the Python float (libm pow), which numpy's square can
        # miss by an ulp, so that a seed keeps its values bit for bit
        draws.append((z, nx, phase, mu, sigma, sigma**2, qy))
    z, nx, phase, mu, sigma, var, qy = map(np.array, zip(*draws))

    def fx(x):
        x = np.asarray(x, dtype=float)[..., None]
        inside = (x >= 0.0) & (x <= L)
        return np.where(inside, z * np.sin(np.pi * nx * x / L + phase) ** 2, 0.0)

    def fy(y):
        y = np.asarray(y, dtype=float)[..., None]
        return np.exp(-((y - mu) ** 2) / (2.0 * var) + 1j * qy * y)

    def fy_ft(q):
        q = np.asarray(q, dtype=float)[..., None]
        packet = np.exp(-1j * (q - qy) * mu - var * (q - qy) ** 2 / 2.0)
        return sigma * np.sqrt(2.0 * np.pi) * packet

    def value_fn(x, y):
        return np.sum(fx(x) * fy(y), axis=-1)

    return PotentialSpec(
        x_support=(0.0, L),
        y_support=(float(np.min(mu - 8.0 * sigma)), float(np.max(mu + 8.0 * sigma))),
        value_fn=value_fn,
        terms=SeparableTerm(fx=fx, fy_ft=fy_ft),
        label=f"random-smooth-{seed}",
    )


def sample_potential(v: PotentialSpec, nx=101, ny=101):
    """Sample a 2D potential on a uniform grid over its support.

    Returns (x, y, values) with values[i, j] = v(x[i], y[j]); used by the
    construct command.
    """
    if v.dim != 2:
        raise ValueError("sampling export is for 2D potentials")
    nx, ny = _count("nx", nx), _count("ny", ny)
    if min(nx, ny) < 1:
        raise ValueError(f"sample counts must be at least 1, got nx={nx}, ny={ny}")
    x = np.linspace(*v.x_support, nx)
    y = np.linspace(*v.y_support, ny)
    return x, y, v.value(x[:, None], y[None, :])
