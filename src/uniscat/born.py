"""First-order (weak-coupling) scattering amplitudes in 2D and 3D.

At first order the two-sided transmission/reflection functions only sample
the potential's full Fourier transform on shifted momentum arcs:

    left incidence :  T^l_pm(p) = -i vtt(-p_mp, p) / (2 omega(p)),
    right incidence:  T^r_pm(p) = -i vtt(+p_pm, p) / (2 omega(p)),

with p_pm = k +/- omega(p); the differential amplitude follows from

    f(theta) = -(2 pi)^{-1/2} i k |cos theta| T_pm(k sin theta),
    pm = sgn(cos theta).

Because omega(k sin theta) = k |cos theta| identically, the |cos|/omega
ratio cancels before anything is evaluated, and the amplitudes reduce to

    f^l(theta) = -vtt(-k(1 - cos theta), k sin theta) / (2 sqrt(2 pi)),
    f^r(theta) = -vtt(+k(1 + cos theta), k sin theta) / (2 sqrt(2 pi)),

valid on both the forward and the backward half uniformly.  No grazing 0/0
ever forms, so every amplitude here takes any angle, grazing included: the
power budget integrates them over whole arcs and :func:`amplitude_table`
samples them to the arc edges.  Only the T routes, whose 1/omega diverges
there, refuse grazing, and both through :func:`uniscat.grids.omega`: at |p|
in 2D and at |pvec| = hypot(px, py) in 3D.

In 3D the same structure holds with transverse momentum pvec and

    f^{l/r}(th, phi) = -vtt(pvec, -k(1 - cos th)) / (4 pi)   (left)
                       -vtt(pvec, +k(1 + cos th)) / (4 pi)   (right),

pvec = k sin th (cos phi, sin phi).

For the three-harmonic construction the left amplitudes additionally have
single-line closed forms (see :func:`closed_form_t_left`), used as the
independent route in consistency checks and as the cheap evaluator for the
screen-power observable, which reads only their even part in theta
(:func:`_closed_form_f_left_even`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .construct import ConstructionParams, _pole_free_ratio
from .grids import WaveContext, omega
from .potentials import PotentialSpec

__all__ = [
    "born_t_values",
    "born_f_2d",
    "born_t_3d",
    "born_f_3d",
    "closed_form_t_left",
    "closed_form_f_left",
    "amplitude_from_t",
    "amplitude_table",
]

_SIDES = ("left", "right")
_SIGNS = ("plus", "minus")


def _check_side_sign(side, sign=None):
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if sign is not None and sign not in _SIGNS:
        raise ValueError(f"sign must be one of {_SIGNS}, got {sign!r}")


# ---------------------------------------------------------------------------
# 2D


def _shift_argument(ctx: WaveContext, side: str, sign: str, w):
    """The longitudinal transform argument probed by T_side_sign at a
    transverse momentum with longitudinal partner w = omega."""
    if side == "left":
        return -(ctx.k - w) if sign == "plus" else -(ctx.k + w)
    return (ctx.k + w) if sign == "plus" else (ctx.k - w)


def born_t_values(v: PotentialSpec, side: str, sign: str, p, ctx: WaveContext = None):
    """First-order T_side_sign at transverse momenta p (scalar or array)."""
    _check_side_sign(side, sign)
    if v.dim != 2:
        raise ValueError("born_t_values is the 2D route; use born_t_3d")
    p = np.asarray(p, dtype=float)
    ctx = ctx or _ctx_of(v)
    w = omega(p, ctx)
    kx = _shift_argument(ctx, side, sign, w)
    return -1j * v.ft(kx, p) / (2.0 * w)


def born_f_2d(v: PotentialSpec, side: str, theta, ctx: WaveContext = None):
    """First-order differential amplitude f(theta) at any theta, grazing
    included."""
    _check_side_sign(side)
    return _amplitude_2d(_born_vtt_2d(v, theta, side == "right", ctx))


def _born_vtt_2d(v: PotentialSpec, theta, right, ctx: WaveContext = None):
    """The transform samples behind f^l(theta) where `right` is false and
    f^r(theta) where it is true (theta and right broadcast), in one `v.ft`
    call: the one kernel of :func:`born_f_2d`, which the power budget calls
    directly to evaluate both sides at once.  A closed-form transform (the
    constructions) is elementwise and the x-quadrature one of other
    potentials reduces each sample on its own, so each sample is the one a
    call for its side alone gives."""
    if v.dim != 2:
        raise ValueError("born_f_2d is the 2D route; use born_f_3d")
    ctx = ctx or _ctx_of(v)
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    kx = np.where(right, ctx.k * (1.0 + c), -ctx.k * (1.0 - c))
    return v.ft(kx, ctx.k * np.sin(theta))


def _amplitude_2d(vtt):
    """f = -vtt / (2 sqrt(2 pi)) of transform samples.  A single sample is
    divided as a Python complex, as a scalar `born_f_2d` always has been, so
    one read from a batch equals its own call bit for bit."""
    if not np.ndim(vtt):
        vtt = complex(vtt)
    return -vtt / (2.0 * np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# 3D


def born_t_3d(v: PotentialSpec, side: str, sign: str, px, py):
    """First-order T_side_sign at transverse momentum pairs (px, py)."""
    _check_side_sign(side, sign)
    if v.dim != 3:
        raise ValueError("born_t_3d needs a 3D potential")
    ctx = _ctx_of(v)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    w = omega(np.hypot(px, py), ctx)
    kz = _shift_argument(ctx, side, sign, w)
    return -1j * v.ft(px, py, kz) / (2.0 * w)


def born_f_3d(v: PotentialSpec, side: str, theta, phi):
    """First-order 3D amplitude f(theta, phi) at any theta, grazing
    included; theta is the polar angle from the scattering axis, phi the
    azimuth."""
    _check_side_sign(side)
    if v.dim != 3:
        raise ValueError("born_f_3d needs a 3D potential")
    ctx = _ctx_of(v)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    px = ctx.k * s * np.cos(phi)
    py = ctx.k * s * np.sin(phi)
    kz = -ctx.k * (1.0 - c) if side == "left" else ctx.k * (1.0 + c)
    return -v.ft(px, py, kz) / (4.0 * np.pi)


# ---------------------------------------------------------------------------
# closed forms for the three-harmonic construction


def closed_form_t_left(params: ConstructionParams, sign: str, p):
    """Left T^l_pm(p) of the construction in closed form.

    T^l_pm(p) = 2 l m K^2 k (1 - e^{i a p_mp}) gt(p)
                / ( omega(p) (p_mp + l K)(p_mp + m K) ),

    with p_mp = k -/+ omega(p).  The parenthesis zeros at p_mp = -l K or
    -m K (possible when a harmonic is negative) are removable: the
    transform's kernel :func:`uniscat.construct._pole_free_ratio` at -p_mp.
    Everything but gt / omega is i sqrt(2 pi) times the factor
    :func:`_closed_form_left_factor` of the amplitude at shift p_mp.
    """
    if sign not in _SIGNS:
        raise ValueError(f"sign must be one of {_SIGNS}, got {sign!r}")
    p = np.asarray(p, dtype=float)
    ctx = params.ctx
    w = omega(p, ctx)
    shift = ctx.k - w if sign == "plus" else ctx.k + w
    out = (
        1j * np.sqrt(2.0 * np.pi) * _closed_form_left_factor(params, shift)
        * params._env1d().ft(p) / w
    )
    return out if np.ndim(out) else complex(out)


def _closed_form_left_factor(params: ConstructionParams, shift):
    """The factor c of f^l(theta) = c gt(k sin theta) (see
    :func:`closed_form_f_left`), at shift = k (1 - cos theta).  It depends
    on theta only through the shift, so it is even in theta."""
    roots = (params.ell * params.K, params.m * params.K)
    core = _pole_free_ratio(params.slab, -shift, roots)
    return (
        -np.sqrt(2.0 / np.pi) * 1j
        * params.ell * params.m * params.K**2 * params.ctx.k
        * core
    )


def closed_form_f_left(params: ConstructionParams, theta):
    """Left amplitude f^l(theta) of the construction in closed form.

    f^l(theta) = -sqrt(2/pi) i l m K^2 k (1 - e^{i a k (1 - cos theta)})
                 gt(k sin theta)
                 / ( (k(1-cos th) + l K)(k(1-cos th) + m K) ),

    uniformly on both halves (the shift k(1 - cos theta) equals p_minus
    forward and p_plus backward), grazing included.  Everything but gt is
    the even factor :func:`_closed_form_left_factor`.
    """
    out = _closed_form_f_left_even(params, theta, even=False)
    return out if np.ndim(out) else complex(out)


def _closed_form_f_left_even(params: ConstructionParams, theta, even=True):
    """The even part (f^l(theta) + f^l(-theta)) / 2 of the closed form in
    one transform call, or f^l itself with even=False.

    f^l = c gt(k sin theta) with c even in theta, and g is g0 times a real
    profile, so gt(-q) = g0 conj(gt(q) / g0).  So the even part is
    c gt_even(k sin theta), gt_even(q) = (gt(q) + gt(-q)) / 2 being the
    transform of the envelope's even part (`Envelope.ft_even`).
    """
    env = params._env1d()
    theta = np.asarray(theta, dtype=float)
    k = params.ctx.k
    ft = env.ft_even if even else env.ft
    return _closed_form_left_factor(params, k * (1.0 - np.cos(theta))) * ft(k * np.sin(theta))


# ---------------------------------------------------------------------------
# tables


def amplitude_from_t(t_values, thetas, ctx: WaveContext):
    """f(theta) from T values at p = k sin(theta) on matching angles."""
    thetas = np.asarray(thetas, dtype=float)
    return (
        -1j * ctx.k * np.abs(np.cos(thetas)) * np.asarray(t_values, dtype=complex)
        / np.sqrt(2.0 * np.pi)
    )


def amplitude_table(
    v: PotentialSpec, side: str, thetas, method="born", ctx: WaveContext = None
) -> np.ndarray:
    """The differential amplitude f at the given angles, as a complex array.

    thetas are measured from the incidence axis and may be any angles,
    grazing included: the forward arc for the left-incident wave is
    |theta| <= pi/2, the backward arc pi/2 <= theta <= 3 pi/2.  method
    "born" works for any 2D potential and side; "closed" is the closed form
    of a constructed potential, left side only.
    """
    _check_side_sign(side)
    ctx = ctx or _ctx_of(v)
    if method == "born":
        f = partial(born_f_2d, v, side, ctx=ctx)
    elif method == "closed":
        if side != "left" or not isinstance(v.params, ConstructionParams):
            raise ValueError(
                "closed-form amplitudes exist for the left side of a "
                "constructed potential only"
            )
        f = partial(closed_form_f_left, v.params)
    else:
        raise ValueError(f"unknown amplitude method {method!r}")
    return np.asarray(f(thetas), dtype=complex)


def _ctx_of(v: PotentialSpec) -> WaveContext:
    if isinstance(v.params, ConstructionParams):
        return v.params.ctx
    raise ValueError(
        "this potential carries no wavenumber; pass ctx explicitly"
    )
