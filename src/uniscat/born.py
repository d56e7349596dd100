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
ever forms; theta is still kept away from +/- pi/2 by a small margin because
the first-order treatment itself degrades there.

In 3D the same structure holds with transverse momentum pvec and

    f^{l/r}(th, phi) = -vtt(pvec, -k(1 - cos th)) / (4 pi)   (left)
                       -vtt(pvec, +k(1 + cos th)) / (4 pi)   (right),

pvec = k sin th (cos phi, sin phi).

For the three-harmonic construction the left amplitudes additionally have
single-line closed forms (see :func:`closed_form_t_left`), used as the
independent route in consistency checks and as the cheap evaluator for the
screen-power observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .construct import ConstructionParams, phase_over_offset
from .grids import MomentumGrid, WaveContext, omega
from .potentials import PotentialSpec

__all__ = [
    "GRAZING_MARGIN",
    "TransferTable",
    "AmplitudeTable",
    "born_t_values",
    "born_t_2d",
    "born_f_2d",
    "born_t_3d",
    "born_f_3d",
    "closed_form_t_left",
    "closed_form_f_left",
    "amplitude_from_t",
    "amplitude_table",
]

# Angles with |cos theta| below this are refused: the oblique-wave expansion
# itself breaks down at grazing incidence.
GRAZING_MARGIN = 1e-3

_SIDES = ("left", "right")
_SIGNS = ("plus", "minus")


def _check_side_sign(side, sign=None):
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if sign is not None and sign not in _SIGNS:
        raise ValueError(f"sign must be one of {_SIGNS}, got {sign!r}")


@dataclass(frozen=True)
class TransferTable:
    """One of the four T-functions sampled on a momentum grid."""

    side: str
    sign: str
    grid: MomentumGrid
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class AmplitudeTable:
    """A differential amplitude f(theta) sampled over scattering angles.

    thetas are measured from the incidence axis; the forward half for the
    left-incident wave is |theta| < pi/2, the backward half
    pi/2 < theta < 3 pi/2.  `method` records which route produced the
    values ("born", "closed_form" or "xfermat").
    """

    side: str
    thetas: np.ndarray
    values: np.ndarray
    method: str
    ctx: WaveContext

    def __post_init__(self):
        if np.any(np.abs(np.cos(self.thetas)) < GRAZING_MARGIN):
            raise ValueError(
                f"amplitude samples must keep |cos theta| >= {GRAZING_MARGIN}"
            )

    @cached_property
    def _splines(self):
        from scipy.interpolate import CubicSpline

        order = np.argsort(self.thetas)
        th = self.thetas[order]
        va = self.values[order]
        return CubicSpline(th, va.real), CubicSpline(th, va.imag)

    def interpolate(self, theta):
        """Cubic interpolation of f at angles inside the sampled range."""
        theta = np.asarray(theta, dtype=float)
        th_min, th_max = np.min(self.thetas), np.max(self.thetas)
        if np.any(theta < th_min) or np.any(theta > th_max):
            raise ValueError("interpolation angle outside the sampled range")
        sre, sim = self._splines
        out = sre(theta) + 1j * sim(theta)
        return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# 2D


def _cos_off_grazing(theta):
    """cos(theta), refusing angles within GRAZING_MARGIN of grazing."""
    c = np.cos(theta)
    if np.any(np.abs(c) < GRAZING_MARGIN):
        raise ValueError(
            f"grazing angle: |cos theta| must stay >= {GRAZING_MARGIN}"
        )
    return c


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
    out = -1j * v.ft(kx, p) / (2.0 * w)
    return out if np.ndim(out) else complex(out)


def born_t_2d(v: PotentialSpec, side: str, sign: str, grid: MomentumGrid) -> TransferTable:
    """First-order T-function tabulated on a momentum grid."""
    values = np.asarray(
        born_t_values(v, side, sign, grid.nodes, ctx=grid.ctx), dtype=complex
    )
    return TransferTable(side=side, sign=sign, grid=grid, values=values)


def born_f_2d(v: PotentialSpec, side: str, theta, ctx: WaveContext = None):
    """First-order differential amplitude f(theta), any theta off grazing."""
    _check_side_sign(side)
    if v.dim != 2:
        raise ValueError("born_f_2d is the 2D route; use born_f_3d")
    ctx = ctx or _ctx_of(v)
    theta = np.asarray(theta, dtype=float)
    c = _cos_off_grazing(theta)
    kx = -ctx.k * (1.0 - c) if side == "left" else ctx.k * (1.0 + c)
    out = -v.ft(kx, ctx.k * np.sin(theta)) / (2.0 * np.sqrt(2.0 * np.pi))
    return out if np.ndim(out) else complex(out)


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
    psq = px**2 + py**2
    if np.any(psq >= ctx.k**2):
        raise ValueError("transverse momentum must stay inside the propagation disk")
    w = np.sqrt(ctx.k**2 - psq)
    kz = _shift_argument(ctx, side, sign, w)
    out = -1j * v.ft(px, py, kz) / (2.0 * w)
    return out if np.ndim(out) else complex(out)


def born_f_3d(v: PotentialSpec, side: str, theta, phi):
    """First-order 3D amplitude f(theta, phi); theta is the polar angle
    from the scattering axis, phi the azimuth."""
    _check_side_sign(side)
    if v.dim != 3:
        raise ValueError("born_f_3d needs a 3D potential")
    ctx = _ctx_of(v)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = _cos_off_grazing(theta)
    s = np.sin(theta)
    px = ctx.k * s * np.cos(phi)
    py = ctx.k * s * np.sin(phi)
    kz = -ctx.k * (1.0 - c) if side == "left" else ctx.k * (1.0 + c)
    out = -v.ft(px, py, kz) / (4.0 * np.pi)
    return out if np.ndim(out) else complex(out)


# ---------------------------------------------------------------------------
# closed forms for the three-harmonic construction


def closed_form_t_left(params: ConstructionParams, sign: str, p):
    """Left T^l_pm(p) of the construction in closed form.

    T^l_pm(p) = 2 l m K^2 k (1 - e^{i a p_mp}) gt(p)
                / ( omega(p) (p_mp + l K)(p_mp + m K) ),

    with p_mp = k -/+ omega(p).  The parenthesis zeros at p_mp = -l K or
    -m K (possible when a harmonic is negative) are removable and evaluated
    through the stable phase ratio.
    """
    if sign not in _SIGNS:
        raise ValueError(f"sign must be one of {_SIGNS}, got {sign!r}")
    env = params._env1d()
    p = np.asarray(p, dtype=float)
    ctx = params.ctx
    w = omega(p, ctx)
    shift = ctx.k - w if sign == "plus" else ctx.k + w
    core = _stable_phase_core(params, shift)
    out = (
        2.0 * params.ell * params.m * params.K**2 * ctx.k
        * core * env.ft(p) / w
    )
    return out if np.ndim(out) else complex(out)


def closed_form_f_left(params: ConstructionParams, theta):
    """Left amplitude f^l(theta) of the construction in closed form.

    f^l(theta) = -sqrt(2/pi) i l m K^2 k (1 - e^{i a k (1 - cos theta)})
                 gt(k sin theta)
                 / ( (k(1-cos th) + l K)(k(1-cos th) + m K) ),

    uniformly on both halves (the shift k(1 - cos theta) equals p_minus
    forward and p_plus backward).
    """
    env = params._env1d()
    theta = np.asarray(theta, dtype=float)
    c = _cos_off_grazing(theta)
    ctx = params.ctx
    shift = ctx.k * (1.0 - c)
    core = _stable_phase_core(params, shift)
    out = (
        -np.sqrt(2.0 / np.pi) * 1j
        * params.ell * params.m * params.K**2 * ctx.k
        * core * env.ft(ctx.k * np.sin(theta))
    )
    return out if np.ndim(out) else complex(out)


def _stable_phase_core(params: ConstructionParams, shift):
    """(1 - e^{i a shift}) / ((shift + l K)(shift + m K)), poles removed.

    A zero of a parenthesis at shift = -n K (n = l or m negative) coincides
    with a zero of the phase factor, since a K = 2 pi; the ratio against the
    nearer parenthesis goes through the stable series,
    (1 - e^{i t})/t = conj((1 - e^{-i t})/t) for real t.
    """
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    a, K = params.slab, params.K
    u1 = shift + params.ell * K
    u2 = shift + params.m * K
    pick1 = np.abs(u1) <= np.abs(u2)
    u = np.where(pick1, u1, u2)
    other = np.where(pick1, u2, u1)
    # (1 - e^{i a shift})/u = (1 - e^{i a u})/u = a * conj(phase_over_offset(a u))
    ratio = a * np.conj(phase_over_offset(a * u))
    out = ratio / other
    return out


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
) -> AmplitudeTable:
    """Sample a differential amplitude over angles into an AmplitudeTable."""
    _check_side_sign(side)
    ctx = ctx or _ctx_of(v)
    thetas = np.asarray(thetas, dtype=float)
    if method == "born":
        values = np.asarray(born_f_2d(v, side, thetas, ctx=ctx), dtype=complex)
    elif method == "closed_form":
        if side != "left" or not isinstance(v.params, ConstructionParams):
            raise ValueError(
                "closed_form amplitudes exist for the left side of a "
                "constructed potential only"
            )
        values = np.asarray(closed_form_f_left(v.params, thetas), dtype=complex)
    else:
        raise ValueError(f"unknown amplitude method {method!r}")
    return AmplitudeTable(
        side=side, thetas=thetas, values=values, method=method, ctx=ctx
    )


def _ctx_of(v: PotentialSpec) -> WaveContext:
    if isinstance(v.params, ConstructionParams):
        return v.params.ctx
    ctx = getattr(v, "ctx", None)
    if ctx is not None:
        return ctx
    raise ValueError(
        "this potential carries no wavenumber; pass ctx explicitly"
    )
