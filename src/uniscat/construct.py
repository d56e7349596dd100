"""Construction of right-invisible complex potentials.

A potential supported on a slab 0 <= x <= a can be expanded in the discrete
set of slab harmonics exp(i n K x), K = 2 pi / a:

    v(x, y) = chi_a(x) * sum_n c_n(y) exp(i n K x).

First-order (weak-coupling) scattering of a right-incident wave probes the
full transform vtt(Kx, Ky) only on the curves Kx = k + omega(p) and
Kx = k - omega(p), and both values vanish for every transverse momentum p
exactly when the numerator of the harmonic sum is proportional to

    (Kx - p_plus)(Kx - p_minus) = Kx(Kx - 2k) + p^2.

Keeping three harmonics n in {0, l, m} (l != m, both nonzero integers) that
proportionality fixes the transverse coefficients uniquely in terms of a
single free envelope g(y):

    ct_0(p) = p^2 gt(p),
    ct_l(p) = m [ l K (l K - 2k) + p^2 ] gt(p) / (l - m),
    ct_m(p) = l [ m K (m K - 2k) + p^2 ] gt(p) / (m - l),

so the potential is invisible from the right at first order while scattering
from the left remains unconstrained and generically large: one-way
invisibility.  In real space,

    v(x, y) = chi_a(x) { -g''(y) [ 1 + (m e^{i l K x} - l e^{i m K x})/(l - m) ]
              + g(y) (l m K/(l - m)) [ (l K - 2k) e^{i l K x}
                                       - (m K - 2k) e^{i m K x} ] }.

The full transform collapses to the closed form

    vtt(Kx, Ky) = l m K^2 (1 - e^{-i a Kx}) [ Ky^2 + (Kx - 2k) Kx ] gt(Ky)
                  / ( i Kx (Kx - l K)(Kx - m K) ),

whose apparent poles at Kx in {0, l K, m K} are all removable (the phase
factor vanishes there too).  One kernel, :func:`_pole_free_ratio` over
:func:`phase_over_offset`, removes them, for this transform and for the
closed-form T and f of :mod:`uniscat.born` alike.

The same recipe works in 3D with the slab and harmonics along the scattering
axis z (thickness c, K = 2 pi / c) and a transverse envelope g(x, y); the
transverse momentum squared simply becomes px^2 + py^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import Envelope
from .grids import WaveContext
from .potentials import PotentialSpec, SeparableTerm

__all__ = [
    "ConstructionParams",
    "phase_over_offset",
    "fourier_coeff_ft",
    "potential_value_2d",
    "potential_value_3d",
    "constructed_ft_2d",
    "constructed_ft_3d",
    "series_ft_2d",
    "build_potential_2d",
    "build_potential_3d",
]

# Switch to the Taylor branch of (1 - e^{-i t})/t below this |t|; the 5-term
# tail truncates at ~1e-18 relative, and the direct branch above loses at
# most ~1e-13 to cancellation, so both sides of the switch are far inside
# every stated tolerance.
_SERIES_CUT = 1e-3


def phase_over_offset(t):
    """(1 - exp(-i t)) / t for real t, stable through t = 0.

    The limit value is i; a short Taylor series covers |t| < 1e-3.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty(t.shape, dtype=complex)
    small = np.abs(t) < _SERIES_CUT
    ts = t[small]
    out[small] = (
        1j + ts / 2.0 - 1j * ts**2 / 6.0 - ts**3 / 24.0 + 1j * ts**4 / 120.0
    )
    tb = t[~small]
    out[~small] = (1.0 - np.exp(-1j * tb)) / tb
    return out[0] if scalar else out


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the three-harmonic right-invisible construction.

    Attributes
    ----------
    ell, m : int
        The two nonzero, distinct active harmonics.
    envelope : Envelope or (Envelope, Envelope)
        Free transverse profile: a single g(y) for the 2D slab, or a pair
        (g_x, g_y) whose product is the transverse g(x, y) in 3D.
    ctx : WaveContext
        Wavenumber.
    slab : float
        Slab thickness along the scattering axis (a in 2D, c in 3D).
        The harmonic spacing is K = 2 pi / slab.
    """

    ell: int
    m: int
    envelope: object
    ctx: WaveContext
    slab: float = 1.0

    def __post_init__(self):
        for name, val in (("ell", self.ell), ("m", self.m)):
            if int(val) != val or val == 0:
                raise ValueError(f"{name} must be a nonzero integer, got {val}")
        if self.ell == self.m:
            raise ValueError("the two harmonics must differ")
        if not (np.isfinite(self.slab) and self.slab > 0):
            raise ValueError(f"slab thickness must be positive, got {self.slab}")
        if isinstance(self.envelope, tuple):
            if len(self.envelope) != 2 or not all(
                isinstance(e, Envelope) for e in self.envelope
            ):
                raise ValueError("3D envelope must be a pair of Envelope objects")
        elif not isinstance(self.envelope, Envelope):
            raise ValueError("envelope must be an Envelope or a pair of them")

    @property
    def K(self) -> float:
        return 2.0 * np.pi / self.slab

    @property
    def is_product(self) -> bool:
        return isinstance(self.envelope, tuple)

    def _env1d(self) -> Envelope:
        if self.is_product:
            raise ValueError("this operation needs a single transverse envelope")
        return self.envelope


def fourier_coeff_ft(params: ConstructionParams, n: int, p):
    """Transverse Fourier transform ct_n(p) of the n-th harmonic coefficient.

    Nonzero only for n in {0, ell, m}.
    """
    env = params._env1d()
    p = np.asarray(p, dtype=float)
    gt = env.ft(p)
    ell, m, K, k = params.ell, params.m, params.K, params.ctx.k
    if n == 0:
        out = p**2 * gt
    elif n == ell:
        out = m * (ell * K * (ell * K - 2.0 * k) + p**2) * gt / (ell - m)
    elif n == m:
        out = ell * (m * K * (m * K - 2.0 * k) + p**2) * gt / (m - ell)
    else:
        out = np.zeros(p.shape, dtype=complex)
    return out if np.ndim(out) else complex(out)


def _modulations(params: ConstructionParams, s):
    """The two axial modulation brackets at axial coordinate(s) s.

    Returns (bracket on -g'', bracket on g); both include the harmonic
    phases but not the slab indicator.
    """
    ell, m, K, k = params.ell, params.m, params.K, params.ctx.k
    el = np.exp(1j * ell * K * s)
    em = np.exp(1j * m * K * s)
    d2_bracket = 1.0 + (m * el - ell * em) / (ell - m)
    g_bracket = (ell * m * K / (ell - m)) * (
        (ell * K - 2.0 * k) * el - (m * K - 2.0 * k) * em
    )
    return d2_bracket, g_bracket


def potential_value_2d(params: ConstructionParams, x, y):
    """The right-invisible v(x, y); zero outside the slab 0 <= x <= a."""
    env = params._env1d()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2_bracket, g_bracket = _modulations(params, x)
    inside = (x >= 0.0) & (x <= params.slab)
    val = -env.second_derivative(y) * d2_bracket + env.value(y) * g_bracket
    out = np.where(inside, val, 0.0)
    return out if out.ndim else complex(out)


def potential_value_3d(params: ConstructionParams, x, y, z):
    """The right-invisible v(x, y, z); slab chi_c(z), transverse g(x, y).

    Zero outside the box [0,a] x [0,b] x [0,c] (a, b from the transverse
    envelope supports).
    """
    if not params.is_product:
        raise ValueError("3D construction needs a pair of transverse envelopes")
    envx, envy = params.envelope
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    d2_bracket, g_bracket = _modulations(params, z)
    inside = (z >= 0.0) & (z <= params.slab)
    g = envx.value(x) * envy.value(y)
    lap = envx.second_derivative(x) * envy.value(y) + envx.value(x) * envy.second_derivative(y)
    out = np.where(inside, -lap * d2_bracket + g * g_bracket, 0.0)
    return out if out.ndim else complex(out)


def _pole_free_ratio(a, t, roots):
    """(1 - e^{-i a t}) / prod_r (t - r), every pole removed.

    Every root r has a r = 0 mod 2 pi, so the phase factor vanishes there
    too: the transform's roots {0, l K, m K}, and {l K, m K} for the closed
    forms at t = -shift.  The ratio is taken against the nearest root (the
    first of equally near ones) through :func:`phase_over_offset`; the
    other factors are regular.
    """
    t = np.asarray(t, dtype=float)
    u = t - roots[0]
    others = 1.0
    for r in roots[1:]:
        d = t - r
        nearer = np.abs(d) < np.abs(u)
        others = others * np.where(nearer, u, d)
        u = np.where(nearer, d, u)
    # (1 - e^{-i a t})/u == (1 - e^{-i a u})/u exactly, since a r is a
    # multiple of 2 pi for each root.
    return a * phase_over_offset(a * u) / others


def _closed_form_ft(params: ConstructionParams, psq, gt, kax):
    """-i l m K^2 (|p|^2 + (Kax - 2k) Kax) gt ratio, the closed-form
    transform of both dimensions: psq is the squared transverse frequency
    |p|^2, gt the envelope transform at it, kax the frequency along the
    scattering axis and ratio :func:`_pole_free_ratio` at kax."""
    ell, m, K, k = params.ell, params.m, params.K, params.ctx.k
    bracket = psq + (kax - 2.0 * k) * kax
    ratio = _pole_free_ratio(params.slab, kax, (0.0, ell * K, m * K))
    out = -1j * ell * m * K**2 * bracket * gt * ratio
    return out if np.ndim(out) else complex(out)


def constructed_ft_2d(params: ConstructionParams, kx, ky):
    """Closed-form full transform vtt(Kx, Ky) of the 2D construction."""
    env = params._env1d()
    kx, ky = np.broadcast_arrays(np.asarray(kx, float), np.asarray(ky, float))
    return _closed_form_ft(params, ky**2, env.ft(ky), kx)


def constructed_ft_3d(params: ConstructionParams, px, py, kz):
    """Closed-form full transform vtt(px, py, Kz) of the 3D construction.

    The first two slots are transverse (x, y) frequencies, the last the
    frequency along the scattering axis z.
    """
    if not params.is_product:
        raise ValueError("3D construction needs a pair of transverse envelopes")
    envx, envy = params.envelope
    px, py, kz = np.broadcast_arrays(
        np.asarray(px, float), np.asarray(py, float), np.asarray(kz, float)
    )
    return _closed_form_ft(params, px**2 + py**2, envx.ft(px) * envy.ft(py), kz)


def series_ft_2d(params: ConstructionParams, kx, ky):
    """The same transform assembled harmonic by harmonic.

    sum over n in {0, l, m} of phi_n(Kx) ct_n(Ky), with
    phi_n(Kx) = (1 - e^{-i a (Kx - n K)}) / (i (Kx - n K)) the slab-harmonic
    line shape.  Kept as an independent route for consistency checks; the
    closed form is the production path.
    """
    kx, ky = np.broadcast_arrays(np.asarray(kx, float), np.asarray(ky, float))
    a, K = params.slab, params.K
    out = np.zeros(kx.shape, dtype=complex)
    for n in (0, params.ell, params.m):
        # phi_n(Kx) = -i a * phase_over_offset(a (Kx - n K)); shifting the
        # phase argument by a K n is exact since a K = 2 pi.
        phi = -1j * a * phase_over_offset(a * (kx - n * K))
        out = out + phi * np.asarray(fourier_coeff_ft(params, n, ky))
    return out if np.ndim(out) else complex(out)


def build_potential_2d(params: ConstructionParams) -> PotentialSpec:
    """Bundle the 2D construction into a PotentialSpec.

    Attaches the closed-form transform and the three-harmonic separable
    decomposition, so every downstream consumer (Born amplitudes, transfer
    matrix) works from analytic expressions.
    """
    env = params._env1d()
    a = params.slab
    harmonics = (0, params.ell, params.m)
    phases = 1j * params.K * np.array(harmonics)

    # no support mask: the program evaluates fx inside the support only
    def fx(x):
        return np.exp(np.multiply.outer(x, phases))

    def fy_ft(q):
        return np.stack([fourier_coeff_ft(params, n, q) for n in harmonics], -1)

    g0 = env.g0
    return PotentialSpec(
        x_support=(0.0, a),
        y_support=env.support,
        value_fn=lambda x, y: potential_value_2d(params, x, y),
        ft_fn=lambda kx, ky: constructed_ft_2d(params, kx, ky),
        terms=SeparableTerm(fx=fx, fy_ft=fy_ft),
        params=params,
        label=(
            f"constructed2d(ell={params.ell}, m={params.m}, k={params.ctx.k:g}, "
            f"env={env.kind}, g0={g0:g}, b={env.b:g}, a={a:g})"
        ),
    )


def build_potential_3d(params: ConstructionParams) -> PotentialSpec:
    """Bundle the 3D construction into a PotentialSpec (Born-level use)."""
    if not params.is_product:
        raise ValueError("3D construction needs a pair of transverse envelopes")
    envx, envy = params.envelope
    return PotentialSpec(
        x_support=envx.support,
        y_support=envy.support,
        z_support=(0.0, params.slab),
        value_fn=lambda x, y, z: potential_value_3d(params, x, y, z),
        ft_fn=lambda px, py, kz: constructed_ft_3d(params, px, py, kz),
        params=params,
        label=(
            f"constructed3d(ell={params.ell}, m={params.m}, k={params.ctx.k:g}, "
            f"env={envx.kind}*{envy.kind}, c={params.slab:g})"
        ),
    )
