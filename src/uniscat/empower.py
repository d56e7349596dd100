"""Electromagnetic power observables of a scattering amplitude.

For a TE-polarized beam of intensity P0 per unit detector length, the
scattered wave changes the power crossing the far-zone arcs by

    dP_-^l = int_back |f^l|^2,    dP_+^l = int_fwd |f^l|^2 - sqrt(8 pi) Im f^l(0),
    dP_-^r = int_back |f^r|^2 - sqrt(8 pi) Im f^r(pi),    dP_+^r = int_fwd |f^r|^2,

in units of P0 (forward arc |theta| < pi/2, backward arc the complement);
the linear-in-f terms are the extinction interference of the scattered and
incident waves and attach to the arc containing each beam's forward
direction.  f is the first-order amplitude `born_f_2d`, which has no
1/cos theta, so each arc is integrated whole, grazing edges included, with
15-point Gauss-Kronrod panels bisected on the embedded 7-point error
estimate (:func:`total_power_changes`).  A call of the amplitude costs
about the same at one node as at hundreds, so the budget shares each
transform call: the first one evaluates both sides' panels and both
extinction samples, and each refinement round bisects both sides in
lockstep (:func:`_bisect`) with one more call.

A finite detector is modelled as a screen of width s at distance d behind
the slab.  The interference profile along the screen is

    xi(r, theta) = Re[ sqrt(i / (k r)) e^{i k r (1 - cos theta)} f(theta) ],

and the normalized power change collected by the screen is the mean of
du(y) = (1 + cos theta) xi over the screen,

    dP_screen(s) = (1 / s) int_{-s/2}^{s/2} du dy,   r = sqrt(d^2 + y^2).

One xi kernel serves :func:`xi` and the screen integrand, which takes any
vectorized amplitude f.  Both write the phase k r (1 - cos theta) without
cancellation: :func:`xi` as 2 k r sin^2(theta / 2), the screen integrand
as k y^2 / (r + d), which also takes 1 + cos theta as 1 + d/r.

The screen is centred, so the integral folds onto y >= 0.  r, the phase
and 1 + d/r are even in y and theta is odd, so for any amplitude
du(y) + du(-y) is 2 du on the even part (f(theta) + f(-theta)) / 2: a
centred screen sees only the even part of the amplitude.  For the
construction it costs one transform call (`born._closed_form_f_left_even`).

The phase k (r - d) oscillates fast for wide screens, so the folded
integral is done with vectorized 15-point Gauss-Kronrod panels cut at pi
phase increments, bisected adaptively on the embedded 7-point error
estimate.  One pi of phase per panel leaves the unrefined estimate at about
2e-2 of the budget or less over the benchmark's widths and wavenumbers;
pi/4 panels spend four times the whole panels on an estimate at roundoff,
and 2 pi panels put 193 of the 1600 default widths over budget, whose
refinement makes the default sweep several times slower.  The cuts do
not depend on s, so a sweep over widths (:func:`fig2_curves`) evaluates
the panels between cuts once for all widths, from the centre outward, plus
one end panel per width, in one integrand call (in batches of at most
_SCREEN_BATCH_PANELS panels, so the integrand's temporaries do not grow
with the width).  Prefix sums over the panels then give every width's
sum and error estimate at once, and only widths over their error budget
are refined, all in lockstep by the same bisection as the arcs.
:func:`screen_power` is the one-width case of the same pass.  A
non-adaptive composite Gauss-Legendre rule on an unrelated node set, over
the whole screen and on the unfolded integrand, acts as the independent
cross-check (:func:`screen_power_oracle`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .born import _amplitude_2d, _born_vtt_2d, _closed_form_f_left_even, closed_form_f_left
from .construct import ConstructionParams
from .envelopes import quartic_envelope
from .grids import WaveContext
from .potentials import PotentialSpec

__all__ = [
    "EXTINCTION_FACTOR",
    "ScreenSpec",
    "PowerSummary",
    "PowerCurve",
    "total_power_changes",
    "xi",
    "screen_power",
    "screen_power_oracle",
    "fig2_curves",
]

EXTINCTION_FACTOR = float(np.sqrt(8.0 * np.pi))

# screen_power refines until its error estimate is below SCREEN_ABS_TOL * s,
# for at most SCREEN_MAX_DEPTH bisection rounds.
SCREEN_ABS_TOL = 1e-10
SCREEN_MAX_DEPTH = 16
# The screen sweep cuts its panels at every _SCREEN_PHASE_STEP of the phase
# k (r - d) and sends them to the integrand at most _SCREEN_BATCH_PANELS at
# a time, so its memory stays flat however wide the screen.
_SCREEN_PHASE_STEP = np.pi
_SCREEN_BATCH_PANELS = 4096
# total_power_changes starts each arc from ARC_PANELS equal panels and
# bisects until each side's error estimate is below ARC_REL_TOL times the
# largest arc integral, for at most ARC_MAX_DEPTH rounds.
ARC_REL_TOL = 1e-12
ARC_PANELS = 8
ARC_MAX_DEPTH = 16
# Gauss-Legendre nodes on each panel of screen_power_oracle, and the most
# panels it evaluates in one integrand call.
ORACLE_NODES_PER_PANEL = 24
_ORACLE_BATCH_PANELS = 1024

# 15-point Kronrod extension of 7-point Gauss (positive half, QUADPACK dqk15).
_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

GK_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
GK_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
# Gauss-7 nodes sit at the odd Kronrod positions; pad its weights with zeros
# so both rules contract against the same 15 samples.
G7_WEIGHTS = np.zeros(15)
G7_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class ScreenSpec:
    """Detection screen: distance d behind the slab, width s, centered."""

    d: float
    s: float

    def __post_init__(self):
        _check_screen(self.d, self.s)


def _check_screen(d, s):
    """ScreenSpec's checks, for one width s or an array of widths."""
    if not (np.isfinite(d) and d > 0):
        raise ValueError(f"screen distance must be positive, got {d}")
    s = np.asarray(s)
    bad = ~(np.isfinite(s) & (s > 0))
    if np.any(bad):
        raise ValueError(f"screen width must be positive, got {s[bad][0]}")


@dataclass(frozen=True)
class PowerSummary:
    """Scattering-induced power changes on the four far-zone arcs (P0 units)."""

    left_backward: float
    left_forward: float
    right_backward: float
    right_forward: float

    @property
    def left_total(self) -> float:
        return self.left_backward + self.left_forward

    @property
    def right_total(self) -> float:
        return self.right_backward + self.right_forward


@dataclass(frozen=True)
class PowerCurve:
    """dP_screen versus screen width at fixed wavenumber and distance."""

    k: float
    d: float
    s_values: np.ndarray
    values: np.ndarray
    label: str = ""


def _bisect(fn, runs, budgets, max_depth, what):
    """Bisect the GK15 panels of several integrals in lockstep until each
    one's summed error estimate is at most its budget.

    `runs` holds one (lo, hi, total, err) per integral: its panels
    [lo_i, hi_i], their sums and their estimates.  Each round splits, in
    every integral still over its budget, every panel whose estimate
    exceeds budget / (2 n), for its n panels, and evaluates the halves of
    all of them in one call fn(y, owner), owner being the index in `runs`
    of the integral each node y belongs to.  :func:`_gk_panels` reduces each
    panel on its own, so with an elementwise integrand every integral gets
    the panels, panel order and sums it would get if refined alone.  After
    `max_depth` rounds it warns once per integral still over its budget.
    Returns the (lo, hi, total, err) of each integral: its kept panels
    first, then the left and the right halves of the split ones.
    """
    runs = list(runs)
    budgets = np.broadcast_to(budgets, (len(runs),))
    for _ in range(max_depth):
        live, keep, sizes, lo_new, hi_new = [], [], [], [], []
        for i, (lo, hi, _, err) in enumerate(runs):
            if float(np.sum(err)) > budgets[i]:
                worst = err > (budgets[i] / max(1, 2 * err.size))
                a, b = lo[worst], hi[worst]
                m = 0.5 * (a + b)
                live.append(i)
                keep.append(~worst)
                sizes.append(2 * a.size)
                lo_new += [a, m]
                hi_new += [m, b]
        if not live:
            break
        owner = np.repeat(live, np.multiply(sizes, GK_NODES.size))
        new = (np.concatenate(lo_new), np.concatenate(hi_new))
        new += _gk_panels(lambda y: fn(y, owner), *new)
        start = 0
        for i, kept, n in zip(live, keep, sizes):
            runs[i] = tuple(
                np.concatenate([old[kept], x[start : start + n]])
                for old, x in zip(runs[i], new)
            )
            start += n
    else:
        for i, (_, _, _, err) in enumerate(runs):
            if float(np.sum(err)) > budgets[i]:
                warnings.warn(
                    f"{what} error estimate {float(np.sum(err)):.3g} still "
                    f"above budget {budgets[i]:.3g} after {max_depth} refinement rounds",
                    UserWarning,
                    stacklevel=4,  # the caller of the public function
                )
    return runs


def _arc_power(v: PotentialSpec, ctx: WaveContext = None):
    """int |f|^2 over each arc of each side by adaptive GK15, with the
    summed error estimates, and the extinction samples: two (2, 2) arrays
    indexed [side, arc], sides (left, right), arcs (forward, backward), and
    (f^l(0), f^r(pi)).

    Each side starts from ARC_PANELS equal panels per arc.  The first call
    of the Born kernel (`born._born_vtt_2d`) evaluates both sides' panels
    and both extinction samples; then both sides are bisected in lockstep
    (:func:`_bisect`, one call per round) until each side's summed estimate
    is at most ARC_REL_TOL times the largest initial arc integral of either
    side.  That one budget serves all four arcs: the right side of a
    construction is at roundoff, where a budget of its own would never be
    met, so it never refines and the whole budget costs 1 + R transform
    calls for R rounds of the left side.  Being relative, the budget also
    picks the same panels at g0 and 2 g0, so the g0^2 law of the arcs holds
    exactly.
    """
    half = 0.5 * np.pi
    edges = np.linspace(-half, half, ARC_PANELS + 1)
    lo = np.concatenate([edges[:-1], edges[:-1] + np.pi])
    hi = np.concatenate([edges[1:], edges[1:] + np.pi])

    def arcs(lo, hi, x):
        # panels never straddle pi / 2, so the midpoint tells the arc
        fwd = 0.5 * (lo + hi) < half
        return np.array([np.sum(x[fwd]), np.sum(x[~fwd])])

    def f2(theta, side):  # side 0 is left, 1 right
        return np.abs(_amplitude_2d(_born_vtt_2d(v, theta, side == 1, ctx))) ** 2

    extinction = []

    def first_call(theta):
        # the left panels' nodes come first, then the right ones'; the
        # extinction samples f^l(0) and f^r(pi) ride along at the end
        n = theta.size // 2
        right = np.repeat([False, True, False, True], [n, n, 1, 1])
        vtt = _born_vtt_2d(v, np.append(theta, [0.0, np.pi]), right, ctx)
        extinction.extend(_amplitude_2d(x) for x in vtt[-2:])
        return np.abs(_amplitude_2d(vtt[:-2])) ** 2

    total, err = _gk_panels(first_call, np.tile(lo, 2), np.tile(hi, 2))
    runs = [(lo, hi, t, e) for t, e in zip(np.split(total, 2), np.split(err, 2))]
    budget = ARC_REL_TOL * max(np.max(np.abs(arcs(lo, hi, t))) for _, _, t, _ in runs)
    sums, errs = np.zeros((2, 2)), np.zeros((2, 2))
    for i, (a, b, total, err) in enumerate(
        _bisect(f2, runs, budget, ARC_MAX_DEPTH, "arc integral")
    ):
        sums[i], errs[i] = arcs(a, b, total), arcs(a, b, err)
    return sums, errs, tuple(extinction)


def total_power_changes(v: PotentialSpec, ctx: WaveContext = None) -> PowerSummary:
    """Arc-resolved power changes of a 2D potential at first Born order.

    Each arc integral of |f|^2 covers its whole arc, grazing edges included,
    by adaptive Gauss-Kronrod on the Born amplitude (see :func:`_arc_power`),
    to about ARC_REL_TOL of the largest arc.  The extinction terms read f at
    theta = 0 (left) and pi (right), sampled in the arcs' first transform
    call, so the whole budget makes 1 + R transform calls for R refinement
    rounds.  Each sample equals `born_f_2d` at its angle bit for bit when
    the transform rounds each sample on its own, as the closed form and the
    x-quadrature both do; a user's `ft_fn` need not.  `ctx` defaults to the
    potential's own wave context.
    """
    sums, _, (f_left, f_right) = _arc_power(v, ctx)
    ext_left = EXTINCTION_FACTOR * float(np.imag(f_left))
    ext_right = EXTINCTION_FACTOR * float(np.imag(f_right))
    return PowerSummary(
        left_backward=float(sums[0, 1]),
        left_forward=float(sums[0, 0]) - ext_left,
        right_backward=float(sums[1, 1]) - ext_right,
        right_forward=float(sums[1, 0]),
    )


def _check_construction(params):
    if not isinstance(params, ConstructionParams):
        raise TypeError(
            f"amplitude source must be ConstructionParams, got {type(params).__name__}"
        )


def _xi(k, r, phase, f):
    """The one xi kernel, given its phase k r (1 - cos theta) precomputed
    and the amplitude f."""
    pref = np.exp(1j * (phase + np.pi / 4.0)) / np.sqrt(k * r)
    return np.real(pref * f)


def xi(params: ConstructionParams, r, theta):
    """Interference profile Re[sqrt(i/(k r)) e^{i k r (1-cos theta)} f(theta)].

    f is the closed-form left amplitude of the construction `params`.
    """
    _check_construction(params)
    k = params.ctx.k
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    # 1 - cos theta = 2 sin^2(theta / 2) avoids cancellation near theta = 0
    phase = 2.0 * k * r * np.sin(0.5 * theta) ** 2
    return _xi(k, r, phase, closed_form_f_left(params, theta))


def _screen_integrand(k, d, f):
    """y -> du(y) = (1 + cos theta) xi on a screen at distance d, for the
    vectorized amplitude f(theta) at wavenumber k."""

    def integrand(y):
        r = np.hypot(d, y)
        # r - d = y^2 / (r + d) avoids cancellation at wide screens
        phase = k * (y * y / (r + d))
        return (1.0 + d / r) * _xi(k, r, phase, f(np.arctan2(y, d)))

    return integrand


def _gk_panels(fn_y, lo, hi):
    """Vectorized GK15 over panels [lo_i, hi_i]: (k15 sums, error estimates).

    Each panel's 15 samples are reduced on their own (einsum, not a BLAS
    gemv), so a panel's sums do not depend on the batch it is evaluated in.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    ys = mid[:, None] + rad[:, None] * GK_NODES[None, :]
    vals = fn_y(ys.ravel()).reshape(ys.shape)
    k15 = rad * np.einsum("pn,n->p", vals, GK_WEIGHTS)
    g7 = rad * np.einsum("pn,n->p", vals, G7_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _screen_sweep(k, d, s_values, f_even) -> np.ndarray:
    """dP_screen at every width of s_values, from one shared set of panels,
    of the amplitude whose even part is f_even.

    The screen is centred, so dP_screen(s) = (1/s) int_0^{s/2} (du(y) +
    du(-y)) dy, the folded integrand 2 du on f_even.  A width s is cut at
    the _SCREEN_PHASE_STEP (pi) phase increments c_1 < c_2 < ... of
    k (r - d) below s/2 (c_0 = 0).  With n such cuts it has the whole panels
    [c_{j-1}, c_j] for j = 1 .. n and the end panel [c_n, s/2].  The cuts do
    not depend on s, so a narrower screen's whole panels are a prefix of the
    widest screen's.  Every whole panel and the end panel of every width go
    through the integrand in one batch, or in equal batches of at most
    _SCREEN_BATCH_PANELS panels for very wide screens, and with the prefix
    sums P[n] = sum_{j <= n} [c_{j-1}, c_j] (P[0] = 0) each width reads
    P[n] + end panel, for its sum and for its error estimate alike, all
    widths at once.  A prefix of length n does not depend on the widest
    width and panel sums do not depend on their batch, so every width gets
    the same value as a sweep of that width alone.

    Only widths whose summed error estimate exceeds SCREEN_ABS_TOL * s are
    refined, each from its own copy of the same panels and all of them in
    lockstep (:func:`_bisect`): bisect wherever the embedded Gauss rule
    disagrees with the Kronrod one until each width's summed estimate drops
    below its budget, with one integrand call per round for all the widths,
    so a width gets the value it would get refined alone.
    """
    du_even = _screen_integrand(k, d, f_even)

    def integrand(y):
        return 2.0 * du_even(y)

    s_values = np.asarray(s_values, dtype=float)
    half = 0.5 * s_values
    # cuts m = 1 .. floor(k (r(s/2) - d) / step) that lie below s/2
    n_cuts = np.floor(k * (np.hypot(d, half) - d) / _SCREEN_PHASE_STEP).astype(int)
    rad = d + np.arange(1, n_cuts.max(initial=0) + 1) * (_SCREEN_PHASE_STEP / k)
    cuts = np.concatenate([[0.0], np.sqrt(rad * rad - d * d)])
    used = np.minimum(n_cuts, np.searchsorted(cuts[1:], half))
    edges = cuts[: used.max(initial=0) + 1]
    whole = edges.size - 1
    # [whole panels 1 .. whole | end panels]
    lo_all = np.concatenate([edges[:-1], edges[used]])
    hi_all = np.concatenate([edges[1:], half])
    n_batches = max(1, -(-lo_all.size // _SCREEN_BATCH_PANELS))
    sums = [
        _gk_panels(integrand, lo, hi)
        for lo, hi in zip(np.array_split(lo_all, n_batches), np.array_split(hi_all, n_batches))
    ]
    total_all = np.concatenate([t for t, _ in sums])
    err_all = np.concatenate([e for _, e in sums])

    def per_width(x):
        return np.cumsum(np.concatenate([[0.0], x[:whole]]))[used] + x[whole:]

    out = per_width(total_all) / s_values
    budgets = SCREEN_ABS_TOL * s_values
    refine = np.flatnonzero(per_width(err_all) > budgets)
    if refine.size:
        panels = [np.r_[: used[i], whole + i] for i in refine]
        runs = _bisect(
            lambda y, _: integrand(y),
            [(lo_all[p], hi_all[p], total_all[p], err_all[p]) for p in panels],
            budgets[refine], SCREEN_MAX_DEPTH, "screen integral",
        )
        out[refine] = [np.sum(total) for _, _, total, _ in runs] / s_values[refine]
    return out


def screen_power(params: ConstructionParams, screen: ScreenSpec) -> float:
    """Normalized screen power change dP_screen(s) of the construction
    `params` (its closed-form left amplitude), adaptively integrated.

    The one-width case of the shared-panel sweep behind :func:`fig2_curves`:
    panels start at pi phase increments and are bisected wherever the
    embedded Gauss rule disagrees with the Kronrod one, until the summed
    error estimate of the y-integral drops below SCREEN_ABS_TOL * s (so the
    result itself is good to about SCREEN_ABS_TOL); after SCREEN_MAX_DEPTH
    rounds it warns and returns what it has.
    """
    _check_construction(params)
    f_even = partial(_closed_form_f_left_even, params)
    return float(_screen_sweep(params.ctx.k, screen.d, [screen.s], f_even)[0])


def screen_power_oracle(params: ConstructionParams, screen: ScreenSpec) -> float:
    """Non-adaptive composite Gauss-Legendre route to dP_screen.

    Uniform panels over the whole screen sized to at most a pi/2 phase
    step, an ORACLE_NODES_PER_PANEL-point rule on each, on the unfolded
    integrand of the closed form itself; independent of the Kronrod
    machinery and of the folded even part in :func:`screen_power`.  The
    panels are evaluated at most _ORACLE_BATCH_PANELS at a time into one
    array of panel sums, so the oracle's memory stays flat however wide the
    screen.
    """
    _check_construction(params)
    integrand = _screen_integrand(params.ctx.k, screen.d, partial(closed_form_f_left, params))
    half = 0.5 * screen.s
    phi_max = params.ctx.k * (np.hypot(screen.d, half) - screen.d)
    n_panels = max(8, int(np.ceil(phi_max / (np.pi / 2.0))) * 2)
    edges = np.linspace(-half, half, n_panels + 1)
    xq, wq = leggauss(ORACLE_NODES_PER_PANEL)
    mid = 0.5 * (edges[:-1] + edges[1:])
    rad = 0.5 * np.diff(edges)
    panel_sums = np.empty(n_panels)
    for start in range(0, n_panels, _ORACLE_BATCH_PANELS):
        part = slice(start, start + _ORACLE_BATCH_PANELS)
        ys = mid[part, None] + rad[part, None] * xq[None, :]
        vals = integrand(ys.ravel()).reshape(ys.shape)
        panel_sums[part] = rad[part] * (vals @ wq)
    return float(np.sum(panel_sums) / screen.s)


def fig2_curves(
    s_values=None,
    ks=None,
    d: float = 100.0,
    g0: float = 1e-2,
    b: float = 1.0,
    slab: float = 1.0,
    ell: int = -1,
    m: int = 1,
) -> list:
    """Screen-power sweeps for the standard benchmark configuration.

    One curve per wavenumber; defaults reproduce the quartic-envelope,
    (ell, m) = (-1, 1) setup at k in {2 pi, 4 pi, 8 pi, 12 pi}, screen
    distance 100 slab widths, 400 widths up to s = 100.  Each curve is one
    shared-panel pass over all widths (see :func:`screen_power`), and each
    value equals screen_power at that width bit for bit.
    """
    if s_values is None:
        s_values = np.linspace(0.25, 100.0, 400) * slab
    s_values = np.asarray(s_values, dtype=float)
    _check_screen(d, s_values)
    if ks is None:
        ks = [2.0 * np.pi, 4.0 * np.pi, 8.0 * np.pi, 12.0 * np.pi]
    env = quartic_envelope(g0, b)
    curves = []
    for k in ks:
        params = ConstructionParams(
            ell=ell, m=m, envelope=env, ctx=WaveContext(k=float(k)), slab=slab
        )
        curves.append(
            PowerCurve(
                k=float(k),
                d=d,
                s_values=s_values.copy(),
                values=_screen_sweep(
                    params.ctx.k, d, s_values, partial(_closed_form_f_left_even, params)
                ),
                label=f"ell={ell} m={m} g0={g0:g} b={b:g}",
            )
        )
    return curves
