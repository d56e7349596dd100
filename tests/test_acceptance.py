"""Acceptance gate: the package's headline claims, one test per claim.

Each test prints a single machine-greppable line

    ACCEPTANCE <n>: PASS|FAIL - <measured quantities>

through the terminal reporter, so the lines survive pytest's capture and
appear in plain ``pytest -v`` output.  The assertions repeat the printed
condition; a FAIL line is emitted before the assert fires.

Checks 1-2 pin the constructed potentials' one-way invisibility and the
closed-form transmission at Born order.  3-4 are the structural theorems
(forward reciprocity, conserved bilinear current) on randomized potentials
through the full transfer matrix.  5-6 bound the distance between the Born
and evolved coefficients as the coupling shrinks.  7 checks the exact
power-scaling laws, 8 the screen-power benchmark, 9 the 3D construction,
10 the quadrature oracles behind every analytic Fourier transform.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    ConstructionParams,
    ScreenSpec,
    WaveContext,
    born_f_2d,
    born_f_3d,
    born_t_3d,
    born_t_values,
    build_potential_2d,
    build_potential_3d,
    check_symplectic,
    closed_form_t_left,
    constructed_ft_2d,
    evolve_transfer,
    extract_t,
    fig2_curves,
    gauss_grid,
    gaussian_envelope,
    potential_value_2d,
    quartic_envelope,
    random_smooth_potential,
    screen_power,
    screen_power_oracle,
    total_power_changes,
)

PAIRS = ((-1, 1), (1, 2), (-2, 3))
KS = (2 * np.pi, 4 * np.pi)
ENVS = ("quartic", "gaussian")


@pytest.fixture(scope="module")
def report(request):
    """Emit one PASS/FAIL line per criterion past pytest's capture."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num, ok, detail):
        text = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        if tr is None:
            print(text)
        else:
            tr.ensure_newline()
            tr.write_line(text)
        return ok

    return emit


def _construction(ell, m, kind, k, g0=1e-2, b=1.0, slab=1.0):
    env = quartic_envelope(g0, b) if kind == "quartic" else gaussian_envelope(g0, b)
    return ConstructionParams(ell=ell, m=m, envelope=env, ctx=WaveContext(k=k), slab=slab)


def _all_configs():
    for ell, m in PAIRS:
        for kind in ENVS:
            for k in KS:
                yield _construction(ell, m, kind, k)


def test_criterion_01_right_invisibility(report):
    t0 = time.time()
    worst = 0.0
    for params in _all_configs():
        v = build_potential_2d(params)
        p = np.linspace(-0.995, 0.995, 201) * params.ctx.k
        left = np.max(np.abs(born_t_values(v, "left", "plus", p)))
        right = max(
            np.max(np.abs(born_t_values(v, "right", "plus", p))),
            np.max(np.abs(born_t_values(v, "right", "minus", p))),
        )
        worst = max(worst, right / left)
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 10.0
    report(1, ok, f"right/left sup ratio {worst:.2e} <= 1e-10 over 12 configs ({dt:.2f}s)")
    assert worst <= 1e-10
    assert dt < 10.0


def test_criterion_02_closed_form_transmission(report):
    t0 = time.time()
    worst, weakest = 0.0, np.inf
    for params in _all_configs():
        v = build_potential_2d(params)
        p = np.linspace(-0.995, 0.995, 201) * params.ctx.k
        for sign in ("plus", "minus"):
            a = born_t_values(v, "left", sign, p)
            b = closed_form_t_left(params, sign, p)
            sup = np.max(np.abs(b))
            worst = max(worst, np.max(np.abs(a - b)) / sup)
            if sign == "plus":
                weakest = min(weakest, sup)
    dt = time.time() - t0
    ok = weakest > 0.0 and worst <= 1e-10 and dt < 10.0
    report(
        2,
        ok,
        f"born vs closed form {worst:.2e} <= 1e-10 rel, min sup|T^l_+| "
        f"{weakest:.2e} > 0 ({dt:.2f}s)",
    )
    assert weakest > 0.0
    assert worst <= 1e-10
    assert dt < 10.0


def test_criterion_03_forward_reciprocity(report):
    t0 = time.time()
    ctx = WaveContext(k=4 * np.pi)
    grid = gauss_grid(41, ctx)
    th = np.linspace(-1.2, 1.2, 61)
    worst_born, worst_num = 0.0, 0.0
    for seed in range(20):
        v = random_smooth_potential(seed, amplitude=0.05)
        scale = max(
            np.max(np.abs(born_f_2d(v, "left", th, ctx=ctx))),
            np.max(np.abs(born_f_2d(v, "right", np.pi - th, ctx=ctx))),
        )
        gap = abs(
            complex(born_f_2d(v, "left", 0.0, ctx=ctx))
            - complex(born_f_2d(v, "right", np.pi, ctx=ctx))
        )
        worst_born = max(worst_born, gap / scale)
        op = evolve_transfer(v, grid, slices=400)
        tl = extract_t(op, "left", "plus").values
        tr = extract_t(op, "right", "minus").values
        tscale = max(np.max(np.abs(tl)), np.max(np.abs(tr)))
        c = grid.center_index
        worst_num = max(worst_num, abs(tl[c] - tr[c]) / tscale)
    dt = time.time() - t0
    ok = worst_born <= 1e-12 and worst_num <= 1e-6 and dt < 300.0
    report(
        3,
        ok,
        f"f^l(0)=f^r(pi): born {worst_born:.2e} <= 1e-12, transfer matrix "
        f"{worst_num:.2e} <= 1e-6, 20 random potentials ({dt:.1f}s)",
    )
    assert worst_born <= 1e-12
    assert worst_num <= 1e-6
    assert dt < 300.0


def test_criterion_04_symplectic_conservation(report):
    t0 = time.time()
    grid = gauss_grid(41, WaveContext(k=4 * np.pi))
    worst_res, worst_order = 0.0, np.inf
    for seed in range(10):
        v = random_smooth_potential(100 + seed, amplitude=0.05)
        res = {
            n: check_symplectic(evolve_transfer(v, grid, slices=n))
            for n in (25, 50, 100, 400)
        }
        worst_res = max(worst_res, res[400])
        worst_order = min(
            worst_order, np.log2(res[25] / res[50]), np.log2(res[50] / res[100])
        )
    dt = time.time() - t0
    ok = worst_res <= 1e-6 and worst_order >= 3.5 and dt < 300.0
    report(
        4,
        ok,
        f"symplectic residual {worst_res:.2e} <= 1e-6 at 400 slices, observed "
        f"order {worst_order:.2f} >= 3.5, 10 random potentials ({dt:.1f}s)",
    )
    assert worst_res <= 1e-6
    assert worst_order >= 3.5
    assert dt < 300.0


@lru_cache(maxsize=None)
def _coupling_sweep():
    """Evolved-vs-Born gaps and right-side sups for g0 in three decades."""
    ctx = WaveContext(k=4 * np.pi)
    grid = gauss_grid(41, ctx)
    out = {}
    for g0 in (1e-2, 1e-3, 1e-4):
        params = _construction(-1, 1, "quartic", ctx.k, g0=g0)
        v = build_potential_2d(params)
        op = evolve_transfer(v, grid, slices=400)
        gap, born_sup, right_sup = 0.0, 0.0, 0.0
        for side in ("left", "right"):
            for sign in ("plus", "minus"):
                ex = extract_t(op, side, sign).values
                bo = born_t_values(v, side, sign, grid.nodes)
                gap = max(gap, float(np.max(np.abs(ex - bo))))
                born_sup = max(born_sup, float(np.max(np.abs(bo))))
                if side == "right":
                    right_sup = max(right_sup, float(np.max(np.abs(ex))))
        out[g0] = (gap, born_sup, right_sup)
    return out


def test_criterion_05_born_error_is_second_order(report):
    t0 = time.time()
    sweep = _coupling_sweep()
    gaps = {g0: sweep[g0][0] for g0 in sweep}
    rel = {g0: sweep[g0][0] / sweep[g0][1] for g0 in sweep}
    abs_ratios = (gaps[1e-2] / gaps[1e-3], gaps[1e-3] / gaps[1e-4])
    rel_ratios = (rel[1e-2] / rel[1e-3], rel[1e-3] / rel[1e-4])
    dt = time.time() - t0
    ok = all(50.0 <= r <= 200.0 for r in abs_ratios) and dt < 600.0
    report(
        5,
        ok,
        f"|extract - born| decade ratios {abs_ratios[0]:.2f}, {abs_ratios[1]:.2f} "
        f"in [50, 200]; normalized-at-same-g0 ratios {rel_ratios[0]:.2f}, "
        f"{rel_ratios[1]:.2f} for information ({dt:.1f}s)",
    )
    for r in abs_ratios:
        assert 50.0 <= r <= 200.0
    assert dt < 600.0


def test_criterion_06_residual_right_side_is_second_order(report):
    t0 = time.time()
    sweep = _coupling_sweep()
    c = {g0: sweep[g0][2] / g0**2 for g0 in sweep}
    spread = max(c.values()) / min(c.values())
    dt = time.time() - t0
    ok = spread <= 1.05 and dt < 600.0
    report(
        6,
        ok,
        f"sup|T^r| / g0^2 = {c[1e-2]:.4e}, {c[1e-3]:.4e}, {c[1e-4]:.4e}; "
        f"spread {spread:.4f} <= 1.05 ({dt:.1f}s)",
    )
    assert spread <= 1.05
    assert dt < 600.0


def test_criterion_07_power_scaling_laws(report):
    t0 = time.time()
    ctx = WaveContext(k=4 * np.pi)
    sums = {}
    for g0 in (1e-2, 2e-2):
        params = _construction(-1, 1, "quartic", ctx.k, g0=g0)
        sums[g0] = total_power_changes(build_potential_2d(params))
    names = (
        "left_backward", "left_forward", "left_total",
        "right_backward", "right_forward", "right_total",
    )
    base = np.array([getattr(sums[1e-2], n) for n in names])
    doubled = np.array([getattr(sums[2e-2], n) for n in names])
    # right-side entries are extinction-dominated roundoff; below the floor
    # they are numerical zeros and only need to stay there after doubling
    floor = 1e-20 * np.max(np.abs(base))
    live = np.abs(base) > floor
    quad_err = float(np.max(np.abs(doubled[live] / base[live] - 4.0)))
    zeros_stay = bool(np.all(np.abs(doubled[~live]) <= 4.0 * floor))

    screen_err = 0.0
    specs = [ScreenSpec(d=100.0, s=s) for s in np.linspace(0.5, 100.0, 25)]
    p1 = _construction(-1, 1, "quartic", ctx.k, g0=1e-2)
    p2 = _construction(-1, 1, "quartic", ctx.k, g0=2e-2)
    for spec in specs:
        ratio = screen_power(p2, spec) / screen_power(p1, spec)
        screen_err = max(screen_err, abs(ratio - 2.0))
    dt = time.time() - t0
    ok = quad_err <= 1e-10 and zeros_stay and screen_err <= 1e-10 and dt < 60.0
    report(
        7,
        ok,
        f"power entries x4 within {quad_err:.2e}, screen samples x2 within "
        f"{screen_err:.2e} (tol 1e-10), sub-floor entries stay zero: "
        f"{zeros_stay} ({dt:.1f}s)",
    )
    assert quad_err <= 1e-10
    assert zeros_stay
    assert screen_err <= 1e-10
    assert dt < 60.0


FIG2_KS = (2 * np.pi, 4 * np.pi, 8 * np.pi, 12 * np.pi)


def _k_label(k):
    return f"{k / np.pi:.0f}pi"


@lru_cache(maxsize=None)
def _fig2_sweep():
    s = np.linspace(0.25, 100.0, 400)
    curves = fig2_curves(
        s_values=s, ks=list(FIG2_KS), d=100.0, g0=1e-2, b=1.0, slab=1.0, ell=-1, m=1
    )
    return s, curves


def test_criterion_08i_screen_power_small_width_limit(report):
    t0 = time.time()
    _, curves = _fig2_sweep()
    worst = 0.0
    for curve in curves:
        params = _construction(-1, 1, "quartic", curve.k)
        tiny = abs(screen_power(params, ScreenSpec(d=100.0, s=1e-3)))
        worst = max(worst, tiny / np.max(np.abs(curve.values)))
    dt = time.time() - t0
    ok = worst <= 1e-4 and dt < 300.0
    report(
        "8i", ok,
        f"|dP(s=1e-3)| / max|dP| = {worst:.2e} <= 1e-4 over 4 wavenumbers ({dt:.1f}s)",
    )
    assert worst <= 1e-4
    assert dt < 300.0


def test_criterion_08ii_screen_power_large_width_sign(report):
    t0 = time.time()
    _, curves = _fig2_sweep()
    failures, parts = [], []
    for curve in curves:
        quart = curve.values[300:]  # s in (75, 100]
        parts.append(
            f"{_k_label(curve.k)}: min {np.min(quart):+.2e}, mean "
            f"{np.mean(quart):+.2e}, {100 * np.mean(quart > 0):.0f}% positive"
        )
        if not np.all(quart > 0):
            failures.append(_k_label(curve.k))
    dt = time.time() - t0
    ok = not failures and dt < 300.0
    report("8ii", ok, f"dP > 0 on the top quartile; {'; '.join(parts)} ({dt:.1f}s)")
    # The 2pi and 4pi curves oscillate about a positive mean: their lowest
    # grating order phase-matches near grazing, so the screen-edge term
    # decays only like 1/sqrt(s) and sign dips persist beyond any sampled
    # range reachable in the runtime budget (negative runs out to s=400
    # at k=2pi were measured).  The windowed mean is positive for every k,
    # which is the sense in which large screens gain power; the pointwise
    # claim is asserted anyway rather than weakened.
    assert not failures, f"top-quartile sign dips at {', '.join(failures)}"
    assert dt < 300.0


def test_criterion_08iii_screen_power_adaptive_vs_oracle(report):
    t0 = time.time()
    s_values, curves = _fig2_sweep()
    # each curve's worst gap is bounded relative to that curve's own max |dP|
    # (~1e-6), since an absolute bound of that size passes any answer of
    # the right magnitude
    gaps = []
    for curve in curves:
        params = _construction(-1, 1, "quartic", curve.k)
        oracle = np.array(
            [screen_power_oracle(params, ScreenSpec(d=100.0, s=s)) for s in s_values]
        )
        gaps.append((
            float(np.max(np.abs(curve.values - oracle))),
            float(np.max(np.abs(curve.values))),
        ))
    worst, peak = max(gaps, key=lambda g: g[0] / g[1])
    dt = time.time() - t0
    ok = worst <= 1e-9 * peak and dt < 300.0
    report(
        "8iii", ok,
        f"adaptive vs fixed-order quadrature {worst:.2e} <= 1e-9 x max|dP| "
        f"{peak:.2e} on 1600 samples ({dt:.1f}s)",
    )
    assert worst <= 1e-9 * peak
    assert dt < 300.0


def test_criterion_09_three_dimensional_construction(report):
    t0 = time.time()
    ctx = WaveContext(k=4 * np.pi)
    params = ConstructionParams(
        ell=-1,
        m=1,
        envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 1.0)),
        ctx=ctx,
        slab=1.0,
    )
    v = build_potential_3d(params)
    rng = np.random.default_rng(41)
    r = 0.98 * ctx.k * np.sqrt(rng.uniform(0.0, 1.0, 50))
    ph = rng.uniform(0.0, 2.0 * np.pi, 50)
    px, py = r * np.cos(ph), r * np.sin(ph)
    left = max(
        np.max(np.abs(born_t_3d(v, "left", "plus", px, py))),
        np.max(np.abs(born_t_3d(v, "left", "minus", px, py))),
    )
    right = max(
        np.max(np.abs(born_t_3d(v, "right", "plus", px, py))),
        np.max(np.abs(born_t_3d(v, "right", "minus", px, py))),
    )
    az = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    th = np.linspace(0.0, 1.5, 25)
    fscale = np.max(np.abs(born_f_3d(v, "left", th[:, None], az[None, :])))
    recip = np.max(
        np.abs(born_f_3d(v, "left", 0.0, az) - born_f_3d(v, "right", np.pi, az))
    )
    dt = time.time() - t0
    ok = right <= 1e-10 * left and recip <= 1e-12 * fscale and dt < 120.0
    report(
        9,
        ok,
        f"3d right/left sup ratio {right / left:.2e} <= 1e-10 at 50 transverse "
        f"momenta; forward reciprocity {recip / fscale:.2e} <= 1e-12 at 8 "
        f"azimuths ({dt:.1f}s)",
    )
    assert right <= 1e-10 * left
    assert recip <= 1e-12 * fscale
    assert dt < 120.0


def _envelope_ft_quadrature(env, q, n=400):
    nodes, weights = leggauss(n)
    y0, y1 = env.support
    y = y0 + 0.5 * (y1 - y0) * (nodes + 1.0)
    w = 0.5 * (y1 - y0) * weights
    return np.exp(-1j * np.outer(np.atleast_1d(q), y)) @ (w * env.value(y))


def _constructed_ft_quadrature(params, kx, ky, nx=420, ny=220):
    env = params.envelope
    gx, wx = leggauss(nx)
    gy, wy = leggauss(ny)
    x = 0.5 * params.slab * (gx + 1.0)
    wxs = 0.5 * params.slab * wx
    y0, y1 = env.support
    y = y0 + 0.5 * (y1 - y0) * (gy + 1.0)
    wys = 0.5 * (y1 - y0) * wy
    vals = potential_value_2d(params, x[:, None], y[None, :])
    ex = np.exp(-1j * np.outer(kx, x)) * wxs
    ey = np.exp(-1j * np.outer(ky, y)) * wys
    return np.einsum("ma,ab,mb->m", ex, vals, ey)


def test_criterion_10_fourier_transform_oracles(report):
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worsts = {}

    q = rng.uniform(-30.0, 30.0, 100)
    for kind, make in (("gaussian", gaussian_envelope), ("quartic", quartic_envelope)):
        env = make(1e-2, 1.0)
        a = env.ft(q)
        b = _envelope_ft_quadrature(env, q)
        worsts[kind] = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    worst2d = 0.0
    for ell, m, kind in ((-2, 3, "quartic"), (-1, 1, "gaussian")):
        params = _construction(ell, m, kind, 4 * np.pi)
        K = params.K
        kx = rng.uniform(-3.0 * K, 4.0 * K, 50)
        poles = np.array([0.0, ell * K, m * K])
        kx = np.concatenate([kx, poles + 1e-5 * K, poles - 1e-5 * K])
        ky = rng.uniform(-6.0, 6.0, kx.size)
        a = constructed_ft_2d(params, kx, ky)
        b = _constructed_ft_quadrature(params, kx, ky)
        worst2d = max(worst2d, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    dt = time.time() - t0
    worst = max(worst2d, *worsts.values())
    ok = worst <= 1e-8 and dt < 60.0
    report(
        10,
        ok,
        f"analytic vs quadrature (sup-relative): gaussian {worsts['gaussian']:.2e}, "
        f"quartic {worsts['quartic']:.2e}, constructed 2d {worst2d:.2e} <= 1e-8, "
        f"pole offsets 1e-5 K included ({dt:.1f}s)",
    )
    assert worst <= 1e-8
    assert dt < 60.0
