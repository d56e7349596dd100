"""Far-zone power accounting and the screen interference integral."""

from __future__ import annotations

import numpy as np
import pytest

from uniscat import (
    EXTINCTION_FACTOR,
    AmplitudeTable,
    ConstructionParams,
    PowerCurve,
    PowerSummary,
    ScreenSpec,
    SparseArcWarning,
    WaveContext,
    amplitude_table,
    build_potential_2d,
    closed_form_f_left,
    fig2_curves,
    gaussian_envelope,
    quartic_envelope,
    screen_power,
    screen_power_oracle,
    total_power_changes,
    xi,
)
from uniscat import empower
from uniscat.empower import (
    G7_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
    _gk_panels,
    _screen_integrand,
    _screen_sweep,
)

CTX = WaveContext(k=4 * np.pi)


def _params(g0=1e-2, k=4 * np.pi):
    return ConstructionParams(
        ell=-1, m=1, envelope=quartic_envelope(g0, 1.0), ctx=WaveContext(k=k), slab=1.0
    )


def _flat_table(side, value, n=801):
    """A synthetic amplitude, constant over both arcs."""
    fwd = np.linspace(-1.5, 1.5, n)
    back = np.linspace(np.pi - 1.5, np.pi + 1.5, n)
    th = np.concatenate([fwd, back])
    return AmplitudeTable(
        side=side,
        thetas=th,
        values=np.full(th.shape, value, dtype=complex),
        forward=complex(value),
    )


def test_kronrod_constants():
    assert GK_NODES.shape == (15,)
    assert np.allclose(np.sort(GK_NODES), GK_NODES)
    assert np.allclose(GK_NODES + GK_NODES[::-1], 0.0, atol=1e-15)
    assert np.sum(GK_WEIGHTS) == pytest.approx(2.0, abs=1e-14)
    assert np.sum(G7_WEIGHTS) == pytest.approx(2.0, abs=1e-14)
    # the embedded 7-point rule lives on the odd-index nodes only
    assert np.all(G7_WEIGHTS[0::2] == 0.0)


def test_gk_panels_integrate_polynomials():
    # k15 is exact through degree 22; x^8 over split panels
    k15, err = _gk_panels(lambda y: y**8, np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    assert np.sum(k15) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert np.all(err < 1e-12)


def test_constant_amplitude_power_oracle():
    c1, c2 = 0.3 - 0.2j, 0.1 + 0.5j
    span = 3.0  # each sampled arc covers 3 radians
    summary = total_power_changes(_flat_table("left", c1), _flat_table("right", c2))
    assert summary.left_backward == pytest.approx(abs(c1) ** 2 * span, rel=1e-12)
    assert summary.left_forward == pytest.approx(
        abs(c1) ** 2 * span - EXTINCTION_FACTOR * c1.imag, rel=1e-12
    )
    assert summary.right_backward == pytest.approx(
        abs(c2) ** 2 * span - EXTINCTION_FACTOR * c2.imag, rel=1e-12
    )
    assert summary.right_forward == pytest.approx(abs(c2) ** 2 * span, rel=1e-12)
    assert summary.left_total == summary.left_backward + summary.left_forward
    assert summary.right_total == summary.right_backward + summary.right_forward


def test_zero_amplitude_changes_nothing():
    summary = total_power_changes(_flat_table("left", 0.0), _flat_table("right", 0.0))
    assert summary == PowerSummary(0.0, 0.0, 0.0, 0.0)


def test_side_order_is_enforced():
    with pytest.raises(ValueError):
        total_power_changes(_flat_table("right", 1.0), _flat_table("right", 1.0))


def test_sparse_arc_warning():
    th = np.concatenate([np.linspace(-1.5, 1.5, 9), np.linspace(np.pi - 1.5, np.pi + 1.5, 40)])
    table = AmplitudeTable(
        side="left", thetas=th, values=np.ones(th.shape, complex), forward=1 + 0j
    )
    with pytest.warns(SparseArcWarning):
        total_power_changes(table, _flat_table("right", 0.0))


def test_one_way_power_budget_of_the_construction():
    v = build_potential_2d(_params())
    margin = 2e-3
    fwd = np.linspace(-np.pi / 2 + margin, np.pi / 2 - margin, 1201)
    back = np.pi - fwd
    th = np.concatenate([fwd, back])
    f_left = amplitude_table(v, "left", th)
    f_right = amplitude_table(v, "right", th)
    summary = total_power_changes(f_left, f_right)
    left_scale = max(abs(summary.left_backward), abs(summary.left_forward))
    assert left_scale > 0.0
    assert summary.left_backward > 0.0
    assert abs(summary.right_backward) < 1e-12 * left_scale
    assert abs(summary.right_forward) < 1e-12 * left_scale


def test_xi_inverse_square_root_falloff():
    params = _params()
    k, th = params.ctx.k, 0.4
    # the construction's f vanishes at theta = 0, so take theta = 0.4 at the
    # distance r where the phase 2 k r sin^2(theta / 2) is one whole turn; at
    # 4 r it is four, so the r dependence is the prefactor alone
    r = np.pi / (k * np.sin(0.5 * th) ** 2)
    a = xi(params, r, th)
    b = xi(params, 4.0 * r, th)
    f = closed_form_f_left(params, th)
    assert a == pytest.approx(np.real(np.exp(1j * np.pi / 4.0) * f) / np.sqrt(k * r), rel=1e-14)
    assert a / b == pytest.approx(2.0, rel=1e-14)


def test_xi_accepts_the_construction_directly():
    params = _params()
    r, th = 50.0, 0.4
    want = np.real(
        np.exp(1j * (np.pi / 4.0 + 2.0 * params.ctx.k * r * np.sin(0.5 * th) ** 2))
        / np.sqrt(params.ctx.k * r)
        * closed_form_f_left(params, th)
    )
    assert xi(params, r, th) == pytest.approx(want, rel=1e-14)
    with pytest.raises(TypeError):
        xi("not a source", 1.0, 0.0)
    # the screen integrand is du = (1 + cos theta) xi at r = hypot(d, y); both
    # phases are free of cancellation, so they agree at far screens too
    y = np.array([-37.0, -4.5, 0.0, 0.8, 12.0, 49.9])
    for d, scale, tol in ((100.0, 1.0, 1e-12), (1e4, 100.0, 2e-12)):
        integrand = _screen_integrand(params, d)
        r, th = np.hypot(d, scale * y), np.arctan2(scale * y, d)
        want = (1.0 + np.cos(th)) * xi(params, r, th)
        assert np.max(np.abs(integrand(scale * y) - want)) < tol * np.max(np.abs(want))


def test_screen_power_against_the_independent_rule():
    params = _params()
    for s in (1.0, 10.0, 50.0):
        a = screen_power(params, ScreenSpec(d=100.0, s=s))
        b = screen_power_oracle(params, ScreenSpec(d=100.0, s=s))
        assert abs(a - b) < 1e-12


def test_screen_power_is_exactly_linear_in_the_envelope():
    spec = ScreenSpec(d=100.0, s=10.0)
    p1 = screen_power(_params(g0=1e-2), spec)
    p2 = screen_power(_params(g0=2e-2), spec)
    assert p1 != 0.0
    assert p2 == pytest.approx(2.0 * p1, rel=1e-13)


def test_screen_power_vanishes_with_the_width():
    params = _params()
    tiny = abs(screen_power(params, ScreenSpec(d=100.0, s=1e-3)))
    bulk = np.max(
        np.abs([screen_power(params, ScreenSpec(d=100.0, s=s)) for s in (5.0, 20.0, 60.0)])
    )
    assert tiny < 1e-4 * bulk


def test_screen_spec_validation():
    with pytest.raises(ValueError):
        ScreenSpec(d=0.0, s=1.0)
    with pytest.raises(ValueError):
        ScreenSpec(d=1.0, s=-2.0)


def test_fig2_curves_layout_and_determinism():
    s = np.linspace(1.0, 12.0, 7)
    a, = fig2_curves(s_values=s, ks=[4 * np.pi])
    b, = fig2_curves(s_values=s, ks=[4 * np.pi])
    assert isinstance(a, PowerCurve)
    assert a.k == 4 * np.pi and a.d == 100.0
    assert np.array_equal(a.s_values, s)
    assert np.all(np.isfinite(a.values))
    assert np.array_equal(a.values, b.values)
    assert "ell=-1" in a.label


def test_gk_panel_sums_do_not_depend_on_the_batch():
    params = _params()
    integrand = _screen_integrand(params, 100.0)
    rng = np.random.default_rng(7)
    lo = rng.uniform(-50.0, 50.0, 1000)
    hi = lo + rng.uniform(1e-3, 2.0, 1000)
    k15, err = _gk_panels(integrand, lo, hi)
    k15_rev, err_rev = _gk_panels(integrand, lo[::-1], hi[::-1])
    assert np.array_equal(k15_rev[::-1], k15) and np.array_equal(err_rev[::-1], err)
    alone = [_gk_panels(integrand, lo[i : i + 1], hi[i : i + 1]) for i in range(lo.size)]
    assert np.array_equal(np.concatenate([a for a, _ in alone]), k15)
    assert np.array_equal(np.concatenate([e for _, e in alone]), err)


def _per_width_phase_cut_edges(k, d, s):
    """Panel edges of one width, cut at pi/4 phase steps by a plain loop."""
    half = 0.5 * s
    n_cuts = int(np.floor(k * (np.hypot(d, half) - d) / (np.pi / 4.0)))
    cuts = []
    for m in range(1, n_cuts + 1):
        rad = d + m * np.pi / (4.0 * k)
        y = np.sqrt(rad * rad - d * d)
        if y < half:
            cuts.append(y)
    edges = np.array([0.0] + cuts + [half])
    return np.unique(np.concatenate([-edges[::-1], edges]))


@pytest.mark.parametrize("k, d", [(2 * np.pi, 100.0), (12 * np.pi, 100.0), (3.3, 7.5)])
def test_sweep_panels_are_the_per_width_phase_cuts(k, d):
    # these widths need no bisection, so each value is the plain panel sum
    params = _params(k=k)
    integrand = _screen_integrand(params, d)
    widths = np.array([0.3, 1.0, 9.7, 40.0, 100.0])
    want = []
    for s in widths:
        edges = _per_width_phase_cut_edges(k, d, s)
        k15 = _gk_panels(integrand, edges[:-1], edges[1:])[0]
        # summed as pairs L_j + R_j from the centre outward, then the end panels
        n = (k15.size - 2) // 2
        pairs = k15[n:0:-1] + k15[n + 1 : 2 * n + 1]
        want.append((k15[0] + np.cumsum(np.r_[0.0, pairs])[-1]) + k15[-1])
    assert np.array_equal(_screen_sweep(params, d, widths), np.array(want) / widths)


def _counting_gk_panels(monkeypatch):
    """Patch empower._gk_panels to record the size of every batch."""
    batches = []

    def counting(fn_y, lo, hi):
        batches.append(np.size(lo))
        return _gk_panels(fn_y, lo, hi)

    monkeypatch.setattr(empower, "_gk_panels", counting)
    return batches


def test_default_fig2_curve_is_one_integrand_batch(monkeypatch):
    batches = _counting_gk_panels(monkeypatch)
    curves = fig2_curves()
    assert len(curves) == 4 and all(c.s_values.size == 400 for c in curves)
    assert len(batches) == len(curves)


@pytest.mark.parametrize("k", [2 * np.pi, 12 * np.pi])
def test_fig2_curves_equal_per_width_screen_power(k):
    s = np.linspace(0.25, 100.0, 400)[::10]
    curve, = fig2_curves(s_values=s, ks=[k])
    params = _params(k=k)
    direct = [screen_power(params, ScreenSpec(d=100.0, s=float(w))) for w in s]
    assert np.array_equal(curve.values, direct)


def test_refined_sweep_equals_per_width_screen_power_and_the_oracle(monkeypatch):
    params = ConstructionParams(
        ell=-1, m=1, envelope=gaussian_envelope(1e-2, 1.0), ctx=CTX, slab=1.0
    )
    widths = [1.0, 10.0, 100.0]
    batches = _counting_gk_panels(monkeypatch)
    swept = _screen_sweep(params, 1.0, widths)
    assert len(batches) > 1  # the adaptive bisection ran
    screens = [ScreenSpec(d=1.0, s=w) for w in widths]
    assert np.array_equal(swept, [screen_power(params, sc) for sc in screens])
    oracle = np.array([screen_power_oracle(params, sc) for sc in screens])
    assert np.max(np.abs(swept - oracle)) <= 1e-9 * np.max(np.abs(swept))


def test_sweep_mixing_refined_and_plain_widths_equals_per_width_screen_power(monkeypatch):
    params = ConstructionParams(
        ell=-1, m=1, envelope=gaussian_envelope(1e-2, 1.0), ctx=CTX, slab=1.0
    )
    widths = [0.05, 0.1, 1.0, 10.0, 0.2, 40.0]
    batches = _counting_gk_panels(monkeypatch)
    refines = []
    for w in widths:
        batches.clear()
        screen_power(params, ScreenSpec(d=1.0, s=w))
        refines.append(len(batches) > 1)
    assert any(refines) and not all(refines)
    swept = _screen_sweep(params, 1.0, widths)
    assert np.array_equal(swept, [screen_power(params, ScreenSpec(d=1.0, s=w)) for w in widths])


def test_refinement_depth_warning(monkeypatch):
    monkeypatch.setattr(empower, "SCREEN_ABS_TOL", 0.0)
    monkeypatch.setattr(empower, "SCREEN_MAX_DEPTH", 1)
    with pytest.warns(UserWarning, match="refinement rounds"):
        screen_power(_params(), ScreenSpec(d=100.0, s=10.0))
    with pytest.warns(UserWarning, match="refinement rounds"):
        fig2_curves(s_values=[5.0, 10.0], ks=[4 * np.pi])


def test_fig2_curves_validate_every_width():
    with pytest.raises(ValueError, match="screen width must be positive"):
        fig2_curves(s_values=[1.0, -2.0], ks=[4 * np.pi])
