"""Far-zone power accounting and the screen interference integral."""

from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from uniscat import (
    EXTINCTION_FACTOR,
    ConstructionParams,
    PotentialSpec,
    PowerCurve,
    PowerSummary,
    ScreenSpec,
    WaveContext,
    born_f_2d,
    build_potential_2d,
    closed_form_f_left,
    fig2_curves,
    gaussian_envelope,
    quartic_envelope,
    random_smooth_potential,
    screen_power,
    screen_power_oracle,
    total_power_changes,
    xi,
)
from uniscat import empower
from uniscat.born import _closed_form_f_left_even
from uniscat.empower import (
    G7_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
    _arc_power,
    _bisect,
    _born_vtt_2d,
    _gk_panels,
    _screen_integrand,
    _screen_sweep,
)

CTX = WaveContext(k=4 * np.pi)


def _params(g0=1e-2, k=4 * np.pi):
    return ConstructionParams(
        ell=-1, m=1, envelope=quartic_envelope(g0, 1.0), ctx=WaveContext(k=k), slab=1.0
    )


def _du(params, d):
    """The unfolded screen integrand du of the construction's closed form."""
    return _screen_integrand(params.ctx.k, d, partial(closed_form_f_left, params))


def _folded(params, d):
    """The folded integrand the sweep integrates: 2 du on the even part."""
    du_even = _screen_integrand(params.ctx.k, d, partial(_closed_form_f_left_even, params))
    return lambda y: 2.0 * du_even(y)


def _sweep(params, d, widths):
    """_screen_sweep of the construction's closed form."""
    return _screen_sweep(params.ctx.k, d, widths, partial(_closed_form_f_left_even, params))


def _flat_potential(value):
    """A synthetic potential whose Born amplitude f = -vtt / (2 sqrt(2 pi))
    is `value` at every angle on both sides."""
    ft = -2.0 * np.sqrt(2.0 * np.pi) * complex(value)
    return PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(-1.0, 1.0),
        value_fn=lambda x, y: np.zeros(np.shape(x), complex),
        ft_fn=lambda kx, ky: np.full(np.shape(kx), ft),
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
    span = np.pi  # each arc is a half circle
    # a flat potential scatters alike from both sides, so c1 gives the left
    # entries and c2 the right ones
    left = total_power_changes(_flat_potential(c1), ctx=CTX)
    summary = total_power_changes(_flat_potential(c2), ctx=CTX)
    assert left.left_backward == pytest.approx(abs(c1) ** 2 * span, rel=1e-12)
    assert left.left_forward == pytest.approx(
        abs(c1) ** 2 * span - EXTINCTION_FACTOR * c1.imag, rel=1e-12
    )
    assert summary.right_backward == pytest.approx(
        abs(c2) ** 2 * span - EXTINCTION_FACTOR * c2.imag, rel=1e-12
    )
    assert summary.right_forward == pytest.approx(abs(c2) ** 2 * span, rel=1e-12)
    assert left.left_total == left.left_backward + left.left_forward
    assert summary.right_total == summary.right_backward + summary.right_forward


def test_zero_amplitude_changes_nothing():
    summary = total_power_changes(_flat_potential(0.0), ctx=CTX)
    assert summary == PowerSummary(0.0, 0.0, 0.0, 0.0)


def _construction(envelope, k, g0=1e-2):
    make = quartic_envelope if envelope == "quartic" else gaussian_envelope
    return build_potential_2d(
        ConstructionParams(ell=-1, m=1, envelope=make(g0, 1.0), ctx=WaveContext(k=k))
    )


ARC_CASES = [(env, n) for env in ("quartic", "gaussian") for n in (2, 4, 12)]


@pytest.mark.parametrize("envelope, n", ARC_CASES)
def test_arcs_match_a_panelled_gauss_legendre_reference(arc_reference, envelope, n):
    v = _construction(envelope, n * np.pi)
    sums, _, _ = _arc_power(v)
    ref = np.array(
        [[arc_reference(v, side, lo) for lo in (-np.pi / 2, np.pi / 2)] for side in ("left", "right")]
    )
    scale = np.max(np.abs(ref))
    # every left arc to 1e-12 of itself; the right arcs are roundoff, so
    # they are held to 1e-12 of the largest arc, the budget they share
    assert np.all(np.abs(sums[0] - ref[0]) <= 1e-12 * np.abs(ref[0]))
    assert np.all(np.abs(sums[1] - ref[1]) <= 1e-12 * scale)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, empower.ARC_REL_TOL])
def test_arc_error_estimate_bounds_the_true_error(arc_reference, monkeypatch, tol):
    monkeypatch.setattr(empower, "ARC_REL_TOL", tol)
    for envelope, n in ARC_CASES:
        v = _construction(envelope, n * np.pi)
        sums, errs, _ = _arc_power(v)
        ref = np.array([arc_reference(v, "left", lo) for lo in (-np.pi / 2, np.pi / 2)])
        scale = np.max(np.abs(ref))
        assert np.sum(errs[0]) <= tol * scale
        # the reference and the adaptive sum each carry about 1e-15 of
        # roundoff, which no estimate of the truncation error can see
        assert np.all(np.abs(sums[0] - ref) <= errs[0] + 1e-14 * scale), (envelope, n)


def test_roundoff_side_uses_no_more_nodes_than_the_left_side(monkeypatch):
    # a budget relative to the right side's own roundoff scale would bisect
    # it for every allowed round; the shared budget leaves it alone
    nodes = {"left": 0, "right": 0}

    def counting(v, theta, right, ctx=None):
        # the arcs reach the amplitude only through the paired Born kernel
        n_right = np.count_nonzero(np.broadcast_to(right, np.shape(theta)))
        nodes["left"] += np.size(theta) - n_right
        nodes["right"] += n_right
        return _born_vtt_2d(v, theta, right, ctx)

    monkeypatch.setattr(empower, "_born_vtt_2d", counting)
    # per side, the arc nodes and the one extinction sample
    pinned_left = [241, 721, 1561, 961, 1201, 1261]
    for (envelope, n), left in zip(ARC_CASES, pinned_left):
        nodes.update(left=0, right=0)
        total_power_changes(_construction(envelope, n * np.pi))
        assert nodes["right"] <= nodes["left"], (envelope, n, nodes)
        # fewer amplitudes than the 2 x 2 x 801 samples of a fixed rule
        assert nodes["left"] + nodes["right"] <= 4 * 801, (envelope, n, nodes)
        assert nodes == {"left": left, "right": 241}, (envelope, n)


def test_power_budget_makes_one_transform_call_per_round(monkeypatch):
    # both sides' panels and both extinction samples share the first call,
    # and each round of the left side's refinement adds one (the separate
    # sides and samples made 4, 5, 6, 6, 7 and 9)
    calls = []
    ft = PotentialSpec.ft

    def counting(self, *ks):
        calls.append(np.size(ks[0]))
        return ft(self, *ks)

    monkeypatch.setattr(PotentialSpec, "ft", counting)
    counts = []
    for envelope, n in ARC_CASES:
        v = _construction(envelope, n * np.pi)
        calls.clear()
        total_power_changes(v)
        counts.append(len(calls))
    assert counts == [1, 2, 3, 3, 4, 6]


def _side_integrand(v, sides):
    """|f|^2 of integral i of a lockstep bisection on side sides[i]."""

    def fn(theta, owner):
        out = np.empty(theta.shape)
        for i, side in enumerate(sides):
            mine = owner == i
            out[mine] = np.abs(born_f_2d(v, side, theta[mine])) ** 2
        return out

    return fn


@pytest.mark.parametrize("envelope, n", ARC_CASES)
def test_lockstep_bisection_equals_each_integral_alone(envelope, n):
    v = _construction(envelope, n * np.pi)
    edges = np.linspace(-np.pi / 2, np.pi / 2, empower.ARC_PANELS + 1)
    lo = np.concatenate([edges[:-1], edges[:-1] + np.pi])
    hi = np.concatenate([edges[1:], edges[1:] + np.pi])
    runs = [
        (lo, hi, *_gk_panels(lambda y, side=side: np.abs(born_f_2d(v, side, y)) ** 2, lo, hi))
        for side in ("left", "right")
    ]
    # the shared budget: relative to the largest arc (8 panels) of either side
    arcs = [np.sum(total.reshape(2, -1), axis=1) for _, _, total, _ in runs]
    budget = empower.ARC_REL_TOL * np.max(np.abs(arcs))
    depth = empower.ARC_MAX_DEPTH
    both = _bisect(_side_integrand(v, ["left", "right"]), runs, budget, depth, "arc")
    for side, run, paired in zip(("left", "right"), runs, both):
        (alone,) = _bisect(_side_integrand(v, [side]), [run], budget, depth, "arc")
        for x, y in zip(alone, paired):
            assert np.array_equal(x, y), (envelope, n, side)
    # the right side never refines; the left one does, but at quartic 2 pi
    assert both[1][0].size == lo.size
    assert (both[0][0].size > lo.size) == ((envelope, n) != ("quartic", 2))


def test_arc_refinement_depth_warning(monkeypatch):
    monkeypatch.setattr(empower, "ARC_REL_TOL", 0.0)
    monkeypatch.setattr(empower, "ARC_MAX_DEPTH", 1)
    with pytest.warns(UserWarning, match="arc integral .* refinement rounds"):
        total_power_changes(_construction("quartic", 4 * np.pi))


def test_one_way_power_budget_of_the_construction():
    v = build_potential_2d(_params())
    summary = total_power_changes(v)
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
    screen = ScreenSpec(d=100.0, s=1.0)
    for call in (
        lambda source: xi(source, 1.0, 0.0),
        lambda source: screen_power(source, screen),
        lambda source: screen_power_oracle(source, screen),
    ):
        with pytest.raises(TypeError):
            call("not a source")
    # the screen integrand is du = (1 + cos theta) xi at r = hypot(d, y); both
    # phases are free of cancellation, so they agree at far screens too
    y = np.array([-37.0, -4.5, 0.0, 0.8, 12.0, 49.9])
    for d, scale, tol in ((100.0, 1.0, 1e-12), (1e4, 100.0, 2e-12)):
        integrand = _du(params, d)
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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="screen width must be positive"):
            ScreenSpec(d=1.0, s=bad)


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
    integrand = _du(params, 100.0)
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
    """Panel edges of one half-screen [0, s/2], cut at every
    empower._SCREEN_PHASE_STEP of the phase k (r - d) by a plain loop."""
    step = empower._SCREEN_PHASE_STEP
    half = 0.5 * s
    n_cuts = int(np.floor(k * (np.hypot(d, half) - d) / step))
    cuts = []
    for m in range(1, n_cuts + 1):
        rad = d + m * (step / k)
        y = np.sqrt(rad * rad - d * d)
        if y < half:
            cuts.append(y)
    return np.array([0.0] + cuts + [half])


@pytest.mark.parametrize("k, d", [(2 * np.pi, 100.0), (12 * np.pi, 100.0), (3.3, 7.5)])
def test_sweep_panels_are_the_per_width_phase_cuts(k, d):
    # these widths need no bisection, so each value is the plain panel sum
    params = _params(k=k)
    integrand = _folded(params, d)
    widths = np.array([0.3, 1.0, 9.7, 40.0, 100.0])
    want = []
    for s in widths:
        edges = _per_width_phase_cut_edges(k, d, s)
        k15 = _gk_panels(integrand, edges[:-1], edges[1:])[0]
        # the whole panels prefix-summed from the centre, then the end panel
        want.append(np.cumsum(np.r_[0.0, k15[:-1]])[-1] + k15[-1])
    assert np.array_equal(_sweep(params, d, widths), np.array(want) / widths)


@pytest.mark.parametrize("envelope", ["quartic", "gaussian"])
def test_folded_integrand_is_the_mirror_pair(envelope):
    make = quartic_envelope if envelope == "quartic" else gaussian_envelope
    params = ConstructionParams(ell=-1, m=1, envelope=make(1e-2, 1.0), ctx=CTX, slab=1.0)
    # the centre, interior points, and wide points of a far screen
    for d, y in (
        (100.0, np.array([0.0, 1e-3, 0.8, 4.5, 12.0, 37.0, 49.9])),
        (1e4, np.array([0.0, 0.4, 80.0, 1200.0, 4990.0])),
    ):
        unfolded = _du(params, d)
        want = unfolded(y) + unfolded(-y)
        got = _folded(params, d)(y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (d, envelope)


def test_the_fold_holds_for_an_amplitude_that_is_not_the_closed_form():
    # the Born amplitude of a random potential, whose odd part in theta is
    # as large as its even part
    f = partial(born_f_2d, random_smooth_potential(1), "left", ctx=CTX)

    def f_even(theta):
        return 0.5 * (f(theta) + f(-theta))

    th = np.linspace(0.0, 0.5, 11)
    assert np.max(np.abs(f(th) - f(-th))) > 0.5 * np.max(np.abs(f(th)))
    k = CTX.k
    for d, y in (
        (100.0, np.array([0.0, 1e-3, 0.8, 4.5, 12.0, 37.0, 49.9])),
        (1e4, np.array([0.0, 0.4, 80.0, 1200.0, 4990.0])),
    ):
        du = _screen_integrand(k, d, f)
        want = du(y) + du(-y)
        got = 2.0 * _screen_integrand(k, d, f_even)(y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), d
    # the folded sweep against composite Gauss-Legendre on the unfolded du
    # over the whole screen: 64 panels of 24 nodes, at most 2.3 rad of
    # phase each (measured agreement 5e-15 relative)
    d, widths = 100.0, np.array([1.0, 10.0, 100.0])
    du = _screen_integrand(k, d, f)
    xq, wq = leggauss(24)
    want = []
    for s in widths:
        edges = np.linspace(-0.5 * s, 0.5 * s, 65)
        mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        ys = mid[:, None] + rad[:, None] * xq[None, :]
        want.append(np.sum(rad * (du(ys.ravel()).reshape(ys.shape) @ wq)) / s)
    swept = _screen_sweep(k, d, widths, f_even)
    assert np.max(np.abs(swept - want) / np.abs(want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_sweep_agrees_with_the_oracle_at_the_benchmark_wavenumbers(n):
    # the oracle integrates the unfolded integrand over the whole screen on
    # its own nodes, so it shares no integrand with the folded sweep
    params = _params(k=n * np.pi)
    widths = [0.25, 1.0, 10.0, 37.5, 100.0]
    swept = _sweep(params, 100.0, widths)
    oracle = [screen_power_oracle(params, ScreenSpec(d=100.0, s=w)) for w in widths]
    # dP is about 1e-6 here, so 1e-12 of it is far inside 1e-12 absolute
    assert np.max(np.abs(swept - oracle)) <= 1e-12 * np.max(np.abs(swept))


def test_wide_screens_agree_with_the_oracle():
    # the widths a sweep of the large-width tail reaches (s up to 10^3)
    widths = [250.0, 600.0, 1000.0]
    for n in (2, 4, 12):
        params = _params(k=n * np.pi)
        swept = _sweep(params, 100.0, widths)
        oracle = [screen_power_oracle(params, ScreenSpec(d=100.0, s=w)) for w in widths]
        assert np.max(np.abs(swept - oracle)) <= 1e-11 * np.max(np.abs(swept)), n


def test_wide_screen_memory_stays_flat(monkeypatch):
    # 58,811 whole panels: unbatched, their 15-point samples and the
    # integrand's temporaries peak at about 138 MB
    params = _params(k=12 * np.pi)
    batches = _counting_gk_panels(monkeypatch)
    tracemalloc.start()
    try:
        value = screen_power(params, ScreenSpec(d=100.0, s=1e4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert len(batches) > 1 and max(batches) <= empower._SCREEN_BATCH_PANELS
    assert peak < 48e6


def test_wide_screen_oracle_memory_stays_flat():
    # 39,208 panels of 24 nodes: in one call they peaked at about 137 MB
    params = _params(k=2 * np.pi)
    screen = ScreenSpec(d=100.0, s=1e4)
    tracemalloc.start()
    try:
        oracle = screen_power_oracle(params, screen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
    value = screen_power(params, screen)
    assert abs(oracle - value) <= 1e-9 * abs(value)


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
    # per wavenumber: the whole panels of the widest half-screen plus one end
    # panel per width, half the mirrored layout's 2 whole + 2 widths
    assert batches == [
        (_per_width_phase_cut_edges(c.k, c.d, c.s_values.max()).size - 2) + c.s_values.size
        for c in curves
    ]
    # pi panels: 305 whole panels and 1600 end panels of 15 points each
    assert 15 * sum(batches) == 28_575


def test_phase_cut_panels_meet_the_budget_with_margin():
    # the unrefined estimate stays a tenth of the budget or less, so the
    # phase step is not at the edge of the accuracy it needs.  Measured at
    # most 1.2e-2 of the budget at fig2 defaults ...
    cases = [(k, 1e-2, np.linspace(0.25, 100.0, 400)) for k in np.pi * np.array([2, 4, 8, 12])]
    # ... and 2.1e-2 over the range of `uniscat power` points the benchmark
    # draws
    cases += [
        (n * np.pi, g0, np.geomspace(0.5, 400.0, 13))
        for n in (2, 4, 6, 8, 10, 12)
        for g0 in (1e-3, 2e-2)
    ]
    for k, g0, widths in cases:
        integrand = _folded(_params(g0=g0, k=k), 100.0)
        for s in widths:
            # each width's summed estimate over its panels, before refinement
            edges = _per_width_phase_cut_edges(k, 100.0, s)
            err = np.sum(_gk_panels(integrand, edges[:-1], edges[1:])[1])
            assert err <= 0.1 * empower.SCREEN_ABS_TOL * s, (k, g0, s)


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
    swept = _sweep(params, 1.0, widths)
    assert len(batches) > 1  # the adaptive bisection ran
    sweep_batches = len(batches)
    screens = [ScreenSpec(d=1.0, s=w) for w in widths]
    rounds = []
    for sc in screens:
        batches.clear()
        screen_power(params, sc)
        rounds.append(len(batches) - 1)
    # the widths refine in lockstep, one integrand call per round for all
    # of them: measured 2 rounds each, so 3 batches where one width after
    # another took 7
    assert sweep_batches == 1 + max(rounds) == 3
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
    swept = _sweep(params, 1.0, widths)
    assert np.array_equal(swept, [screen_power(params, ScreenSpec(d=1.0, s=w)) for w in widths])


def test_refinement_depth_warning(monkeypatch):
    monkeypatch.setattr(empower, "SCREEN_ABS_TOL", 0.0)
    monkeypatch.setattr(empower, "SCREEN_MAX_DEPTH", 1)
    with pytest.warns(UserWarning, match="refinement rounds"):
        screen_power(_params(), ScreenSpec(d=100.0, s=10.0))
    with pytest.warns(UserWarning, match="refinement rounds"):
        fig2_curves(s_values=[5.0, 10.0], ks=[4 * np.pi])


def test_fig2_curves_validate_every_width():
    for bad in (-2.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="screen width must be positive"):
            fig2_curves(s_values=[1.0, bad, 3.0], ks=[4 * np.pi])
    with pytest.raises(ValueError, match="screen distance must be positive"):
        fig2_curves(s_values=[1.0], ks=[4 * np.pi], d=np.nan)
