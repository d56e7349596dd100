"""Momentum-space transfer operator: assembly, evolution, extraction.

The structural identities here are exact at the matrix level, so most
tolerances sit at machine precision; only the integrator accuracy tests
carry method-order tolerances.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest

import uniscat
import uniscat.xfermat as xfermat
from uniscat import (
    ConstructionParams,
    IntegrationError,
    PotentialSpec,
    SeparableTerm,
    SpectralSingularityWarning,
    TransferOperator,
    WaveContext,
    born_operator,
    born_t_values,
    build_potential_2d,
    check_symplectic,
    conserved_current,
    default_slices,
    delta_vector,
    effective_hamiltonian,
    evolve_transfer,
    extract_t,
    gauss_grid,
    operator_to_dict,
    potential_from_samples,
    predicates,
    quartic_envelope,
    random_smooth_potential,
    sample_potential,
    scattering_coeffs,
    transfer_tables,
)

CTX = WaveContext(k=4 * np.pi)


def _constructed(g0=1e-2):
    params = ConstructionParams(
        ell=-1, m=1, envelope=quartic_envelope(g0, 1.0), ctx=CTX, slab=1.0
    )
    return build_potential_2d(params)


def _zero_potential():
    return PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(-1.0, 1.0),
        value_fn=lambda x, y: np.zeros(np.broadcast(x, y).shape, dtype=complex),
    )


def _symplectic_form(grid):
    n = grid.n
    pd = np.zeros((n, n))
    pd[np.arange(n), grid.reversal()] = grid.weights * grid.omegas
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = pd
    s[n:, :n] = -pd
    return s


def test_hamiltonian_block_phase_structure():
    v = random_smooth_potential(12)
    grid = gauss_grid(15, CTX)
    x = 0.37
    h = effective_hamiltonian(v, grid, x)
    n = grid.n
    h11 = h[:n, :n]
    h12 = h[:n, n:]
    h21 = h[n:, :n]
    h22 = h[n:, n:]
    col = np.exp(-2j * grid.omegas * x)[None, :]
    row = np.exp(2j * grid.omegas * x)[:, None]
    scale = np.max(np.abs(h11))
    assert np.max(np.abs(h12 - h11 * col)) < 1e-14 * scale
    assert np.max(np.abs(h21 + h11 * row)) < 1e-14 * scale
    assert np.max(np.abs(h22 + h11 * row * col)) < 1e-14 * scale


def test_hamiltonian_vanishes_off_the_support():
    v = random_smooth_potential(12)
    grid = gauss_grid(9, CTX)
    assert np.all(effective_hamiltonian(v, grid, -0.2) == 0.0)
    assert np.all(effective_hamiltonian(v, grid, 1.3) == 0.0)


def test_kernel_is_the_public_transverse_transform():
    # h11 = e^{-i w_j x} vtld(x, p_j - p_l) w_l / (4 pi w_j) e^{+i w_l x}: with
    # the phases and the scale divided out, the generator's kernel must be
    # ft_y itself, on the separable-terms route and on the y-quadrature route
    v = random_smooth_potential(7)
    vq = PotentialSpec(
        x_support=v.x_support,
        y_support=v.y_support,
        value_fn=v.value_fn,
    )
    grid = gauss_grid(15, CTX)
    n, p, w = grid.n, grid.nodes, grid.omegas
    scale = grid.weights[None, :] / (4.0 * np.pi * w[:, None])
    for pot in (v, vq):
        for x in (0.21, 0.64):
            h11 = effective_hamiltonian(pot, grid, x)[:n, :n]
            phases = np.exp(-1j * w * x)[:, None] * np.exp(1j * w * x)[None, :]
            got = h11 / (phases * scale)
            want = pot.ft_y(x, p[:, None] - p[None, :])
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_generator_is_exactly_infinitesimally_symplectic():
    # S H + H^T S = 0 holds at the matrix level for any potential, so the
    # residual of the evolved operator is purely integrator error
    v = random_smooth_potential(44)
    grid = gauss_grid(15, CTX)
    s = _symplectic_form(grid)
    for x in (0.1, 0.52, 0.9):
        h = -1j * effective_hamiltonian(v, grid, x)  # the actual generator
        r = h.T @ s + s @ h
        assert np.max(np.abs(r)) < 1e-14 * np.max(np.abs(s @ h))


def test_generator_is_nilpotent():
    # r l = conj(ph) ph - ph conj(ph) = 0 in H = l g r, so H(x)^2 = 0 exactly
    grid = gauss_grid(15, CTX)
    for v in (random_smooth_potential(44, amplitude=300.0), _constructed()):
        for x in (0.1, 0.52, 0.9):
            h = effective_hamiltonian(v, grid, x)
            assert np.max(np.abs(h @ h)) <= 1e-14 * np.max(np.abs(h)) ** 2


def _dense_w_rk4(v, grid, slices):
    """Classical RK4 on dW/dx = -i H (I + W) with the dense generator, the
    identity's part added as A rather than through I + W."""
    x0, x1 = map(float, v.x_support)
    h = (x1 - x0) / slices
    a = [-1j * effective_hamiltonian(v, grid, x)
         for x in np.linspace(x0, x1, 2 * slices + 1)]
    w = np.zeros((2 * grid.n, 2 * grid.n), dtype=complex)
    for i in range(slices):
        a_cur, a_mid, a_next = a[2 * i : 2 * i + 3]
        k1 = a_cur @ w + a_cur
        k2 = a_mid @ (w + (0.5 * h) * k1) + a_mid
        k3 = a_mid @ (w + (0.5 * h) * k2) + a_mid
        k4 = a_next @ (w + h * k3) + a_next
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def test_factored_evolution_equals_dense_generator_rk4():
    # 70 slices span three kernel chunks, the last one partial
    assert 70 > 2 * xfermat._CHUNK_SLICES and 70 % xfermat._CHUNK_SLICES
    grid = gauss_grid(15, CTX)
    v = _constructed()
    copy = potential_from_samples(*sample_potential(v, 101, 101))
    for pot in (random_smooth_potential(9, amplitude=300.0), v, copy):
        for slices in (30, 70):
            got = evolve_transfer(pot, grid, slices=slices).matrix
            want = np.eye(2 * grid.n) + _dense_w_rk4(pot, grid, slices)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_scattered_part_equals_dense_w_rk4_to_its_own_precision():
    # the evolution keeps W = M - I to roundoff relative to W itself, also
    # where W is 1e-7 and I + W would keep it only to about eps absolute
    grid = gauss_grid(15, CTX)
    for pot in (_constructed(g0=1e-6), random_smooth_potential(9, amplitude=300.0)):
        got = evolve_transfer(pot, grid, slices=70).scattered
        want = _dense_w_rk4(pot, grid, 70)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_forward_transmission_real_part_is_third_order():
    # quartic, (ell, m) = (-1, 1), k = 4 pi, N = 41, 400 slices: Re T^l_+(0)
    # and Re T^r_-(0) both equal 3.18e-5 g0^3 and each other (reciprocity).
    # At g0 = 1e-5 that real part is 2e-14 of max|W|, so the two agree there
    # only to a few percent, and a frame drift of slices * eps would move
    # them by about 30%.
    grid = gauss_grid(41, CTX)
    c = grid.center_index
    for g0, law, mutual in ((1e-2, 5e-3, 1e-3), (1e-3, 5e-3, 1e-3), (1e-4, 5e-3, 1e-3), (1e-5, 0.1, 0.1)):
        tables = transfer_tables(evolve_transfer(_constructed(g0), grid, slices=400))
        left = tables["left_plus"].values[c].real / g0**3
        right = tables["right_minus"].values[c].real / g0**3
        assert abs(left - 3.18e-5) <= law * 3.18e-5, (g0, left)
        assert abs(right - 3.18e-5) <= law * 3.18e-5, (g0, right)
        assert abs(left - right) <= mutual * abs(left), (g0, left, right)


def test_symplectic_form_is_applied_as_a_signed_reversal():
    # check_symplectic and conserved_current apply S as (a, b) -> (P D b,
    # -P D a); both must equal the dense form, on the W side of M^T S M = S
    grid = gauss_grid(15, CTX)
    s = _symplectic_form(grid)
    for pot in (_constructed(), random_smooth_potential(9, amplitude=300.0)):
        op = evolve_transfer(pot, grid, slices=70)
        w = op.scattered
        want = np.linalg.norm(w.T @ s + s @ w + w.T @ s @ w) / np.linalg.norm(s)
        assert check_symplectic(op) == pytest.approx(want, rel=1e-12)
        left, right = scattering_coeffs(op, "left"), scattering_coeffs(op, "right")
        for got, one, two in zip(conserved_current(left, right, grid), left, right):
            u1, u2 = np.concatenate([one.a, one.b]), np.concatenate([two.a, two.b])
            assert got.value == pytest.approx((-1j / np.pi) * (u1 @ s @ u2), rel=1e-14)


def test_tensor_grid_route_equals_the_pointwise_route():
    # a tabulated copy declares its y-quadrature terms, which evaluate the
    # spline on the tensor grid; the same copy without them goes through
    # pointwise values, which stay the reference for both the evolution and
    # the independent Born operator
    grid = gauss_grid(15, CTX)
    copy = potential_from_samples(*sample_potential(_constructed(), 101, 101))
    pointwise = replace(copy, terms=None)
    assert copy.terms is not None
    for route in (evolve_transfer, born_operator):
        assert np.array_equal(route(copy, grid).matrix, route(pointwise, grid).matrix)


def test_last_rk4_node_is_the_slab_edge():
    # x0 + i h + h rounds above x1 at 182 slices of a unit slab; a last node
    # off the support drops the potential from the final stage, and the
    # error jumps by six orders with no sign in the symplectic residual
    v = _constructed()
    grid = gauss_grid(21, CTX)
    assert v.x_support == (0.0, 1.0)
    ref = extract_t(evolve_transfer(v, grid, slices=1600), "left", "plus").values
    errs = [
        np.max(np.abs(extract_t(evolve_transfer(v, grid, slices=s), "left", "plus").values - ref))
        for s in (181, 182, 183)
    ]
    assert max(errs) < 2.0 * min(errs)


def test_free_space_evolution_is_the_identity():
    grid = gauss_grid(11, CTX)
    op = evolve_transfer(_zero_potential(), grid, slices=40)
    assert np.array_equal(op.matrix, np.eye(2 * grid.n, dtype=complex))
    for table in transfer_tables(op).values():
        assert np.all(table.values == 0.0)


def test_symplectic_residual_is_small_and_improves_with_slices():
    v = random_smooth_potential(5)
    grid = gauss_grid(15, CTX)
    r20 = check_symplectic(evolve_transfer(v, grid, slices=20))
    r40 = check_symplectic(evolve_transfer(v, grid, slices=40))
    assert r40 < 1e-7
    assert r20 / r40 > 10.0  # fourth-order integrator


def test_transfer_values_converge_at_fourth_order():
    v = random_smooth_potential(5)
    grid = gauss_grid(15, CTX)
    ref = extract_t(evolve_transfer(v, grid, slices=640), "left", "plus").values
    e20 = np.max(np.abs(extract_t(evolve_transfer(v, grid, slices=20), "left", "plus").values - ref))
    e40 = np.max(np.abs(extract_t(evolve_transfer(v, grid, slices=40), "left", "plus").values - ref))
    assert e20 / e40 > 10.0


def test_weak_coupling_limit_reproduces_the_born_operator():
    v = _constructed(g0=1e-4)
    grid = gauss_grid(21, CTX)
    full = evolve_transfer(v, grid, slices=200)
    first = born_operator(v, grid)
    strength = np.max(np.abs(first.matrix - np.eye(2 * grid.n)))
    diff = np.max(np.abs(full.matrix - first.matrix))
    assert diff < 10.0 * strength**2
    assert first.slices == 0


def test_born_operator_extraction_matches_direct_first_order():
    v = _constructed(g0=1e-5)
    grid = gauss_grid(21, CTX)
    op = born_operator(v, grid)
    for side in ("left", "right"):
        for sign in ("plus", "minus"):
            got = extract_t(op, side, sign).values
            want = born_t_values(v, side, sign, grid.nodes, ctx=grid.ctx)
            floor = np.max(np.abs(born_t_values(v, "left", "plus", grid.nodes, ctx=grid.ctx)))
            assert np.max(np.abs(got - want)) < 1e-3 * floor


def test_conserved_current_is_flat_across_the_slab():
    v = random_smooth_potential(77)
    grid = gauss_grid(41, CTX)
    op = evolve_transfer(v, grid, slices=300)
    left = scattering_coeffs(op, "left")
    right = scattering_coeffs(op, "right")
    j_minus, j_plus = conserved_current(left, right, grid)
    # each limit reads one forward transmission, so flatness is reciprocity
    c, d0 = grid.center_index, delta_vector(grid)[grid.center_index]
    t_r = extract_t(op, "right", "minus").values[c]
    t_l = extract_t(op, "left", "plus").values[c]
    assert j_minus.value == pytest.approx(-2j * CTX.k * (t_r + d0), rel=1e-14)
    assert j_plus.value == pytest.approx(-2j * CTX.k * (t_l + d0), rel=1e-14)
    scale = max(abs(j_minus.value), abs(j_plus.value))
    assert abs(j_minus.value - j_plus.value) < 1e-10 * scale


def test_scattering_coeffs_wiring():
    v = random_smooth_potential(8)
    grid = gauss_grid(15, CTX)
    op = evolve_transfer(v, grid, slices=100)
    d = delta_vector(grid)
    minus, plus = scattering_coeffs(op, "left")
    assert np.array_equal(minus.a, d)
    assert np.all(plus.b == 0.0)
    tabs = transfer_tables(op)
    assert np.allclose(minus.b, tabs["left_minus"].values, rtol=0, atol=1e-300)
    minus_r, plus_r = scattering_coeffs(op, "right")
    assert np.all(minus_r.a == 0.0)
    assert np.array_equal(plus_r.b, d)
    for side, (lo, hi) in (("left", (minus, plus)), ("right", (minus_r, plus_r))):
        # both pairs lie on one solution: M maps the -inf pair to the +inf one
        got = op.matrix @ np.concatenate([lo.a, lo.b])
        want = np.concatenate([hi.a, hi.b])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # and every T-function is outgoing minus incoming: the tables are read
        # off W, and each outgoing coefficient is incoming plus its table
        assert np.array_equal(hi.a, lo.a + tabs[f"{side}_plus"].values)
        assert np.array_equal(lo.b, hi.b + tabs[f"{side}_minus"].values)


def test_reciprocity_predicate_for_a_generic_potential():
    v = random_smooth_potential(19)
    grid = gauss_grid(41, CTX)
    op = evolve_transfer(v, grid, slices=400)
    flags = predicates(op, tol=1e-6)
    assert flags["reciprocal_transmission"]
    # a generic complex potential scatters on both sides
    assert not flags["left_invisible"]
    assert not flags["right_invisible"]


def test_predicates_on_the_construction_distinguish_the_orders():
    v = _constructed(g0=1e-2)
    grid = gauss_grid(41, CTX)
    # at first order the right side is exactly dark
    flags1 = predicates(born_operator(v, grid), tol=1e-9)
    assert flags1["right_invisible"]
    assert flags1["right_reflectionless"] and flags1["right_transparent"]
    assert not flags1["left_transparent"]
    assert flags1["reciprocal_transmission"]
    # the full evolution sees the second-order residual of the right side
    op = evolve_transfer(v, grid, slices=400)
    flags = predicates(op, tol=1e-9)
    assert not flags["right_invisible"]
    assert flags["reciprocal_transmission"]
    # which a coarser tolerance forgives
    assert predicates(op, tol=1e-2)["right_invisible"]


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -1e-300])
def test_classify_rejects_a_bad_tolerance(tol):
    op = born_operator(_constructed(), gauss_grid(9, CTX))
    with pytest.raises(ValueError, match="tolerance"):
        predicates(op, tol)
    # zero stays valid: it asks for exact darkness, which the left side lacks
    assert not predicates(op, 0.0)["left_invisible"]


@pytest.mark.parametrize(
    "entry",
    ["extract_t", "scattering_coeffs", "transfer_tables", "classify", "predicates", "solve_m22"],
)
def test_spectral_singularity_warning(entry):
    grid = gauss_grid(9, CTX)
    n = grid.n
    m = np.eye(2 * n, dtype=complex)
    m[n:, n:] = np.diag(np.r_[np.ones(n - 1), 1e-16])
    op = TransferOperator(grid=grid, scattered=m - np.eye(2 * n), slices=1)
    assert op.m22_condition > 1e12
    read = getattr(xfermat, entry, None) or getattr(TransferOperator, entry)
    args = {
        "extract_t": ("right", "minus"),
        "scattering_coeffs": ("left",),
        "classify": (1e-6,),
        "predicates": (1e-6,),
        "solve_m22": (np.ones(n),),
    }.get(entry, ())
    with pytest.warns(SpectralSingularityWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        read(op, *args)
    # attributed to the line that called the public entry, whichever it is
    assert (record[0].filename, record[0].lineno) == (__file__, line)


def test_integration_error_on_non_finite_values():
    bad = PotentialSpec(
        x_support=(0.0, 1.0),
        y_support=(-1.0, 1.0),
        value_fn=lambda x, y: np.full(np.broadcast(x, y).shape, np.nan, dtype=complex),
        terms=SeparableTerm(
            fx=lambda x: np.full(np.shape(x) + (1,), np.nan),
            fy_ft=lambda q: np.ones(np.shape(q) + (1,), dtype=complex),
        ),
    )
    grid = gauss_grid(9, CTX)
    with pytest.raises(IntegrationError) as err:
        evolve_transfer(bad, grid, slices=8)
    assert err.value.slices == 8


def test_slice_count_is_refused_unless_integral():
    # a fractional or boolean count is refused, not truncated to an int
    v = _constructed()
    grid = gauss_grid(9, CTX)
    for bad, match in ((2.7, "integer"), (True, "integer"), (np.nan, "integer"), (0, "positive")):
        with pytest.raises(ValueError, match=match):
            evolve_transfer(v, grid, slices=bad)
    op = evolve_transfer(v, grid, slices=3.0)
    assert op.slices == 3 and np.array_equal(op.matrix, evolve_transfer(v, grid, slices=3).matrix)


def test_default_slice_count():
    v = _constructed()
    grid = gauss_grid(9, CTX)
    # 200 slices per reduced wavelength across a unit slab at k = 4 pi
    assert default_slices(v, grid) == 400
    slow = gauss_grid(9, WaveContext(k=0.1))
    assert default_slices(_zero_potential(), slow) == 50
    op = evolve_transfer(v, grid)
    assert op.slices == 400


def test_solve_m22_is_a_linear_solve():
    v = random_smooth_potential(3)
    grid = gauss_grid(15, CTX)
    op = evolve_transfer(v, grid, slices=100)
    rhs = np.exp(1j * np.linspace(0, 1, grid.n))
    got = op.solve_m22(rhs)
    want = np.linalg.solve(op.m22, rhs)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_every_reader_shares_one_m22_solve(monkeypatch):
    v = random_smooth_potential(3)
    grid = gauss_grid(15, CTX)
    evolved = evolve_transfer(v, grid, slices=100)
    solves = []
    plain = TransferOperator.solve_m22

    def counting(self, rhs):
        solves.append(rhs)
        return plain(self, rhs)

    monkeypatch.setattr(TransferOperator, "solve_m22", counting)
    readers = [
        lambda op: predicates(op, 1e-6),
        lambda op: scattering_coeffs(op, "left"),
        lambda op: scattering_coeffs(op, "right"),
        *(lambda op, key=key: extract_t(op, *key.split("_"))
          for key in ("left_plus", "left_minus", "right_plus", "right_minus")),
        transfer_tables,
        lambda op: xfermat.classify(op, 1e-6),
    ]
    for order in (readers, readers[::-1]):
        op = TransferOperator(grid=grid, scattered=evolved.scattered, slices=100)
        solves.clear()
        for read in order:
            read(op)
        # both incident sides are the two columns of the one solve
        assert len(solves) == 1 and solves[0].shape == (grid.n, 2)
    # and each table has the bits of its own extract_t
    for key, table in transfer_tables(op).items():
        side, sign = key.split("_")
        assert np.array_equal(table.values, extract_t(op, side, sign).values)


def test_t_functions_are_read_only():
    op = evolve_transfer(_constructed(), gauss_grid(9, CTX), slices=40)
    values = extract_t(op, "left", "plus").values
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        transfer_tables(op)["right_minus"].values *= 2.0
    # a coefficient vector is the caller's own fresh array
    before = values.copy()
    scattering_coeffs(op, "left")[1].a[:] = 0.0
    assert np.array_equal(extract_t(op, "left", "plus").values, before)


def test_operator_export_layout():
    v = _constructed()
    grid = gauss_grid(9, CTX)
    op = evolve_transfer(v, grid, slices=60)
    blob = operator_to_dict(op)
    assert blob["k"] == CTX.k
    assert blob["slices"] == 60
    assert len(blob["nodes"]) == grid.n
    m12 = np.array(blob["blocks"]["m12"]["re"]) + 1j * np.array(blob["blocks"]["m12"]["im"])
    assert np.array_equal(m12, op.m12)
    assert np.isfinite(blob["m22_condition"])
    import json

    json.dumps(blob)  # must be serializable as is


def test_assembler_rejects_3d_potentials():
    params = ConstructionParams(
        ell=-1,
        m=1,
        envelope=(quartic_envelope(1e-2, 1.0), quartic_envelope(1.0, 1.0)),
        ctx=CTX,
        slab=1.0,
    )
    v3 = uniscat.build_potential_3d(params)
    grid = gauss_grid(9, CTX)
    with pytest.raises(ValueError):
        evolve_transfer(v3, grid, slices=10)
    with pytest.raises(ValueError):
        effective_hamiltonian(v3, grid, 0.5)
