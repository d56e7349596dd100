"""Momentum-space transfer matrix for 2D slab potentials.

Writing the wave field far from the slab as a superposition of oblique
plane waves with coefficient pairs (A(p), B(p)) for right/left movers, the
full scattering content of a potential is the operator M mapping the pair on
the left of the slab to the pair on the right:

    (A_+, B_+)^T = M (A_-, B_-)^T.

M is an x-ordered exponential: it solves dU/dx = -i H(x) U with U = identity
below the slab, where the generator couples transverse momenta p, q through
the transverse transform vtld(x, p - q) of the potential,

    H(x)_{p q} = (1 / 2 omega(p)) *
                 [ +e^{-i omega_p x} vtld e^{+i omega_q x}   +e^{-i(omega_p + omega_q) x} vtld ]
                 [ -e^{+i(omega_p + omega_q) x} vtld         -e^{+i omega_p x} vtld e^{-i omega_q x} ],

a rank-one 2x2 structure in the mover index (rows +/-, columns +/-).  On the
Gauss-Legendre grid the q-integral becomes the weighted kernel
V_{jl}(x) = vtld(x, p_j - p_l) w_l / (2 pi), and the ordered exponential is
integrated with fixed-step classical Runge-Kutta.

Exact properties of the continuum operator survive discretization in a
precise form and are used as checks:

* a symplectic conservation law: with P the p -> -p index reversal,
  D = diag(w_j omega_j) and S the block form [[0, P D], [-P D, 0]],
  the generator satisfies H^T S + S H = 0 identically, so the exactly
  evolved M obeys M^T S M = S and the numerical one obeys it to the
  integrator's order (4th in the slice count);
* the associated conserved current gives transmission reciprocity,
  T^l_+(0) = T^r_-(0), for every potential.

Incident plane waves are the grid delta 2 pi / w_j0 at the center node;
the four transmission/reflection functions come out of M by linear solves
against the M22 block (see :func:`extract_t`).  A nearly singular M22
signals a spectral singularity (zero-width resonance); it is reported as a
warning, not an error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .born import AmplitudeTable, TransferTable, amplitude_from_t
from .grids import MomentumGrid, delta_vector
from .potentials import PotentialSpec

__all__ = [
    "SpectralSingularityWarning",
    "IntegrationError",
    "TransferOperator",
    "AsymptoticCoeffs",
    "CurrentSample",
    "effective_hamiltonian",
    "default_slices",
    "evolve_transfer",
    "born_operator",
    "extract_t",
    "transfer_tables",
    "scattering_coeffs",
    "conserved_current",
    "check_symplectic",
    "classify",
    "predicates",
    "amplitude_table_from_operator",
    "operator_to_dict",
]

# M22 condition number beyond which a spectral singularity is flagged.
SPECTRAL_COND_LIMIT = 1e12


class SpectralSingularityWarning(UserWarning):
    """M22 is numerically singular: the potential sits at (or within
    roundoff of) a spectral singularity, i.e. a zero-width resonance."""


class IntegrationError(RuntimeError):
    """The ordered-exponential integration produced non-finite entries."""

    def __init__(self, message, slices):
        super().__init__(message)
        self.slices = slices


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """The discretized transfer matrix of one potential at one wavenumber.

    `matrix` is the full 2N x 2N array in (A-block, B-block) ordering;
    m11 .. m22 are the N x N mover blocks.
    """

    grid: MomentumGrid
    matrix: np.ndarray
    slices: int
    potential_label: str = ""

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def m11(self):
        return self.matrix[: self.n, : self.n]

    @property
    def m12(self):
        return self.matrix[: self.n, self.n :]

    @property
    def m21(self):
        return self.matrix[self.n :, : self.n]

    @property
    def m22(self):
        return self.matrix[self.n :, self.n :]

    @cached_property
    def _m22_lu(self):
        return lu_factor(self.m22)

    @cached_property
    def m22_condition(self) -> float:
        return float(np.linalg.cond(self.m22))

    def solve_m22(self, rhs):
        if self.m22_condition > SPECTRAL_COND_LIMIT:
            warnings.warn(
                f"M22 condition {self.m22_condition:.3g} exceeds "
                f"{SPECTRAL_COND_LIMIT:g}: spectral singularity suspected; "
                "extracted T-functions are unreliable",
                SpectralSingularityWarning,
                stacklevel=3,
            )
        return lu_solve(self._m22_lu, rhs)


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Mover coefficient vectors (A, B) of one solution at one side limit."""

    a: np.ndarray
    b: np.ndarray
    side_limit: str  # "minus_inf" | "plus_inf"

    def __post_init__(self):
        if self.side_limit not in ("minus_inf", "plus_inf"):
            raise ValueError(f"bad side limit {self.side_limit!r}")


@dataclass(frozen=True)
class CurrentSample:
    """The conserved bilinear current evaluated at one side limit."""

    side_limit: str
    value: complex


class _Assembler:
    """Precomputed machinery turning vtld(x, p_j - p_l) into -i H(x)."""

    def __init__(self, v: PotentialSpec, grid: MomentumGrid):
        if v.dim != 2:
            raise ValueError("the transfer matrix evolution is 2D only")
        self.v = v
        self.grid = grid
        p = grid.nodes
        self.delta = p[:, None] - p[None, :]
        # x-independent kernel scale: w_l / (2 pi * 2 omega_j)
        self.scale = grid.weights[None, :] / (4.0 * np.pi * grid.omegas[:, None])
        self.omegas = grid.omegas
        if v.terms is not None:
            self._coeff_mats = [
                np.asarray(t.fy_ft(self.delta), dtype=complex) for t in v.terms
            ]
            self._term_fx = [t.fx for t in v.terms]
            self._quad = None
        else:
            n_y = max(128, v.quad_nodes)
            from numpy.polynomial.legendre import leggauss

            xq, wq = leggauss(n_y)
            y0, y1 = map(float, v.y_support)
            yn = y0 + 0.5 * (y1 - y0) * (xq + 1.0)
            wn = 0.5 * (y1 - y0) * wq
            phase = np.exp(-1j * np.multiply.outer(self.delta.ravel(), yn))
            self._quad = (yn, wn, phase)

    def vtilde(self, x: float) -> np.ndarray:
        if self._quad is None:
            out = np.zeros(self.delta.shape, dtype=complex)
            for fx, cmat in zip(self._term_fx, self._coeff_mats):
                out = out + complex(fx(x)) * cmat
            return out
        yn, wn, phase = self._quad
        x0, x1 = self.v.x_support
        if x < x0 or x > x1:
            return np.zeros(self.delta.shape, dtype=complex)
        vals = self.v.value(np.full(yn.shape, x), yn)
        return (phase @ (wn * vals)).reshape(self.delta.shape)

    def generator(self, x: float) -> np.ndarray:
        """-i H(x) as a dense 2N x 2N matrix."""
        g = self.vtilde(x) * self.scale
        ph = np.exp(-1j * self.omegas * x)
        cph = np.conj(ph)
        h11 = ph[:, None] * g * cph[None, :]
        h12 = ph[:, None] * g * ph[None, :]
        h21 = -cph[:, None] * g * cph[None, :]
        h22 = -cph[:, None] * g * ph[None, :]
        return -1j * np.block([[h11, h12], [h21, h22]])


def effective_hamiltonian(v: PotentialSpec, grid: MomentumGrid, x: float) -> np.ndarray:
    """The dense 2N x 2N generator H(x) at a single slab position."""
    return 1j * _Assembler(v, grid).generator(x)


def default_slices(v: PotentialSpec, grid: MomentumGrid) -> int:
    """Default slice count: 200 per wavelength-equivalent 2 pi / k of slab."""
    x0, x1 = v.x_support
    wavelengths = (x1 - x0) * grid.ctx.k / (2.0 * np.pi)
    return max(50, int(np.ceil(200.0 * wavelengths)))


def evolve_transfer(v: PotentialSpec, grid: MomentumGrid, slices: int = None) -> TransferOperator:
    """Integrate the ordered exponential across the slab.

    Classical fixed-step 4th-order Runge-Kutta on dU/dx = -i H(x) U from the
    lower to the upper support edge; the generator vanishes outside.  The
    slice count fixes the step; see :func:`default_slices`.
    """
    if slices is None:
        slices = default_slices(v, grid)
    slices = int(slices)
    if slices < 1:
        raise ValueError(f"slice count must be positive, got {slices}")
    asm = _Assembler(v, grid)
    x0, x1 = map(float, v.x_support)
    h = (x1 - x0) / slices
    n2 = 2 * grid.n
    u = np.eye(n2, dtype=complex)
    a_cur = asm.generator(x0)
    for i in range(slices):
        x = x0 + i * h
        a_mid = asm.generator(x + 0.5 * h)
        a_next = asm.generator(x + h)
        k1 = a_cur @ u
        k2 = a_mid @ (u + (0.5 * h) * k1)
        k3 = a_mid @ (u + (0.5 * h) * k2)
        k4 = a_next @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_cur = a_next
    if not np.all(np.isfinite(u)):
        raise IntegrationError(
            f"transfer-matrix integration blew up after {slices} slices; "
            "increase the slice count or weaken the potential",
            slices=slices,
        )
    return TransferOperator(
        grid=grid, matrix=u, slices=slices, potential_label=v.label
    )


def born_operator(v: PotentialSpec, grid: MomentumGrid) -> TransferOperator:
    """First-order transfer matrix I - i integral H dx, via the full FT.

    The x-integral of each phase-dressed kernel entry is the potential's
    full Fourier transform at the matching longitudinal frequency, so this
    needs no x-stepping at all.  Independent route used to validate the
    evolution at weak coupling.
    """
    asm = _Assembler(v, grid)
    w = grid.omegas
    dsum = w[:, None] + w[None, :]
    ddif = w[:, None] - w[None, :]
    b11 = asm.scale * v.ft(ddif, asm.delta)
    b12 = asm.scale * v.ft(dsum, asm.delta)
    b21 = -asm.scale * v.ft(-dsum, asm.delta)
    b22 = -asm.scale * v.ft(-ddif, asm.delta)
    n2 = 2 * grid.n
    u = np.eye(n2, dtype=complex) - 1j * np.block([[b11, b12], [b21, b22]])
    return TransferOperator(
        grid=grid, matrix=u, slices=0, potential_label=v.label
    )


# ---------------------------------------------------------------------------
# extraction


def _incident_solution(op: TransferOperator, side: str):
    """(B_-, A_+) of the left- or right-incident solution, by M22 solves.

    Left incidence (A_- = d, B_+ = 0):
        B_- = -M22^{-1} M21 d,      A_+ = M11 d + M12 B_-.
    Right incidence (A_- = 0, B_+ = d):
        B_- = M22^{-1} d,           A_+ = M12 B_-.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    d = delta_vector(op.grid)
    if side == "left":
        b_minus = -op.solve_m22(op.m21 @ d)
        return b_minus, op.m11 @ d + op.m12 @ b_minus
    b_minus = op.solve_m22(d)
    return b_minus, op.m12 @ b_minus


def extract_t(op: TransferOperator, side: str, sign: str) -> TransferTable:
    """T_side_sign on the grid nodes, from the incident solution.

    The incident delta d is subtracted from the mover it rides on:
        T^l_- = B_-,      T^l_+ = A_+ - d,
        T^r_- = B_- - d,  T^r_+ = A_+.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    b_minus, a_plus = _incident_solution(op, side)
    d = delta_vector(op.grid)
    if side == "left":
        values = a_plus - d if sign == "plus" else b_minus
    else:
        values = a_plus if sign == "plus" else b_minus - d
    return TransferTable(side=side, sign=sign, grid=op.grid, values=values)


def transfer_tables(op: TransferOperator) -> dict:
    """All four T-functions, keyed 'left_plus', 'left_minus', ...."""
    return {
        f"{side}_{sign}": extract_t(op, side, sign)
        for side in ("left", "right")
        for sign in ("plus", "minus")
    }


def scattering_coeffs(op: TransferOperator, side: str):
    """Asymptotic (A, B) pairs of the left- or right-incident solution.

    Returns (coeffs at -inf, coeffs at +inf).
    """
    b_minus, a_plus = _incident_solution(op, side)
    d = delta_vector(op.grid)
    zero = np.zeros_like(d)
    a_minus, b_plus = (d, zero) if side == "left" else (zero, d)
    return (
        AsymptoticCoeffs(a=a_minus, b=b_minus, side_limit="minus_inf"),
        AsymptoticCoeffs(a=a_plus, b=b_plus, side_limit="plus_inf"),
    )


def conserved_current(c1, c2, grid: MomentumGrid):
    """The invariant bilinear current of two solutions at both side limits.

    c1 and c2 are (minus_inf, plus_inf) pairs of AsymptoticCoeffs.  The
    current at a limit is

        j = (-i / pi) sum_j w_j omega_j [ A1(-p_j) B2(p_j) - B1(-p_j) A2(p_j) ],

    with the p -> -p flip realized by index reversal; incident deltas square
    against each other through the grid weights (that regularization is what
    makes the distributional product meaningful here).  Equality of the two
    returned samples is the conservation law; for the left/right incident
    pair it is literally transmission reciprocity T^l_+(0) = T^r_-(0).
    """
    out = []
    for one, two in zip(c1, c2):
        if one.side_limit != two.side_limit:
            raise ValueError("coefficient pairs must match side limits")
        rev = grid.reversal()
        delta = one.a[rev] * two.b - one.b[rev] * two.a
        val = (-1j / np.pi) * np.sum(grid.weights * grid.omegas * delta)
        out.append(CurrentSample(side_limit=one.side_limit, value=complex(val)))
    return tuple(out)


# ---------------------------------------------------------------------------
# structure checks


def _symplectic_form(grid: MomentumGrid) -> np.ndarray:
    n = grid.n
    pd = np.zeros((n, n))
    rev = grid.reversal()
    pd[np.arange(n), rev] = grid.weights * grid.omegas
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = pd
    s[n:, :n] = -pd
    return s


def check_symplectic(op: TransferOperator) -> float:
    """Normalized residual of the conservation law M^T S M = S.

    Zero for the exactly evolved operator; decays at the integrator's order
    (4th) under slice refinement.  The norm is Frobenius, normalized by
    ||S||_F.
    """
    s = _symplectic_form(op.grid)
    m = op.matrix
    res = m.T @ s @ m - s
    return float(np.linalg.norm(res) / np.linalg.norm(s))


def classify(op_or_tables, tol: float) -> dict:
    """Scattering classification at tolerance tol.

    Returns {"sup_norms", "reciprocity_mismatch", "predicates"}: the sup
    norm of each T-vector, |T^l_+(0) - T^r_-(0)| at the center node, and
    the flags.  Accepts a TransferOperator or a mapping with keys 'left_plus',
    'left_minus', 'right_plus', 'right_minus' (TransferTables or plain
    complex arrays indexed like the grid).  Each side flag holds iff the
    relevant T-vector's sup norm is <= tol times the largest of the four
    sup norms; reciprocal transmission compares the two forward values
    T^l_+(0) and T^r_-(0) at the center node, which the conserved current
    forces to agree for every potential.
    """
    if isinstance(op_or_tables, TransferOperator):
        tables = transfer_tables(op_or_tables)
        center = op_or_tables.grid.center_index
    else:
        tables = dict(op_or_tables)
        sample = tables["left_plus"]
        n = (sample.grid.n if isinstance(sample, TransferTable)
             else len(np.asarray(sample)))
        center = n // 2
    sup = {}
    for key in ("left_plus", "left_minus", "right_plus", "right_minus"):
        t = tables[key]
        vals = t.values if isinstance(t, TransferTable) else np.asarray(t)
        sup[key] = float(np.max(np.abs(vals)))
        tables[key] = vals
    scale = max(sup.values())
    lim = tol * scale
    recip = float(abs(tables["left_plus"][center] - tables["right_minus"][center]))
    flags = {
        "left_reflectionless": sup["left_minus"] <= lim,
        "left_transparent": sup["left_plus"] <= lim,
        "right_reflectionless": sup["right_plus"] <= lim,
        "right_transparent": sup["right_minus"] <= lim,
        "reciprocal_transmission": recip <= lim,
    }
    flags["left_invisible"] = flags["left_reflectionless"] and flags["left_transparent"]
    flags["right_invisible"] = (
        flags["right_reflectionless"] and flags["right_transparent"]
    )
    return {"sup_norms": sup, "reciprocity_mismatch": recip, "predicates": flags}


def predicates(op_or_tables, tol: float) -> dict:
    """Scattering classification flags at tolerance tol; see :func:`classify`."""
    return classify(op_or_tables, tol)["predicates"]


def amplitude_table_from_operator(op: TransferOperator, side: str) -> AmplitudeTable:
    """Differential amplitude over the grid's natural angles.

    Forward angles arcsin(p_j / k) carry the plus T-function, backward
    angles pi - arcsin(p_j / k) the minus one; |cos theta| = omega_j / k on
    both, so every sample respects the grazing margin as long as the grid
    does.
    """
    grid = op.grid
    k = grid.ctx.k
    alpha = np.arcsin(grid.nodes / k)
    t_plus = extract_t(op, side, "plus").values
    t_minus = extract_t(op, side, "minus").values
    thetas = np.concatenate([alpha, np.pi - alpha])
    values = np.concatenate(
        [
            amplitude_from_t(t_plus, alpha, grid.ctx),
            amplitude_from_t(t_minus, np.pi - alpha, grid.ctx),
        ]
    )
    order = np.argsort(thetas)
    return AmplitudeTable(
        side=side,
        thetas=thetas[order],
        values=values[order],
        method="xfermat",
        ctx=grid.ctx,
    )


def operator_to_dict(op: TransferOperator) -> dict:
    """JSON-ready dump of the operator with its grid metadata."""
    return {
        "k": op.grid.ctx.k,
        "grid_n": op.grid.n,
        "nodes": op.grid.nodes.tolist(),
        "weights": op.grid.weights.tolist(),
        "slices": op.slices,
        "potential": op.potential_label,
        "m22_condition": op.m22_condition,
        "blocks": {
            name: {
                "re": getattr(op, name).real.tolist(),
                "im": getattr(op, name).imag.tolist(),
            }
            for name in ("m11", "m12", "m21", "m22")
        },
    }
