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
                 [ -e^{+i(omega_p + omega_q) x} vtld         -e^{+i omega_p x} vtld e^{-i omega_q x} ].

On the Gauss-Legendre grid the q-integral becomes the weighted kernel
g_{jl}(x) = vtld(x, p_j - p_l) w_l / (4 pi omega_j), and with
ph = e^{-i omega x} the generator factors as H(x) = l g r through the mover
structure l = [ph; -conj ph] (2N x N) and r = [conj ph, ph] (N x 2N).
Since r l = conj(ph) ph - ph conj(ph) = 0, every H(x) is nilpotent,
H(x)^2 = 0, and between two nodes a, b the mover structure gives the
diagonal

    r(a) l(b) = conj(ph_a) ph_b - ph_a conj(ph_b) = 2i sin(omega (x_a - x_b)).

The evolution carries the scattered part W = U - I, which solves
dW/dx = -i H (I + W).  Accumulating U itself would add every O(h g)
increment to an O(1) diagonal and keep W only to about eps absolute; W
keeps it to about eps relative to itself.  The identity enters a stage
only through r I = [diag(conj ph) | diag(ph)], two N-diagonals.

The ordered exponential is integrated with fixed-step classical
Runge-Kutta; the stage nodes are linspace(x0, x1, 2 slices + 1), so the
last one is exactly the slab edge x1.  A slice runs from node c over the
midpoint m to the end e, in the frame that co-rotates with the free waves
from c: it carries X = [conj(ph_c) W_A ; ph_c W_B], so r_c W = X_A + X_B.
With alpha = e^{i omega h / 2} and s = h sin(omega h / 2), the slice needs
only the four N x N by N x 2N products

    Y1 = g_c (X_A + X_B + r_c I),
    Y3 = g_m R,     R = alpha X_A + conj(alpha) X_B + r_m I,
    Y2 = g_m (R + s Y1),
    Y4 = g_e (alpha^2 X_A + conj(alpha^2) X_B + r_e I + 2 s Y3),

(r_m k2 = 0 drops the k2 term from Y3; R is formed doubled, so that the
two midpoint products return 2 Y3 and Y2 + Y3), and the X of the next
slice start e is

    X_A <- rho X_A - i (h/6) [alpha^2 Y1 + 2 alpha (Y2 + Y3) + Y4],
    X_B <- conj(rho) X_B + i (h/6) [conj(alpha^2) Y1 + 2 conj(alpha) (Y2 + Y3) + Y4],

which is the classical RK4 step for W in exact arithmetic.  Every diagonal
here except the carried rotation rho = conj(ph_e) ph_c is the same for all
slices, so it is broadcast to a full N x 2N array once per evolution.  rho
comes from the node phases themselves, not from the constant alpha^2:
raising a constant drifts the frame by about slices * eps relative to W,
which on the construction (quartic, k = 4 pi, N = 41, 400 slices, g0 =
1e-5) moves Re T^l_+(0) / g0^3 from 3.09e-5 to 2.26e-5.  The factors
(g, ph) are assembled for a chunk of slices at a time, one
transverse-transform product for all of its nodes.

Exact properties of the continuum operator survive discretization in a
precise form and are used as checks:

* a symplectic conservation law: with P the p -> -p index reversal,
  D = diag(w_j omega_j) and S the block form [[0, P D], [-P D, 0]],
  the generator satisfies H^T S + S H = 0 identically, so the exactly
  evolved M obeys M^T S M = S, that is W^T S + S W + W^T S W = 0, and the
  numerical one obeys it to the integrator's order (4th in the slice
  count).  S is applied as the signed reversal-and-scale
  S (a, b) = (P D b, -P D a), never as a dense matrix;
* the conserved current is S applied to two solutions, j = (-i / pi)
  (A1, B1)^T S (A2, B2), equal at both side limits; for the left- and
  right-incident pair that is transmission reciprocity T^l_+(0) = T^r_-(0).

Incident plane waves are the grid delta d = 2 pi / w_j0 at the center
node.  An incident solution fixes the incoming coefficients A_- and B_+
(A_- = d, B_+ = 0 from the left; A_- = 0, B_+ = d from the right), and a
solve against the M22 block gives the outgoing ones B_- and A_+ (see
:func:`scattering_coeffs`).  On either side the transmission/reflection
functions are outgoing minus incoming, T_+ = A_+ - A_- and T_- = B_- - B_+,
and they are read off W with no subtraction of the incident wave:

    left:   B_- = -M22^{-1} W21 d,   T_+ = W11 d + W12 B_-,   T_- = B_-;
    right:  T_- = -M22^{-1} W22 d,   T_+ = W12 M22^{-1} d = W12 (d + T_-),

with W12 (d + T_-) evaluated as W12 d + W12 T_-.  The two sides are the
two columns of one solve, M22 X = -[W21 d, W22 d], made once per operator
at its first read; every reader shares the four T-functions it gives.
A nearly singular M22 signals a spectral singularity (zero-width
resonance); it is reported as a warning, not an error.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .born import _check_side_sign
from .grids import MomentumGrid, _count, delta_vector
from .potentials import PotentialSpec

__all__ = [
    "SpectralSingularityWarning",
    "IntegrationError",
    "TransferOperator",
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
    "operator_to_dict",
]

# M22 condition number beyond which a spectral singularity is flagged.
SPECTRAL_COND_LIMIT = 1e12

# Slices whose generator factors evolve_transfer assembles at once; bounds
# the kernel block to 2 * _CHUNK_SLICES + 1 matrices of N x N.
_CHUNK_SLICES = 32


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

    `scattered` is its scattered part W = M - I, the 2N x 2N array in
    (A-block, B-block) ordering that the evolution carries; `matrix` is
    the full I + W and m11 .. m22 are its N x N mover blocks.  Its four
    T-functions are solved for at the first read and kept read-only.
    """

    grid: MomentumGrid
    scattered: np.ndarray
    slices: int
    potential_label: str = ""

    @property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def matrix(self) -> np.ndarray:
        return np.eye(2 * self.n) + self.scattered

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
    def m22_condition(self) -> float:
        return float(np.linalg.cond(self.m22))

    def solve_m22(self, rhs):
        """M22^{-1} rhs by numpy's LU solve, warning first when the M22
        condition exceeds SPECTRAL_COND_LIMIT.  An exactly singular M22
        raises numpy.linalg.LinAlgError."""
        if self.m22_condition > SPECTRAL_COND_LIMIT:
            warnings.warn(
                f"M22 condition {self.m22_condition:.3g} exceeds "
                f"{SPECTRAL_COND_LIMIT:g}: spectral singularity suspected; "
                "extracted T-functions are unreliable",
                SpectralSingularityWarning,
                stacklevel=_outside_stacklevel(),
            )
        return np.linalg.solve(self.m22, rhs)

    @cached_property
    def _t_functions(self) -> dict:
        """The four T-functions on the grid nodes, keyed 'left_plus',
        'left_minus', 'right_plus', 'right_minus', as read-only arrays:
        one M22 solve with the left and the right incident side as its two
        columns (see the module docstring)."""
        d = delta_vector(self.grid)
        n, w = self.n, self.scattered
        # [W11 d, W12 d] over [W21 d, W22 d]: column 0 the left side, 1 the right
        wd = np.column_stack([w[:, :n] @ d, w[:, n:] @ d])
        minus = -self.solve_m22(wd[n:]).T.copy()
        # W12 times one side at a time: a two-column product rounds differently
        plus = np.array([wd[:n, c] + w[:n, n:] @ minus[c] for c in (0, 1)])
        plus.flags.writeable = minus.flags.writeable = False
        return {
            f"{side}_{sign}": t[c]
            for c, side in enumerate(("left", "right"))
            for sign, t in (("plus", plus), ("minus", minus))
        }


def _outside_stacklevel():
    """The warnings.warn stacklevel, from a method of this module, of the
    first frame outside this module and `functools` (whose cached_property
    makes the first read of the T-functions): the user's line, whichever
    reader or direct call got to the warning.  Only the warning path walks
    the stack."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__") in (__name__, "functools"):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Mover coefficient vectors (A, B) of one solution at one side limit."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class TransferTable:
    """One of the four T-functions sampled on the grid nodes."""

    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class CurrentSample:
    """The conserved bilinear current evaluated at one side limit."""

    value: complex


def _generator_factors(v: PotentialSpec, grid: MomentumGrid):
    """x -> (g, ph), the factors of H(x) = l g r; see the module docstring.

    x is a scalar or an array of nodes; g has the shape of x followed by
    (N, N) and ph the shape of x followed by (N,).
    """
    p = grid.nodes
    vtilde = v._transverse_transform(p[:, None] - p[None, :])
    # x-independent kernel scale: w_l / (2 pi * 2 omega_j)
    scale = grid.weights[None, :] / (4.0 * np.pi * grid.omegas[:, None])
    omegas = grid.omegas

    def factors(x):
        g = vtilde(x)
        g *= scale
        return g, np.exp(-1j * np.multiply.outer(x, omegas))

    return factors


def effective_hamiltonian(v: PotentialSpec, grid: MomentumGrid, x: float) -> np.ndarray:
    """The dense 2N x 2N generator H(x) = l g r at a single slab position."""
    g, ph = _generator_factors(v, grid)(x)
    left = np.concatenate([ph, -np.conj(ph)])
    right = np.concatenate([np.conj(ph), ph])
    return left[:, None] * np.tile(g, (2, 2)) * right[None, :]


def default_slices(v: PotentialSpec, grid: MomentumGrid) -> int:
    """Default slice count: 200 per wavelength-equivalent 2 pi / k of slab."""
    x0, x1 = v.x_support
    wavelengths = (x1 - x0) * grid.ctx.k / (2.0 * np.pi)
    return max(50, int(np.ceil(200.0 * wavelengths)))


def evolve_transfer(v: PotentialSpec, grid: MomentumGrid, slices: int = None) -> TransferOperator:
    """Integrate the ordered exponential across the slab.

    Classical fixed-step 4th-order Runge-Kutta on the scattered part,
    dW/dx = -i H(x) (I + W), from the lower to the upper support edge; the
    generator vanishes outside.  The stage nodes linspace(x0, x1, 2 slices
    + 1) end exactly at x1.  Each slice runs in the frame co-rotating with
    the free waves from its start, X = [conj(ph_c) W_A ; ph_c W_B], and
    each stage is one N x N by N x 2N product: the identity's part of r U
    is two N-diagonals, and r(a) l(b) = 2i sin(omega (x_a - x_b)) turns the
    stage sums into scalings of the previous stage's product (see the
    module docstring).  Apart from the rotation carried from slice to slice,
    which comes from the node phases so that the frame does not drift, every
    scaling is the same for all slices and is broadcast once per call.  The
    factors (g, ph) are assembled _CHUNK_SLICES slices at a time.  The slice
    count fixes the step; see :func:`default_slices`.
    """
    if slices is None:
        slices = default_slices(v, grid)
    slices = _count("slice count", slices)
    if slices < 1:
        raise ValueError(f"slice count must be positive, got {slices}")
    factors = _generator_factors(v, grid)
    x0, x1 = map(float, v.x_support)
    h = (x1 - x0) / slices
    nodes = np.linspace(x0, x1, 2 * slices + 1)
    n = grid.n
    alpha = np.exp(0.5j * h * grid.omegas)
    alpha2 = alpha * alpha

    def rows(d):
        # the row scaling diag(d) as a full complex N x 2N array: numpy runs
        # same-shape, same-dtype products in one contiguous pass, and an
        # (N, 1) broadcast or a real factor takes a slower loop
        return np.broadcast_to(d[:, None], (n, 2 * n)).astype(complex)

    # the doubled midpoint rotation (2 alpha, 2 conj alpha), the end one
    # (alpha^2, conj alpha^2), s = h sin(omega h / 2), and the RK4 weights
    # -i (h/6) (alpha^2, 2 alpha) of X_A with their conjugates for X_B; Y4's
    # weight -i h/6 is a scalar
    mid_a, mid_b, end_a, end_b, sin_h, wc_a, wc_b, wm_a, wm_b = (
        rows(d) for d in (
            2.0 * alpha, 2.0 * alpha.conj(), alpha2, alpha2.conj(), h * alpha.imag,
            (-1j * h / 6.0) * alpha2, (1j * h / 6.0) * alpha2.conj(),
            (-1j * h / 3.0) * alpha, (1j * h / 3.0) * alpha.conj(),
        )
    )
    w4 = -1j * h / 6.0
    x = np.zeros((2 * n, 2 * n), dtype=complex)
    xa, xb = x[:n], x[n:]
    rc, rm, re, tmp = (np.empty((n, 2 * n), dtype=complex) for _ in range(4))
    # the two N-diagonals (j, j) and (j, N + j) of r I
    diag = (np.tile(np.arange(n), 2), np.arange(2 * n))
    for first in range(0, slices, _CHUNK_SLICES):
        count = min(_CHUNK_SLICES, slices - first)
        # local node 2i starts slice i of the chunk, 2i + 1 is its midpoint
        # and 2i + 2 its end (and the start of the next slice)
        g, ph = factors(nodes[2 * first : 2 * (first + count) + 1])
        cph = np.conj(ph)
        ident = np.concatenate([cph, ph], axis=1)  # r I at each node
        ident[1::2] *= 2.0
        rho = cph[2::2] * ph[:-1:2]
        carry = np.concatenate([rho, rho.conj()], axis=1)[..., None]
        for i in range(count):
            c, m, e = 2 * i, 2 * i + 1, 2 * i + 2
            np.add(xa, xb, out=rc)
            rc[diag] += ident[c]
            y1 = g[c] @ rc
            np.multiply(mid_a, xa, out=rm)
            np.multiply(mid_b, xb, out=tmp)
            rm += tmp
            rm[diag] += ident[m]
            y3 = g[m] @ rm  # 2 Y3
            np.multiply(sin_h, y1, out=tmp)
            rm += tmp
            y2 = g[m] @ rm  # Y2 + Y3
            np.multiply(end_a, xa, out=re)
            np.multiply(end_b, xb, out=tmp)
            re += tmp
            re[diag] += ident[e]
            np.multiply(sin_h, y3, out=tmp)
            re += tmp
            y4 = g[e] @ re
            x *= carry[i]
            np.multiply(wc_a, y1, out=tmp)
            xa += tmp
            np.multiply(wc_b, y1, out=tmp)
            xb += tmp
            np.multiply(wm_a, y2, out=tmp)
            xa += tmp
            np.multiply(wm_b, y2, out=tmp)
            xb += tmp
            np.multiply(y4, w4, out=tmp)
            xa += tmp
            xb -= tmp
    # back from the frame of the last node x1 to W
    x *= np.concatenate([ph[-1], cph[-1]])[:, None]
    if not np.all(np.isfinite(x)):
        raise IntegrationError(
            f"transfer-matrix integration blew up after {slices} slices; "
            "increase the slice count or weaken the potential",
            slices=slices,
        )
    return TransferOperator(
        grid=grid, scattered=x, slices=slices, potential_label=v.label
    )


def born_operator(v: PotentialSpec, grid: MomentumGrid) -> TransferOperator:
    """First-order transfer matrix I + W with W = -i integral H dx, via the
    full FT.

    The x-integral of each phase-dressed kernel entry is the potential's
    full Fourier transform at the matching longitudinal frequency, so this
    needs no x-stepping at all.  Independent route used to validate the
    evolution at weak coupling, so it shares no code with it.
    """
    p, w = grid.nodes, grid.omegas
    delta = p[:, None] - p[None, :]
    scale = grid.weights[None, :] / (4.0 * np.pi * w[:, None])
    dsum = w[:, None] + w[None, :]
    ddif = w[:, None] - w[None, :]
    # the four blocks share ky = delta, so one transform call serves them all
    b = scale * v.ft(np.stack([ddif, dsum, -dsum, -ddif]), delta)
    w1 = -1j * np.block([[b[0], b[1]], [-b[2], -b[3]]])
    return TransferOperator(
        grid=grid, scattered=w1, slices=0, potential_label=v.label
    )


# ---------------------------------------------------------------------------
# extraction


def scattering_coeffs(op: TransferOperator, side: str):
    """Asymptotic (A, B) pairs of the left- or right-incident solution.

    The incoming coefficients are A_- = d, B_+ = 0 (left) or A_- = 0,
    B_+ = d (right), with d the incident delta; the operator's one M22
    solve gives the outgoing ones on either side,

        B_- = M22^{-1} (B_+ - M21 A_-),      A_+ = M11 A_- + M12 B_-,

    each formed as the incoming coefficient plus the T-function that
    :func:`extract_t` reads off W: A_+ = A_- + T_+ and B_- = B_+ + T_-.

    Returns (coeffs at -inf, coeffs at +inf).
    """
    _check_side_sign(side)
    t = op._t_functions
    d = delta_vector(op.grid)
    zero = np.zeros_like(d)
    a_minus, b_plus = (d, zero) if side == "left" else (zero, d)
    return (
        AsymptoticCoeffs(a=a_minus, b=b_plus + t[f"{side}_minus"]),
        AsymptoticCoeffs(a=a_minus + t[f"{side}_plus"], b=b_plus),
    )


def extract_t(op: TransferOperator, side: str, sign: str) -> TransferTable:
    """T_side_sign on the grid nodes: outgoing minus incoming coefficients
    of the incident solution (see :func:`scattering_coeffs`),

        T_+ = A_+ - A_-,      T_- = B_- - B_+,

    on either side, read off the scattered part W = M - I with no
    subtraction of the incident wave (see the module docstring).  The
    values are the operator's own read-only array.
    """
    _check_side_sign(side, sign)
    return TransferTable(op._t_functions[f"{side}_{sign}"])


def transfer_tables(op: TransferOperator) -> dict:
    """All four T-functions, keyed 'left_plus', 'left_minus', ...: a view
    of the operator's one M22 solve, which serves both sides."""
    return {key: TransferTable(values) for key, values in op._t_functions.items()}


# ---------------------------------------------------------------------------
# structure checks


def _symplectic_form(grid: MomentumGrid, u: np.ndarray) -> np.ndarray:
    """S u for S = [[0, P D], [-P D, 0]], applied as the signed
    reversal-and-scale S (a, b) = (P D b, -P D a); u is a 2N vector or a
    2N x K array."""
    n, rev = grid.n, grid.reversal()
    pd = (grid.weights * grid.omegas).reshape((n,) + (1,) * (u.ndim - 1))
    return np.concatenate([pd * u[n:][rev], -pd * u[:n][rev]])


def conserved_current(c1, c2, grid: MomentumGrid):
    """The conserved bilinear current of two solutions at both side limits.

    c1 and c2 are (-inf, +inf) pairs of AsymptoticCoeffs from
    :func:`scattering_coeffs`.  At each limit j is the symplectic form S of
    :func:`check_symplectic` applied to the two solutions,

        j = (-i / pi) (A1, B1)^T S (A2, B2),

    so M^T S M = S makes the two samples equal.  Incident deltas square
    against each other through the grid weights in S.  For the left/right
    incident pair j(-inf) = -2ik (T^r_-(0) + d(0)) and j(+inf) =
    -2ik (T^l_+(0) + d(0)): the conservation law is transmission reciprocity.
    """
    out = []
    for one, two in zip(c1, c2):
        u1, u2 = np.concatenate([one.a, one.b]), np.concatenate([two.a, two.b])
        out.append(
            CurrentSample(value=complex((-1j / np.pi) * (u1 @ _symplectic_form(grid, u2))))
        )
    return tuple(out)


def check_symplectic(op: TransferOperator) -> float:
    """Normalized residual of the conservation law M^T S M = S.

    On the scattered part W = M - I the residual is W^T S + S W + W^T S W,
    with no O(1) term to cancel.  S is antisymmetric (w omega is even in
    p), so W^T S = -(S W)^T, and one product W^T (S W) remains.  Zero for
    the exactly evolved operator; decays at the integrator's order (4th)
    under slice refinement.  The norm is Frobenius, normalized by ||S||_F.
    """
    w = op.scattered
    sw = _symplectic_form(op.grid, w)
    res = sw - sw.T + w.T @ sw
    s_norm = np.sqrt(2.0) * np.linalg.norm(op.grid.weights * op.grid.omegas)
    return float(np.linalg.norm(res) / s_norm)


def classify(op: TransferOperator, tol: float) -> dict:
    """Scattering classification of an operator at finite tolerance tol >= 0.

    Returns {"sup_norms", "reciprocity_mismatch", "predicates"}: the sup
    norm of each of the four T-vectors 'left_plus', 'left_minus',
    'right_plus', 'right_minus', |T^l_+(0) - T^r_-(0)| at the center node,
    and the flags.  Each side flag holds iff the relevant T-vector's sup
    norm is <= tol times the largest of the four sup norms; reciprocal
    transmission compares the two forward values T^l_+(0) and T^r_-(0) at
    the center node, which the conserved current forces to agree for every
    potential.

    The T-tables are read off W with no subtraction of the incident wave,
    so the mismatch is relative to the T-functions themselves: on the
    construction (quartic, k = 4 pi) it is 4.2e-13 of the largest sup norm
    at g0 = 1e-2 (41 nodes, 400 slices), 3.4e-15 at g0 = 1e-4, and 4.3e-14
    at g0 = 1e-6 (21 nodes, 100 slices).
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    tables = transfer_tables(op)
    sup = {key: t.sup for key, t in tables.items()}
    lim = tol * max(sup.values())
    center = op.grid.center_index
    recip = float(
        abs(tables["left_plus"].values[center] - tables["right_minus"].values[center])
    )
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


def predicates(op: TransferOperator, tol: float) -> dict:
    """Scattering classification flags at tolerance tol; see :func:`classify`."""
    return classify(op, tol)["predicates"]


def operator_to_dict(op: TransferOperator) -> dict:
    """JSON-ready dump of the operator with its grid metadata.

    `blocks` holds the four N x N blocks of M = I + W and `scattered` those
    of W itself (`w11` .. `w22`), each as a re/im pair.  W11 and W22 read
    back from `blocks` minus I keep W only to about eps absolute; read from
    `scattered` they keep it to eps relative.
    """
    n, w = op.n, op.scattered

    def re_im(block):
        return {"re": block.real.tolist(), "im": block.imag.tolist()}

    return {
        "k": op.grid.ctx.k,
        "grid_n": op.grid.n,
        "nodes": op.grid.nodes.tolist(),
        "weights": op.grid.weights.tolist(),
        "slices": op.slices,
        "potential": op.potential_label,
        "m22_condition": op.m22_condition,
        "blocks": {name: re_im(getattr(op, name)) for name in ("m11", "m12", "m21", "m22")},
        "scattered": {
            f"w{i}{j}": re_im(w[(i - 1) * n : i * n, (j - 1) * n : j * n])
            for i in (1, 2)
            for j in (1, 2)
        },
    }
