"""Momentum grids for fixed-energy scattering in two dimensions.

Everything downstream works at a single wavenumber k.  A solution of
(-laplace + v) psi = k^2 psi that stays bounded far from the scatterer is a
superposition of oblique plane waves exp(i p y +/- i omega(p) x) with
transverse momentum p in (-k, k) and longitudinal momentum

    omega(p) = sqrt(k^2 - p^2).

The transfer matrix acts on functions of p, so the whole toolkit discretizes
(-k, k) once, with Gauss-Legendre nodes, and represents integral operators in
p as matrices against those weights.  The node count is kept odd so that
p = 0 (normal incidence) is itself a node; incident plane-wave deltas live
there (see :func:`delta_vector`).

Evanescent channels |p| >= k are excluded by construction: the open
Gauss-Legendre nodes never touch the endpoints, and `omega` refuses
arguments outside (-k, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "WaveContext",
    "MomentumGrid",
    "gauss_grid",
    "omega",
    "delta_vector",
]


@dataclass(frozen=True)
class WaveContext:
    """Fixed scattering energy, expressed through the wavenumber k > 0."""

    k: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError(f"wavenumber must be finite and positive, got {self.k}")


def _count(name: str, n) -> int:
    """A count as an int; ValueError for a boolean or a non-integral number."""
    if isinstance(n, (bool, np.bool_)) or not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


def omega(p, ctx: WaveContext):
    """Longitudinal momentum omega(p) = sqrt(k^2 - p^2) on the oscillating range.

    Accepts scalars or arrays, |pvec| in 3D.  Raises ValueError if any
    |p| >= k, the package's one grazing rule: there are no evanescent
    channels, and the grazing limit omega -> 0 is not representable.
    """
    p = np.asarray(p, dtype=float)
    if np.any(np.abs(p) >= ctx.k):
        raise ValueError(f"|p| must stay below k = {ctx.k}; got max |p| = {np.max(np.abs(p))}")
    w = np.sqrt(ctx.k**2 - p**2)
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class MomentumGrid:
    """Gauss-Legendre discretization of the transverse-momentum interval (-k, k).

    Attributes
    ----------
    nodes : ndarray
        Quadrature nodes p_j, strictly inside (-k, k), symmetric about 0,
        with nodes[center_index] == 0.0 exactly.
    weights : ndarray
        Matching weights; sum(weights) = 2k.
    center_index : int
        Index of the p = 0 node.
    ctx : WaveContext
        The wavenumber the grid was built for.
    """

    nodes: np.ndarray
    weights: np.ndarray
    center_index: int
    ctx: WaveContext

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def omegas(self) -> np.ndarray:
        return omega(self.nodes, self.ctx)

    def reversal(self) -> np.ndarray:
        """Index permutation realizing p -> -p (plain order reversal)."""
        return np.arange(self.n)[::-1]


def gauss_grid(n: int, ctx: WaveContext) -> MomentumGrid:
    """Build the momentum grid with n Gauss-Legendre nodes scaled to (-k, k).

    n must be odd and >= 3 so the center node sits exactly at p = 0.
    """
    n = _count("node count", n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"node count must be odd and >= 3, got {n}")
    x, w = leggauss(n)
    # leggauss symmetrizes, so x is exactly antisymmetric and x[n//2] == 0.0;
    # scaling by k preserves both.
    nodes = ctx.k * x
    weights = ctx.k * w
    return MomentumGrid(nodes=nodes, weights=weights, center_index=n // 2, ctx=ctx)


def delta_vector(grid: MomentumGrid) -> np.ndarray:
    """Grid representation of the incident-wave distribution 2 pi delta(p).

    A single nonzero entry 2 pi / w_j0 at the center node, so that quadrature
    against any smooth phi reproduces 2 pi phi(0).
    """
    d = np.zeros(grid.n, dtype=complex)
    d[grid.center_index] = 2.0 * np.pi / grid.weights[grid.center_index]
    return d
