"""Transverse envelope profiles g(y) and their Fourier transforms.

The invisible-potential construction modulates a single smooth envelope g(y)
along the slab; everything it needs from g is the value, the second
derivative, and the Fourier transform

    gt(q) = integral dy exp(-i q y) g(y)         (this sign convention
                                                  is used package-wide).

Two families are supported:

``gaussian``
    g(y) = g0 exp(-y^2 / 2 b^2).  Unbounded support, treated as numerically
    compact on |y| <= 8 b (relative truncation ~ e^{-32} ~ 1.3e-14).
    gt(q) = g0 b sqrt(2 pi) exp(-b^2 q^2 / 2).

``quartic``
    g(y) = g0 b^-4 y^2 (y - b)^2 on [0, b], zero outside.  C^1 at the
    edges, with a jump in g''.  gt has a closed polynomial-times-exponential
    form, evaluated by a small-|q b| series where the closed form cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Envelope",
    "gaussian_envelope",
    "quartic_envelope",
]

_KINDS = ("gaussian", "quartic")

# Width of the window treated as the support of a Gaussian envelope, in
# units of b.  exp(-8^2/2) ~ 1.3e-14 relative truncation.
GAUSSIAN_WINDOW = 8.0


@dataclass(frozen=True)
class Envelope:
    """A transverse profile g(y); see the module docstring for the families.

    Attributes
    ----------
    kind : str
        One of "gaussian", "quartic".
    g0 : complex
        Overall amplitude.  Everything downstream is exactly linear in it.
    b : float
        Width (gaussian) or support length (quartic).
    """

    kind: str
    g0: complex
    b: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError(f"envelope width must be positive, got {self.b}")
        if not np.isfinite(self.g0):
            raise ValueError(f"envelope strength must be finite, got {self.g0}")

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which g is (numerically) zero."""
        if self.kind == "gaussian":
            return (-GAUSSIAN_WINDOW * self.b, GAUSSIAN_WINDOW * self.b)
        return (0.0, self.b)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "gaussian":
            out = np.asarray(self.g0 * np.exp(-(y**2) / (2.0 * self.b**2)))
        else:
            inside = (y >= 0.0) & (y <= self.b)
            out = np.where(
                inside, self.g0 * self.b**-4 * y**2 * (y - self.b) ** 2, 0.0
            ).astype(complex)
        return out if out.ndim else complex(out)

    def second_derivative(self, y):
        """g''(y); for the compact kinds, the interior expression inside the
        support and zero outside (the edge jumps belong to the potential)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "gaussian":
            out = np.asarray(
                self.g0
                * (y**2 / self.b**4 - 1.0 / self.b**2)
                * np.exp(-(y**2) / (2.0 * self.b**2))
            )
        else:
            inside = (y >= 0.0) & (y <= self.b)
            out = np.where(
                inside,
                self.g0 * self.b**-4 * (12.0 * y**2 - 12.0 * self.b * y + 2.0 * self.b**2),
                0.0,
            ).astype(complex)
        return out if out.ndim else complex(out)

    def ft(self, q):
        """Fourier transform gt(q) = integral dy exp(-i q y) g(y)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "gaussian":
            out = self.g0 * self.b * np.sqrt(2.0 * np.pi) * np.exp(
                -(self.b**2) * q**2 / 2.0
            )
            out = np.asarray(out, dtype=complex)
        else:
            out = self.g0 * self.b**-4 * _quartic_moment_integral(q, self.b)
        return out if out.ndim else complex(out)


def _quartic_moment_integral(q, b):
    """integral_0^b exp(-i q y) y^2 (y-b)^2 dy, stable for all real q.

    Closed form by repeated integration by parts; below |q b| = 1 the closed
    form loses ~5 digits to cancellation, so a fast-converging Taylor series
    in (-i q b) takes over there (the n-th moment of y^2 (y-b)^2 is
    2 b^{n+5} / ((n+3)(n+4)(n+5))).
    """
    q = np.asarray(q, dtype=float)
    shape = q.shape
    q = np.atleast_1d(q)
    out = np.empty(q.shape, dtype=complex)
    small = np.abs(q * b) <= 1.0

    if np.any(small):
        t = -1j * q[small] * b
        acc = np.zeros(t.shape, dtype=complex)
        term = np.ones(t.shape, dtype=complex)  # t^n / n!
        for n in range(0, 27):
            if n > 0:
                term = term * t / n
            acc = acc + term * (2.0 / ((n + 3.0) * (n + 4.0) * (n + 5.0)))
        out[small] = b**5 * acc

    if np.any(~small):
        qq = q[~small]
        iq = 1j * qq
        e = np.exp(-1j * qq * b)
        out[~small] = (1.0 - e) * (2.0 * b**2 / iq**3 + 24.0 / iq**5) - (
            12.0 * b / iq**4
        ) * (1.0 + e)

    return out.reshape(shape)


def gaussian_envelope(g0, b) -> Envelope:
    return Envelope(kind="gaussian", g0=complex(g0), b=float(b))


def quartic_envelope(g0, b) -> Envelope:
    return Envelope(kind="quartic", g0=complex(g0), b=float(b))
