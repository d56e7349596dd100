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
    form, evaluated in real arithmetic, and a small-|q b| series where the
    closed form cancels.

Both profiles are g0 times a real function, so `Envelope.ft_even`, the
transform of the even part (gt(q) + gt(-q)) / 2, is g0 times the real part
of the profile's transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval

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
            re, im = _quartic_moment_integral(q, self.b)
            out = self.g0 * self.b**-4 * (re + 1j * im)
        return out if out.ndim else complex(out)

    def ft_even(self, q):
        """(gt(q) + gt(-q)) / 2, the transform of the even part of g.

        g is g0 times a real profile, so gt(-q) = g0 conj(gt(q) / g0) and
        the even part is g0 times the real part of the profile's transform:
        gt itself for the gaussian, g0 b^-4 Re of the moment integral for
        the quartic.
        """
        if self.kind == "gaussian":
            return self.ft(q)
        re, _ = _quartic_moment_integral(q, self.b)
        out = self.g0 * self.b**-4 * re
        return out if out.ndim else complex(out)


# Taylor coefficients of the moment integral over b^5 in (-i q b), n < 27:
# the n-th moment of y^2 (y-b)^2 is 2 b^{n+5} / ((n+3)(n+4)(n+5)), and
# (-i q b)^n / n! is (-1)^j x^j / (2j)! for n = 2j and -i q b (-1)^j x^j /
# (2j+1)! for n = 2j+1, x = (q b)^2.  Even n give the real part, odd n the
# imaginary part, each a polynomial in x.
_SERIES = np.array(
    [(-1) ** (n // 2) * 2.0 / ((n + 3) * (n + 4) * (n + 5) * factorial(n)) for n in range(27)]
)
_SERIES_RE, _SERIES_IM = _SERIES[0::2], _SERIES[1::2]


def _quartic_moment_integral(q, b):
    """integral_0^b exp(-i q y) y^2 (y-b)^2 dy, stable for all real q, as
    its (real, imaginary) parts.

    Closed form by repeated integration by parts,

        (1 - e) (2 b^2 / (iq)^3 + 24 / (iq)^5) - 12 b / (iq)^4 (1 + e),

    e = exp(-i q b).  The powers of iq are real or pure imaginary, and the
    profile is symmetric about b/2, so with the half angle h = q b / 2 it
    is one real function times exp(-i h):

        -b^5 exp(-i h) P(h) / (2 h^5),  P = h^2 sin h - 3 (sin h - h cos h).

    Below |q b| = 1 it still loses ~3 digits to cancellation, so the Taylor
    series in (-i q b) takes over there, its even and odd terms as two real
    polynomials in (q b)^2.
    """
    q = np.asarray(q, dtype=float)
    shape = q.shape
    q = np.atleast_1d(q)
    re = np.empty(q.shape)
    im = np.empty(q.shape)
    small = np.abs(q * b) <= 1.0

    if np.any(small):
        t = q[small] * b
        x = t * t
        re[small] = b**5 * polyval(x, _SERIES_RE)
        im[small] = -(b**5) * t * polyval(x, _SERIES_IM)

    if not np.all(small):
        h = 0.5 * b * q[~small]
        sh, ch = np.sin(h), np.cos(h)
        u = 1.0 / h
        u2 = u * u
        real = (0.5 * b**5) * (u2 * u2 * u) * (h * h * sh - 3.0 * (sh - h * ch))
        re[~small] = -real * ch
        im[~small] = real * sh

    return re.reshape(shape), im.reshape(shape)


def gaussian_envelope(g0, b) -> Envelope:
    return Envelope(kind="gaussian", g0=complex(g0), b=float(b))


def quartic_envelope(g0, b) -> Envelope:
    return Envelope(kind="quartic", g0=complex(g0), b=float(b))
