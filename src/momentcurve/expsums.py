"""Cubic exponential sums S(x) = sum_k a_k e(k x1 + k^2 x2 + k^3 x3).

Frequencies are the integer moment-curve points (k, k^2, k^3) for k = 1..N.
Coefficients are bounded by 1 in modulus. The x3 integration interval used by
the moment engines is H = [h0, h0 + N^(-sigma)], carried on the spec object.

e(t) means exp(2*pi*i*t) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError

TWO_PI = 2.0 * math.pi

COEFF_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class ExpSumSpec:
    """Full description of one cubic exponential sum.

    Parameters
    ----------
    n : number of frequencies N >= 1.
    coeffs : complex coefficients a_1..a_N, each of modulus <= 1 (+1e-12).
    sigma : x3-interval shrinking exponent in [0, 2]; H has length N^(-sigma).
    h0 : left endpoint of H, stored reduced by math.fmod(h0, 1.0): every
        moment is 1-periodic in h0, fmod is exact, and h0 in [0, 1) is kept
        as given.
    """

    n: int
    coeffs: np.ndarray = field(repr=False)
    sigma: float = 0.0
    h0: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecValidationError(f"need n >= 1, got {self.n}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.n,):
            raise SpecValidationError(
                f"coeffs must have shape ({self.n},), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs.view(float))):
            raise SpecValidationError("coeffs must be finite")
        worst = float(np.max(np.abs(coeffs))) if self.n else 0.0
        if worst > 1.0 + COEFF_MODULUS_TOL:
            raise SpecValidationError(f"|a_k| <= 1 required, max is {worst}")
        if not (0.0 <= self.sigma <= 2.0):
            raise SpecValidationError(f"sigma must lie in [0, 2], got {self.sigma}")
        if not math.isfinite(self.h0):
            raise SpecValidationError("h0 must be finite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "h0", math.fmod(self.h0, 1.0))

    @property
    def h_length(self) -> float:
        """Length of the x3 interval H, exactly N^(-sigma)."""
        return float(self.n) ** (-self.sigma)


def eval_sum(spec: ExpSumSpec, x) -> complex | np.ndarray:
    """Evaluate S(x) at one point (a length-3 sequence) or at an (m, 3) batch.

    Returns a scalar for a single point, else an array of shape (m,). Each
    term's phase k x1 + k^2 x2 + k^3 x3 is reduced mod 1 exactly, axis by
    axis: x_i - round(x_i) splits into pieces of 53 - b bits, k^i < 2^b,
    so every k^i times a piece is an exact float (_split, _phase). While
    N^3 < 2^26 every split has at most two pieces, so each axis errs by at
    most u/2 (u = 2^-53) and each of the two sums of reduced phases rounds
    by at most u/2: the phase errs by at most 5u/2 turns whatever x, where
    the unreduced sum errs by about N^3 |x3| u. It needs N^3 < 2^52.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise SpecValidationError(f"expected points of shape (m, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise SpecValidationError("points must be finite")
    if spec.n**3 >= 2**52:
        raise SpecValidationError("eval_sum needs N^3 < 2^52")
    k = np.arange(1, spec.n + 1, dtype=float)[:, None]
    phase = np.zeros((spec.n, pts.shape[0]))
    for i in (1, 2, 3):
        axis = pts[:, i - 1] - np.round(pts[:, i - 1])
        phase += _phase(k**i, _split(axis, 53 - (spec.n**i).bit_length()))
        phase -= np.round(phase)
    values = spec.coeffs @ np.exp(2j * math.pi * phase)
    if np.asarray(x).ndim == 1 and values.shape == (1,):
        return complex(values[0])
    return values


def _unit_mean(x) -> np.ndarray:
    """Mean of e(x t) over t in [0, 1], elementwise for float x.

    That is (e(x) - 1) / (2 pi i x), and e(x) = e(y) for y = x - round(x), so
    it equals e(y/2) sin(pi y) / (pi x): no cancellation at large |x|, and
    exactly 0 at every nonzero integer x. It is 1 at x = 0.
    """
    x = np.asarray(x, dtype=float)
    y = x - np.round(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.exp(1j * math.pi * y) * (np.sin(math.pi * y) / (math.pi * x))
    return np.where(x == 0.0, 1.0, mean)


def _split(x, bits: int) -> list:
    """Floats of at most `bits` significant bits each that add up to x exactly.

    Elementwise for an array x; a float x gives floats. Veltkamp/Dekker
    splitting: each piece is the remainder rounded to `bits` bits at the
    remainder's own exponent. The new remainder is a multiple of ulp(x) and
    2^bits times smaller, so it is exact and at most ceil(53 / bits) pieces
    come out.
    """
    x = np.array(x, dtype=float)
    pieces = []
    while np.any(x):
        e = np.frexp(x)[1] - bits
        piece = np.ldexp(np.round(np.ldexp(x, -e)), e)
        pieces.append(piece[()])
        x -= piece
    return pieces


def _phase(p: np.ndarray, pieces: list) -> np.ndarray:
    """p x - round(p x) for the integers p (as floats) and x = sum(pieces).

    The pieces are floats or arrays that broadcast against p. With pieces
    of at most 53 - b bits for p < 2^b, every p * piece is an exact float
    and so is its reduction mod 1. Adding two reduced values rounds once,
    by at most u/2 (u = 2^-53) as |sum| <= 1, and the sum is reduced again
    exactly: the result errs by (len(pieces) - 1) u/2 at most.
    """
    shape = np.broadcast_shapes(p.shape, *(np.shape(piece) for piece in pieces))
    out = np.zeros(shape)
    t, r = np.empty(shape), np.empty(shape)
    for piece in pieces:
        np.multiply(p, piece, out=t)
        np.subtract(t, np.round(t, out=r), out=t)
        out += t
        np.subtract(out, np.round(out, out=r), out=out)
    return out


def phase_row(nu: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """Phase factors e(nu * (start + step*j)) for j = 0..count-1, per frequency.

    Built with two exps per frequency and a multiplicative recurrence along
    the axis, then every entry is divided by its modulus. Under the
    recurrence alone |.| drifts by up to about j ulp at step j, which set
    quadrature moments off by up to ~1e-13 relative (7e-13 at p = 500);
    after the division each entry is within a few ulp of the unit circle.
    The angle still drifts by up to about j ulp. Shape of the result is
    (len(nu), count).
    """
    nu = np.asarray(nu, dtype=float)
    out = np.empty((nu.size, count), dtype=complex)
    if count == 0:
        return out
    out[:, 0] = np.exp(2j * math.pi * nu * start)
    out[:, 1:] = np.exp(2j * math.pi * nu * step)[:, None]
    np.cumprod(out, axis=1, out=out)
    out /= np.abs(out)
    return out
