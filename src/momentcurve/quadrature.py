"""Quadrature sanity checks for the exact moment engines.

Everything here integrates |sum a e(x . (xi, xi^2, xi^3))|^p by the midpoint
rule on uniform grids whose axis counts scale with the frequency extent times
an oversample factor. For full-period axes (sigma = 0 boxes) the midpoint
rule is exact on the trigonometric content; for partial intervals it is an
approximation whose error is estimated by halving every axis count.

The continuous-frequency entry points take curve parameters xi in [0, 1] and
derive the frequency triples (xi, xi^2, xi^3) themselves; this module is the
home for scaled and fractional frequencies, while expsums handles the integer
spectrum k = 1..N.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec, phase_row
from .moments import MomentResult

DEFAULT_CELL_BUDGET = int(4e8)
# Cells materialized at once while streaming x3 slabs.
_SLAB_CELLS = 1 << 22
# Error estimates never drop below machine-noise scale; see _refined.
ERR_FLOOR = 1e-13

LOCAL_FULL_CUBE_LIMIT = 64.0
LOCAL_TRANSLATES = 32


def require_oversample(oversample: float) -> None:
    if not (1.0 <= oversample < math.inf):
        raise SpecValidationError("oversample must be finite and >= 1")


def grid_counts(oversample: float, extents, sides, cell_budget: int, floor: int = 1):
    """Midpoint counts m_i = max(floor, ceil(oversample * extent_i * side_i)).

    extent_i is the largest frequency on axis i, so oversample is the number
    of cells per period of the fastest wave. The oversample range and the
    cell budget are checked on the unrounded counts, before math.ceil can
    overflow.
    """
    require_oversample(oversample)
    raw = [oversample * extent * side for extent, side in zip(extents, sides)]
    cells = math.prod(raw)
    if not cells <= cell_budget:
        raise BudgetError("quadrature cells", cells, cell_budget)
    return tuple(max(floor, math.ceil(x)) for x in raw)


def _refined(run, counts) -> tuple[float, float]:
    """run(counts) and its step-halving error estimate.

    The estimate is the difference against run at the halved counts, floored
    at ERR_FLOOR * max(1, |value|): when every box axis is a full period of
    the integrand (sigma = 0) both runs are exact and the raw difference is
    pure roundoff, so the floor keeps the estimate meaningful as a bound
    rather than a coincidence of machine noise.
    """
    value = run(counts)
    coarse = run(tuple(max(1, m // 2) for m in counts))
    return value, max(abs(value - coarse), ERR_FLOOR * max(1.0, abs(value)))


def box_power_integral(
    xi: np.ndarray,
    coeffs: np.ndarray,
    p: float,
    box_corner,
    box_sides,
    counts,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> float:
    """Midpoint integral of |sum a e(x . (xi, xi^2, xi^3))|^p over a box.

    Streams the grid in x3 slabs so only O(m1 * m2 * slab) cells are alive at
    once. The nominal cell count is still bounded by cell_budget.
    """
    if p <= 0:
        raise SpecValidationError("power p must be positive")
    xi = np.asarray(xi, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    if xi.ndim != 1 or coeffs.shape != xi.shape:
        raise SpecValidationError("xi and coeffs must be 1-d arrays of equal length")
    m1, m2, m3 = (int(c) for c in counts)
    if min(m1, m2, m3) < 1:
        raise SpecValidationError("grid counts must be >= 1")
    cells = m1 * m2 * m3
    if cells > cell_budget:
        raise BudgetError("quadrature cells", cells, cell_budget)

    freqs = np.column_stack([xi, xi**2, xi**3])
    steps = [side / m for side, m in zip(box_sides, (m1, m2, m3))]
    starts = [corner + st / 2 for corner, st in zip(box_corner, steps)]
    u = coeffs[:, None] * phase_row(freqs[:, 0], starts[0], steps[0], m1)
    v = phase_row(freqs[:, 1], starts[1], steps[1], m2)
    w = phase_row(freqs[:, 2], starts[2], steps[2], m3)
    planes = (u[:, :, None] * v[:, None, :]).reshape(xi.size, m1 * m2)

    slab = max(1, _SLAB_CELLS // max(1, m1 * m2))
    acc = 0.0
    for lo in range(0, m3, slab):
        values = planes.T @ w[:, lo : lo + slab]
        acc += float(np.sum(np.abs(values) ** p))
    vol = box_sides[0] * box_sides[1] * box_sides[2]
    return acc * (vol / cells)


def moment_quadrature(
    spec: ExpSumSpec,
    p: float,
    oversample: float = 4.0,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> MomentResult:
    """Midpoint approximation to the p-th moment of |S| over [0,1]^2 x H.

    Axis counts are grid_counts over extents N^i; err_estimate is the
    step-halving difference of _refined.
    """
    t0 = time.perf_counter()
    sides = (1.0, 1.0, spec.h_length)
    counts = grid_counts(oversample, [spec.n**i for i in (1, 2, 3)], sides, cell_budget)
    xi = np.arange(1, spec.n + 1, dtype=float)

    def run(cnts) -> float:
        return box_power_integral(
            xi, spec.coeffs, p, (0.0, 0.0, spec.h0), sides, cnts, cell_budget
        )

    value, err = _refined(run, counts)
    return MomentResult(
        value=value,
        method="quadrature",
        err_estimate=err,
        wall_time=time.perf_counter() - t0,
        detail={"counts": list(counts), "oversample": oversample},
    )


def separation_floor(xi: np.ndarray) -> float:
    xi = np.sort(np.asarray(xi, dtype=float))
    if xi.size < 2:
        return math.inf
    return float(np.min(np.diff(xi)))


def standard_frequency_set(r_scale: float, beta: float) -> np.ndarray:
    """ceil(R^beta) curve parameters spaced exactly R^(-beta) from 0."""
    count = math.ceil(r_scale**beta)
    return np.arange(count) * r_scale ** (-beta)


def _cube_average_exact_p2(
    xi: np.ndarray, coeffs: np.ndarray, corner: np.ndarray, side: float
) -> float:
    """Closed-form cube average of |g|^2: pair sum with per-axis averages.

    The average of e(delta . x) over the cube factorizes into three interval
    averages e(d c) e^(i pi y) sin(pi y)/(pi d side) with y the reduced d*side,
    so the whole p=2 moment costs O(|Xi|^2) and is exact up to roundoff.
    """
    freqs = np.column_stack([xi, xi**2, xi**3])
    total = float(np.sum(np.abs(coeffs) ** 2))
    n = xi.size
    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        factor = np.ones(iu.size, dtype=complex)
        for axis in range(3):
            d = freqs[iu, axis] - freqs[ju, axis]
            x = d * side
            y = x - np.round(x)
            with np.errstate(invalid="ignore", divide="ignore"):
                avg = np.exp(1j * math.pi * y) * np.sin(math.pi * y) / (math.pi * x)
            avg = np.where(np.abs(x) < 1e-300, 1.0 + 0j, avg)
            avg = avg * np.exp(2j * math.pi * (d * corner[axis] % 1.0))
            factor *= avg
        pair = coeffs[iu] * np.conj(coeffs[ju]) * factor
        total += 2.0 * float(np.sum(pair.real))
    return total


def local_moment_quadrature(
    xi,
    coeffs,
    p: float,
    r_scale: float,
    beta: float,
    cube_side: float,
    cube_corner=(0.0, 0.0, 0.0),
    oversample: float = 4.0,
    seed: int = 0,
) -> MomentResult:
    """Average of |sum a e(x.(xi,xi^2,xi^3))|^p over an r-cube.

    Frequencies must be pairwise separated by at least R^(-beta) and the cube
    side must be at least R^max(2 beta, 1). Three evaluation routes:

    * p = 2: exact closed-form pair sum (method "exact").
    * side <= 64: full-cube midpoint rule.
    * side > 64: average of midpoint integrals over LOCAL_TRANSLATES unit
      cells at uniformly random translates inside the cube; this is an
      estimator and err_estimate reports the standard error of the mean.
    """
    t0 = time.perf_counter()
    xi = np.asarray(xi, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    if xi.ndim != 1 or coeffs.shape != xi.shape or xi.size == 0:
        raise SpecValidationError("xi and coeffs must be equal-length 1-d arrays")
    if np.any(xi < 0.0) or np.any(xi > 1.0):
        raise SpecValidationError("curve parameters must lie in [0, 1]")
    min_sep = separation_floor(xi)
    if min_sep < r_scale ** (-beta) * (1.0 - 1e-9):
        raise SpecValidationError(
            f"frequency separation {min_sep:.3e} below R^-beta = {r_scale**-beta:.3e}"
        )
    required = r_scale ** max(2.0 * beta, 1.0)
    if cube_side < required * (1.0 - 1e-9):
        raise SpecValidationError(
            f"cube side {cube_side:.6g} below R^max(2 beta, 1) = {required:.6g}"
        )
    corner = np.asarray(cube_corner, dtype=float)

    if p == 2.0:
        value = _cube_average_exact_p2(xi, coeffs, corner, cube_side)
        return MomentResult(
            value=value,
            method="exact",
            err_estimate=ERR_FLOOR * max(1.0, abs(value)),
            wall_time=time.perf_counter() - t0,
            detail={"route": "pair-sum"},
        )

    if cube_side <= LOCAL_FULL_CUBE_LIMIT:
        sides = (cube_side,) * 3
        span = [float(np.max(xi**i)) for i in (1, 2, 3)]
        counts = grid_counts(oversample, span, sides, DEFAULT_CELL_BUDGET)
        volume = cube_side**3

        def full(cnts) -> float:
            return box_power_integral(xi, coeffs, p, corner, sides, cnts) / volume

        value, err = _refined(full, counts)
        return MomentResult(
            value=value,
            method="quadrature",
            err_estimate=err,
            wall_time=time.perf_counter() - t0,
            detail={"route": "full-cube", "counts": list(counts)},
        )

    unit = (1.0, 1.0, 1.0)
    counts = grid_counts(oversample, (1.0 + p / 2.0,) * 3, unit, DEFAULT_CELL_BUDGET, floor=8)
    rng = np.random.default_rng(seed)
    offsets = corner + rng.uniform(0.0, cube_side - 1.0, size=(LOCAL_TRANSLATES, 3))
    values = np.array(
        [box_power_integral(xi, coeffs, p, off, unit, counts) for off in offsets]
    )
    value = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(LOCAL_TRANSLATES))
    return MomentResult(
        value=value,
        method="quadrature",
        err_estimate=stderr,
        wall_time=time.perf_counter() - t0,
        detail={
            "route": "translates",
            "n_translates": LOCAL_TRANSLATES,
            "counts_per_cell": counts[0],
        },
    )


@dataclass(frozen=True)
class PeriodicityReport:
    lhs: float
    rhs_scaled: float
    residual: float


def periodicity_identity_check(spec: ExpSumSpec, s: int) -> PeriodicityReport:
    """Check the box-doubling identity for the unit-spectrum rescaled sum.

    With g(y) = sum a_k e(y . (k/N, k^2/N^2, k^3/N^3)), the integral of
    |g|^2s over [0,N] x [0,N^2] x (N^3 H) equals N^-3 times its integral over
    [0,N^3]^2 x (N^3 H): in the first two axes the box spans full periods of
    every frequency difference, so enlarging them to [0, N^3] only rescales
    the measure. Both sides are computed by the midpoint rule at oversample
    4 with unit extents; N is capped at 4 because the right side costs
    O(N^6) grid cells. Returns the relative discrepancy.
    """
    if spec.n > 4:
        raise SpecValidationError("identity check is restricted to N <= 4")
    if s < 1:
        raise SpecValidationError("need s >= 1")
    n = spec.n
    xi = np.arange(1, n + 1, dtype=float) / n
    p = 2.0 * s
    corner = (0.0, 0.0, n**3 * spec.h0)
    z_side = float(n) ** (3.0 - spec.sigma)

    def integral(sides) -> float:
        counts = grid_counts(4.0, (1, 1, 1), sides, DEFAULT_CELL_BUDGET)
        return box_power_integral(xi, spec.coeffs, p, corner, sides, counts)

    lhs = integral((float(n), float(n) ** 2, z_side))
    rhs_scaled = integral((float(n) ** 3, float(n) ** 3, z_side)) / n**3
    residual = abs(lhs - rhs_scaled) / max(abs(lhs), 1e-300)
    return PeriodicityReport(lhs=lhs, rhs_scaled=rhs_scaled, residual=residual)
