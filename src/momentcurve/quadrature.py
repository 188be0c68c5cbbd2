"""Quadrature sanity checks for the exact moment engines.

Everything here integrates |sum a e(x . (xi, xi^2, xi^3))|^p by the midpoint
rule on uniform grids whose axis counts scale with the frequency extent times
an oversample factor. For full-period axes (sigma = 0 boxes) the midpoint
rule is exact on the trigonometric content; for partial intervals it is an
approximation whose error is estimated by halving every axis count.

box_power_integral is the one grid evaluator. It forms the (x1, x2) plane
factors once as a contiguous matrix and walks the grid in cache-sized tiles
of _TILE_ROWS plane rows by _TILE_COLS x3 columns: one small GEMM per tile,
then |.|^p (for integer p >= 2 as (re^2 + im^2)^(p//2) by repeated
multiplication, times sqrt(re^2 + im^2) when p is odd), then np.sum.
math.fsum adds the tile sums, so memory per call is the plane matrix plus
one tile whatever the cell count.

moment_quadrature folds the box it integrates over, [0,1]^2 x H. Its
frequencies k = 1..N are integers, and a k + b k^2 + c k^3 is an integer
for every integer k exactly when 6c, 2b + 6c and a + b + c are integers
(write it in the basis C(k,1), C(k,2), C(k,3) of the integer-valued
polynomials). Mod 1 these shifts g = (a, b, c) form a group G of order 12,
generated by the shear (1/6, 0, -1/6) (k^3 = k mod 6) and T = (1/2, 1/2, 0),
and S(x + g) = S(x) for every coefficient vector. _SHIFTS lists G as
(6 g1, 2 g2, 6 g3) = ((i + 3j) mod 6, j, -i mod 6), i < 6, j < 2.
  The rule: a shift is kept when it moves the midpoint grid onto itself,
      m_i g_i an integer on every axis, and keeps H mod 1, g3 = 0 unless
      |H| = 1. The kept shifts form K, the largest subgroup of G that
      keeps the grid and the box. With f1 the number of distinct x1 parts
      in K, those parts are the multiples of 1/f1, so f1 divides m1;
      f2 = |K| / f1 is 2 exactly when some (0, 1/2, g3) is in K, so f2
      divides m2. G's (x1, x2) parts are all distinct, so the slab
      [0, 1/f1) x [0, 1/f2) x H holds one point of each orbit of K.
  The mirror: x -> -x mod 1, for real coefficients with 2 h0 + |H| an
      integer, where S(-x) = conj S(x). For a g in K with x1 part 1/f1
      (and x2 part 1/2 when f2 = 2), x -> g - x maps the slab onto itself
      and pairs its cells without a fixed one when m1/f1 is even; then f1
      doubles.
"fold" = f1 f2 is therefore 1, 2, 3, 4, 6, 8, 12 or 24. At oversample 4 a
sigma = 0 grid with the mirror folds by 24 when 3 | N and by 8 otherwise
(12 and 4 without it). local_moment_quadrature and
periodicity_identity_check take frequencies that are not integers and do
not fold.

The continuous-frequency entry points take curve parameters xi in [0, 1] and
derive the frequency triples (xi, xi^2, xi^3) themselves; this module is the
home for scaled and fractional frequencies, while expsums handles the integer
spectrum k = 1..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec, _unit_mean, phase_row
from .moments import MomentResult

DEFAULT_CELL_BUDGET = int(4e8)
# One grid tile: _TILE_ROWS (x1, x2) plane rows by _TILE_COLS x3 columns, 64k
# cells or 1 MiB of complex values, small enough for the power step to run
# in cache.
_TILE_ROWS = 512
_TILE_COLS = 128
# Error estimates never drop below machine-noise scale; see _refined.
ERR_FLOOR = 1e-13

# G of the module docstring as exact integers (6 g1, 2 g2, 6 g3) mod (6, 2, 6).
_SHIFTS = tuple(((i + 3 * j) % 6, j, -i % 6) for i in range(6) for j in range(2))

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


def _abs_power(values: np.ndarray, p: float, work: np.ndarray) -> np.ndarray:
    """|values|^p elementwise, written into the float buffers of work.

    work has shape (3,) + values.shape (two rows suffice for even p); the
    result is one of its rows. For integer p >= 2 below 2^53, with
    r2 = re^2 + im^2 and k = p // 2, it is r2^k for even p and
    r2^k * sqrt(r2) for odd p, the integer power r2^k taken by
    square-and-multiply in a fixed order: no hypot and no pow, which dominate
    np.abs(values) ** p. The chain starts at the lowest set bit of k, where
    the running product is the squared base itself, so it multiplies by no 1.
    Any other p takes np.abs(values) ** p: above 2^53 every float is even
    and the chain would grow to ~1000 steps, and below 2 r2 could overflow
    where |values|^p does not (box_power_integral's scaling guard keeps
    cells * A^p, not A^2, inside float64).
    """
    acc, base = work[0], work[1]
    if p % 1 or p < 2.0 or p >= 2.0**53:
        return np.power(np.abs(values, out=base), p, out=base)
    np.square(values.real, out=acc)
    acc += np.square(values.imag, out=base)
    root = np.sqrt(acc, out=work[2]) if p % 2 else None
    k = int(p) // 2  # >= 1, as p >= 2
    while not k & 1:
        np.square(acc, out=acc)
        k >>= 1
    square = acc
    k >>= 1
    while k:
        np.square(square, out=base)
        square = base
        if k & 1:
            acc *= base
        k >>= 1
    if root is not None:
        acc *= root
    return acc


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

    p must be finite and positive, the corner finite and the sides finite
    and positive. The (x1, x2) plane factors form one contiguous
    (m1 * m2, n) matrix. The grid is cut into tiles of _TILE_ROWS plane rows
    by _TILE_COLS x3 columns; each tile is one small GEMM against the x3
    phases, its power step (_abs_power) runs in cache, and np.sum reduces
    it. math.fsum adds the tile sums with one rounding. Only one tile of
    cells is alive at once; the nominal cell count is still bounded by
    cell_budget.
    """
    if not 0.0 < p < math.inf:
        raise SpecValidationError("power p must be finite and positive")
    corner = [float(c) for c in box_corner]
    sides = [float(c) for c in box_sides]
    if len(corner) != 3 or len(sides) != 3:
        raise SpecValidationError("box corner and sides need three coordinates")
    if not all(map(math.isfinite, corner)):
        raise SpecValidationError("box corner must be finite")
    if not all(0.0 < side < math.inf for side in sides):
        raise SpecValidationError("box sides must be finite and positive")
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

    # |S| <= A = sum |a_k|, so the grid sums to at most cells * A^p. Only
    # when that could overflow float64 are the coefficients divided by A and
    # the result multiplied back by A^p in logs; below it nothing changes.
    bound = float(np.sum(np.abs(coeffs)))
    scaled = bound > 0.0 and p * math.log2(bound) + math.log2(cells) >= 1023.0
    if scaled:
        coeffs = coeffs / bound

    freqs = np.column_stack([xi, xi**2, xi**3])
    steps = [side / m for side, m in zip(sides, (m1, m2, m3))]
    starts = [c + st / 2 for c, st in zip(corner, steps)]
    u = coeffs[:, None] * phase_row(freqs[:, 0], starts[0], steps[0], m1)
    v = phase_row(freqs[:, 1], starts[1], steps[1], m2)
    w = phase_row(freqs[:, 2], starts[2], steps[2], m3)
    planes = np.empty((m1, m2, xi.size), dtype=complex)
    np.multiply(u.T[:, None, :], v.T[None, :, :], out=planes)
    planes = planes.reshape(m1 * m2, xi.size)

    # Every tile reuses the same buffers, so the loop allocates nothing per
    # tile and never touches fresh pages.
    tile_cells = min(_TILE_ROWS, m1 * m2) * min(_TILE_COLS, m3)
    tile_buf = np.empty(tile_cells, dtype=complex)
    work = np.empty((3, tile_cells))
    sums = []
    for lo in range(0, m1 * m2, _TILE_ROWS):
        rows = planes[lo : lo + _TILE_ROWS]
        for col in range(0, m3, _TILE_COLS):
            cols = w[:, col : col + _TILE_COLS]
            shape = (rows.shape[0], cols.shape[1])
            size = shape[0] * shape[1]
            tile = np.matmul(rows, cols, out=tile_buf[:size].reshape(shape))
            power = _abs_power(tile, p, work[:, :size].reshape((3,) + shape))
            sums.append(float(np.sum(power)))
    value = math.fsum(sums) * (sides[0] * sides[1] * sides[2] / cells)
    if scaled:
        try:
            value = math.exp(math.log(value) + p * math.log(bound))
        except (OverflowError, ValueError):
            # Past float64, or every scaled cell underflowed to 0 and the
            # true value, positive, is unknown.
            value = math.inf
    if not math.isfinite(value):
        raise SpecValidationError(
            f"the integral of |S|^p at p = {p:g} is out of float64 range; lower p"
        )
    return value


def _point_symmetric(spec: ExpSumSpec) -> bool:
    """True for real coefficients and a window H with 2 h0 + |H| an integer.

    Then x -> -x mod 1 takes [0,1]^2 x H onto itself and S(-x) = conj S(x)
    (moment_quadrature). The window test is exact: h0 = a/b and |H| = c/d
    as integer ratios, so 2 h0 + |H| = (2ad + cb) / bd.
    """
    a, b = spec.h0.as_integer_ratio()
    c, d = spec.h_length.as_integer_ratio()
    return not np.any(spec.coeffs.imag) and (2 * a * d + c * b) % (b * d) == 0


def _fold(counts, full_period: bool, mirror: bool) -> tuple[int, int, bool]:
    """How moment_quadrature cuts a grid of these counts: (f1, f2, mirrored).

    The rule and the mirror of the module docstring. The slab
    [0, 1/f1) x [0, 1/f2) x H at counts (m1/f1, m2/f2, m3), times f1 f2, has
    the midpoints and weights of the full grid. full_period is |H| = 1 and
    mirror is _point_symmetric; mirrored is True when the mirror doubled f1.
    """
    m1, m2, m3 = counts
    kept = [
        a for a, b, c in _SHIFTS
        if m1 * a % 6 == m2 * b % 2 == m3 * c % 6 == 0 and (full_period or c == 0)
    ]
    f1 = len(set(kept))
    f2 = len(kept) // f1
    mirrored = mirror and (m1 // f1) % 2 == 0
    return (2 * f1 if mirrored else f1), f2, mirrored


def moment_quadrature(
    spec: ExpSumSpec,
    p: float,
    oversample: float = 4.0,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> MomentResult:
    """Midpoint approximation to the p-th moment of |S| over [0,1]^2 x H.

    Axis counts are grid_counts over extents N^i; err_estimate is the
    step-halving difference of _refined. Every grid, the fine one and the
    coarse one of _refined, is evaluated on a fold of the box: the slab
    [0, 1/f1) x [0, 1/f2) x H at counts (m1/f1, m2/f2, m3), times f1 f2,
    with (f1, f2) from the shifts and the mirror of the module docstring
    (_fold). The folded grid has the same midpoints and weights and
    1/(f1 f2) of the cells.

    detail gains "fold": f1 f2 of the reported grid, and "mirror": true
    when the mirror doubled f1. The fold needs integer frequencies: the
    local moments and the box-doubling identity check take none.
    """
    sides = (1.0, 1.0, spec.h_length)
    counts = grid_counts(oversample, [spec.n**i for i in (1, 2, 3)], sides, cell_budget)
    xi = np.arange(1, spec.n + 1, dtype=float)
    corner = (0.0, 0.0, spec.h0)
    full_period = spec.h_length == 1.0
    mirror = _point_symmetric(spec)

    def run(cnts) -> float:
        m1, m2, m3 = cnts
        f1, f2, _ = _fold(cnts, full_period, mirror)
        slab = (1.0 / f1, 1.0 / f2, sides[2])
        return f1 * f2 * box_power_integral(
            xi, spec.coeffs, p, corner, slab, (m1 // f1, m2 // f2, m3), cell_budget
        )

    value, err = _refined(run, counts)
    f1, f2, mirrored = _fold(counts, full_period, mirror)
    detail = {"counts": list(counts), "oversample": oversample, "fold": f1 * f2}
    if mirrored:
        detail["mirror"] = True
    return MomentResult(
        value=value,
        method="quadrature",
        err_estimate=err,
        detail=detail,
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
    averages, e(d c) times the mean of e(d side t) over t in [0, 1]
    (expsums._unit_mean) for axis difference d and corner c, so the whole
    p=2 moment costs O(|Xi|^2) and is exact up to roundoff.
    """
    freqs = np.column_stack([xi, xi**2, xi**3])
    total = float(np.sum(np.abs(coeffs) ** 2))
    n = xi.size
    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        factor = np.ones(iu.size, dtype=complex)
        for axis in range(3):
            d = freqs[iu, axis] - freqs[ju, axis]
            factor *= _unit_mean(d * side) * np.exp(2j * math.pi * (d * corner[axis] % 1.0))
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
