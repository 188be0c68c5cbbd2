"""Frequency-space geometry of the moment curve gamma(t) = (t, t^2, t^3).

The objects here are anisotropic neighborhoods of the curve, their partitions
into caps and blocks, frame-coefficient boxes spanned by the derivative frame
(gamma', gamma'', gamma'''), an affine cone map, and an affine rescaling that
renormalizes a block back to the unit-scale neighborhood. The check_*
functions are sampled verifications of containment and overlap statements:
each samples points from the defining inequalities, pushes them through the
relevant maps, and counts violations against explicit-constant bounds (the
asymptotic constants are represented by the free multiplier c_eps and the
fixed width factor WIDTH_FACTOR).

Membership tests apply multiplicative slack 1 + SLACK on each bound so that
exact boundary points survive roundoff; neighborhood_membership takes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError

SLACK = 1e-9
# Samplers draw defects slightly inside their tolerances: recomputing a
# defect from the assembled point costs absolute rounding ~1e-16, which can
# exceed the multiplicative SLACK when the tolerance itself is ~1e-12.
DEFECT_MARGIN = 1.0 - 1e-3
# Rebuilding a drawn point (_lift) and recomputing its defects errs by at
# most 2u in the quadratic and 5u in the cubic defect, u = 2^-53, since fl(z)
# errs by at most u |z|. The quadratic defect rounds x2 at magnitude
# <= 1 + tol2 and its difference at <= 2 tol2. The cubic one rounds at
# magnitudes <= 1, 1, 2 and tol3; the products 3 x1 x2 and 2 x1^3 are the
# same bits on both sides. A tolerance is resolved when the reserve
# (1 - DEFECT_MARGIN) of it that draws keep covers that error; below it,
# exact members fail the membership test.
DEFECT2_ROUNDING = 2.0 * 2.0**-53
DEFECT3_ROUNDING = 5.0 * 2.0**-53
SQRT2 = math.sqrt(2.0)
# Explicit stand-in for the absorbed absolute constants in the containment
# statements: cap widths are WIDTH_FACTOR * c_eps * (scaling law).
WIDTH_FACTOR = 10.0
# Same role for the overlap offset threshold in check_overlap_geo1.
OVERLAP_FACTOR = 10.0


def curve_point(t):
    """gamma(t) = (t, t^2, t^3), vectorized over the last axis."""
    t = np.asarray(t, dtype=float)
    return np.stack([t, t**2, t**3], axis=-1)


def frenet_frame(t: float):
    """Derivative frame (gamma', gamma'', gamma''') at parameter t."""
    t = float(t)
    d1 = np.array([1.0, 2.0 * t, 3.0 * t * t])
    d2 = np.array([0.0, 2.0, 6.0 * t])
    d3 = np.array([0.0, 0.0, 6.0])
    return d1, d2, d3


def frame_matrix(t: float) -> np.ndarray:
    """3x3 matrix whose columns are the frame vectors at t (det = 12)."""
    return np.column_stack(frenet_frame(t))


def _frame_points(abc, t0) -> np.ndarray:
    """Points A gamma'(t0) + B gamma''(t0) + C gamma'''(t0) of coefficient rows.

    abc is (..., n, 3) and t0 a float or an array of the leading shape: one
    np.matmul of abc with the stacked transposed frames frame_matrix(t0).T,
    built entry by entry as frenet_frame builds them. A stack of boxes gets
    the bits of box-by-box products, since matmul runs the same product per
    leading index.
    """
    t0 = np.asarray(t0, dtype=float)
    zero = np.zeros(t0.shape)
    rows = np.stack(
        [zero + 1.0, 2.0 * t0, 3.0 * t0 * t0, zero, zero + 2.0, 6.0 * t0, zero, zero, zero + 6.0],
        axis=-1,
    )
    return np.matmul(abc, rows.reshape(t0.shape + (3, 3)))


def frame_coordinates(t0, q) -> np.ndarray:
    """Coefficients (A, B, C) with q = A gamma'(t0) + B gamma''(t0) + C gamma'''(t0).

    The frame matrix is lower triangular in this ordering, so the solve is an
    exact back-substitution. It works element by element, so t0 may be an
    array that broadcasts against q[..., 0]; each entry equals the scalar-t0
    solve bit for bit.
    """
    q = np.asarray(q, dtype=float)
    a = q[..., 0]
    b, c = _frame_bc(t0, a, q[..., 1], q[..., 2])
    return np.stack(np.broadcast_arrays(a, b, c), axis=-1)


def _frame_bc(t0, a, q1, q2):
    """frame_coordinates' B and C of the points with coordinates (a, q1, q2)."""
    b = (q1 - 2.0 * t0 * a) / 2.0
    c = (q2 - 3.0 * t0 * t0 * a - 6.0 * t0 * b) / 6.0
    return b, c


def defect2(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return xi[..., 1] - xi[..., 0] ** 2


def defect3(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return xi[..., 2] - 3.0 * xi[..., 0] * xi[..., 1] + 2.0 * xi[..., 0] ** 3


def _defects_within(xi, tol2: float, tol3: float, slack: float):
    """True where |defect2| <= tol2 and |defect3| <= tol3, each times 1 + slack."""
    ok2 = np.abs(defect2(xi)) <= tol2 * (1.0 + slack)
    return ok2 & (np.abs(defect3(xi)) <= tol3 * (1.0 + slack))


def _lift_columns(x1, d2, d3):
    """Coordinate columns (x1, x2, x3) of the points with first coordinate x1
    and defects (d2, d3)."""
    x2 = x1**2 + d2
    x3 = 3.0 * x1 * x2 - 2.0 * x1**3 + d3
    return x1, x2, x3


def _lift(x1, d2, d3) -> np.ndarray:
    """Points with first coordinate x1 and defects (d2, d3)."""
    return np.column_stack(_lift_columns(x1, d2, d3))


def _require_global_scale(R: float) -> None:
    if not (2.0 <= R < math.inf):
        raise SpecValidationError("R must be finite and >= 2")


@dataclass(frozen=True)
class DecouplingParams:
    """Scale pair (R, beta) defining the curved neighborhood and its caps.

    The neighborhood constrains |xi2 - xi1^2| <= R^(-2 beta) and the cubic
    defect |xi3 - 3 xi1 xi2 + 2 xi1^3| <= R^(-1); caps slice it into
    ceil(R^beta) slabs of xi1-width R^(-beta). Both tolerances must be
    resolved in float64 (see DEFECT2_ROUNDING): R^beta <= sqrt(1e-3 / 2u),
    about 2.12e6, and R <= 1e-3 / 5u, about 1.80e12.
    """

    r_scale: float
    beta: float

    def __post_init__(self) -> None:
        _require_global_scale(self.r_scale)
        if not (1.0 / 3.0 <= self.beta <= 1.0):
            raise SpecValidationError("beta must lie in [1/3, 1]")
        if self.n_caps > np.iinfo(np.int64).max:
            raise SpecValidationError("cap count ceil(R^beta) must fit in int64")
        reserve = 1.0 - DEFECT_MARGIN
        if reserve * self.defect2_tol < DEFECT2_ROUNDING:
            raise SpecValidationError(
                f"R^beta = {self.r_scale**self.beta:.6g} is above "
                f"{math.sqrt(reserve / DEFECT2_ROUNDING):.6g}: the quadratic defect "
                "tolerance R^(-2 beta) is below float64 resolution"
            )
        if reserve * self.defect3_tol < DEFECT3_ROUNDING:
            raise SpecValidationError(
                f"R = {self.r_scale:.6g} is above {reserve / DEFECT3_ROUNDING:.6g}: "
                "the cubic defect tolerance R^-1 is below float64 resolution"
            )

    @property
    def cap_width(self) -> float:
        return self.r_scale ** (-self.beta)

    @property
    def n_caps(self) -> int:
        return math.ceil(self.r_scale**self.beta)

    @property
    def defect2_tol(self) -> float:
        return self.r_scale ** (-2.0 * self.beta)

    @property
    def defect3_tol(self) -> float:
        return 1.0 / self.r_scale


def neighborhood_membership(params: DecouplingParams, xi):
    """True where xi1 in [0,1] and both defects are within tolerance, no slack."""
    xi = np.asarray(xi, dtype=float)
    ok1 = (xi[..., 0] >= 0.0) & (xi[..., 0] <= 1.0)
    return ok1 & _defects_within(xi, params.defect2_tol, params.defect3_tol, 0.0)


def cap_index_of(params: DecouplingParams, xi):
    """Cap index floor(xi1 * R^beta) for members, None for non-members.

    The slices are half-open so each member lands in exactly one cap; the
    right endpoint xi1 = 1 is closed into the last cap so the slices cover
    the whole neighborhood.
    """
    xi = np.asarray(xi, dtype=float)
    member = neighborhood_membership(params, xi)
    idx = np.minimum(
        (xi[..., 0] * params.r_scale**params.beta).astype(int), params.n_caps - 1
    )
    idx = np.where(member, idx, -1)
    if xi.ndim == 1:
        return int(idx) if idx >= 0 else None
    return idx


@dataclass(frozen=True)
class CanonicalBlock:
    """xi1-slice of width 1/s with defect tolerances s^-2 and s^-3."""

    s: int
    l: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise SpecValidationError("block scale must be a positive integer")
        if not (0 <= self.l < self.s):
            raise SpecValidationError("block index out of range")

    @property
    def t0(self) -> float:
        return self.l / self.s

    def contains(self, xi):
        xi = np.asarray(xi, dtype=float)
        w = 1.0 / self.s
        in_slice = (xi[..., 0] >= self.t0 - SLACK * w) & (
            xi[..., 0] < self.t0 + w * (1.0 + SLACK)
        )
        return in_slice & _defects_within(xi, self.s ** (-2.0), self.s ** (-3.0), SLACK)


def sample_neighborhood(params: DecouplingParams, rng, count: int) -> np.ndarray:
    """Uniform draws from the defect parametrization of the neighborhood."""
    x1 = rng.uniform(0.0, 1.0, count)
    d2 = rng.uniform(-1.0, 1.0, count) * params.defect2_tol * DEFECT_MARGIN
    d3 = rng.uniform(-1.0, 1.0, count) * params.defect3_tol * DEFECT_MARGIN
    return _lift(x1, d2, d3)


def sample_block(block: CanonicalBlock, rng, count: int, dilation: float = 1.0) -> np.ndarray:
    """Draws from the block, optionally dilated about its center.

    Dilation acts on the slice/defect parametrization: the xi1 slice and both
    defect tolerances are widened by the factor about the block center.
    """
    return np.column_stack(_block_columns(block, rng, count, dilation))


def _block_columns(block: CanonicalBlock, rng, count: int, dilation: float):
    """The coordinate columns of sample_block's draws."""
    s = float(block.s)
    center = (block.l + 0.5) / s
    x1 = center + (rng.uniform(0.0, 1.0, count) - 0.5) * dilation / s
    # Left to right as written: folding dilation * s**-2.0 * DEFECT_MARGIN
    # into one factor first rounds differently and moves geo3 reports.
    d2 = rng.uniform(-1.0, 1.0, count) * dilation * s**-2.0 * DEFECT_MARGIN
    d3 = rng.uniform(-1.0, 1.0, count) * dilation * s**-3.0 * DEFECT_MARGIN
    return _lift_columns(x1, d2, d3)


@dataclass(frozen=True)
class ParamBox:
    """Set {A gamma'(t0) + B gamma''(t0) + C gamma'''(t0)} with box ranges.

    A is annular, |A| in [a_lo, a_hi]; B and C are symmetric, |B| <= b_bound
    and |C| <= c_bound. The set is a span around the origin; t0 only fixes
    the frame.
    """

    t0: float
    a_lo: float
    a_hi: float
    b_bound: float
    c_bound: float

    def __post_init__(self) -> None:
        if not (0 <= self.a_lo <= self.a_hi):
            raise SpecValidationError("A range must satisfy 0 <= a_lo <= a_hi")
        if self.b_bound < 0 or self.c_bound < 0:
            raise SpecValidationError("B/C bounds must be nonnegative")

    def sample(self, rng, count: int) -> np.ndarray:
        """(count, 3) array of (A, B, C) coefficients, uniform in the box."""
        a = rng.uniform(self.a_lo, self.a_hi, count) * rng.choice([-1.0, 1.0], count)
        b = rng.uniform(-self.b_bound, self.b_bound, count)
        c = rng.uniform(-self.c_bound, self.c_bound, count)
        return np.column_stack([a, b, c])

    def contains_abc(self, abc):
        abc = np.asarray(abc, dtype=float)
        mag = np.abs(abc[..., 0])
        ok_a = (mag >= self.a_lo * (1.0 - SLACK)) & (mag <= self.a_hi * (1.0 + SLACK))
        ok_b = np.abs(abc[..., 1]) <= self.b_bound * (1.0 + SLACK)
        ok_c = np.abs(abc[..., 2]) <= self.c_bound * (1.0 + SLACK)
        return ok_a & ok_b & ok_c

    def to_points(self, abc) -> np.ndarray:
        return _frame_points(np.asarray(abc, dtype=float), self.t0)


def gamma_tilde(r_k: float, r_next: float, R: float, l: int, c_eps: float = 1.0) -> ParamBox:
    """High-frequency difference box at t0 = l / r_k.

    Coefficient ranges: |A| in [1/(2 r_next), c_eps / r_k], |B| <= c_eps / r_k^2,
    |C| <= c_eps / R.
    """
    if not (1.0 <= r_k <= r_next < math.inf):
        raise SpecValidationError("need 1 <= r_k <= r_next < inf")
    if not (R > 0 and 0 < c_eps < math.inf):
        raise SpecValidationError("R and c_eps must be positive, c_eps finite")
    if not (0 <= l < r_k):
        raise SpecValidationError("l must lie in [0, r_k)")
    a_lo = 0.5 / r_next
    a_hi = c_eps / r_k
    if a_lo > a_hi:
        raise SpecValidationError("empty A range; increase r_next or c_eps")
    return ParamBox(
        t0=l / r_k,
        a_lo=a_lo,
        a_hi=a_hi,
        b_bound=c_eps / r_k**2,
        c_bound=c_eps / R,
    )


@dataclass(frozen=True)
class AffineMap3:
    """x -> matrix @ x + offset on R^3."""

    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ np.asarray(self.matrix).T + np.asarray(self.offset)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def inverse(self) -> "AffineMap3":
        if abs(self.det) < 1e-12:
            raise SpecValidationError("matrix determinant below invertibility floor")
        inv = np.linalg.inv(self.matrix)
        return AffineMap3(matrix=inv, offset=-inv @ np.asarray(self.offset))


def cone_map_T() -> AffineMap3:
    """Linear map (x,y,z) -> (y/2, (x - z/6)/sqrt 2, (x + z/6)/sqrt 2).

    Sends the derivative gamma'(t) to a point on the light cone
    {w3 = |(w1, w2)|}: the image is rho(t) (cos w, sin w, 1) with
    rho(t) = (1 + t^2/2)/sqrt 2.
    """
    m = np.array(
        [
            [0.0, 0.5, 0.0],
            [1.0 / SQRT2, 0.0, -1.0 / (6.0 * SQRT2)],
            [1.0 / SQRT2, 0.0, 1.0 / (6.0 * SQRT2)],
        ]
    )
    return AffineMap3(matrix=m, offset=np.zeros(3))


def cone_angle(t: float) -> float:
    """Angle w(t) of the cone direction of gamma'(t): strictly decreasing,
    w(0) = pi/2."""
    t = float(t)
    return math.atan2(2.0 - t * t, 2.0 * SQRT2 * t)


def cone_radius(t: float) -> float:
    """Radial coordinate rho(t) = (1 + t^2/2)/sqrt 2 of the cone image of
    gamma'(t)."""
    t = float(t)
    return (1.0 + 0.5 * t * t) / SQRT2


def rescale_map_L(r_prev: float, l: int) -> AffineMap3:
    """Affine renormalization of block l at scale r_prev^(1/3) to unit scale.

    With S = r_prev^(1/3) and t0 = l/S, the map sends gamma(t0 + u) to
    gamma(S u) exactly; both defects rescale exactly by S^2 and S^3. The
    linear part has diagonal (S, S^2, S^3), so for l = 0 the map is the pure
    diagonal scaling.
    """
    if not (1.0 <= r_prev < math.inf):
        raise SpecValidationError("r_prev must be finite and >= 1")
    s = float(np.cbrt(r_prev))
    if not (0 <= l < s + SLACK):
        raise SpecValidationError("l must lie in [0, r_prev^(1/3))")
    t0 = l / s
    m = np.array(
        [
            [s, 0.0, 0.0],
            [-2.0 * t0 * s**2, s**2, 0.0],
            [3.0 * t0**2 * s**3, -3.0 * t0 * s**3, s**3],
        ]
    )
    base = np.array([t0, t0**2, t0**3])
    return AffineMap3(matrix=m, offset=-m @ base)


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise SpecValidationError("samples must be >= 1")


def _require_dyadic(r: float) -> None:
    # frexp's mantissa is exactly 0.5 for positive powers of two and for
    # nothing else: zero, negatives, inf and nan all fail.
    if math.frexp(r)[0] != 0.5:
        raise SpecValidationError("r must be a positive power of two")


def _cone_deviation(y: np.ndarray, center, w_ang: float, w_rad: float):
    """Angle and light-cone distance of the dilated cone images y.

    center is one angle, or one per point. Returns (zeta, ok, angular ratio,
    radial ratio): zeta is each point's angle, ok marks points whose angle
    lies within w_ang / 2 of its center and whose distance to the cone
    {w3 = |(w1, w2)|} is at most w_rad, and the ratios are the largest of
    those two deviations over their bounds.
    """
    zeta = np.arctan2(y[:, 1], y[:, 0])
    dev = np.abs(_wrap_angle(zeta - center))
    radial = np.abs(np.hypot(y[:, 0], y[:, 1]) - y[:, 2])
    ok = (dev <= 0.5 * w_ang * (1.0 + SLACK)) & (radial <= w_rad * (1.0 + SLACK))
    return zeta, ok, float(np.max(dev / (0.5 * w_ang))), float(np.max(radial / w_rad))


def _column_norms(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows (d0, d1, d2), summed left to right as
    np.linalg.norm(axis=1) sums a row of three, so with its bits."""
    return np.sqrt((d0 * d0 + d1 * d1) + d2 * d2)


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in increasing order, as np.unique
    gives them, from one sort and a comparison of neighbours. (np.unique's
    first call imports numpy.ma, some 8 ms of a short command.)"""
    x = np.sort(x)
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _spread_l_indices(n_slots: int, rng, cap: int = 64) -> np.ndarray:
    if n_slots > np.iinfo(np.int64).max:
        raise SpecValidationError(f"{float(n_slots):.3g} ladder indices do not fit in int64")
    if n_slots <= cap:
        return np.arange(n_slots)
    picked = rng.choice(n_slots, size=cap - 2, replace=False)
    return _sorted_distinct(np.concatenate([[0, n_slots - 1], picked]))


@dataclass(frozen=True)
class OverlapReport:
    threshold: float
    l_count: int
    samples_used: int
    pairs_checked: int
    far_pairs_checked: int
    max_multiplicity: int
    violations: int


def _far_probes(rng: np.random.Generator, n_l: int, l: int, window: int) -> np.ndarray:
    """Up to 8 distinct indices of 0..n_l-1 outside l -+ window, drawn by rng.

    The n_far indices below and above the window are numbered 0..n_far-1 in
    order; rng.choice(n_far, ...) draws numbers and the window's width is
    added to those above it. rng.choice(a, ...) on the array a of those
    indices draws the same positions and returns a[positions], so the
    probes are the same, without an O(n_l) array.
    """
    below = max(0, l - window)
    above = min(n_l, l + window + 1)
    n_far = below + n_l - above
    if n_far == 0:
        return np.zeros(0, dtype=np.int64)
    pick = rng.choice(n_far, size=min(8, n_far), replace=False)
    return np.where(pick < below, pick, pick + (above - below))


def check_overlap_geo1(
    r_k: float,
    r_next: float,
    R: float,
    c_eps: float = 1.0,
    samples: int = 10000,
    seed: int = 0,
) -> OverlapReport:
    """Sampled overlap bound for the difference boxes gamma_tilde.

    Points drawn from the box at index l are tested for membership in the box
    at index l' by frame-coordinate inversion at t0' = l'/r_k. Nearby indices
    may overlap (multiplicity is reported); indices with
    |l - l'| > OVERLAP_FACTOR * c_eps * r_next / r_k must give zero hits,
    because the B-coordinate picks up the exact shear (t0 - t0') A whose
    magnitude then exceeds the combined B widths. Hits beyond the threshold
    count as violations.

    The anchor loop holds only the draws: each anchor l draws its box sample
    (ParamBox.sample) and then its far probes, in that order. The box ranges
    do not depend on the index, so one gamma_tilde box draws for every
    anchor and tests every pair. One stacked frame product (_frame_points,
    the product ParamBox.to_points takes) then gives every anchor's points,
    and the pairs of all anchors are tested in one array pass. A point's A
    is its first coordinate at every t', so the A range is tested once per
    point.

    Candidate window. At t' the B coordinate of q is B(t') = q1/2 - t' A, so
    |B| <= b = b_bound (1 + SLACK), as contains_abc asks, holds only for
    l' = r_k t' in r_k (q1/2 -+ b) / A: an interval of half width
    W = b r_k / |A|, at most 4 c_eps (1 + SLACK) when r_next = 2 r_k. Only
    the near l' and far probes inside it are tested, each forming B and C
    from the point's coordinates as frame_coordinates does (_frame_bc), so
    every tested pair keeps the bits of a full test. The computed B(l') and
    interval ends stand a few
    roundings u = 2^-53 from the exact ones, each at most (r_k + 2 W) u in
    index units, since |t'| < 1 and |q1| <= 2 |A| + 2 b_bound. A subnormal A
    (r_next near 1e308) adds at most 2^-1075 r_k / |A| <= 8 u r_k per
    rounding. err = 64 u (r_k + W) covers them all: under 1e-8 of an index
    step at r_k <= 2^20 and W <= 16, and whole indices only past about
    r_k = 1e14. The ends widened by err and rounded outward to whole indices
    (which absorbs up to one index more) hold every l' that can hit.

    Index resolution. Each t' = l'/r_k, 0 <= l' < r_k, must be its own
    float, or neighbouring boxes test as one. Up to r_k = 2^53 they are:
    l' < 2^53 converts exactly, and neighbouring exact quotients lie
    1/r_k >= 2^-53 apart in [0, 1), where the float spacing is at most
    2^-53 and so one rounding moves a quotient by at most 2^-54. Quotients
    more than 2^-53 apart thus round apart, and a gap of exactly 2^-53 means
    r_k = 2^53, where every quotient is exact. Past 2^53 a float r_k is an
    even integer, and the r_k / 2 > 2^52 quotients l'/r_k in
    [1/2, 1 - 1/r_k] round into the 2^52 floats of [1/2, 1 - 2^-53], so two
    neighbours coincide. So r_k > 2^53 raises SpecValidationError.
    """
    if not (1.0 <= r_k <= r_next < math.inf and 0 < c_eps < math.inf):
        raise SpecValidationError("need 1 <= r_k <= r_next < inf and 0 < c_eps < inf")
    if r_k > 2.0**53:
        raise SpecValidationError("r_k past 2^53: neighbouring l'/r_k are not distinct floats")
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    n_l = int(r_k)
    ls = _spread_l_indices(n_l, rng)
    per_l = max(1, samples // ls.size)
    threshold = OVERLAP_FACTOR * c_eps * (r_next / r_k)
    # No l' is farther than n_l from l, so a wider window changes nothing.
    window = min(n_l, math.ceil(min(threshold, n_l)) + 2)

    box = gamma_tilde(r_k, r_next, R, 0, c_eps)
    abc = np.empty((ls.size, per_l, 3))
    probes = np.zeros((ls.size, 8), dtype=np.int64)
    n_probes = np.zeros(ls.size, dtype=np.int64)
    for j, l in enumerate(ls):
        abc[j] = box.sample(rng, per_l)
        probe = _far_probes(rng, n_l, int(l), window)
        n_probes[j] = probe.size
        probes[j, : probe.size] = probe
    q0, q1, q2 = _frame_points(abc, ls / r_k).reshape(-1, 3).T
    anchor = np.repeat(ls, per_l)

    b = box.b_bound * (1.0 + SLACK)
    c = box.c_bound * (1.0 + SLACK)
    # A is q0 at every t', so contains_abc's A test is one test per point.
    mag = np.abs(q0)
    ok_a = (mag >= box.a_lo * (1.0 - SLACK)) & (mag <= box.a_hi * (1.0 + SLACK))
    reach = float(n_l + 1)
    with np.errstate(over="ignore"):
        # Offsets from the anchor. Each interval holds its anchor, so an end
        # that overflows is -inf below it or +inf above it, never NaN with err.
        end_lo = (0.5 * q1 - b) / q0 * r_k - anchor
        end_hi = (0.5 * q1 + b) / q0 * r_k - anchor
        err = 64.0 * 2.0**-53 * r_k * (1.0 + b / mag)
    first = np.maximum(np.floor(np.minimum(end_lo, end_hi) - err), -reach)
    last = np.minimum(np.ceil(np.maximum(end_lo, end_hi) + err), reach)
    first = anchor + first.astype(np.int64)
    last = anchor + last.astype(np.int64)

    def hits(a: np.ndarray, x1: np.ndarray, x2: np.ndarray, lps: np.ndarray) -> np.ndarray:
        # frame_coordinates' B and C at t' = lps / r_k, without stacking
        # (A, B, C) rows, so each pair keeps the bits of contains_abc's test.
        b_t, c_t = _frame_bc(lps / r_k, a, x1, x2)
        return (np.abs(b_t) <= b) & (np.abs(c_t) <= c)

    # Near pairs: one ragged row of consecutive l' per point, and each
    # point's hits summed over its row.
    lo = np.maximum(first, np.maximum(anchor - window, 0))
    counts = np.maximum(np.minimum(last, np.minimum(anchor + window, n_l - 1)) - lo + 1, 0)
    counts[~ok_a] = 0
    row_end = np.cumsum(counts)
    lps = np.repeat(lo - (row_end - counts), counts) + np.arange(row_end[-1])
    near = [np.repeat(x, counts) for x in (q0, q1, q2)]
    hit_total = np.concatenate([[0], np.cumsum(hits(*near, lps))])
    mult = hit_total[row_end] - hit_total[row_end - counts]

    # Far probes, (anchor, point, probe) at once against each point's interval.
    rows = (ls.size, per_l, 1)
    live = (np.arange(8) < n_probes[:, None])[:, None, :] & ok_a.reshape(rows)
    far = probes[:, None, :]
    j, i, col = np.nonzero(live & (far >= first.reshape(rows)) & (far <= last.reshape(rows)))
    point = j * per_l + i
    violations = int(np.count_nonzero(hits(q0[point], q1[point], q2[point], probes[j, col])))
    near_sizes = np.minimum(ls + window, n_l - 1) - np.maximum(ls - window, 0) + 1
    return OverlapReport(
        threshold=threshold,
        l_count=int(ls.size),
        samples_used=int(q0.size),
        pairs_checked=int(near_sizes.sum()),
        far_pairs_checked=int(n_probes.sum()),
        max_multiplicity=int(mult.max()),
        violations=violations,
    )


@dataclass(frozen=True)
class ConeReport:
    case: str
    r: float
    beta1: float | None
    angular_halfwidth: float
    radial_width: float
    cap_count: int
    caps_touched: int
    max_caps_per_l: int
    l_count: int
    samples_used: int
    skipped_l: int
    violations: int
    max_angular_ratio: float
    max_radial_ratio: float


def _default_dilation_r(a_hi: float, margin: float) -> float:
    """Largest dyadic 1/r below the reachable top of the third coordinate."""
    z_hi = a_hi / SQRT2 - margin
    if z_hi <= 0:
        raise SpecValidationError("box too thin for any slab; reduce margins")
    j = math.ceil(-math.log2(z_hi))
    return 2.0**j


def _cone_slab_check(
    boxes: list[ParamBox],
    r: float,
    w_ang: float,
    w_rad: float,
    rng,
    per_l: int,
    case: str,
    beta1: float | None,
) -> ConeReport:
    """Common core of the cone containment checks.

    For each frame box, draws points conditioned to the slab
    1/(2r) <= third cone coordinate <= 1/r, dilates the cone image by r, and
    verifies the angular deviation from the box's center direction stays
    within w_ang and the distance to the light cone within w_rad. Sampling is
    z-first: the slab coordinate is drawn uniformly and the A coefficient
    solved from it, so every draw lands in the slab; boxes whose A range
    cannot reach the slab are skipped and counted.

    The box loop holds only the three draws per box, in the rng order of a
    per-box check. The A coefficients, the frame product (_frame_points,
    stacked over the kept boxes), the cone map, deviations, heights and
    angular cells of all kept boxes are then taken in one pass. Each is
    elementwise, a maximum, or a count of distinct cells (per box and in
    all), so the report equals the per-box check's bit for bit.
    """
    slab_lo, slab_hi = 0.5 / r, 1.0 / r
    kept = []
    draws = []
    for box in boxes:
        t0 = box.t0
        rho = cone_radius(t0)
        margin = box.b_bound * t0 / SQRT2 + box.c_bound / SQRT2
        z_lo = max(slab_lo, box.a_lo * rho + margin)
        z_hi = min(slab_hi, box.a_hi * rho - margin)
        if z_lo >= z_hi:
            continue
        draws.append([
            rng.uniform(z_lo, z_hi, per_l),
            rng.uniform(-box.b_bound, box.b_bound, per_l),
            rng.uniform(-box.c_bound, box.c_bound, per_l),
        ])
        kept.append((t0, rho))
    cap_count = int(math.ceil(2.0 * math.pi / w_ang))
    report = dict(
        case=case, r=r, beta1=beta1, angular_halfwidth=0.5 * w_ang, radial_width=w_rad,
        cap_count=cap_count, l_count=len(boxes), samples_used=len(kept) * per_l,
        skipped_l=len(boxes) - len(kept),
    )
    if not kept:
        return ConeReport(**report, caps_touched=0, max_caps_per_l=0, violations=0,
                          max_angular_ratio=0.0, max_radial_ratio=0.0)

    t0, rho = np.array(kept).T
    z, b, c = np.array(draws).transpose(1, 0, 2)
    a = (z - b * t0[:, None] / SQRT2 - c / SQRT2) / rho[:, None]
    pts = _frame_points(np.stack([a, b, c], axis=-1), t0)
    y = r * cone_map_T().apply(pts.reshape(-1, 3))
    centers = [cone_angle(t) for t in t0]
    zeta, ok, ang, rad = _cone_deviation(y, np.repeat(centers, per_l), w_ang, w_rad)
    height_ok = (y[:, 2] >= 0.5 * (1.0 - SLACK)) & (y[:, 2] <= 1.0 + SLACK)
    # One row of angular cells per kept box, sorted to count its distinct cells.
    cells = np.sort(np.floor(zeta / w_ang).astype(int).reshape(len(kept), per_l), axis=1)
    return ConeReport(
        **report,
        caps_touched=int(_sorted_distinct(cells.ravel()).size),
        max_caps_per_l=int(1 + np.count_nonzero(np.diff(cells, axis=1), axis=1).max()),
        violations=int(np.count_nonzero(~(height_ok & ok))),
        max_angular_ratio=ang,
        max_radial_ratio=rad,
    )


def check_cone_containment_geo2(
    r_k: float,
    r_next: float,
    R: float,
    c_eps: float = 1.0,
    r: float | None = None,
    samples: int = 10000,
    seed: int = 0,
) -> ConeReport:
    """Cone containment for r-dilated slab sections of the gamma_tilde boxes.

    Case 1 applies when r_k >= sqrt(R): cap dimensions are
    WIDTH_FACTOR * c_eps * (r/R) in both angle and cone distance. Otherwise
    case 2 applies with beta1 = log(r_k) / log(R / r_k) (required to lie in
    [1/2, 1]); the angular width becomes WIDTH_FACTOR * c_eps * (r/R)^beta1
    and the cone-distance width WIDTH_FACTOR * c_eps^(1/beta1) * (r/R).

    r is a dyadic dilation whose inverse must lie between 1/r_next and
    20 * c_eps / r_k; when omitted, the largest dyadic slab reachable by
    every box's A range is used.
    """
    _require_samples(samples)
    probe = gamma_tilde(r_k, r_next, R, 0, c_eps)
    rng = np.random.default_rng(seed)
    if r_k >= math.sqrt(R):
        case, beta1 = "1", None
    else:
        beta1 = math.log(r_k) / math.log(R / r_k)
        if not (0.5 - SLACK <= beta1 <= 1.0 + SLACK):
            raise SpecValidationError(
                f"case 2 requires beta1 in [1/2, 1]; got {beta1:.4f}"
            )
        case = "2"
    if r is None:
        margin = probe.b_bound / SQRT2 + probe.c_bound / SQRT2
        r = _default_dilation_r(probe.a_hi, margin)
    _require_dyadic(r)
    if not (1.0 / r_next - SLACK <= 1.0 / r <= 20.0 * c_eps / r_k + SLACK):
        raise SpecValidationError("1/r must lie in [1/r_next, 20 c_eps / r_k]")

    if case == "1":
        w_ang = WIDTH_FACTOR * c_eps * (r / R)
        w_rad = WIDTH_FACTOR * c_eps * (r / R)
    else:
        w_ang = WIDTH_FACTOR * c_eps * (r / R) ** beta1
        w_rad = WIDTH_FACTOR * c_eps ** (1.0 / beta1) * (r / R)

    ls = _spread_l_indices(int(r_k), rng)
    per_l = max(1, samples // ls.size)
    boxes = [gamma_tilde(r_k, r_next, R, int(l), c_eps) for l in ls]
    return _cone_slab_check(boxes, r, w_ang, w_rad, rng, per_l, case, beta1)


@dataclass(frozen=True)
class CanonicalConeReport:
    r: float
    angular_halfwidth: float
    radial_width: float
    block_count: int
    l_count: int
    samples_used: int
    rejected: int
    violations: int
    max_angular_ratio: float
    max_radial_ratio: float
    min_angle_gap_ratio: float


def check_cone_containment_geo3(
    r_k_scale: float,
    r_next_scale: float,
    r: float | None = None,
    c_eps: float = 1.0,
    samples: int = 10000,
    seed: int = 0,
) -> CanonicalConeReport:
    """Cone containment for differences within dilated canonical blocks.

    Blocks live at scale s = r_k_scale^(1/3) (an integer cube root is
    required). Pairs are drawn from the c_eps-dilated block, differences
    smaller than r_next_scale^(-1/3) are rejected (the removed ball), the
    difference is pushed through the cone map, restricted to the slab
    [1/(2r), 1/r] in the third coordinate, and dilated by r. The target block
    has angular width WIDTH_FACTOR * c_eps * r * r_k_scale^(-2/3) and
    cone-distance width WIDTH_FACTOR * c_eps^2 * r^2 * r_k_scale^(-4/3)
    around the angle of the block's base parameter. The inverse dilation 1/r
    must lie in [r_next_scale^(-1/3), c_eps * r_k_scale^(-1/3)].

    Each block draws batches of 4 per_l pairs until per_l differences are
    kept (at most 200 batches); the batch size and this stop rule fix the
    rng stream. A batch draws the two samples' coordinate columns as
    sample_block does, takes their difference column by column, its norm
    as np.linalg.norm sums it, and the cone map by AffineMap3.apply. The
    deviations of all kept images are then taken in one pass; they are
    elementwise and the report keeps their count and maxima, so it equals
    a batch-by-batch check bit for bit.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    s = round(r_k_scale ** (1.0 / 3.0)) if 8.0 <= r_k_scale < math.inf else 0
    if s < 2 or s**3 != round(r_k_scale):
        raise SpecValidationError("r_k_scale must be a perfect cube >= 8")
    if not (r_k_scale < r_next_scale < math.inf):
        raise SpecValidationError("need r_k_scale < r_next_scale < inf")
    if not (0.0 < c_eps < math.inf):
        raise SpecValidationError("c_eps must be positive and finite")
    r_lo = r_k_scale ** (1.0 / 3.0) / c_eps
    r_hi = r_next_scale ** (1.0 / 3.0)
    if r is None:
        r = 2.0 ** round(0.5 * (math.log2(r_lo) + math.log2(r_hi)))
    _require_dyadic(r)
    if not (r_lo * (1.0 - SLACK) <= r <= r_hi * (1.0 + SLACK)):
        raise SpecValidationError(
            "1/r must lie in [r_next_scale^(-1/3), c_eps * r_k_scale^(-1/3)]"
        )

    w_ang = WIDTH_FACTOR * c_eps * r * r_k_scale ** (-2.0 / 3.0)
    try:
        w_rad = WIDTH_FACTOR * c_eps**2 * r**2 * r_k_scale ** (-4.0 / 3.0)
    except OverflowError:
        w_rad = math.inf
    if not (math.isfinite(w_ang) and math.isfinite(w_rad)):
        raise SpecValidationError("c_eps too large: the block widths overflow")
    ball = r_next_scale ** (-1.0 / 3.0)
    slab_lo, slab_hi = 0.5 / r, 1.0 / r
    t_map = cone_map_T()

    ls = _spread_l_indices(s, rng)
    per_l = max(1, samples // ls.size)
    draw = 4 * per_l
    rejected = 0
    images = []
    kept_per_block = []
    for l in ls:
        block = CanonicalBlock(s=s, l=int(l))
        kept = 0
        batches = 0
        while kept < per_l and batches < 200:
            batches += 1
            first = _block_columns(block, rng, draw, c_eps)
            second = _block_columns(block, rng, draw, c_eps)
            d0, d1, d2 = (u - v for u, v in zip(first, second))
            norms = _column_norms(d0, d1, d2)
            q = t_map.apply(np.column_stack([d0, d1, d2]))
            keep = (norms >= ball) & (q[:, 2] >= slab_lo) & (q[:, 2] <= slab_hi)
            rejected += int(np.count_nonzero(~keep))
            q = q[keep][: per_l - kept]
            kept += q.shape[0]
            images.append(q)
        kept_per_block.append(kept)
    used = sum(kept_per_block)

    angles = np.array([cone_angle(l / s) for l in range(s)])
    violations = 0
    max_ang = max_rad = 0.0
    if used:
        centers = np.repeat(angles[ls], kept_per_block)
        y = r * np.concatenate(images)
        _, ok, max_ang, max_rad = _cone_deviation(y, centers, w_ang, w_rad)
        violations = int(np.count_nonzero(~ok))
    gaps = np.abs(np.diff(angles))
    min_gap_ratio = float(np.min(gaps) * s) if gaps.size else math.inf
    return CanonicalConeReport(
        r=r,
        angular_halfwidth=0.5 * w_ang,
        radial_width=w_rad,
        block_count=s,
        l_count=int(ls.size),
        samples_used=used,
        rejected=rejected,
        violations=violations,
        max_angular_ratio=max_ang,
        max_radial_ratio=max_rad,
        min_angle_gap_ratio=min_gap_ratio,
    )


@dataclass(frozen=True)
class RescaleReport:
    scale: float
    max_curve_residual: float
    max_roundtrip_residual: float
    member_samples: int
    member_violations: int


def check_rescale(
    r_prev: float,
    l: int,
    params: DecouplingParams,
    samples: int = 10000,
    seed: int = 0,
) -> RescaleReport:
    """Verify the renormalization map on the curve, as a bijection, and on
    the neighborhood.

    Checks, with S = r_prev^(1/3) and t0 = l/S: (a) L(gamma(t0 + t/S)) =
    gamma(t) at random t in [0,1]; (b) L composed with its inverse is the
    identity on random points; (c) mapped samples of block(l) intersected
    with params' neighborhood stay inside the rescaled neighborhood (defect
    tolerances multiplied by S^2 and S^3 exactly).
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    lmap = rescale_map_L(r_prev, l)
    s = float(np.cbrt(r_prev))
    t0 = l / s

    t = rng.uniform(0.0, 1.0, 100)
    lhs = lmap.apply(curve_point(t0 + t / s))
    residual = float(np.max(np.abs(lhs - curve_point(t))))

    pts = rng.uniform(-1.0, 1.0, (256, 3))
    back = lmap.inverse().apply(lmap.apply(pts))
    roundtrip = float(np.max(np.abs(back - pts)))

    s_int = round(s)
    if s_int**3 != round(r_prev):
        raise SpecValidationError("membership check needs an integer cube root")
    block = CanonicalBlock(s=s_int, l=l)
    x1 = t0 + rng.uniform(0.0, 1.0, samples) / s
    d2 = rng.uniform(-1.0, 1.0, samples) * min(params.defect2_tol, s**-2.0) * DEFECT_MARGIN
    d3 = rng.uniform(-1.0, 1.0, samples) * min(params.defect3_tol, s**-3.0) * DEFECT_MARGIN
    xi = _lift(x1, d2, d3)
    if not bool(np.all(block.contains(xi))):
        raise SpecValidationError("internal sampling error: draws left the block")
    target_s_cap = params.r_scale**params.beta / s
    target_r = params.r_scale / r_prev
    if target_s_cap < 1.0 or target_r < 1.0:
        raise SpecValidationError("rescaled neighborhood is coarser than unit scale")
    mapped = lmap.apply(xi)
    ok1 = (mapped[:, 0] >= -SLACK) & (mapped[:, 0] <= 1.0 + SLACK)
    ok = ok1 & _defects_within(mapped, target_s_cap ** (-2.0), 1.0 / target_r, SLACK)

    return RescaleReport(
        scale=s,
        max_curve_residual=residual,
        max_roundtrip_residual=roundtrip,
        member_samples=samples,
        member_violations=int(np.count_nonzero(~ok)),
    )


@dataclass(frozen=True)
class PartitionReport:
    samples_used: int
    violations: int


def check_partition(params: DecouplingParams, samples: int = 100000, seed: int = 0) -> PartitionReport:
    """Every sampled member lands in exactly one cap.

    Membership is tested literally against the cap at the computed index and
    its two neighbors (slices at distance >= 2 cannot contain the point since
    the xi1 windows are disjoint); exactly one may contain it, with
    slack 0 so shared boundaries cannot double-count.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    xi = sample_neighborhood(params, rng, samples)
    idx = cap_index_of(params, xi)
    violations = int(np.count_nonzero(idx < 0))
    member = idx >= 0
    xi = xi[member]
    idx = idx[member]
    width = params.cap_width
    for off in (-1, 0, 1):
        j = idx + off
        valid = (j >= 0) & (j < params.n_caps)
        lo = j * width
        in_slice = valid & (xi[:, 0] >= lo) & (xi[:, 0] < lo + width)
        last = j == params.n_caps - 1
        in_slice |= valid & last & (xi[:, 0] >= lo) & (xi[:, 0] <= 1.0)
        if off == 0:
            violations += int(np.count_nonzero(~in_slice))
        else:
            violations += int(np.count_nonzero(in_slice))
    return PartitionReport(samples_used=samples, violations=violations)


def default_geo1_scales(R: float, beta: float) -> tuple[float, float]:
    """Dyadic ladder pair (r_k, 2 r_k) between R^(1/3) and R^beta."""
    _require_global_scale(R)
    if not math.isfinite(beta):
        raise SpecValidationError("beta must be finite")
    lo = math.log2(R) / 3.0
    hi = beta * math.log2(R)
    mid = 2.0 ** round(0.5 * (lo + hi))
    r_k = min(max(mid, 2.0 ** math.ceil(lo)), 2.0 ** math.floor(hi))
    return r_k, 2.0 * r_k


def default_geo2_scales(R: float, beta: float, case: str) -> tuple[float, float]:
    """Dyadic (r_k, 2 r_k) for the requested containment case.

    Case 1 needs r_k >= sqrt(R) (and <= R^beta, so beta >= 1/2); case 2
    needs log(r_k)/log(R/r_k) in [1/2, 1], i.e. r_k between R^(1/3) and
    sqrt(R).
    """
    _require_global_scale(R)
    if not math.isfinite(beta):
        raise SpecValidationError("beta must be finite")
    lg = math.log2(R)
    if case == "1":
        if beta < 0.5:
            raise SpecValidationError("case 1 requires beta >= 1/2")
        r_k = 2.0 ** round(lg * (0.5 + beta) / 2.0)
        r_k = min(max(r_k, 2.0 ** math.ceil(lg / 2.0)), 2.0 ** math.floor(lg * beta))
    elif case == "2":
        r_k = 2.0 ** round(lg * 5.0 / 12.0)
        r_k = min(max(r_k, 2.0 ** math.ceil(lg / 3.0 + SLACK)), 2.0 ** math.floor(lg / 2.0))
    else:
        raise SpecValidationError("case must be '1' or '2'")
    return r_k, 2.0 * r_k


def default_geo3_scales(R: float) -> tuple[float, float]:
    """Adjacent rungs (8^j, 8^(j+1)) of the cube ladder near sqrt(R)."""
    _require_global_scale(R)
    j = max(1, round(math.log(R, 8.0) / 2.0))
    return 8.0**j, 8.0 ** (j + 1)
