"""Extremal coefficient families, exponent fits, and envelope sweeps.

The moment bounds under test have the shape value <= C * envelope(N) with an
unknown constant, so verification is trend-based: compute the moment across a
sweep of N (or R), fit the growth exponent in log-log coordinates, and compare
against the envelope's exponent within a stated tolerance. The pointwise
broad/narrow inequality and the constructive-interference lower bound are the
two non-asymptotic checks and are tested literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError
from .expsums import TWO_PI, ExpSumSpec
from .moments import DEFAULT_TUPLE_BUDGET, moment_exact
from .quadrature import (
    DEFAULT_CELL_BUDGET,
    box_power_integral,
    grid_counts,
    local_moment_quadrature,
    require_oversample,
    standard_frequency_set,
)

COEFF_FAMILIES = ("constant", "random_sign", "random_phase")
SWEEP_KINDS = ("mainexp", "maincor")

# Frozen regression floor for the small-box interference ratio
# value / N^(2s-6); measured once over s in 1..6, sigma=1, N in {16, 32, 64}
# (minimum ~1.10e-4) and fixed at a quarter of the observed minimum.
INTERFERENCE_KAPPA = 2.5e-5
INTERFERENCE_BOX_FRACTION = 0.05
# Complex waves per block of broad_narrow_check (2 MiB): 2048 samples at N = 64.
_BLOCK_ENTRIES = 1 << 17


def coeffs_for(family: str, n: int, seed: int) -> np.ndarray:
    """Coefficients a_1..a_n of one family, identical across runs and platforms.

    "constant" is all ones; "random_sign" draws seeded +-1; "random_phase"
    draws seeded unimodular e(theta) with uniform theta.
    """
    if family not in COEFF_FAMILIES:
        raise SpecValidationError(f"unknown coefficient family {family!r}")
    if n < 1:
        raise SpecValidationError("n must be >= 1")
    if family == "constant":
        return np.ones(n, dtype=float)
    rng = np.random.default_rng(seed)
    if family == "random_sign":
        return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    return np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, n))


@dataclass(frozen=True)
class SweepConfig:
    """One envelope sweep: its kind, its grid and every parameter of its rows.

    kind "mainexp" sweeps the exact 2s-th moment over N and needs s >= 1;
    "maincor" sweeps local moments over R and needs p > 0 and beta in
    [1/3, 1]. x_values are the N (or R) grid, strictly increasing, >= 1, at
    least three of them so the exponent fit is determined. p and tolerance
    are finite and > 0, seeds >= 0. h0_policy is either "fixed" (use h0 as
    given) or "random" (a per-(seed, x) uniform draw).
    """

    x_values: tuple[int, ...]
    kind: str = "mainexp"
    family: str = "constant"
    seeds: tuple[int, ...] = (1,)
    sigma: float = 0.0
    s: int | None = None
    p: float | None = None
    beta: float | None = None
    h0: float = 0.0
    h0_policy: str = "fixed"
    tolerance: float = 0.3
    oversample: float = 4.0
    budget_tuples: int = DEFAULT_TUPLE_BUDGET

    def __post_init__(self) -> None:
        xs = tuple(int(x) for x in self.x_values)
        if len(xs) < 3 or list(xs) != sorted(set(xs)) or xs[0] < 1:
            raise SpecValidationError("need >= 3 strictly increasing x values >= 1")
        object.__setattr__(self, "x_values", xs)
        if self.family not in COEFF_FAMILIES:
            raise SpecValidationError(f"family must be one of {COEFF_FAMILIES}")
        if not self.seeds or min(self.seeds) < 0:
            raise SpecValidationError("need at least one seed, all >= 0")
        if self.h0_policy not in ("fixed", "random"):
            raise SpecValidationError("h0_policy must be 'fixed' or 'random'")
        if not (0.0 < self.tolerance < math.inf):
            raise SpecValidationError("tolerance must be finite and > 0")
        require_oversample(self.oversample)
        if self.budget_tuples < 1:
            raise SpecValidationError("budget_tuples must be >= 1")
        if self.kind == "mainexp":
            if self.s is None or self.s < 1:
                raise SpecValidationError("mainexp sweep needs integer s >= 1")
        elif self.kind == "maincor":
            if self.p is None or not (0.0 < self.p < math.inf):
                raise SpecValidationError("maincor sweep needs finite p > 0")
            if self.beta is None or not (1.0 / 3.0 <= self.beta <= 1.0):
                raise SpecValidationError("maincor sweep needs beta in [1/3, 1]")
        else:
            raise SpecValidationError(f"kind must be one of {SWEEP_KINDS}")

    @property
    def x_label(self) -> str:
        return "N" if self.kind == "mainexp" else "R"

    def h0_for(self, x: int, seed: int) -> float:
        if self.h0_policy == "fixed":
            return self.h0
        return float(np.random.default_rng([seed, x, 1317]).uniform(0.0, 1.0))


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    max_residual: float
    n_points: int


def exponent_fit(points) -> ExponentFit:
    """Least-squares power-law fit through (x, value) pairs in log-log space."""
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 3:
        raise SpecValidationError("exponent fit needs at least 3 points")
    x = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.unique(x).size != x.size:
        raise SpecValidationError("duplicate x values make the fit degenerate")
    if np.any(x <= 0) or np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise SpecValidationError("fit needs positive finite x and values")
    lx, lv = np.log(x), np.log(v)
    slope, intercept = np.polyfit(lx, lv, 1)
    resid = float(np.max(np.abs(lv - (slope * lx + intercept))))
    return ExponentFit(
        slope=float(slope), intercept=float(intercept), max_residual=resid,
        n_points=len(pts),
    )


@dataclass(frozen=True)
class SweepRow:
    x: int
    value: float
    envelope: float
    seed_count: int
    method: str
    err_estimate: float


@dataclass(frozen=True)
class EnvelopeReport:
    rows: tuple[SweepRow, ...]
    fit: ExponentFit
    target: float
    passed: bool
    c_factor: float
    detail: dict = field(default_factory=dict, compare=False)


def mainexp_row(cfg: SweepConfig, n: int) -> SweepRow:
    """One sweep point: median 2s-th moment over seeds at this N."""
    s = int(cfg.s)
    vals = []
    errs = []
    for seed in cfg.seeds:
        spec = ExpSumSpec(
            n=n,
            coeffs=coeffs_for(cfg.family, n, seed),
            sigma=cfg.sigma,
            h0=cfg.h0_for(n, seed),
        )
        res = moment_exact(spec, s, budget_tuples=cfg.budget_tuples)
        vals.append(res.value)
        errs.append(res.err_estimate)
    envelope = float(n) ** (s - cfg.sigma) + float(n) ** (2 * s - 6)
    return SweepRow(
        x=n,
        value=float(np.median(vals)),
        envelope=envelope,
        seed_count=len(cfg.seeds),
        method="exact",
        err_estimate=float(np.max(errs)),
    )


def maincor_row(cfg: SweepConfig, r_scale: int) -> SweepRow:
    """One sweep point: median local cube-averaged moment over seeds at this R.

    The frequency set is the standard separated family {j R^(-beta)} and the
    cube side is the smallest admissible R^max(2 beta, 1).
    """
    p, beta = float(cfg.p), float(cfg.beta)
    xi = standard_frequency_set(float(r_scale), beta)
    side = float(r_scale) ** max(2.0 * beta, 1.0)
    vals = []
    errs = []
    methods = []
    for seed in cfg.seeds:
        res = local_moment_quadrature(
            xi,
            coeffs_for(cfg.family, xi.size, seed),
            p,
            float(r_scale),
            beta,
            side,
            oversample=cfg.oversample,
            seed=seed,
        )
        vals.append(res.value)
        errs.append(res.err_estimate)
        methods.append(res.method)
    envelope = float(r_scale) ** (beta * p / 2.0)
    return SweepRow(
        x=r_scale,
        value=float(np.median(vals)),
        envelope=envelope,
        seed_count=len(cfg.seeds),
        method=methods[0],
        err_estimate=float(np.max(errs)),
    )


def envelope_report(cfg: SweepConfig, rows) -> EnvelopeReport:
    """Fit the rows' growth exponent against cfg's envelope.

    mainexp: passed means the fitted exponent is within tolerance of
    target = max(s - sigma, 2s - 6). maincor: the bound is one-sided, passed
    means slope <= target + tolerance with target = beta p / 2. c_factor is
    the largest observed value/envelope ratio (the empirical constant in
    front of the envelope).
    """
    rows = tuple(rows)
    fit = exponent_fit((r.x, r.value) for r in rows)
    if cfg.kind == "mainexp":
        s = int(cfg.s)
        target = max(s - cfg.sigma, 2.0 * s - 6.0)
        passed = abs(fit.slope - target) <= cfg.tolerance
        detail = {"s": s, "sigma": cfg.sigma, "family": cfg.family}
    else:
        p, beta = float(cfg.p), float(cfg.beta)
        target = beta * p / 2.0
        passed = fit.slope <= target + cfg.tolerance
        detail = {"p": p, "beta": beta, "family": cfg.family}
    return EnvelopeReport(
        rows=rows, fit=fit, target=target, passed=passed,
        c_factor=max(r.value / r.envelope for r in rows), detail=detail,
    )


def verify_envelope(cfg: SweepConfig) -> EnvelopeReport:
    """Sweep cfg's rows in x order and fit them (see envelope_report).

    Random families are aggregated by the median over seeds.
    """
    row_fn = mainexp_row if cfg.kind == "mainexp" else maincor_row
    return envelope_report(cfg, [row_fn(cfg, x) for x in cfg.x_values])


@dataclass(frozen=True)
class InterferenceReport:
    value: float
    ratio: float
    kappa_floor: float
    box_fraction: float
    counts: tuple[int, int, int]


def interference_lower_bound(spec: ExpSumSpec, s: int) -> InterferenceReport:
    """Integral of |S|^2s over the constructive box [0, c/N]x[0, c/N^2]x[0, c/N^3].

    c is INTERFERENCE_BOX_FRACTION. Requires the all-ones coefficient family
    and h0 = 0 (the box must sit inside H). Near the origin every phase is
    within 2 pi * 3c of zero, so the integrand stays comparable to N^2s and
    the integral to N^(2s-6); the returned ratio value / N^(2s-6) is checked
    against the frozen floor INTERFERENCE_KAPPA.
    """
    if s < 1:
        raise SpecValidationError("s must be >= 1")
    if spec.h0 != 0.0:
        raise SpecValidationError("interference box requires h0 = 0")
    if not np.all(spec.coeffs == 1.0):
        raise SpecValidationError("interference bound is for the all-ones family")
    n = spec.n
    sides = tuple(INTERFERENCE_BOX_FRACTION / float(n) ** i for i in (1, 2, 3))
    extents = [float(n) ** i for i in (1, 2, 3)]
    counts = grid_counts(4.0, extents, sides, DEFAULT_CELL_BUDGET, floor=8)
    xi = np.arange(1, n + 1, dtype=float)
    value = box_power_integral(xi, spec.coeffs, 2.0 * s, (0.0, 0.0, 0.0), sides, counts)
    ratio = value / float(n) ** (2 * s - 6)
    if ratio < INTERFERENCE_KAPPA:
        raise SpecValidationError(
            f"interference ratio {ratio:.3e} fell below the frozen floor "
            f"{INTERFERENCE_KAPPA:.1e}"
        )
    return InterferenceReport(
        value=value,
        ratio=ratio,
        kappa_floor=INTERFERENCE_KAPPA,
        box_fraction=INTERFERENCE_BOX_FRACTION,
        counts=counts,
    )


def _unit(theta: np.ndarray) -> np.ndarray:
    """e(theta) = exp(2 pi i theta), with theta reduced mod 1 first (exactly)."""
    return np.exp(1j * TWO_PI * (theta - np.floor(theta)))


def _cubic_waves(x: np.ndarray, n: int) -> np.ndarray:
    """Rows e(phi_k), phi_k = k x1 + k^2 x2 + k^3 x3, for k = 1..n at the rows of x.

    The cubic phase has constant third differences, so the waves follow from
    four sin/cos pairs per sample by the recurrence
        w_{k+1} = w_k r_k,  r_{k+1} = r_k q_k,  q_{k+1} = q_k c,
    with w_1 = e(x1 + x2 + x3), r_1 = e(x1 + 3 x2 + 7 x3),
    q_1 = e(2 x2 + 12 x3) and c = e(6 x3).

    Bound. Take u = 2^-53 and x in [0, 1)^3. The four seed phases round by at
    most 5u, 25u, 26u and 6u; reducing mod 1 is exact, and 2 pi times the
    fraction errs by at most 2.01u 2 pi more. With sin and cos within 4 ulps,
    seed errors are at most eps_w = 56u, eps_r = 182u, eps_q = 188u and
    eps_c = 62u, relative to a unit value. A complex product adds at most
    sqrt(5)u. Unrolled, w_k holds the seeds w_1, r_1, q_1 and c once,
    k - 1, C(k-1, 2) and C(k-1, 3) times, and k - 1 + C(k-1, 2) + C(k-1, 3)
    products. Relative errors compose as 1 + e <= exp(sum), so while the sum
    stays below 1e-3,
        |w_k - e(phi_k)| <= 1.001 u (56 + 185 (k-1) + 191 C(k-1, 2) + 65 C(k-1, 3)),
    about 3.3e-10 at k = 64. Forming exp(2 pi i phi_k) from the rounded phase
    directly errs by up to 2 pi (5k + 5k^2 + 4k^3) u, about 7.5e-10 at k = 64.
    """
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    r = _unit(x1 + 3.0 * x2 + 7.0 * x3)
    q = _unit(2.0 * x2 + 12.0 * x3)
    c = _unit(6.0 * x3)
    waves = np.empty((n, x.shape[0]), dtype=complex)
    waves[0] = _unit(x1 + x2 + x3)
    for k in range(1, n):
        np.multiply(waves[k - 1], r, out=waves[k])
        r *= q
        q *= c
    return waves


@dataclass(frozen=True)
class BroadNarrowReport:
    max_ratio: float
    n_bands: int
    e_sep: float
    samples_used: int
    broad_count: int
    narrow_count: int
    triple_count: int


def broad_narrow_check(
    spec: ExpSumSpec,
    n_bands: int,
    e_sep: float,
    samples: int = 10000,
    seed: int = 0,
) -> BroadNarrowReport:
    """Pointwise dichotomy |f| <= 4E max_band + (bands)^2 * best separated GM.

    Frequencies are split into n_bands contiguous bands by the ratio k/N (the
    right endpoint k = N is clamped into the last band so the bands cover all
    frequencies). A band is significant at x when its partial sum reaches
    max_band / n_bands. When at least 3E bands are significant, some triple
    with pairwise index distance >= E is significant, and its geometric mean
    recovers max_band up to the n_bands^2 factor; otherwise the significant
    bands alone bound |f| by 4E max_band (for E >= 1). The reported maximum of
    |f(x)| / RHS over samples must be <= 1.

    The waves e(k x1 + k^2 x2 + k^3 x3) come from _cubic_waves' recurrence:
    four sin/cos pairs per sample, each wave within about 3.3e-10 of its
    exact value at N = 64 (the bound stated there), where exp of the rounded
    phase is only held to about 7.5e-10.

    The samples are drawn at once and then walked in blocks of about
    _BLOCK_ENTRIES waves (_sample_blocks), so memory grows as N times the
    block, not N times samples. Only the largest ratio and the broad count
    carry from one block to the next, and the report equals a one-block
    evaluation's bit for bit.
    """
    if not e_sep >= 1.0:
        raise SpecValidationError("E must be >= 1")
    if n_bands < 3 * e_sep:  # so n_bands >= 3 too
        raise SpecValidationError("need at least 3E bands")
    if samples < 1:
        raise SpecValidationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (samples, 3))

    # Block maxima are kept and reduced by np.max, so a NaN ratio (sums
    # overflowed to inf) gives NaN as one max over every sample would.
    block_max = []
    broad_count = 0
    for lo, hi in _sample_blocks(samples, spec.n):
        ratio, _, broad = _broad_narrow_block(spec.coeffs, x[lo:hi], n_bands, e_sep)
        block_max.append(ratio.max())
        broad_count += int(np.count_nonzero(broad))
    gap = math.ceil(e_sep)
    mid = np.arange(gap, n_bands - gap)
    return BroadNarrowReport(
        max_ratio=float(np.max(block_max)),
        n_bands=n_bands,
        e_sep=float(e_sep),
        samples_used=samples,
        broad_count=broad_count,
        narrow_count=samples - broad_count,
        triple_count=int(np.sum((mid - gap + 1) * (n_bands - gap - mid))),
    )


def _sample_blocks(samples: int, n: int) -> list[tuple[int, int]]:
    """Column ranges [lo, hi) of broad_narrow_check's blocks: about
    _BLOCK_ENTRIES waves each, and never one column wide unless samples is 1.

    numpy sums an (n, 1) array along axis 0 pairwise, but a wider one row by
    row, as every column of the whole (n, samples) array is summed. So a
    one-column tail joins the block before it.
    """
    width = max(2, _BLOCK_ENTRIES // n)
    starts = list(range(0, samples, width))
    if len(starts) > 1 and samples - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], samples]))


def _broad_narrow_block(coeffs: np.ndarray, x: np.ndarray, n_bands: int, e_sep: float):
    """Per sample (row of x): |f| / RHS, the largest band modulus and whether
    the sample is broad (see broad_narrow_check).

    Every step works on each sample alone, so a block's values equal those
    of a larger block holding its samples, as long as neither is one column
    wide (_sample_blocks).
    """
    n = coeffs.size
    waves = _cubic_waves(x, n)
    # In place, which spares a block-sized allocation and its page faults,
    # except for one element, where numpy's in-place complex product rounds
    # differently from a * b.
    if waves.size > 1:
        np.multiply(coeffs[:, None], waves, out=waves)
    else:
        waves = coeffs[:, None] * waves
    k = np.arange(1, n + 1, dtype=float)
    band_of = np.minimum((k / n * n_bands).astype(int), n_bands - 1)
    band_abs = np.empty((n_bands, x.shape[0]))
    total = waves.sum(axis=0)
    for j in range(n_bands):
        mask = band_of == j
        band_abs[j] = np.abs(waves[mask].sum(axis=0)) if mask.any() else 0.0

    m = band_abs.max(axis=0)
    f_abs = np.abs(total)
    threshold = m / n_bands
    significant = band_abs >= threshold[None, :] * (1.0 - 1e-12)
    sig_count = significant.sum(axis=0)
    broad = sig_count >= 3.0 * e_sep - 1e-12

    # Separated triples are i < j < k with j - i >= gap and k - j >= gap. A
    # rounded product is nondecreasing in each nonnegative factor, so the
    # largest (a_i a_j) a_k over all triples equals (P_j a_j) S_j maximized
    # over the middle index j alone, bit for bit, with P_j the largest a_i for
    # i <= j - gap and S_j the largest a_k for k >= j + gap. The cube root is
    # monotone too, so it is taken once, after the max.
    gap = math.ceil(e_sep)
    mid = np.arange(gap, n_bands - gap)
    if mid.size:
        prefix = np.maximum.accumulate(band_abs, axis=0)
        suffix = np.maximum.accumulate(band_abs[::-1], axis=0)[::-1]
        prod = prefix[mid - gap] * band_abs[mid] * suffix[mid + gap]
        gm_best = prod.max(axis=0) ** (1.0 / 3.0)
    else:
        gm_best = np.zeros(x.shape[0])

    rhs = 4.0 * e_sep * m + n_bands**2 * gm_best
    ratio = np.divide(f_abs, rhs, out=np.zeros_like(f_abs), where=rhs > 0)
    return ratio, m, broad
