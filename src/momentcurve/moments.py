"""Exact even moments of cubic exponential sums over [0,1]^2 x H.

For even exponent 2s the moment expands over pairs of s-tuples of
frequencies. Integrating x1 and x2 over full periods forces the tuple power
sums p1 = sum k_i and p2 = sum k_i^2 to agree between the two sides, so the
computation groups s-tuples by (p1, p2), accumulates coefficient products per
cube power sum p3 = sum k_i^3, and pairs the groups against the x3-interval
kernel. Group tables are built meet-in-the-middle (tables for s come from
joining tables for s//2 and s - s//2), never by enumerating 2s-tuples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec

DEFAULT_TUPLE_BUDGET = int(2e8)
DEFAULT_BRUTE_BUDGET = int(1e8)

# Combination work per chunk while joining partial tables.
_JOIN_CHUNK = 8_000_000
# Pairwise kernel work per chunk while assembling group contributions.
_PAIR_CHUNK = 4_000_000


@dataclass(frozen=True)
class MomentResult:
    """Outcome of one moment computation."""

    value: float
    method: str  # "exact" | "brute" | "quadrature"
    err_estimate: float
    wall_time: float
    detail: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.method not in ("exact", "brute", "quadrature"):
            raise SpecValidationError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class TupleGroupTable:
    """Grouped power sums of s-tuples drawn from 1..n.

    Rows are sorted lexicographically by (p1, p2, p3) and hold the accumulated
    coefficient product mass of every s-tuple with those power sums. Rows with
    equal (p1, p2) are contiguous, which is what the pairing stage relies on.
    """

    n: int
    s: int
    p1: np.ndarray = field(repr=False)
    p2: np.ndarray = field(repr=False)
    p3: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    n_tuples: int = 0

    @property
    def n_entries(self) -> int:
        return int(self.p1.size)


def interval_kernel(d, sigma: float, h0: float, n: int):
    """Integral of e(d * x3) over H = [h0, h0 + n^(-sigma)] for integer d.

    At sigma = 0 the interval is a full period of every integer frequency, so
    the kernel is exactly 1 at d = 0 and exactly 0 otherwise (any h0). For
    sigma > 0 and d != 0 the closed form e(d*h0) (e(d*len) - 1) / (2 pi i d)
    is evaluated as e(d*h0) e(y/2)... sin(pi y) / (pi d) with y the fractional
    part of d*len, which avoids the catastrophic cancellation of the naive
    expression at large |d|.
    """
    d_arr = np.atleast_1d(np.asarray(d))
    if not np.issubdtype(d_arr.dtype, np.integer):
        raise SpecValidationError("kernel frequency d must be integer")
    scalar = np.isscalar(d) or np.asarray(d).ndim == 0
    if sigma == 0.0:
        out = np.where(d_arr == 0, 1.0 + 0.0j, 0.0j)
        return complex(out[0]) if scalar else out

    length = float(n) ** (-sigma)
    df = d_arr.astype(float)
    out = np.empty(d_arr.shape, dtype=complex)
    zero = d_arr == 0
    out[zero] = length
    nz = ~zero
    x = df[nz] * length
    y = x - np.round(x)
    val = np.exp(1j * math.pi * y) * (np.sin(math.pi * y) / (math.pi * df[nz]))
    if h0 != 0.0:
        w = df[nz] * h0
        val = val * np.exp(2j * math.pi * (w - np.round(w)))
    out[nz] = val
    return complex(out[0]) if scalar else out


def _packing_multipliers(n: int, s: int) -> tuple[int, int] | None:
    """Multipliers (A, B) packing (p1, p2, p3) into one int64, or None."""
    m2 = s * n**2 + 1
    m3 = s * n**3 + 1
    a = m2 * m3
    key_max = s * n * a + s * n**2 * m3 + s * n**3
    if key_max < 2**63:
        return a, m3
    return None


def _dedupe(keys: np.ndarray, coeffs: np.ndarray):
    """Sum coefficients of equal key columns; columns come out sorted.

    keys has shape (rows, entries). The sort is stable, so each group's
    summands are added in input order.
    """
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    coeffs = coeffs[order]
    fresh = np.empty(keys.shape[1], dtype=bool)
    fresh[0] = True
    fresh[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    gid = np.cumsum(fresh) - 1
    if np.iscomplexobj(coeffs):
        acc = np.bincount(gid, weights=coeffs.real).astype(complex)
        acc += 1j * np.bincount(gid, weights=coeffs.imag)
    else:
        acc = np.bincount(gid, weights=coeffs)
    return keys[:, fresh], acc


def _join(ka, ca, kb, cb):
    """All pairwise key sums / coefficient products, deduplicated, chunked."""
    chunk = max(1, _JOIN_CHUNK // max(1, ka.shape[1]))
    acc_k = acc_c = None
    for lo in range(0, kb.shape[1], chunk):
        hi = min(kb.shape[1], lo + chunk)
        kk = (ka[:, :, None] + kb[:, None, lo:hi]).reshape(ka.shape[0], -1)
        cc = (ca[:, None] * cb[None, lo:hi]).ravel()
        kk, cc = _dedupe(kk, cc)
        if acc_k is None:
            acc_k, acc_c = kk, cc
        else:
            acc_k, acc_c = _dedupe(
                np.concatenate([acc_k, kk], axis=1), np.concatenate([acc_c, cc])
            )
    return acc_k, acc_c


def build_group_table(
    spec: ExpSumSpec, s: int, budget_tuples: int = DEFAULT_TUPLE_BUDGET
) -> TupleGroupTable:
    """Group all s-tuples from spec's frequencies by power sums.

    Enumeration cost is bounded by budget_tuples conceptual tuples (N^s); the
    meet-in-the-middle join touches far fewer rows than N^s in practice but
    the budget is checked against the nominal count, as is the exact-integer
    overflow bound s * N^3 < 2^63.
    """
    if s < 1:
        raise SpecValidationError(f"need s >= 1, got {s}")
    if budget_tuples is None:
        budget_tuples = DEFAULT_TUPLE_BUDGET
    n = spec.n
    if s * n**3 >= 2**63:
        raise SpecValidationError("power sums would overflow 64-bit integers")
    n_tuples = n**s
    if n_tuples > budget_tuples:
        raise BudgetError("tuple enumeration", n_tuples, budget_tuples)

    coeffs = spec.coeffs
    if np.allclose(coeffs.imag, 0.0):
        base_c = coeffs.real.astype(float)
    else:
        base_c = coeffs.astype(complex)
    k = np.arange(1, n + 1, dtype=np.int64)
    packing = _packing_multipliers(n, s)

    if packing is not None:
        a_mul, b_mul = packing
        single = (k * a_mul + k**2 * b_mul + k**3)[None, :]
    else:
        single = np.stack([k, k**2, k**3])
    cache: dict[int, tuple] = {1: (single, base_c)}

    def build(m: int):
        if m not in cache:
            left = build(m // 2)
            right = build(m - m // 2)
            cache[m] = _join(*left, *right)
        return cache[m]

    keys, acc = build(s)
    if packing is not None:
        p3 = keys[0] % b_mul
        rest = keys[0] // b_mul
        m2 = s * n**2 + 1
        p2 = rest % m2
        p1 = rest // m2
    else:
        p1, p2, p3 = keys

    return TupleGroupTable(
        n=n, s=s, p1=p1, p2=p2, p3=p3, coeffs=acc, n_tuples=n_tuples
    )


def _pair_assemble(table: TupleGroupTable, sigma: float, h0: float) -> complex:
    """Sum c(d) conj(c(d')) kernel(d - d') over all same-(p1,p2) pairs."""
    n = table.n
    fresh = np.empty(table.n_entries, dtype=bool)
    fresh[0] = True
    fresh[1:] = (table.p1[1:] != table.p1[:-1]) | (table.p2[1:] != table.p2[:-1])
    starts = np.flatnonzero(fresh)
    sizes = np.diff(np.append(starts, table.n_entries))

    coeffs = table.coeffs.astype(complex)
    total = 0.0 + 0.0j
    k0 = interval_kernel(0, sigma, h0, n)

    singles = starts[sizes == 1]
    if singles.size:
        total += k0 * np.sum(np.abs(coeffs[singles]) ** 2)

    for g in np.unique(sizes[sizes > 1]):
        g = int(g)
        g_starts = starts[sizes == g]
        chunk = max(1, _PAIR_CHUNK // (g * g))
        for lo in range(0, g_starts.size, chunk):
            sel = g_starts[lo : lo + chunk, None] + np.arange(g)[None, :]
            d = table.p3[sel]
            c = coeffs[sel]
            delta = d[:, :, None] - d[:, None, :]
            w = interval_kernel(delta.ravel(), sigma, h0, n).reshape(delta.shape)
            total += np.sum(c[:, :, None] * np.conj(c[:, None, :]) * w)
    return total


def moment_exact(
    spec: ExpSumSpec,
    s: int,
    budget_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> MomentResult:
    """Exact 2s-th moment of |S| over [0,1]^2 x H via tuple grouping.

    The x1, x2 integrals enforce the (p1, p2) matching; the x3 integral over H
    contributes interval_kernel(d - d') per inner pair. At sigma = 0 the
    kernel is a Kronecker delta and the pair sum collapses to sum |c|^2. The
    assembled imaginary part (an exactness diagnostic; the true value is
    real) is recorded in err_estimate.
    """
    t0 = time.perf_counter()
    table = build_group_table(spec, s, budget_tuples)
    if spec.sigma == 0.0:
        total = complex(np.sum(np.abs(table.coeffs) ** 2))
    else:
        total = _pair_assemble(table, spec.sigma, spec.h0)
    wall = time.perf_counter() - t0
    return MomentResult(
        value=float(total.real),
        method="exact",
        err_estimate=abs(float(total.imag)),
        wall_time=wall,
        detail={"table_entries": table.n_entries, "n_tuples": table.n_tuples},
    )


def moment_brute(
    spec: ExpSumSpec,
    s: int,
    budget_pairs: int = DEFAULT_BRUTE_BUDGET,
) -> MomentResult:
    """Oracle moment: direct sum over all pairs of s-tuples, no grouping."""
    t0 = time.perf_counter()
    n = spec.n
    n_pairs = n ** (2 * s)
    if n_pairs > budget_pairs:
        raise BudgetError("brute-force pairs", n_pairs, budget_pairs)

    k = np.arange(1, n + 1, dtype=np.int64)
    grids = np.meshgrid(*([k] * s), indexing="ij")
    flat = [g.ravel() for g in grids]
    p1 = sum(flat)
    p2 = sum(g**2 for g in flat)
    p3 = sum(g**3 for g in flat)
    coeff = np.ones(n**s, dtype=complex)
    for g in flat:
        coeff = coeff * spec.coeffs[g - 1]

    total = 0.0 + 0.0j
    chunk = max(1, budget_pairs // max(1, 4 * p1.size))
    for lo in range(0, p1.size, chunk):
        hi = min(p1.size, lo + chunk)
        match = (p1[lo:hi, None] == p1[None, :]) & (p2[lo:hi, None] == p2[None, :])
        delta = p3[lo:hi, None] - p3[None, :]
        w = interval_kernel(delta.ravel(), spec.sigma, spec.h0, n).reshape(delta.shape)
        w = np.where(match, w, 0.0)
        total += np.sum(coeff[lo:hi, None] * np.conj(coeff)[None, :] * w)
    wall = time.perf_counter() - t0
    return MomentResult(
        value=float(total.real),
        method="brute",
        err_estimate=abs(float(total.imag)),
        wall_time=wall,
    )


def vinogradov_count(
    n: int, s: int, budget_tuples: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Exact count of 2s-tuples in [1,n]^2s matching all three power sums.

    Counted as sum over (p1, p2, p3) classes of (tuple count)^2 in integer
    arithmetic. Class counts are accumulated as float64 but stay far below
    2^53 under the tuple budget, so the result is exact.
    """
    if n < 1 or s < 1:
        raise SpecValidationError("need n >= 1 and s >= 1")
    spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=0.0)
    table = build_group_table(spec, s, budget_tuples)
    counts = np.rint(np.real(table.coeffs)).astype(np.int64)
    return int(np.sum(counts * counts))
