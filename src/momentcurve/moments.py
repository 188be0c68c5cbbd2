"""Exact even moments of cubic exponential sums over [0,1]^2 x H.

For even exponent 2s the moment expands over pairs of s-tuples of
frequencies. Integrating x1 and x2 over full periods forces the tuple power
sums p1 = sum k_i and p2 = sum k_i^2 to agree between the two sides, so the
computation groups s-tuples by (p1, p2), accumulates coefficient products per
cube power sum p3 = sum k_i^3, and pairs the groups against the x3-interval
kernel. Group tables are built meet-in-the-middle, never by enumerating
2s-tuples.

Up to s = 6 the join forms each multiset of s frequencies once. Sorted,
k_1 <= ... <= k_s splits once into its s//2 least and s - s//2 greatest
members, and halves of up to three members are multiset tables, one
multiset per (p1, p2, p3) by Newton's identities. So the join pairs a left
multiset only with the right ones whose least member is at least its
greatest, and weighs the pair by the multinomial s!/prod m_i! times the
product of the coefficients. Larger s joins the tables for s//2 and
s - s//2 members, every ordered pair. A join never compares keys of
different p1: both halves are sorted by p1, so the pairs that land on each
output p1 are known in advance (the count of s-multisets with that sum, or
the convolution of the two p1 histograms). The join cuts the output p1
range into batches of about _JOIN_CHUNK pairs, sorts each batch on a shared
thread pool, and writes the batches in p1 order into one output buffer. The
result is sorted without any merge of partial results. Up to three members
the keys of different multisets differ, so a batch is one sort; from four
on, multisets with equal power sums (Prouhet-Tarry-Escott coincidences such
as {1, 5, 8, 12} and {2, 3, 10, 11}) are added up.

A table keeps the join's output as it comes: the coefficients and one
packed int64 key row p1 A + p2 B + p3, with B = s n^3 + 1 and
A = (s n^2 + 1) B, or the three rows (p1, p2, p3) where that could pass
2^63. p1, p2 and p3 are decoded on access. Pair assembly finds its (p1, p2)
groups as runs of equal key // B and decodes p3 only for the entries of the
block at hand, so the table is never unpacked whole.

Pair assembly uses the kernel's symmetry K(-d) = conj(K(d)): within a group
the p3 values are distinct, so the group's sum is L sum |c_i|^2 plus twice the
real part of its strict upper triangle, and only that triangle is formed. The
kernel is factored per entry, with no transcendental function per pair: for
u_i = c_i e(p3_i h0) and v_i = u_i e(p3_i L), a pair contributes
Im(v_i conj(v_j) - u_i conj(u_j)) / (2 pi d). The phases p3 h0 and p3 L are
reduced mod 1 exactly, h0 and L split into pieces short enough that every
p3 times a piece is an exact float. Blocks of same-size groups, about
_PAIR_CHUNK pairs each, run on the same pool and are taken in block order;
math.fsum adds their partial sums with one rounding, so the value does not
depend on the number of cores or on other callers, and err_estimate is a
stated bound on the error, the phase reduction and exp included. A block
forms its pairs _PAIR_PIECE at a time, u and v only for the groups the piece
touches, and sigma = 0 squares |c| in _ENERGY_CHUNK slices; both are whole
4096-term segments, so the sums are those of one pass while the arrays in
flight stay a few MB.

Mirror symmetry. The map k -> n+1-k sends an s-tuple's power sums to
p1' = s(n+1) - p1, p2' = s(n+1)^2 - 2(n+1) p1 + p2 and
p3' = s(n+1)^3 - 3(n+1)^2 p1 + 3(n+1) p2 - p3. So the (p1, p2) group at p1
maps onto the group at s(n+1) - p1, and every in-group d = p3_i - p3_j
changes sign. When the coefficients are real and palindromic
(a_k = a_{n+1-k}, constant coefficients among them), the products carry
over unchanged and K(-d) = conj(K(d)) leaves the real part of each group's
sum unchanged, for every sigma and h0. moment_exact and vinogradov_count
then build a mirrored table: the last join forms only the output p1 with
2 p1 <= s(n+1), and pair assembly weighs each group with 2 p1 < s(n+1) by
2 and the middle group, 2 p1 = s(n+1) (present when s(n+1) is even), by 1,
in the value and in the bound M alike. Complex or non-palindromic
coefficients build the whole table.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec, _unit_mean

DEFAULT_TUPLE_BUDGET = int(2e8)
DEFAULT_BRUTE_BUDGET = int(1e8)

# Pairs per join batch. A batch is a run of consecutive output p1 values
# holding about this many pairs; one p1 value with more pairs is a batch of
# its own. A multiset join keeps nearly every pair it forms, so this many
# pairs is about this many entries in flight per batch.
_JOIN_CHUNK = 125_000
# Pairs per pair-assembly block. A block is a run of groups of one size
# holding about this many upper-triangle pairs; one group with more pairs is
# a block of its own.
_PAIR_CHUNK = 500_000
# Terms added by one np.sum. numpy sums pairwise, so a term of a segment goes
# through at most 32 roundings; math.fsum adds the segment sums exactly, which
# keeps the bound in _pair_assemble a constant multiple of u = 2^-53.
_SUM_SEG = 4096
# Pairs per piece of a block; u and v are formed per piece. Whole segments,
# so a block's segment sums are those of one pass; a piece's arrays stay a
# few MB.
_PAIR_PIECE = 16 * _SUM_SEG
# Coefficients per |c|^2 pass of the diagonal energy: whole segments, so a
# pass holds 8 MB of |c| at most instead of a copy of the table.
_ENERGY_CHUNK = 256 * _SUM_SEG
# (p1, p2) comparisons per moment_brute chunk, whatever the pair budget: the
# chunk's masks take a few MB.
_BRUTE_CHUNK = 1 << 20
# err_estimate = u (_ROUNDOFF_K M + _PHASE_K M_d), derived in _pair_assemble.
_ROUNDOFF_K = 40
_PHASE_K = 32

# Join batches and pair-assembly tasks of every caller run on this one pool.
# Sorting and the blocks' ufuncs release the GIL, so tasks on different
# threads overlap. Only callers submit, through _in_order.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1
_POOL_PREFIX = "momentcurve-pool"
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix=_POOL_PREFIX)


@dataclass(frozen=True)
class MomentResult:
    """Outcome of one moment computation."""

    value: float
    method: str  # "exact" | "brute" | "quadrature"
    err_estimate: float
    detail: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.method not in ("exact", "brute", "quadrature"):
            raise SpecValidationError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class TupleGroupTable:
    """Grouped power sums of s-tuples drawn from 1..n.

    Entries are sorted lexicographically by (p1, p2, p3) and hold the
    accumulated coefficient product mass of every s-tuple with those power
    sums. Entries with equal (p1, p2) are contiguous, which is what the
    pairing stage relies on.

    keys is the join's output as it comes: one int64 row p1 A + p2 B + p3
    when multipliers = (A, B) packs the power sums, else the three rows
    (p1, p2, p3) and multipliers = None. p1, p2 and power_sum(3) decode on
    each access; group_starts and power_sum read the key without a full unpack.

    A mirrored table holds only the entries with 2 p1 <= s(n+1); each entry
    with 2 p1 < s(n+1) also stands for its mirror image (module docstring).
    n_tuples stays n^s. join_pairs counts the pairs the last join formed and
    sorted (0 for s = 1, which has no join).
    """

    n: int
    s: int
    keys: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    multipliers: tuple[int, int] | None = None
    n_tuples: int = 0
    mirrored: bool = False
    join_pairs: int = 0

    @property
    def n_entries(self) -> int:
        return int(self.keys.shape[1])

    def power_sum(self, e: int, index=...) -> np.ndarray:
        """p_e (e = 1, 2, 3) of the entries selected by index."""
        if self.multipliers is None:
            return self.keys[e - 1][index]
        a, b = self.multipliers
        key = self.keys[0][index]
        if e == 1:
            return key // a
        if e == 2:
            return key // b % (a // b)
        return key % b

    def group_starts(self) -> np.ndarray:
        """Index of the first entry of each run of equal (p1, p2)."""
        fresh = np.empty(self.n_entries, dtype=bool)
        fresh[0] = True
        if self.multipliers is None:
            k1, k2 = self.keys[0], self.keys[1]
            fresh[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        else:
            group = self.keys[0] // self.multipliers[1]  # p1 (A // B) + p2
            fresh[1:] = group[1:] != group[:-1]
            del group
        return np.flatnonzero(fresh)

    @property
    def p1(self) -> np.ndarray:
        return self.power_sum(1)

    @property
    def p2(self) -> np.ndarray:
        return self.power_sum(2)


def interval_kernel(d, sigma: float, h0: float, n: int):
    """Integral of e(d * x3) over H = [h0, h0 + L], L = n^(-sigma), integer d.

    It is L e(d h0) times the mean of e(d L t) over t in [0, 1], computed as
    L * _unit_mean(d L) * e(w - round(w)) with w = d h0, for every sigma: at
    sigma = 0, L is 1, so d != 0 gives exactly 0 and d = 0 exactly 1 (any
    h0), and K(0) is exactly L at every sigma. A scalar d gives a complex.

    For the float h0 and L and |d| < 2^52 the value errs by at most
    40 u L (1 + |d| (|h0| + L)), u = 2^-53. To first order, taking np.sin,
    np.cos and exp within 4 ulp: d L and d h0 round by u |d| L and
    u |d| |h0|, which move the mean by pi u |d| L (its derivative is at most
    pi) and e(d h0) by 2 pi u |d| |h0|; the reductions are exact; the mean
    errs by 21u from pi y (1.35u relative), e(y/2), sin and the division, the
    phase e(.) by 10u, and the two products by u and sqrt(5) u: 34u L plus
    the d terms, and 2 pi < 40.

    moment_exact takes only the scalar K(0) = L from here; its pairs use the
    kernel factored per entry, with an exact reduction (_pair_assemble).
    moment_brute takes the array form.
    """
    d_arr = np.asarray(d)
    if not np.issubdtype(d_arr.dtype, np.integer):
        raise SpecValidationError("kernel frequency d must be integer")
    length = float(n) ** (-sigma)
    df = d_arr.astype(float)
    w = df * h0
    val = length * _unit_mean(df * length) * np.exp(2j * math.pi * (w - np.round(w)))
    return complex(val) if val.ndim == 0 else val


def _packing_multipliers(n: int, s: int) -> tuple[int, int] | None:
    """Multipliers (A, B) packing (p1, p2, p3) into one int64, or None."""
    m2 = s * n**2 + 1
    m3 = s * n**3 + 1
    a = m2 * m3
    key_max = s * n * a + s * n**2 * m3 + s * n**3
    if key_max < 2**63:
        return a, m3
    return None


def _dedupe(keys: np.ndarray, coeffs: np.ndarray, few_equal: bool):
    """Sum coefficients of equal key columns; columns come out sorted.

    keys has shape (rows, entries). Equal keys keep their input order, so
    each group's summands are added in that order. Without equal keys, as
    always for multisets of up to three members, nothing is added.

    few_equal says equal keys are rare, as in a multiset join: one packed
    row then takes numpy's unstable sort, several times faster than a
    stable one, and the runs of equal keys are put back in input order.
    """
    fast = few_equal and keys.shape[0] == 1
    order = np.argsort(keys[0]) if fast else np.lexsort(keys[::-1])
    keys = keys[:, order]
    fresh = np.empty(keys.shape[1], dtype=bool)
    fresh[0] = True
    fresh[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    if fresh.all():
        return keys, coeffs[order]
    if fast:
        in_run = ~fresh
        in_run[:-1] |= in_run[1:]  # a run's first column too
        run = np.flatnonzero(in_run)
        order[run] = order[run][np.lexsort((order[run], keys[0, run]))]
    coeffs = coeffs[order]
    gid = np.cumsum(fresh) - 1
    if np.iscomplexobj(coeffs):
        acc = np.bincount(gid, weights=coeffs.real).astype(complex)
        acc += 1j * np.bincount(gid, weights=coeffs.imag)
    else:
        acc = np.bincount(gid, weights=coeffs)
    return keys[:, fresh], acc


def _p1_offsets(keys: np.ndarray, unit: int):
    """p1 - min(p1) of every key column, and the count of each offset.

    p1 is key row 0 floor-divided by unit (the packing multiplier of p1, or 1
    for three key rows); columns are sorted, so the first has the least p1.
    """
    off = keys[0] // unit
    off -= off[0]
    return off, np.bincount(off)


def _in_order(calls):
    """Yield fn(*args) for each (fn, *args) of calls on the shared pool, in order.

    At most one more call than the pool has workers is in flight, so
    finished results never pile up behind a slow one. Calls not yet started
    are cancelled when a call raises or the caller stops early. Pool workers
    may not call it: a worker waiting on its own pool can deadlock it.
    """
    if threading.current_thread().name.startswith(_POOL_PREFIX):
        raise RuntimeError("a pool worker must not submit to the shared pool")
    pending = deque()
    try:
        for fn, *args in calls:
            pending.append(_POOL.submit(fn, *args))
            if len(pending) > _WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _multiset_counts(n: int, s: int) -> np.ndarray:
    """Multisets of s members of 1..n per sum p1 = s, s + 1, ..., s n.

    They are the coefficients of the complete homogeneous polynomial
    h_s(x, x^2, ..., x^n), built by Newton's identities
    m h_m = sum_{e=1..m} p_e h_{m-e} with p_e = x^e + x^(2e) + ... + x^(ne).
    """
    h = [np.ones(1, dtype=np.int64)]
    for m in range(1, s + 1):
        acc = np.zeros(m * n + 1, dtype=np.int64)
        for e in range(1, m + 1):
            p = np.zeros(e * n + 1, dtype=np.int64)
            p[e::e] = 1
            acc += np.convolve(p, h[m - e])
        h.append(acc // m)
    return h[s][s:]


def _runs(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """first[k] + t for every t < lens[k], k ascending, then t."""
    ends = np.cumsum(lens)
    pos = np.arange(int(ends[-1]) if ends.size else 0)
    pos -= np.repeat(ends - lens - first, lens)
    return pos


@dataclass(frozen=True)
class _Multisets:
    """Every multiset of `size` members of 1..n, one per column, sorted by key.

    Each entry keeps its least and greatest member with their
    multiplicities, and coeffs = size!/prod(m!) times the product of its
    members' coefficients, m running over its multiplicities: the table
    coefficient of its key, as up to three members (p1, p2, p3) fix the
    multiset by Newton's identities.
    """

    n: int
    size: int
    keys: np.ndarray
    coeffs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_mult: np.ndarray
    hi_mult: np.ndarray

    @classmethod
    def build(cls, single: np.ndarray, base_c: np.ndarray, size: int):
        n = base_c.size
        members = np.arange(1, n + 1)[None, :]
        for _ in range(size - 1):  # append each member >= the last one
            last = members[-1]
            lens = n + 1 - last
            owner = np.repeat(np.arange(last.size), lens)
            members = np.vstack([members[:, owner], _runs(last, lens)])
        keys = sum(single[:, row - 1] for row in members)
        order = np.lexsort(keys[::-1])
        members = members[:, order]
        raw = base_c[members[0] - 1]
        ties = np.ones(members.shape[1])  # prod(m!), one factor per member
        for t in range(1, size):
            raw = raw * base_c[members[t] - 1]
            ties *= 1 + np.sum(members[:t] == members[t], axis=0)
        lo, hi = members[0], members[-1]
        return cls(
            n=n, size=size, keys=keys[:, order],
            coeffs=math.factorial(size) / ties * raw, lo=lo, hi=hi,
            lo_mult=np.sum(members == lo, axis=0), hi_mult=np.sum(members == hi, axis=0),
        )


# C(a + b, a): a left greatest member of multiplicity a that equals a right
# least member of multiplicity b gives the multiset's multinomial
# left weight * right weight / C(a + b, a).
_TIE = np.array([[math.comb(a + b, a) for b in range(4)] for a in range(4)], dtype=float)


def _join(left, right, unit: int, half: bool = False):
    """Join two sides into the sorted table of their key sums.

    Returns keys, coefficients and the number of pairs formed. Both sides are
    sorted by p1, so for a run of output p1 values each left entry i meets
    one contiguous slice of the right side per right p1 (a cell). Pairs are
    formed in (i, j) order, so every group sums its products in that order
    whatever the batch size.

    Two _Multisets sides, the s//2 least and the s - s//2 greatest members
    of an s-multiset (s <= 6), form each s-multiset once: i meets only the
    right entries whose least member is at least i's greatest. A pair's
    coefficient, C(s, s//2) times the product of the two sides' coeffs and
    divided by _TIE where those two members are equal, is s!/prod(m!) times
    the product of the multiset's coefficients. In one p1 slice of a side of
    at most two members the least member falls by 1 from each entry to the
    next, so the allowed entries are a prefix of the slice; a right side of
    three members is masked. Batches are sized by the count of s-multisets
    per output p1 (_multiset_counts).

    Two tables (s >= 7) form every ordered pair (i, j), their coefficients
    multiplied; batches are sized by the convolution of the p1 histograms.

    half forms only the lower half of the output p1 range, offsets q with
    2q <= q_max: the last join of a mirrored table.
    """
    p1a, hist_a = _p1_offsets(left.keys, unit)
    hist_b = _p1_offsets(right.keys, unit)[1]
    starts_b = np.concatenate([[0], np.cumsum(hist_b)])
    multiset = isinstance(left, _Multisets)
    prefix = multiset and right.size <= 2
    if multiset:
        per_p1 = _multiset_counts(left.n, left.size + right.size)
        left_c = math.comb(left.size + right.size, left.size) * left.coeffs
    else:
        per_p1, left_c = np.convolve(hist_a, hist_b), left.coeffs
    # Pairs formed before the mask of a three-member right side.
    formed = np.convolve(hist_a, hist_b) if multiset and not prefix else per_p1
    if half:
        per_p1 = per_p1[: (per_p1.size + 1) // 2]
        formed = formed[: per_p1.size]
    batch_of = (np.cumsum(formed) - formed) // _JOIN_CHUNK
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(batch_of)) + 1, [formed.size]])

    def batch(q_lo, q_hi):
        # Cells (i, r), left entry i and right p1 offset r, with
        # q_lo <= p1a[i] + r < q_hi; then the pairs (i, j) of each cell.
        r_lo = np.clip(q_lo - p1a, 0, hist_b.size)
        n_r = np.clip(q_hi - p1a, 0, hist_b.size) - r_lo
        cell_i = np.repeat(np.arange(p1a.size), n_r)
        r = _runs(r_lo, n_r)
        lens = hist_b[r]
        if prefix:
            # room right entries of slice r have a least member >= i's
            # greatest; the last of them equals it when the slice holds them all.
            room = right.lo[starts_b[r]] - left.hi[cell_i] + 1
            tie_cell = np.flatnonzero((room >= 1) & (room <= lens))
            lens = np.clip(room, 0, lens)
            tie = np.cumsum(lens)[tie_cell] - 1
        j = _runs(starts_b[r], lens)
        if multiset and not prefix:
            hi, lo = np.repeat(left.hi[cell_i], lens), right.lo[j]
            keep = lo >= hi
            lens = np.diff(np.concatenate([[0], np.cumsum(keep)])[np.cumsum(lens)], prepend=0)
            j, tie = j[keep], np.flatnonzero(lo[keep] == hi[keep])
            del hi, lo, keep
            tie_cell = np.searchsorted(np.cumsum(lens), tie, side="right")
        if multiset:
            tie_w = _TIE[left.hi_mult[cell_i[tie_cell]], right.lo_mult[j[tie]]]
        keys = np.repeat(left.keys[:, cell_i], lens, axis=1)
        keys += right.keys[:, j]
        # Not in place: numpy's in-place complex product of one element
        # rounds differently, which would tie the bits to the batch cuts.
        coeffs = np.repeat(left_c[cell_i], lens) * right.coeffs[j]
        if multiset:
            coeffs[tie] /= tie_w
        return (*_dedupe(keys, coeffs, multiset), j.size)

    # Sized for no duplicates; past the filled part no page is touched, so
    # none becomes resident.
    n_pairs = int(per_p1.sum())
    out_k = np.empty((left.keys.shape[0], n_pairs), dtype=np.int64)
    out_c = np.empty(n_pairs, dtype=np.result_type(left.coeffs, right.coeffs))
    used = pairs = 0
    batches = ((batch, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
    for keys, acc, n_formed in _in_order(batches):
        out_k[:, used : used + acc.size] = keys
        out_c[used : used + acc.size] = acc
        used += acc.size
        pairs += n_formed
    return out_k[:, :used], out_c[:used], pairs


def _mirror_symmetric(coeffs: np.ndarray) -> bool:
    """True for real coefficients with a_k = a_{n+1-k} (module docstring)."""
    return not np.any(coeffs.imag) and np.array_equal(coeffs, coeffs[::-1])


def build_group_table(
    spec: ExpSumSpec,
    s: int,
    budget_tuples: int = DEFAULT_TUPLE_BUDGET,
    mirrored: bool = False,
) -> TupleGroupTable:
    """Group all s-tuples from spec's frequencies by power sums.

    Enumeration cost is bounded by budget_tuples conceptual tuples (N^s); the
    meet-in-the-middle join touches far fewer rows than N^s in practice but
    the budget is checked against the nominal count, as is the exact-integer
    overflow bound s * N^3 < 2^63.

    Tables of up to six members join the multisets of the s//2 least and the
    s - s//2 greatest members; larger ones join the tables of s//2 and
    s - s//2 members, built the same way (_join).

    mirrored builds only the entries with 2 p1 <= s(N+1): the lower join
    levels stay whole and the last one stops at the middle p1. It needs
    real palindromic coefficients.
    """
    if s < 1:
        raise SpecValidationError(f"need s >= 1, got {s}")
    n = spec.n
    if s * n**3 >= 2**63:
        raise SpecValidationError("power sums would overflow 64-bit integers")
    n_tuples = n**s
    if n_tuples > budget_tuples:
        raise BudgetError("tuple enumeration", n_tuples, budget_tuples)
    if mirrored and not _mirror_symmetric(spec.coeffs):
        raise SpecValidationError("a mirrored table needs real palindromic coefficients")

    coeffs = spec.coeffs
    if not np.any(coeffs.imag):
        base_c = coeffs.real.astype(float)
    else:
        base_c = coeffs.astype(complex)
    k = np.arange(1, n + 1, dtype=np.int64)
    packing = _packing_multipliers(n, s)

    if packing is not None:
        a_mul, b_mul = packing
        single = (k * a_mul + k**2 * b_mul + k**3)[None, :]
    else:
        a_mul = 1
        single = np.stack([k, k**2, k**3])

    def build(m: int, half: bool = False) -> TupleGroupTable:
        if m <= 6:
            left = _Multisets.build(single, base_c, m // 2)
            right = left if m % 2 == 0 else _Multisets.build(single, base_c, m - m // 2)
        else:
            left = build(m // 2)
            right = left if m % 2 == 0 else build(m - m // 2)
        keys, acc, pairs = _join(left, right, a_mul, half)
        return TupleGroupTable(
            n=n, s=m, keys=keys, coeffs=acc, multipliers=packing, n_tuples=n**m,
            mirrored=half, join_pairs=pairs,
        )

    if s > 1:
        return build(s, mirrored)
    keys, acc = single, base_c
    if mirrored:
        keys, acc = keys[:, : (n + 1) // 2], acc[: (n + 1) // 2]
    return TupleGroupTable(
        n=n, s=s, keys=keys, coeffs=acc, multipliers=packing, n_tuples=n_tuples,
        mirrored=mirrored,
    )


def _segment_sums(t: np.ndarray) -> np.ndarray:
    """np.sum of each run of _SUM_SEG consecutive terms of the 1-D array t.

    The last entry sums the partial tail, so an empty t gives [0.0].
    """
    full = t.size - t.size % _SUM_SEG
    return np.append(t[:full].reshape(-1, _SUM_SEG).sum(axis=1), t[full:].sum())


def _energy_sums(c: np.ndarray) -> np.ndarray:
    """_segment_sums(|c|^2), formed _ENERGY_CHUNK coefficients at a time.

    Chunk edges are segment edges, so the sums are those of one pass, each
    chunk adding only a zero for its empty tail. An empty c is one empty
    chunk and gives [0.0], as _segment_sums does.
    """
    sums = []
    for lo in range(0, max(c.size, 1), _ENERGY_CHUNK):
        mod = np.abs(c[lo : lo + _ENERGY_CHUNK])
        sums.append(_segment_sums(np.square(mod, out=mod)))
    return np.concatenate(sums)


def _doubled_entries(table: TupleGroupTable) -> int:
    """Entries at the head of the table that stand for their mirror too.

    Those with 2 p1 < s(n+1) in a mirrored table, found by bisecting the
    sorted key at the least p1 with 2 p1 >= s(n+1); 0 otherwise.
    """
    if not table.mirrored:
        return 0
    unit = 1 if table.multipliers is None else table.multipliers[0]
    return int(np.searchsorted(table.keys[0], (table.s * (table.n + 1) + 1) // 2 * unit))


def _split(x: float, bits: int) -> list[float]:
    """Floats of at most `bits` significant bits each that add up to x exactly.

    Veltkamp/Dekker splitting: each piece is the remainder rounded to `bits`
    bits at the remainder's own exponent. The new remainder is a multiple of
    ulp(x) and 2^bits times smaller, so it is exact and at most
    ceil(53 / bits) pieces come out.
    """
    pieces = []
    while x != 0.0:
        e = math.frexp(x)[1] - bits
        piece = math.ldexp(round(math.ldexp(x, -e)), e)
        pieces.append(piece)
        x -= piece
    return pieces


def _phase(p3: np.ndarray, pieces: list[float]) -> np.ndarray:
    """p3 x - round(p3 x) for the integers p3 (as floats) and x = sum(pieces).

    With pieces of at most 53 - b bits for p3 < 2^b, every p3 * piece is an
    exact float and so is its reduction mod 1. Adding two reduced values
    rounds once, by at most u/2 (u = 2^-53) as |sum| <= 1, and the sum is
    reduced again exactly: the result errs by (len(pieces) - 1) u/2 at most.
    """
    out = np.zeros(p3.shape)
    t, r = np.empty(p3.shape), np.empty(p3.shape)
    for piece in pieces:
        np.multiply(p3, piece, out=t)
        np.subtract(t, np.round(t, out=r), out=t)
        out += t
        np.subtract(out, np.round(out, out=r), out=out)
    return out


def _entry_factors(p3: np.ndarray, c: np.ndarray, h_pieces, l_pieces):
    """v = u e(p3 L) and u = c e(p3 h0) of each entry: (vr, vi, ur, ui).

    h_pieces and l_pieces split h0 and L (_split). An empty h_pieces means
    h0 is an integer, so u = c. When u is then also real, Im(u_i conj(u_j))
    is exactly 0 and only (vr, vi) is returned.
    """
    if h_pieces:
        cos, sin = _turn(_phase(p3, h_pieces))
        if np.iscomplexobj(c):
            ur = c.real * cos
            ur -= c.imag * sin
            ui = c.real * sin
            ui += c.imag * cos
        else:
            ur, ui = np.multiply(c, cos, out=cos), np.multiply(c, sin, out=sin)
    elif np.iscomplexobj(c):
        ur, ui = c.real, c.imag
    else:
        ur, ui = c, None
    cos, sin = _turn(_phase(p3, l_pieces))
    if ui is None:
        return np.multiply(ur, cos, out=cos), np.multiply(ur, sin, out=sin)
    vr = ur * cos
    vr -= ui * sin
    vi = np.multiply(ur, sin, out=sin)
    vi += np.multiply(ui, cos, out=cos)
    return vr, vi, ur, ui


def _turn(theta: np.ndarray):
    """cos and sin of 2 pi theta; theta's buffer holds the cosine."""
    np.multiply(theta, 2.0 * math.pi, out=theta)
    sin = np.sin(theta)
    return np.cos(theta, out=theta), sin


def _pair_terms(a, b, p3, vr, vi, *u) -> np.ndarray:
    """Im(v_i conj(v_j) - u_i conj(u_j)) / (p3_i - p3_j) for pairs i = a[q], j = b[q].

    The entry arrays hold entry i of group r at [i, r], so each pair of the
    pattern is formed for every group at once: the result is (pairs, groups).
    That is 2 pi Re(c_i conj(c_j) K(p3_i - p3_j)). Without u = (ur, ui) the
    u term is left out, as _entry_factors does only where it is exactly 0.
    """
    x = vi[a]
    x *= vr[b]
    t = vr[a]
    t *= vi[b]
    x -= t
    if u:
        ur, ui = u
        y = np.multiply(ui[a], ur[b], out=t)
        t = ur[a]
        t *= ui[b]
        y -= t
        x -= y
    d = np.take(p3, a, axis=0, out=t)
    d -= p3[b]
    x /= d
    return x


def _triangle_rects(p: int, lo: int, hi: int):
    """Cut pairs lo..hi-1 of consecutive groups of p pairs into rectangles.

    Pair k is pair k % p of group k // p. Yields (q_lo, q_hi, r_lo, r_hi):
    pairs q_lo..q_hi-1 of groups r_lo..r_hi-1, in the order of k.
    """
    r_first, r_last = -(-lo // p), hi // p  # whole groups r_first..r_last-1
    if r_first > r_last:  # inside one group
        yield lo % p, hi - r_last * p, r_last, r_last + 1
        return
    if lo % p:
        yield lo % p, p, r_first - 1, r_first
    if r_last > r_first:
        yield 0, p, r_first, r_last
    if hi % p:
        yield 0, hi % p, r_last, r_last + 1


def _pair_assemble(table: TupleGroupTable, sigma: float, h0: float) -> tuple[float, float]:
    """Sum c_i conj(c_j) K(p3_i - p3_j) over all same-(p1, p2) pairs, and a bound.

    Within a group the p3 values are distinct and K(-d) = conj(K(d)), so the
    sum is L sum |c_i|^2 + 2 Re sum_{i<j} c_i conj(c_j) K(p3_i - p3_j) with
    L = K(0) = n^-sigma, the one kernel value taken on the calling thread.
    At sigma = 0 the kernel is exactly 0 off the diagonal and only the first
    term is formed. H is [h0, h0 + L] for the float h0 and the float L.
    Otherwise the diagonal and the bound's M run as one pool task beside the
    pair blocks.

    The kernel is factored per entry: with u_i = c_i e(p3_i h0) and
    v_i = u_i e(p3_i L), c_i conj(c_j) K(d) = (v_i conj(v_j) - u_i conj(u_j))
    / (2 pi i d), whose real part is Im(v_i conj(v_j) - u_i conj(u_j)) /
    (2 pi d). So a block forms u and v once per entry and a pair costs four
    products, three subtractions and a division by d (_pair_terms); each
    block's segment sums are scaled by weight / (2 pi) at the end. The
    phases p3 h0 and p3 L are reduced mod 1 exactly (_phase), with h0 and L
    split into pieces of 53 - b bits, b the bit length of s n^3 >= p3.

    The second value bounds |computed - exact sum| for the table's float
    coefficients, h0 and L by u (k M + k' M_d), with u = 2^-53,
    k = _ROUNDOFF_K = 40, k' = _PHASE_K = 32,
    M = L sum_G (sum_{i in G} |c_i|)^2 (M = L sum |c_i|^2 at sigma = 0) and
    M_d = sum_G sum_{i in G} |c_i|^2 (H_r + H_{g-1-r}) / delta_G, where entry
    i is the r-th of its group's g, H_m = 1 + 1/2 + ... + 1/m and delta_G is
    the least gap between the group's sorted p3. Since |p3_i - p3_j| >=
    |r_i - r_j| delta_G and 2|c_i||c_j| <= |c_i|^2 + |c_j|^2, M_d bounds
    sum_G sum_{i != j} |c_i||c_j| / |d_ij|. To first order in u, taking
    np.cos and np.sin to be within 4 ulp:
      - a phase errs by at most 3u turns (at most 7 pieces, as b <= 45);
        2 pi times it rounds by at most 1.35 pi u (math.pi included) and
        cos and sin add 4u each, so each e(.) errs by at most
        6 pi u + 1.35 pi u + 4 sqrt(2) u < 29u;
      - a complex product errs by at most sqrt(5) u |a||b|, so
        |u_i - exact| <= 32u |c_i| and |v_i - exact| <= 64u |c_i|;
      - Im(v_i conj(v_j)) then errs by at most 2 64u |c_i||c_j| from its
        inputs and 2u |c_i||c_j| from its two products and subtraction, the
        u term by 2 32u + 2u, their difference rounds by 2u and the division
        by d (exact, as |d| < 2^45) by 2u / |d|: a pair term errs by at most
        200u |c_i||c_j| / |d|, which is 31.9u |c_i||c_j| / |d| after the
        factor 1 / (2 pi). Both triangles and the mirror weights give
        31.9u M_d;
      - a pair term is at most L |c_i||c_j| after the factor, as
        |e(dL) - 1| <= 2 pi |d| L; a diagonal term |c_i|^2 is a hypot within
        one ulp, then a square: at most 5u |c_i|^2;
      - a segment sum adds at most _SUM_SEG terms pairwise, at most 32
        roundings per term: 32u times the sum of its |terms|;
      - L times a diagonal segment sum adds u, the factor weight / (2 pi)
        and its product with a pair segment sum add 2u; doubling is exact;
      - math.fsum rounds the sum of all segment sums once: u M.
    A diagonal term errs by at most (5 + 32 + 1)u and a pair term by
    (32 + 2)u relative to its share of M, so with fsum the M part is at
    most 39u M. k = 40 and k' = 32 leave u M and 0.1u M_d for the
    second-order terms.

    In a mirrored table the groups with 2 p1 < s(n+1) count twice, in the
    sums, in M and in M_d; doubling is exact, so the bound holds as derived.
    """
    c = table.coeffs
    m = _doubled_entries(table)
    if sigma == 0.0:
        value = math.fsum(np.append(2.0 * _energy_sums(c[:m]), _energy_sums(c[m:])))
        return value, _ROUNDOFF_K * 2.0**-53 * value  # value = M up to rounding

    length = interval_kernel(0, sigma, h0, table.n).real
    starts = table.group_starts()
    sizes = np.diff(np.append(starts, table.n_entries))
    split = int(np.searchsorted(starts, m))  # m is a group start or n_entries
    # p3 <= s n^3 < 2^(53 - bits); without pairs no piece is used.
    bits = 53 - (table.s * table.n**3).bit_length()
    if bits < 8 and np.any(sizes > 1):
        raise SpecValidationError("the exact route needs s N^3 < 2^45 when sigma > 0")
    h_pieces = _split(h0 - round(h0), max(bits, 8))
    l_pieces = _split(length, max(bits, 8))

    def block(weight, g, rows):
        iu, ju = np.triu_indices(g, 1)
        p = iu.size
        n_pairs = rows.size * p
        harmonic = np.append(0.0, np.cumsum(1.0 / np.arange(1, g)))  # H_0 .. H_{g-1}
        rank = harmonic + harmonic[::-1]
        sums, spread = [], 0.0
        for lo in range(0, n_pairs, _PAIR_PIECE):
            # Pair k of the block is upper-triangle pair k % P of the block's
            # group k // P, P = iu.size. A piece forms u and v for the groups
            # r0 <= r < r1 it touches, entry a of group r at [a, r - r0], and
            # bounds the groups whose first pair it holds.
            hi = min(lo + _PAIR_PIECE, n_pairs)
            r0, r1 = lo // p, -(-hi // p)
            sel = (rows[r0:r1] + np.arange(g)[:, None]).ravel()
            p3 = table.power_sum(3, sel).astype(float).reshape(g, -1)
            cs = c[sel].reshape(g, -1)
            factors = _entry_factors(p3, cs, h_pieces, l_pieces)
            terms = np.empty(hi - lo)
            at = 0
            for q_lo, q_hi, g_lo, g_hi in _triangle_rects(p, lo - r0 * p, hi - r0 * p):
                x = _pair_terms(iu[q_lo:q_hi], ju[q_lo:q_hi], p3[:, g_lo:g_hi],
                                *(f[:, g_lo:g_hi] for f in factors))
                terms[at : at + x.size].reshape(x.shape[::-1])[...] = x.T
                at += x.size
            del factors
            sums.append(_segment_sums(terms))
            own = slice(-(-lo // p) - r0, None)
            gaps = np.diff(p3[:, own], axis=0).min(axis=0)
            energy = np.square(np.abs(cs[:, own]))
            spread += float(np.sum(rank @ energy / gaps))
        return weight / (2.0 * math.pi) * np.concatenate(sums), weight / 2.0 * spread

    def diagonal():
        group_mass = np.add.reduceat(np.abs(c), starts) ** 2
        mass = length * (2.0 * np.sum(group_mass[:split]) + np.sum(group_mass[split:]))
        return [2.0 * length * _energy_sums(c[:m]), length * _energy_sums(c[m:])], mass

    def tasks():
        yield (diagonal,)
        # Twice the real part of each upper triangle, twice more below the middle.
        for weight, part in ((4.0, slice(0, split)), (2.0, slice(split, None))):
            p_starts, p_sizes = starts[part], sizes[part]
            # Groups by size, then in table order: size * count + index is a
            # distinct key, so the fast unstable sort gives the stable order.
            order = np.argsort(p_sizes * p_sizes.size + np.arange(p_sizes.size))
            ranked = p_sizes[order]
            # Each run of one size starts where the size changes; counting
            # from 1 skips the run of single entries, which have no pairs.
            heads = np.flatnonzero(np.diff(ranked, prepend=1))
            for a, b in zip(heads, np.append(heads[1:], ranked.size)):
                g = int(ranked[a])
                g_starts = p_starts[order[a:b]]
                per = max(1, _PAIR_CHUNK // (g * (g - 1) // 2))
                for lo in range(0, g_starts.size, per):
                    yield block, weight, g, g_starts[lo : lo + per]

    results = _in_order(tasks())
    partials, mass = next(results)
    spread = 0.0
    for sums, part in results:
        partials.append(sums)
        spread += part
    err = 2.0**-53 * (_ROUNDOFF_K * mass + _PHASE_K * spread)
    return math.fsum(np.concatenate(partials)), err


def moment_exact(
    spec: ExpSumSpec,
    s: int,
    budget_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> MomentResult:
    """Exact 2s-th moment of |S| over [0,1]^2 x H via tuple grouping.

    The x1, x2 integrals enforce the (p1, p2) matching; the x3 integral over H
    contributes the kernel K(d - d') per inner pair, factored per entry. At
    sigma = 0 the kernel is a Kronecker delta and the pair sum collapses to
    sum |c|^2. err_estimate bounds the error of the assembly for the table's
    coefficients, its per-entry phase reduction and exp included (see
    _pair_assemble).
    """
    table = build_group_table(
        spec, s, budget_tuples, mirrored=_mirror_symmetric(spec.coeffs)
    )
    value, err = _pair_assemble(table, spec.sigma, spec.h0)
    return MomentResult(
        value=value,
        method="exact",
        err_estimate=err,
        detail={
            "table_entries": table.n_entries,
            "table_bytes": table.keys.nbytes + table.coeffs.nbytes,
            "n_tuples": table.n_tuples,
            "mirrored": table.mirrored,
            "join_pairs": table.join_pairs,
            "merged_entries": table.join_pairs - table.n_entries if table.join_pairs else 0,
        },
    )


def moment_brute(
    spec: ExpSumSpec,
    s: int,
    budget_pairs: int = DEFAULT_BRUTE_BUDGET,
) -> MomentResult:
    """Oracle moment: direct sum over all pairs of s-tuples, no grouping.

    Every one of the N^(2s) pairs is tested for equal (p1, p2), _BRUTE_CHUNK
    at a time; the kernel and the coefficient products are formed only for
    the pairs that match. |Im| of the sum, 0 in exact arithmetic, is
    detail["abs_imag"].

    err_estimate bounds |value - exact| for the float coefficients, h0 and
    L = N^-sigma, to first order in u = 2^-53, by
    u ((2 sqrt(5) s + r + 1) L W + 40 L (W' + (|h0| + L) D)) with
    W = sum |c_i||c_j| over the matched pairs, W' the same over those with
    d = p3_i - p3_j != 0, and D = sum |c_i||c_j||d|:
      - a tuple's product rounds s - 1 complex products (the first, by 1,
        is exact), each within sqrt(5) u of its value; a pair's
        C_i conj(C_j) W then rounds once more and its product with the
        kernel once: 2 sqrt(5) s u |c_i||c_j| |K|, with |K| <= L;
      - interval_kernel states |W - K| <= 40 u L (1 + |d| (|h0| + L)); K(0)
        = L is exact, and at sigma = 0 every value is exact, so that part
        is 0 there;
      - np.sum adds a chunk's m terms pairwise: at most 32 + log2(m)
        roundings per term; the chunk sums are then added one by one into
        the total, at most one rounding per chunk: r counts both, and a
        rounding of a complex sum moves it by at most u times its modulus,
        at most sum |term| <= L W (1 + O(u)). The final 1 covers the
        second-order terms and the rounding of W, W' and D.
    """
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
    mod = np.abs(coeff)

    total = 0.0 + 0.0j
    matched = 0
    mass = off_mass = spread = 0.0  # W, W' and D
    rounds = 0
    rows = max(1, _BRUTE_CHUNK // p1.size)
    for lo in range(0, p1.size, rows):
        hi = min(p1.size, lo + rows)
        i, j = np.nonzero((p1[lo:hi, None] == p1) & (p2[lo:hi, None] == p2))
        i += lo
        d = p3[i] - p3[j]
        w = interval_kernel(d, spec.sigma, spec.h0, n)
        total += np.sum(coeff[i] * np.conj(coeff[j]) * w)
        matched += i.size
        pair_mod = mod[i] * mod[j]
        mass += float(np.sum(pair_mod))
        off_mass += float(np.sum(pair_mod[d != 0]))
        spread += float(np.sum(pair_mod * np.abs(d)))
        # A term of this chunk: its np.sum roundings, then one for each
        # chunk sum added into the total from here on.
        rounds = max(rounds, 32 + i.size.bit_length()) + 1
    length = float(n) ** -spec.sigma
    err = (2.0 * math.sqrt(5.0) * s + rounds + 1) * length * mass
    if spec.sigma != 0.0:
        err += 40.0 * length * (off_mass + (abs(spec.h0) + length) * spread)
    return MomentResult(
        value=float(total.real),
        method="brute",
        err_estimate=2.0**-53 * err,
        detail={"matched_pairs": matched, "abs_imag": abs(float(total.imag))},
    )


def vinogradov_count(
    n: int, s: int, budget_tuples: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """Exact count of 2s-tuples in [1,n]^2s matching all three power sums.

    Counted as sum over (p1, p2, p3) classes of (tuple count)^2 in integer
    arithmetic, over the mirrored table with weight 2 below the middle p1.
    Class counts are accumulated as float64 but stay far below 2^53 under
    the tuple budget, so the result is exact.
    """
    if n < 1 or s < 1:
        raise SpecValidationError("need n >= 1 and s >= 1")
    spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=0.0)
    table = build_group_table(
        spec, s, budget_tuples, mirrored=_mirror_symmetric(spec.coeffs)
    )
    counts = np.rint(np.real(table.coeffs)).astype(np.int64)
    squares = counts * counts
    m = _doubled_entries(table)
    return int(2 * np.sum(squares[:m]) + np.sum(squares[m:]))
