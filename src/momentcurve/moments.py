"""Exact even moments of cubic exponential sums over [0,1]^2 x H.

For even exponent 2s the moment expands over pairs of s-tuples of
frequencies. Integrating x1 and x2 over full periods forces the tuple power
sums p1 = sum k_i and p2 = sum k_i^2 to agree between the two sides, so the
computation groups s-tuples by (p1, p2), accumulates coefficient products per
cube power sum p3 = sum k_i^3, and pairs the groups against the x3-interval
kernel. Group tables are built meet-in-the-middle, never by enumerating
2s-tuples.

The join forms each multiset of s frequencies once. Sorted,
k_1 <= ... <= k_s splits once into its s - 2 least and 2 greatest members
(1 and 1 for s = 2), and each half is the list of multisets of its size. So
the join pairs a left multiset only with the right ones whose least member
is at least its greatest, and weighs the pair by the multinomial
s!/prod m_i! times the product of the coefficients. Within one p1 slice of
the right half the least member falls by 1 from each entry to the next, so
the allowed entries are a prefix of the slice and every pair formed is
kept. A join never compares keys of different p1: both halves are sorted by
p1, so the pairs that land on each output p1 are known in advance (the
count of s-multisets with that sum). The join cuts the output p1 range into
batches of about _JOIN_CHUNK pairs, forms them on a shared thread pool, and
yields the batches in p1 order. Pairs are formed by output p1, then left
entry, then right entry, whatever the batch cuts. For a consumer that reads
keys each batch is sorted, so the batches' concatenation is the sorted
table without any merge of partial results, and multisets with equal power
sums (from four members on: Prouhet-Tarry-Escott coincidences such as
{1, 5, 8, 12} and {2, 3, 10, 11}) are added up. Up to three members the
power sums fix the multiset, so each is a class of its own: a consumer that
reads only coefficients (sigma = 0 moments, vinogradov_count) takes such a
batch as it is formed, with no key rows and no sort.

build_group_table copies the batches into one output buffer, sized for one
entry per s-multiset. A table keeps the join's output as it comes: the
coefficients and one packed int64 key row p1 A + p2 B + p3, with
B = s n^3 + 1 and A = (s n^2 + 1) B, or the three rows (p1, p2, p3) where
that could pass 2^63. p1, p2 and p3 are decoded on access. Pair assembly
finds its (p1, p2) groups as runs of equal key // B and decodes no power
sum: within a group two keys differ by p3_j - p3_i, so it reads the
packed key (or the p3 row) itself, and the table is never unpacked.
At sigma = 0, and for vinogradov_count, no table is built: each batch is
reduced as the join yields it and then dropped, so no more than the batches
in flight (one per pool worker, plus one) are held at once.

Pair assembly uses the kernel's symmetry K(-d) = conj(K(d)): within a group
the p3 values are distinct, so the group's sum is L sum |c_i|^2 plus twice the
real part of its strict upper triangle, and only that triangle is formed.
After the (p1, p2) match the window enters only through K, so for sigma > 0
the moment is L sum |c_i|^2 + Re sum_d R(d) conj(K(d)); the window
spectrum R(d) sums the weighted products c_i conj(c_j) of the pairs with
difference d = p3_j - p3_i > 0. R depends on neither sigma nor h0, and as
k^3 = k (mod 6) every in-group d is a multiple of 6, so R has one bin per
d / 6: the difference of the two entries' key // 6, as two keys of a group
differ by their p3 difference.
Blocks of same-size groups, about _PAIR_CHUNK pairs each, bin their pairs
with np.bincount on the shared pool and are added in block order; each
product is split at a power of 2 into a part whose bin sums are exact and a
small rest. A real integer table whose products are all multiples of that
power of 2 (Q <= 1) has no rest: its block bins the unweighted products
with one np.bincount, exactly, and scales the bins by the power-of-2 weight;
a positive one (constant coefficients) also finds its occupied bins as the
nonzero ones and counts no pairs per bin. interval_kernel
then runs once, on the calling thread, at 0 and the distinct d, and
math.fsum adds the diagonal's segment sums and the terms
Re(R(d) conj(K(d))) with one rounding. So the value does not depend on
the number of cores or on other callers, and err_estimate is a stated bound
on the error, the kernel included. At sigma = 0 the kernel is 0 off the
diagonal and the moment is the sum of |c|^2 alone. It is squared batch by
batch as the join yields them, each batch's last < 4096 squares carried
into the next of its weight (_weighted_energy), so the 4096-term
segments, and every bit of the value, are those of one pass over the
batches' concatenation, wherever the batches were cut. From s = 4 on that
is the table; up to s = 3 it is the table's entries in the join's pair
order. A built table's diagonal goes through the same reducer.

Mirror symmetry. The map k -> n+1-k sends an s-tuple's power sums to
p1' = s(n+1) - p1, p2' = s(n+1)^2 - 2(n+1) p1 + p2 and
p3' = s(n+1)^3 - 3(n+1)^2 p1 + 3(n+1) p2 - p3. So the (p1, p2) group at p1
maps onto the group at s(n+1) - p1, and every in-group d = p3_i - p3_j
changes sign. When the coefficients are real and palindromic
(a_k = a_{n+1-k}, constant coefficients among them), the products carry
over unchanged and K(-d) = conj(K(d)) leaves the real part of each group's
sum unchanged, for every sigma and h0. moment_exact and vinogradov_count
then join a mirrored table: the join forms only the output p1 with
2 p1 <= s(n+1) and states each batch's weight. Batches with 2 p1 < s(n+1)
have weight 2; the middle p1, 2 p1 = s(n+1) (present when s(n+1) is even),
is a batch of its own with weight 1. Every reducer takes the weight as it
comes, in the value and in the bound alike, and a built table keeps the
count of its weight-2 entries (TupleGroupTable.doubled). Complex or
non-palindromic coefficients join the whole table, every batch of weight 1.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec, _phase, _split, _unit_mean

DEFAULT_TUPLE_BUDGET = int(2e8)
DEFAULT_BRUTE_BUDGET = int(1e8)

# Pairs per join batch. A batch is a run of consecutive output p1 values
# holding about this many pairs; one p1 value with more pairs is a batch of
# its own. The join keeps every pair it forms, so this many pairs is about
# this many entries in flight per batch.
_JOIN_CHUNK = 125_000
# Pairs per pair-assembly block. A block is a run of groups of one size
# holding about this many upper-triangle pairs; one group with more pairs is
# a block of its own. A block's index and product arrays stay a few MB; its
# bin arrays run to its largest d / 6, which at s = 3 and large N is more.
_PAIR_CHUNK = 65_536
# Terms added by one np.sum. numpy sums pairwise, so a term of a segment goes
# through at most 32 roundings; math.fsum adds the segment sums exactly, which
# keeps the bound in _pair_assemble a constant multiple of u = 2^-53.
_SUM_SEG = 4096
# Coefficients squared at once by _weighted_energy: whole segments, so a pass
# over a built table holds 8 MB of |c| at most instead of a copy of the table.
_ENERGY_CHUNK = 256 * _SUM_SEG
# (p1, p2) comparisons per moment_brute chunk, whatever the pair budget: the
# chunk's masks take a few MB.
_BRUTE_CHUNK = 1 << 20
# The diagonal's factor in err_estimate (all of it at sigma = 0), derived in
# _pair_assemble.
_ROUNDOFF_K = 40

# Join batches and pair-assembly tasks of every caller run on this one pool.
# Sorting and the blocks' ufuncs release the GIL, so tasks on different
# threads overlap. Only callers submit, through _in_order.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1
_POOL_PREFIX = "momentcurve-pool"
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix=_POOL_PREFIX)

# glibc's malloc_trim, or None where the C library has none (_release_heap).
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


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
    (p1, p2, p3) and multipliers = None. p1, p2 and power_sum(3) decode
    the whole row on each access; group_starts reads the key without a full
    unpack, and pair assembly decodes nothing (_pair_assemble).

    A mirrored table holds only the entries with 2 p1 <= s(n+1); each entry
    with 2 p1 < s(n+1) also stands for its mirror image (module docstring).
    Those are the first doubled entries, the join's weight-2 batches; 0 in
    an unmirrored table. n_tuples stays n^s. join_pairs counts the pairs
    the join formed, one per s-multiset (of the lower half when
    mirrored; 0 for s = 1, which has no join).
    """

    n: int
    s: int
    keys: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    multipliers: tuple[int, int] | None = None
    n_tuples: int = 0
    mirrored: bool = False
    join_pairs: int = 0
    doubled: int = 0

    @property
    def n_entries(self) -> int:
        return int(self.keys.shape[1])

    def power_sum(self, e: int) -> np.ndarray:
        """p_e (e = 1, 2, 3) of every entry."""
        if self.multipliers is None:
            return self.keys[e - 1]
        a, b = self.multipliers
        key = self.keys[0]
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


# |d| below 2^_KERNEL_D_BITS: h0 splits into pieces of 53 - _KERNEL_D_BITS = 8
# bits, at most 7 of them, whatever the array holds.
_KERNEL_D_BITS = 45


def interval_kernel(d, sigma: float, h0: float, n: int):
    """Integral of e(d * x3) over H = [h0, h0 + L], L = n^(-sigma), integer d.

    It is L e(d h0) times the mean of e(d L t) over t in [0, 1], computed as
    L * _unit_mean(d L) * e(theta) for every sigma. theta is d h0 reduced
    mod 1 exactly (_phase): h0 - round(h0) is split into pieces of 8 bits, so
    every d times a piece is an exact float for |d| < 2^45. The pieces do not
    depend on d, so no value depends on the array it comes in. At sigma = 0,
    L is 1, so d != 0 gives exactly 0 and d = 0 exactly 1 (any h0), and K(0)
    is exactly L at every sigma. A scalar d gives a complex; |d| >= 2^45
    raises SpecValidationError.

    For the float h0 and L the value errs by at most u (54 |K| + 2 L),
    u = 2^-53: no term grows with |d|. To first order, taking np.sin, np.cos
    and exp within 4 ulp:
      - theta errs by at most 3u turns (seven pieces); 2 pi theta rounds by
        at most 1.35 pi u (math.pi included) and cos and sin add 4u each, so
        e(theta) errs by at most 6 pi u + 1.35 pi u + 4 sqrt(2) u < 29u;
      - x = d L rounds by at most u |x|, and the mean
        f(x) = (e(x) - 1) / (2 pi i x) has |f'(x)| <= pi and
        |f'(x)| <= 1/|x| + 1/(pi x^2), so f moves by at most
        u min(pi |x|, 1 + 1/(pi |x|)) <= 1.62u: 1.62u L in K;
      - the mean then errs by at most 21u |f| from pi y (1.35u relative),
        e(y/2), sin and the division, and the two products by
        (1 + sqrt(5)) u: with the phase, 53.3u |K|.

    moment_exact evaluates it once per sigma > 0 moment, on the distinct
    in-group differences of its window spectrum (_pair_assemble);
    moment_brute on the differences of its matched pairs.
    """
    d_arr = np.asarray(d)
    if not np.issubdtype(d_arr.dtype, np.integer):
        raise SpecValidationError("kernel frequency d must be integer")
    if d_arr.size and int(np.max(np.abs(d_arr))) >> _KERNEL_D_BITS:
        raise SpecValidationError("kernel frequency |d| must be below 2^45")
    length = float(n) ** (-sigma)
    df = d_arr.astype(float)
    theta = _phase(df, _split(h0 - round(h0), 53 - _KERNEL_D_BITS))
    val = length * _unit_mean(df * length) * np.exp(2j * math.pi * theta)
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


def _dedupe(keys: np.ndarray, coeffs: np.ndarray):
    """Sum coefficients of equal key columns; columns come out sorted.

    keys has shape (rows, entries). Equal keys keep their input order, so
    each group's summands are added in that order. Without equal keys, as
    always for multisets of up to three members, nothing is added.

    Equal keys are rare in a multiset join, so one packed row takes numpy's
    unstable sort, several times faster than a stable one, and the runs of
    equal keys are put back in input order; three rows take np.lexsort.
    """
    fast = keys.shape[0] == 1
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


def _release_heap() -> None:
    """Return the free pages of every malloc arena to the OS (glibc; elsewhere a no-op).

    Join batches are allocated on pool threads, in those threads' arenas,
    and freed on the caller's. How much of that freed memory stays resident
    depends on which thread freed what last: after the N = 96, s = 4 build
    the process held 67-82 MB from run to run, 64-66 MB after a trim, and
    the peak of the pair assembly that follows moved with it.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _multiset_counts(n: int, s: int, half: bool = False) -> np.ndarray:
    """Multisets of s members of 1..n per sum p1 = s, s + 1, ..., s n.

    They are the coefficients of the complete homogeneous polynomial
    h_s(x, x^2, ..., x^n), built by Newton's identities
    m h_m = sum_{e=1..m} p_e h_{m-e} with p_e = x^e + x^(2e) + ... + x^(ne).
    half keeps the sums p1 with 2 p1 <= s(n+1), those of a mirrored table.
    """
    h = [np.ones(1, dtype=np.int64)]
    for m in range(1, s + 1):
        acc = np.zeros(m * n + 1, dtype=np.int64)
        for e in range(1, m + 1):
            p = np.zeros(e * n + 1, dtype=np.int64)
            p[e::e] = 1
            acc += np.convolve(p, h[m - e])
        h.append(acc // m)
    per_p1 = h[s][s:]
    return per_p1[: (per_p1.size + 1) // 2] if half else per_p1


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
    members' coefficients, m running over its multiplicities: the sum of the
    coefficient products of the size-tuples that order to it. Up to three
    members (p1, p2, p3) fix the multiset by Newton's identities, so that is
    the table coefficient of its key; from four on, multisets with equal keys
    are separate columns, in the order they were listed.

    The multinomial is carried member by member: appending member t + 1 of
    multiplicity m so far multiplies it by (t + 1) / m. Every intermediate
    value is an integer of at most size n^(size - 1), exact in float64 far
    past the default tuple budget, where size!/prod(m!) would round past 18!.
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
        weight = np.ones(members.shape[1])  # multinomial of the members so far
        run = np.ones(members.shape[1])  # multiplicity of the last of them
        for t in range(1, size):
            raw = raw * base_c[members[t] - 1]
            run = np.where(members[t] == members[t - 1], run + 1.0, 1.0)
            weight = weight * (t + 1) / run
        lo, hi = members[0], members[-1]
        return cls(
            n=n, size=size, keys=keys[:, order], coeffs=weight * raw, lo=lo, hi=hi,
            lo_mult=np.sum(members == lo, axis=0), hi_mult=np.sum(members == hi, axis=0),
        )


def _join(
    left: _Multisets, right: _Multisets, unit: int, half: bool = False, keyed: bool = True
):
    """Join the least and greatest members into the sorted s-multisets, batch by batch.

    Yields (keys, coefficients, pairs formed, weight) for each batch, in p1
    order; keyed, the batches' entries, concatenated, are the sorted table.
    left holds the s - 2 least members of an s-multiset and right its 2
    greatest (1 and 1 for s = 2); a sorted s-multiset splits so just once,
    so each is formed once: left entry i meets only the right entries whose least member is at
    least i's greatest. A pair's coefficient is C(s, left.size) times the
    product of the two sides' coeffs, divided by C(a + b, a) where i's
    greatest member (multiplicity a) equals the right least one
    (multiplicity b): s!/prod(m!) times the product of the multiset's
    coefficients.

    Both sides are sorted by p1, so for a run of output p1 values each left
    entry i meets one contiguous p1 slice of the right side per right p1 (a
    cell). Within a slice of at most two members the least member falls by 1
    from each entry to the next, so the allowed entries are a prefix of the
    slice and no pair is formed only to be dropped. Batches are sized by the
    count of s-multisets per output p1 (_multiset_counts). Pairs are formed
    in (q, i, j) order, q the output p1 offset, whatever the batch cuts: so
    equal keys, which share q, sum their products in (i, j) order.

    keyed=False is for a consumer that reads only coefficients and weights.
    Up to s = 3 every multiset is then its own (p1, p2, p3) class, so a
    batch forms no key rows and is not sorted: it yields
    (None, coefficients in (q, i, j) order, pairs, weight). From s = 4 on,
    batches are sorted and summed as with keys, so that the
    Prouhet-Tarry-Escott coincidences still merge.

    half forms only the lower half of the output p1 range, offsets q with
    2q <= q_max: a mirrored table. There the middle offset 2q = q_max
    (present when q_max = s(n - 1) is even) is a batch of its own, of weight
    1, and every batch below it has weight 2: its entries stand for their
    mirror images too. Without half every batch has weight 1. Nothing past
    the batch itself is kept, so a caller that drops each batch never holds
    the table.
    """
    p1a = _p1_offsets(left.keys, unit)[0]
    hist_b = _p1_offsets(right.keys, unit)[1]
    starts_b = np.concatenate([[0], np.cumsum(hist_b)])
    s = left.size + right.size
    per_p1 = _multiset_counts(left.n, s, half)
    left_c = math.comb(s, left.size) * left.coeffs
    # C(a + b, a) for a left greatest member of multiplicity a that equals a
    # right least member of multiplicity b.
    ties = np.array(
        [[math.comb(a + b, a) for b in range(right.size + 1)] for a in range(left.size + 1)],
        dtype=float,
    )
    batch_of = (np.cumsum(per_p1) - per_p1) // _JOIN_CHUNK
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(batch_of)) + 1, [per_p1.size]])
    q_max = s * (left.n - 1)
    if half and q_max % 2 == 0:  # the middle p1 is a batch of its own
        mid = q_max // 2
        cuts = np.concatenate([cuts[cuts < mid], [mid], cuts[cuts > mid]])

    def batch(q_lo, q_hi):
        # Cells (i, r), left entry i and right p1 offset r, by output offset
        # q = p1a[i] + r in [q_lo, q_hi) and then i: the left entries with
        # 0 <= q - p1a[i] < hist_b.size are one run of the sorted p1a. Then
        # the pairs (i, j) of each cell, so pairs come in (q, i, j) order.
        q = np.arange(q_lo, q_hi)
        i_lo = np.searchsorted(p1a, q - hist_b.size, side="right")
        n_i = np.searchsorted(p1a, q, side="right") - i_lo
        cell_i = _runs(i_lo, n_i)
        r = np.repeat(q, n_i) - p1a[cell_i]
        # room right entries of slice r have a least member >= i's greatest;
        # the last of them equals it when the slice holds them all.
        room = right.lo[starts_b[r]] - left.hi[cell_i] + 1
        tie_cell = np.flatnonzero((room >= 1) & (room <= hist_b[r]))
        lens = np.clip(room, 0, hist_b[r])
        tie = np.cumsum(lens)[tie_cell] - 1
        j = _runs(starts_b[r], lens)
        # Not in place: numpy's in-place complex product of one element
        # rounds differently, which would tie the bits to the batch cuts.
        coeffs = np.repeat(left_c[cell_i], lens) * right.coeffs[j]
        coeffs[tie] /= ties[left.hi_mult[cell_i[tie_cell]], right.lo_mult[j[tie]]]
        weight = 2 if half and 2 * q_lo < q_max else 1
        if not keyed and s <= 3:  # each multiset is its own class: nothing to sort or add
            return None, coeffs, j.size, weight
        keys = np.repeat(left.keys[:, cell_i], lens, axis=1)
        keys += right.keys[:, j]
        return (*_dedupe(keys, coeffs), j.size, weight)

    yield from _in_order((batch, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))


def _mirror_symmetric(coeffs: np.ndarray) -> bool:
    """True for real coefficients with a_k = a_{n+1-k} (module docstring)."""
    return not np.any(coeffs.imag) and np.array_equal(coeffs, coeffs[::-1])


@dataclass(eq=False)
class _Stream:
    """A table's entries as the join yields them, past build_group_table's checks.

    Iterating yields (keys, coeffs, pairs formed, weight) per batch, in p1
    order; no (p1, p2) group straddles two batches. A keyed stream yields
    the entries as a table holds them. An unkeyed one (keyed=False) up to
    s = 3 yields keys None and each batch's coefficients in the join's
    pair order, a permutation of the table's (_join). weight is 2 for a
    mirrored batch below the middle p1, whose entries stand for their
    mirror images too, and 1 for the middle batch and every batch of an
    unmirrored stream (_join). It counts as it goes: n_entries
    and join_pairs as a TupleGroupTable states them, and held_entries, the
    most entries of one batch. size bounds the entries: one per s-multiset
    (of the lower half when mirrored). A stream is iterated once.
    """

    n: int
    s: int
    multipliers: tuple[int, int] | None
    dtype: np.dtype
    size: int
    batches: Iterator[tuple[np.ndarray | None, np.ndarray, int, int]] = field(repr=False)
    n_entries: int = 0
    join_pairs: int = 0
    held_entries: int = 0

    def __iter__(self):
        for keys, coeffs, pairs, weight in self.batches:
            self.n_entries += coeffs.size
            self.join_pairs += pairs
            self.held_entries = max(self.held_entries, coeffs.size)
            yield keys, coeffs, pairs, weight

    @property
    def key_rows(self) -> int:
        return 3 if self.multipliers is None else 1


def _table_stream(
    spec: ExpSumSpec, s: int, budget_tuples: int, mirrored: bool, keyed: bool = True
) -> _Stream:
    """build_group_table's checks and the halves of its join, which runs as
    the stream is read. s = 1 is one batch of the frequencies themselves,
    split as _join splits when mirrored: the frequencies below the middle
    (n + 1) / 2, weight 2, then the middle one, weight 1, when n is odd.
    keyed=False is for a consumer that reads no keys: up to s = 3 its
    batches come with keys None and unsorted (_join)."""
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

    if s > 1:
        right = _Multisets.build(single, base_c, min(s - 1, 2))
        left = right if s == 2 * right.size else _Multisets.build(single, base_c, s - right.size)
        batches = _join(left, right, a_mul, mirrored, keyed)
    else:
        parts = ((0, n // 2, 2), (n // 2, (n + 1) // 2, 1)) if mirrored else ((0, n, 1),)
        batches = iter([
            (single[:, a:b] if keyed else None, base_c[a:b], 0, w) for a, b, w in parts if a < b
        ])
    return _Stream(
        n=n, s=s, multipliers=packing, dtype=base_c.dtype,
        size=int(_multiset_counts(n, s, mirrored).sum()), batches=batches,
    )


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

    For s >= 2 one join meets the multisets of the s - 2 least members with
    those of the 2 greatest (1 and 1 for s = 2), forming each s-multiset
    once (_join); its batches are copied in p1 order into one buffer, and
    the memory they held goes back to the OS (_release_heap).

    mirrored builds only the entries with 2 p1 <= s(N+1): the halves stay
    whole and the join stops at the middle p1. It needs real palindromic
    coefficients.
    """
    stream = _table_stream(spec, s, budget_tuples, mirrored)
    # Sized for no duplicates; past the filled part no page is touched, so
    # none becomes resident.
    keys = np.empty((stream.key_rows, stream.size), dtype=np.int64)
    coeffs = np.empty(stream.size, dtype=stream.dtype)
    used = doubled = 0
    for batch_keys, batch_coeffs, _, weight in stream:
        keys[:, used : used + batch_coeffs.size] = batch_keys
        coeffs[used : used + batch_coeffs.size] = batch_coeffs
        used += batch_coeffs.size
        if weight == 2:  # the weight-2 batches come first
            doubled = used
    _release_heap()
    return TupleGroupTable(
        n=stream.n, s=s, keys=keys[:, :used], coeffs=coeffs[:used],
        multipliers=stream.multipliers, n_tuples=stream.n**s, mirrored=mirrored,
        join_pairs=stream.join_pairs, doubled=doubled,
    )


def _segment_sums(t: np.ndarray) -> np.ndarray:
    """np.sum of each run of _SUM_SEG consecutive terms of the 1-D array t.

    The last entry sums the partial tail, so an empty t gives [0.0].
    """
    full = t.size - t.size % _SUM_SEG
    return np.append(t[:full].reshape(-1, _SUM_SEG).sum(axis=1), t[full:].sum())


def _weighted_energy(chunks) -> np.ndarray:
    """The diagonal's segment sums: weight times _segment_sums(|c|^2) per weight.

    chunks yields (c, weight), weight 2 or 1, in table order. The entries of
    one weight are squared _ENERGY_CHUNK at a time, each piece's last
    < _SUM_SEG squares carried into the next, so the segments, and every bit
    of their sums, are those of one pass over that weight's entries,
    wherever the chunks were cut. Only one piece's squares and a partial
    segment per weight are held. The weight-2 sums come first, a weight
    without entries gives [0.0], and doubling is exact.
    """
    sums = {2: [], 1: []}
    rest = {2: np.empty(0), 1: np.empty(0)}
    for c, weight in chunks:
        for lo in range(0, c.size, _ENERGY_CHUNK):
            t = np.abs(c[lo : lo + _ENERGY_CHUNK])
            np.square(t, out=t)
            if rest[weight].size:
                t = np.concatenate([rest[weight], t])
            full = t.size - t.size % _SUM_SEG
            sums[weight].append(_segment_sums(t[:full])[:-1])
            rest[weight] = t[full:].copy()
    return np.concatenate([w * np.concatenate([*sums[w], _segment_sums(rest[w])]) for w in sums])


def _quantum(n_pairs: int, big: float) -> float:
    """Q = 2^(e - 51), 2^(e - 1) <= S < 2^e, for S = 8 n_pairs big^2.

    big is the largest |Re c| or |Im c| of the table, so a weighted product
    w c_i conj(c_j), w <= 4, is at most 8 big^2 in modulus and S bounds the
    sum of all of them (_pair_assemble). Past 2^52 pairs the hi sums of
    _spectrum could pass 2^53 Q, so that raises SpecValidationError.
    """
    if n_pairs >= 2**52:
        raise SpecValidationError("the exact route needs fewer than 2^52 pairs")
    return math.ldexp(1.0, math.frexp(8.0 * n_pairs * big * big)[1] - 51)


def _spectrum(q: np.ndarray, terms: np.ndarray, quantum: float):
    """Sums of terms by bin q, each real component as an exact and a small part.

    A component t splits into hi = quantum round(t / quantum) and lo = t - hi,
    both exact as quantum is a power of 2, with |lo| <= quantum / 2; the bin
    sums of hi are exact too (_pair_assemble), so only those of lo round.
    Returns (sums, pairs): sums holds the count of terms in each bin, then
    the hi and lo bin sums of each component, each for the bins 0 to max(q).
    """
    sums = [np.bincount(q)]
    for t in (terms.real, terms.imag) if np.iscomplexobj(terms) else (terms,):
        hi = t / quantum
        np.round(hi, out=hi)
        hi *= quantum
        sums += [np.bincount(q, hi), np.bincount(q, t - hi)]
    return sums, q.size


def _integer_spectrum(q: np.ndarray, products: np.ndarray, weight: float, positive: bool):
    """_spectrum for the products of a real integer table with Q <= 1, exactly.

    Every product and every partial sum of them is an integer below 2^51
    (_pair_assemble), so one np.bincount adds them exactly, in any order, and
    the power-of-2 weight scales its bins exactly. Returns (sums, pairs):
    sums holds the count of products in each bin, then the weighted bin
    sums, for the bins 0 to max(q). A positive table (every c > 0) leaves
    the count out: a bin holds a product exactly when its sum is nonzero.
    """
    sums = np.bincount(q, products)
    sums *= weight
    return ([sums] if positive else [np.bincount(q), sums]), q.size


def _pair_assemble(table: TupleGroupTable, sigma: float, h0: float):
    """Sum c_i conj(c_j) K(p3_i - p3_j) over all same-(p1, p2) pairs, a bound, and detail.

    Within a group the p3 values are distinct and increase with the entry,
    and K(-d) = conj(K(d)), so the sum is L sum |c_i|^2 plus twice the real
    part of sum_{i<j} c_i conj(c_j) K(-d), d = p3_j - p3_i > 0, with
    L = K(0) = n^-sigma. H is [h0, h0 + L] for the float h0 and the float
    L. moment_exact calls it for sigma > 0 only; at sigma = 0 the kernel is
    exactly 0 off the diagonal, and moment_exact sums the diagonal over the
    join's stream without a table. Either way the diagonal goes through
    _weighted_energy: here the table's first table.doubled entries with
    weight 2 and the rest with weight 1.

    The pairs enter only through the window spectrum
    R(d) = sum of w c_i conj(c_j) over the pairs with difference d, with
    weight w = 2 (4 for a group that stands for its mirror too): the sum is
    L sum |c_i|^2 + Re sum_d R(d) conj(K(d)). R does not depend on sigma or
    h0. Every in-group d is a multiple of 6, as k^3 = k (mod 6) gives
    p3 = p1 (mod 6), so R has a bin per d / 6 up to the table's largest
    in-group d. Two keys of a group differ by d (the packed key's p1 and p2
    parts cancel; the three-row layout's last row is p3), both keys are
    congruent mod 6, and so d / 6 = key_j // 6 - key_i // 6: one floor
    division per entry and none per pair. Blocks of same-size groups, about
    _PAIR_CHUNK pairs each, ordered by a stable sort of the sizes, bin their
    pairs on the shared pool (_spectrum) and are added in block
    order. The diagonal and the bound's M are summed first, on the calling
    thread: as a pool task their whole-table |c| arrays met the blocks' or
    not as the threads fell, and the peak RSS moved with that.
    interval_kernel is then called once, on the calling thread, at 0 (for
    L) and every d some pair has (the blocks count the pairs per bin too),
    and math.fsum adds the diagonal's segment sums and the terms
    Re(R(d) conj(K(d))) with one rounding. So the value does not depend on
    the number of cores. The detail gives the spectrum's bins and the
    number of distinct in-group d, whether or not R(d) cancels to 0.

    Each component of a product t = w c_i conj(c_j) splits at
    Q = 2^(e - 51), 2^(e - 1) <= S < 2^e for S = 8 P max(|Re c|, |Im c|)^2
    >= sum |t| over the table's P pairs. hi is an integer multiple of Q, and
    every partial sum of hi's, in any order, is at most
    sum |t| + P Q / 2 < 2^53 Q in magnitude while P < 2^52, so the hi bin sums
    are exact, in the blocks and across them. With integer coefficients and
    S < 2^51 (Q <= 1) every product is a multiple of Q, lo is 0 and R is
    exact. Such a real table skips the split (_integer_spectrum): its block
    bins the unweighted products c_i c_j, integers whose bin sums are exact
    as well, and multiplies the bins by the block's weight, a power of 2, so
    its R has the bits of the hi sums, and the lo sums of +0.0 it leaves out
    change no bit. When every c is positive, so is every product, and a bin
    holds pairs exactly when its sum is nonzero: the pairs per bin are not
    counted. A lo
    bin sum goes through at most P_b + B roundings per term, P_b the most
    pairs of a block and B the number of blocks: within a block the bin's
    terms are added one by one, and then each block's sum into the total.

    The second value bounds |computed - exact sum| for the table's float
    coefficients, h0 and L by
    u (40 L E + 3 M + 58 sum_d |R(d)| |K(d)| + 2 L sum_d |R(d)| + (P_b + B) P Q L),
    with u = 2^-53, E = sum of the weighted |c_i|^2 and
    M = L sum_G w_G (sum_{i in G} |c_i|)^2 >= L E + L sum |t|, w_G the
    group's mirror weight. To first order in u, with |K| <= L:
      - a diagonal term |c_i|^2 is a hypot within one ulp, then a square:
        at most 5u |c_i|^2; a segment sum adds at most _SUM_SEG terms
        pairwise, at most 32 roundings per term; L times it adds u, and
        doubling is exact: 38u L E;
      - a product t rounds by at most sqrt(5) u |t| (a complex product; the
        weight is exact), moving the sum by sqrt(5) u |t| |K(d)|: at most
        sqrt(5) u (M - L E);
      - the lo bin sums err by at most u (P_b + B) sum |lo|, and each |lo| is
        at most Q / 2 per component: u (P_b + B) P Q L after |K| <= L;
      - hi + lo rounds each component of R(d) once, by u |R(d)| together;
        Re(R conj(K)) = R_r K_r + R_i K_i rounds twice more: 3u |R(d)| |K(d)|;
      - interval_kernel errs by at most u (54 |K(d)| + 2 L);
      - math.fsum rounds the total once: u (L E + sum_d |R(d)| |K(d)|).
    That is 39u L E + 2.24u M, 58u |R| |K| and 2u L |R| per bin, and the lo
    term; 40 and 3 leave u (L E + 0.76 M) for the second-order terms.
    sum |R(d)| |K(d)| is at most M and usually far below it: |K(d)| falls
    like 1 / (pi |d|) once |d| L > 1.
    """
    c = table.coeffs
    m = table.doubled
    starts = table.group_starts()
    sizes = np.diff(np.append(starts, table.n_entries))
    split = int(np.searchsorted(starts, m))  # m is a group start or n_entries
    if table.s * table.n**3 >> _KERNEL_D_BITS and np.any(sizes > 1):
        raise SpecValidationError("the exact route needs s N^3 < 2^45 when sigma > 0")
    n_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    parts = c.view(float)
    least = float(parts.min(initial=np.inf))
    quantum = _quantum(n_pairs, max(float(parts.max(initial=0.0)), -least))
    exact = not np.iscomplexobj(c) and quantum <= 1.0 and np.array_equal(c, np.rint(c))
    positive = exact and least > 0.0
    # Within a group key_j - key_i = p3_j - p3_i: the packed key's p1 and p2
    # parts cancel, and the three-row layout's last row is p3.
    key = table.keys[-1]

    def block(weight, g, rows):
        # Entry a of the block's group r at [r, a]; pairs group by group.
        iu, ju = np.triu_indices(g, 1)
        sel = (rows[:, None] + np.arange(g)).ravel()
        k6 = (key[sel] // 6).reshape(-1, g)
        q = k6[:, ju]
        q -= k6[:, iu]
        cs = c[sel].reshape(-1, g)
        terms = cs[:, iu]
        if exact:
            terms *= cs[:, ju]
            return _integer_spectrum(q.ravel(), terms.ravel(), weight, positive)
        terms *= weight
        terms *= np.conj(cs[:, ju]) if np.iscomplexobj(cs) else cs[:, ju]
        return _spectrum(q.ravel(), terms.ravel(), quantum)

    group_mass = np.add.reduceat(np.abs(c), starts) ** 2
    mass = 2.0 * np.sum(group_mass[:split]) + np.sum(group_mass[split:])
    energy = _weighted_energy([(c[:m], 2), (c[m:], 1)])

    def tasks():
        # Twice the real part of each upper triangle, twice more below the middle.
        for weight, part in ((4.0, slice(0, split)), (2.0, slice(split, None))):
            p_starts, p_sizes = starts[part], sizes[part]
            # Groups by size, then in table order: a stable sort, which numpy
            # runs as a radix sort on a type this narrow.
            narrow = p_sizes.astype(np.min_scalar_type(p_sizes.max(initial=0)))
            order = np.argsort(narrow, kind="stable")
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

    # Rows: the count of pairs per bin (left out when positive), then R exactly,
    # or the hi and lo sums of each component of R.
    n_rows = (1 if positive else 2) if exact else 5 if np.iscomplexobj(c) else 3
    spectrum = np.zeros((n_rows, 0))
    n_bins = n_blocks = most = 0
    for sums, pairs in _in_order(tasks()):
        n_bins = max(n_bins, sums[0].size)
        if n_bins > spectrum.shape[1]:  # at least doubled, so the copies add up to O(n_bins)
            grown = np.zeros((len(spectrum), max(n_bins, 2 * spectrum.shape[1])))
            grown[:, : spectrum.shape[1]] = spectrum
            spectrum = grown
        for acc, part in zip(spectrum, sums):
            acc[: part.size] += part
        n_blocks += 1
        most = max(most, pairs)
    spectrum = spectrum[:, :n_bins]
    real = spectrum[-1] if exact else spectrum[1] + spectrum[2]
    imag = spectrum[3] + spectrum[4] if len(spectrum) == 5 else np.zeros(n_bins)
    # The d that pairs have (none has d = 0): the counted bins, or for a
    # positive table the bins whose sum, a sum of positive products, is nonzero.
    d = np.flatnonzero(spectrum[0])
    kernel = interval_kernel(6 * np.append(0, d), sigma, h0, table.n)
    length, kernel = kernel[0].real, kernel[1:]
    energy *= length
    terms = real[d] * kernel.real + imag[d] * kernel.imag
    r_abs = np.hypot(real[d], imag[d])
    err = 2.0**-53 * float(
        _ROUNDOFF_K * math.fsum(energy) + 3.0 * length * mass
        + 58.0 * float(np.sum(r_abs * np.abs(kernel))) + 2.0 * length * float(np.sum(r_abs))
        + (most + n_blocks) * n_pairs * quantum * length
    )
    detail = {"spectrum_bins": n_bins, "distinct_d": int(d.size)}
    return math.fsum(np.append(energy, terms)), err, detail


def moment_exact(
    spec: ExpSumSpec,
    s: int,
    budget_tuples: int = DEFAULT_TUPLE_BUDGET,
) -> MomentResult:
    """Exact 2s-th moment of |S| over [0,1]^2 x H via tuple grouping.

    The x1, x2 integrals enforce the (p1, p2) matching; the x3 integral over H
    contributes the kernel K(d) per in-group difference d, through the window
    spectrum R(d) of the built table (_pair_assemble). At sigma = 0 the
    kernel is a Kronecker delta and the pair sum collapses to sum |c|^2 over
    the (p1, p2, p3) classes: each join batch is squared as it comes,
    times its mirror weight, and dropped, so no table is built. Up to
    s = 3 the batches come unsorted, in the join's pair order, which does
    not depend on the batch cuts; the segment sums are those of one pass
    over that order (_weighted_energy, the reducer of the sigma > 0
    diagonal too), the table's order from s = 4 on. err_estimate bounds
    the error for the table's coefficients, the kernel included; at
    sigma = 0 it is the diagonal's 40u times the value (_pair_assemble).

    The detail states the table's entries, their bytes (key rows and
    coefficients) and the join's pairs, whether or not the table was held,
    and held_entries, the most entries held at once: the largest batch at
    sigma = 0, the whole table otherwise. With sigma > 0 it gives
    "spectrum_bins" and "distinct_d", the bins of R and the distinct
    in-group d, where the kernel was evaluated.
    """
    mirrored = _mirror_symmetric(spec.coeffs)
    if spec.sigma == 0.0:
        table = _table_stream(spec, s, budget_tuples, mirrored, keyed=False)
        value = math.fsum(_weighted_energy((c, weight) for _, c, _, weight in table))
        err, spectrum = _ROUNDOFF_K * 2.0**-53 * value, {}  # value = M up to rounding
        held = table.held_entries
        table_bytes = table.n_entries * (8 * table.key_rows + table.dtype.itemsize)
    else:
        table = build_group_table(spec, s, budget_tuples, mirrored=mirrored)
        value, err, spectrum = _pair_assemble(table, spec.sigma, spec.h0)
        held = table.n_entries
        table_bytes = table.keys.nbytes + table.coeffs.nbytes
    return MomentResult(
        value=value,
        method="exact",
        err_estimate=err,
        detail={
            "table_entries": table.n_entries,
            "table_bytes": table_bytes,
            "n_tuples": spec.n**s,
            "mirrored": mirrored,
            "join_pairs": table.join_pairs,
            "merged_entries": table.join_pairs - table.n_entries if table.join_pairs else 0,
            "held_entries": held,
            **spectrum,
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
    u ((2 sqrt(5) s + r + 1) L W + 56 L W') with W = sum |c_i||c_j| over the
    matched pairs and W' the same over those with d = p3_i - p3_j != 0:
      - a tuple's product rounds s - 1 complex products (the first, by 1,
        is exact), each within sqrt(5) u of its value; a pair's
        C_i conj(C_j) W then rounds once more and its product with the
        kernel once: 2 sqrt(5) s u |c_i||c_j| |K|, with |K| <= L;
      - interval_kernel states |W - K| <= u (54 |K| + 2 L) <= 56 u L; K(0)
        = L is exact, and at sigma = 0 every value is exact, so that part
        is 0 there;
      - np.sum adds a chunk's m terms pairwise: at most 32 + log2(m)
        roundings per term; the chunk sums are then added one by one into
        the total, at most one rounding per chunk: r counts both, and a
        rounding of a complex sum moves it by at most u times its modulus,
        at most sum |term| <= L W (1 + O(u)). The final 1 covers the
        second-order terms and the rounding of W and W'.
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
    mass = off_mass = 0.0  # W and W'
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
        # A term of this chunk: its np.sum roundings, then one for each
        # chunk sum added into the total from here on.
        rounds = max(rounds, 32 + i.size.bit_length()) + 1
    length = float(n) ** -spec.sigma
    err = (2.0 * math.sqrt(5.0) * s + rounds + 1) * length * mass
    if spec.sigma != 0.0:
        err += 56.0 * length * off_mass
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
    arithmetic, over the mirrored join's batches as they come, each times
    its weight (2 below the middle p1); no table is held, and up to s = 3
    no batch is sorted (_join with keyed=False). Class counts are
    accumulated as float64 but stay far below 2^53 under the tuple budget,
    so the result is exact.
    """
    if n < 1 or s < 1:
        raise SpecValidationError("need n >= 1 and s >= 1")
    spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=0.0)
    total = 0
    for _, c, _, weight in _table_stream(spec, s, budget_tuples, mirrored=True, keyed=False):
        counts = np.rint(c).astype(np.int64)
        total += weight * int(np.sum(counts * counts))
    return total
