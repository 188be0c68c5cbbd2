"""Unit tests for the exact moment engine and its brute-force oracle."""

import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcurve import (
    BudgetError,
    ExpSumSpec,
    SpecValidationError,
    build_group_table,
    coeffs_for,
    interval_kernel,
    moment_brute,
    moment_exact,
    vinogradov_count,
)
from momentcurve import moments
from momentcurve.moments import _packing_multipliers


def spec_ones(n, sigma=0.0, h0=0.0):
    return ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma, h0=h0)


class TestIntervalKernel:
    def test_zero_difference_gives_interval_length(self):
        for sigma, n in ((0.0, 4), (1.0, 7), (2.0, 3)):
            assert interval_kernel(0, sigma, 0.33, n) == pytest.approx(
                float(n) ** -sigma
            )

    def test_pinned_value_d1_sigma1_n2(self):
        # integral of e(t) over [0, 1/2] equals i/pi.
        val = complex(interval_kernel(1, 1.0, 0.0, 2))
        assert val == pytest.approx(1j / math.pi, abs=1e-14)

    def test_matches_numerical_integral(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 1, 20001)
        for _ in range(10):
            d = int(rng.integers(-50, 51)) or 3
            sigma = float(rng.uniform(0, 2))
            h0 = float(rng.uniform(-1, 1))
            n = int(rng.integers(2, 9))
            length = float(n) ** -sigma
            x = h0 + t * length
            numeric = np.trapezoid(np.exp(2j * math.pi * d * x), x)
            assert complex(interval_kernel(d, sigma, h0, n)) == pytest.approx(
                numeric, abs=1e-7
            )

    def test_sigma_zero_is_kronecker_for_any_h0(self):
        # Integer frequencies integrate to 0 over any unit interval.
        for h0 in (0.0, 0.37, -1.2):
            assert interval_kernel(5, 0.0, h0, 6) == pytest.approx(0.0, abs=1e-15)
            assert interval_kernel(0, 0.0, h0, 6) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        k_pos = complex(interval_kernel(7, 1.5, 0.2, 5))
        k_neg = complex(interval_kernel(-7, 1.5, 0.2, 5))
        assert k_neg == pytest.approx(np.conj(k_pos))

    @pytest.mark.parametrize("h0", [0.0, 0.37])
    def test_values_do_not_depend_on_array_length(self, h0):
        # Long arrays cross numpy's temporary-elision threshold, where a * b
        # may run in place as b * a; the kernel pins the operand order.
        rng = np.random.default_rng(12)
        d = rng.integers(-4 * 96**3, 4 * 96**3, 20_000)
        long = interval_kernel(d, 1.5, h0, 96)[:777]
        short = interval_kernel(d[:777], 1.5, h0, 96)
        assert np.array_equal(long.view(np.uint64), short.view(np.uint64))

    @pytest.mark.parametrize("h0", [0.0, 0.37])
    def test_zeros_do_not_change_nonzero_values(self, h0):
        # Arrays without a zero skip the d = 0 mask; arrays with zeros take
        # it. Both paths give the same bits at every nonzero d.
        rng = np.random.default_rng(13)
        d = rng.integers(-4 * 96**3, 4 * 96**3, 5_000)
        d[d == 0] = 1
        mixed = d.copy()
        mixed[::9] = 0
        nz = mixed != 0
        length = 96.0**-1.5
        with_zeros = interval_kernel(mixed, 1.5, h0, 96)
        without = interval_kernel(mixed[nz], 1.5, h0, 96)
        assert np.array_equal(with_zeros[nz].view(np.uint64), without.view(np.uint64))
        assert np.all(with_zeros[~nz] == length)

    def test_vectorized(self):
        d = np.array([-2, 0, 1, 9])
        vals = interval_kernel(d, 1.0, 0.1, 4)
        assert vals.shape == (4,)
        for i, di in enumerate(d):
            assert vals[i] == pytest.approx(complex(interval_kernel(int(di), 1.0, 0.1, 4)))

    def test_within_the_stated_bound_of_mpmath(self):
        # The docstring's bound, |K - exact| <= u (54 |K| + 2 L), for the
        # float h0 and L, against the closed form at 50 digits, together with
        # 40 u L (1 + |d| (|h0| + L)), the smaller of the two at small
        # |d| (|h0| + L). The first 400 draws keep h0 in [-1, 1]. No term of
        # the docstring's bound grows with |d|: of the next 400, a fifth put
        # |d| at s n^3 and half put h0 in [-1000, 1000]. The worst ratio to
        # the smaller bound is 0.46 in each half; over 6,000 draws like the
        # second half, the worst ratio to the docstring's bound was 0.49,
        # and to u (|K| + L) 2.4.
        def draws():
            rng = np.random.default_rng(21)
            for _ in range(400):
                n = int(rng.integers(2, 1001))
                s = int(rng.integers(3, 5))
                sigma = float(rng.uniform(0.0, 2.0))
                h0 = float(rng.uniform(-1.0, 1.0))
                top = s * n**3
                if rng.random() < 0.2:
                    top = 9
                yield n, s, sigma, h0, int(rng.integers(-top, top + 1))
            rng = np.random.default_rng(23)
            for _ in range(400):
                n = int(rng.integers(2, 1001))
                s = int(rng.integers(3, 5))
                sigma = float(rng.uniform(0.0, 2.0))
                wide = rng.random() < 0.5
                h0 = float(rng.uniform(-1000.0, 1000.0) if wide else rng.uniform(-1.0, 1.0))
                top = s * n**3
                draw = rng.random()
                if draw < 0.2:
                    top = 9
                d = int(rng.integers(-top, top + 1))
                if draw > 0.8:
                    d = int(rng.choice([-top, top]))
                yield n, s, sigma, h0, d

        u = 2.0**-53
        for n, s, sigma, h0, d in draws():
            length = float(n) ** -sigma
            got = complex(interval_kernel(d, sigma, h0, n))
            with mpmath.workdps(50):
                if d == 0:
                    want = mpmath.mpf(length)
                else:
                    md, mh, ml = mpmath.mpf(d), mpmath.mpf(h0), mpmath.mpf(length)
                    want = mpmath.expjpi(2 * md * mh) * (mpmath.expjpi(2 * md * ml) - 1) / (
                        2j * mpmath.pi * md
                    )
                err = float(abs(mpmath.mpc(got) - want))
                size = float(abs(want))
            growing = 40 * length * (1 + abs(d) * (abs(h0) + length))
            assert err <= u * min(54 * size + 2 * length, growing), (n, s, sigma, h0, d)

    def test_refuses_d_past_2_to_the_45(self):
        # Past 2^45 an 8-bit piece of h0 times d is no longer an exact float.
        top = 2**45 - 1
        assert np.isfinite(interval_kernel(np.array([-top, top]), 1.0, 0.3, 10)).all()
        for d in (2**45, -(2**45), np.array([3, 2**45])):
            with pytest.raises(SpecValidationError):
                interval_kernel(d, 1.0, 0.3, 10)

    def test_exact_values(self):
        # sigma = 0 gives exactly 0 and 1 for any h0; d = 0 gives exactly L.
        d = np.random.default_rng(22).integers(-4 * 96**3, 4 * 96**3, 1000)
        d[::7] = 0
        for h0 in (0.0, 0.37, -0.81):
            k = interval_kernel(d, 0.0, h0, 96)
            assert np.all(k[d != 0] == 0.0) and np.all(k[d == 0] == 1.0)
            for sigma in (0.3, 1.0, 1.5, 2.0):
                k = interval_kernel(d, sigma, h0, 96)
                assert np.all(k[d == 0] == 96.0**-sigma)
                assert interval_kernel(0, sigma, h0, 96) == 96.0**-sigma


class TestGroupTable:
    def test_singleton_groups_for_s1(self):
        table = build_group_table(spec_ones(6), 1)
        assert table.n_tuples == 6
        assert table.n_entries == 6

    def test_tuple_count_is_n_to_the_s(self):
        table = build_group_table(spec_ones(4), 3)
        assert table.n_tuples == 64

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            build_group_table(spec_ones(10), 5, budget_tuples=10**4)

    def test_rejects_bad_s(self):
        with pytest.raises(SpecValidationError):
            build_group_table(spec_ones(3), 0)

    def test_keeps_the_packed_key_and_decodes_on_access(self, monkeypatch):
        spec = ExpSumSpec(n=30, coeffs=coeffs_for("random_phase", 30, 4))
        table = build_group_table(spec, 3)
        assert table.multipliers == _packing_multipliers(30, 3)
        assert table.keys.shape == (1, table.n_entries)
        assert table.power_sum(3) is not table.power_sum(3)  # decoded afresh, never cached
        monkeypatch.setattr(moments, "_packing_multipliers", lambda n, s: None)
        rows = build_group_table(spec, 3)
        assert rows.multipliers is None and rows.keys.shape == (3, table.n_entries)
        for name in ("p1", "p2", "p3", "coeffs"):
            a, b = column(table, name), column(rows, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(table.group_starts(), rows.group_starts())
        first = np.concatenate([[True], (np.diff(table.p1) != 0) | (np.diff(table.p2) != 0)])
        assert np.array_equal(table.group_starts(), np.flatnonzero(first))
        sel = np.array([[0, 5], [7, table.n_entries - 1]])
        for e in (1, 2, 3):
            assert np.array_equal(table.power_sum(e, sel), rows.power_sum(e, sel))

    def test_build_hands_the_batches_memory_back(self, monkeypatch):
        # The batches are allocated on pool threads and freed on this one;
        # the build trims the heap once, after its last copy.
        released = []
        release = moments._release_heap
        monkeypatch.setattr(moments, "_release_heap", lambda: released.append(1))
        build_group_table(spec_ones(20), 4)
        assert released == [1]
        release()
        if sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc":
            assert moments._MALLOC_TRIM is not None


def column(table, name):
    """The table's attribute name, or p3 = power_sum(3) for name "p3"."""
    return table.power_sum(3) if name == "p3" else getattr(table, name)


def naive_table(coeffs, s):
    """(p1, p2, p3) rows and summed coefficient products of all n^s tuples."""
    n = coeffs.size
    grids = np.meshgrid(*([np.arange(1, n + 1, dtype=np.int64)] * s), indexing="ij")
    flat = [g.ravel() for g in grids]
    keys = np.stack([sum(g**e for g in flat) for e in (1, 2, 3)], axis=1)
    prod = np.prod([coeffs[g - 1] for g in flat], axis=0)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=prod.dtype)
    np.add.at(acc, inv.ravel(), prod)
    return uniq.T, acc


class TestJoin:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_matches_naive_grouping_for_every_batch_size_and_key_form(
        self, monkeypatch, s, kind
    ):
        rng = np.random.default_rng(10 * s + len(kind))
        for n in (1, 2, 5, 7):
            coeffs = rng.uniform(-1, 1, n)
            if kind == "complex":
                coeffs = coeffs * np.exp(2j * math.pi * rng.uniform(0, 1, n))
            spec = ExpSumSpec(n=n, coeffs=coeffs)
            keys, acc = naive_table(coeffs, s)
            tables = []
            for packing in (_packing_multipliers, lambda n, s: None):
                monkeypatch.setattr(moments, "_packing_multipliers", packing)
                for chunk in (1, 10**9):
                    monkeypatch.setattr(moments, "_JOIN_CHUNK", chunk)
                    tables.append(build_group_table(spec, s))
            first = tables[0]
            assert np.array_equal(np.stack([first.p1, first.p2, first.power_sum(3)]), keys)
            np.testing.assert_allclose(first.coeffs, acc, rtol=1e-12, atol=1e-12)
            assert first.coeffs.dtype == acc.dtype
            for other in tables[1:]:
                for name in ("p1", "p2", "p3", "coeffs"):
                    a, b = column(first, name), column(other, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (n, name)

    def test_concurrent_builds_match_serial(self, monkeypatch):
        # Sweep rows built at once share the join pool; their batches must
        # neither mix nor reorder. More builders than cores, frequent switches.
        monkeypatch.setattr(moments, "_JOIN_CHUNK", 5_000)
        spec = ExpSumSpec(n=24, coeffs=coeffs_for("random_phase", 24, 3))
        serial = build_group_table(spec, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_group_table, spec, 4) for _ in range(4)]
                tables = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for table in tables:
            for name in ("p1", "p2", "p3", "coeffs"):
                assert np.array_equal(column(table, name), column(serial, name))

    def test_batch_error_propagates_and_pool_stays_usable(self, monkeypatch):
        spec = spec_ones(12)
        want = build_group_table(spec, 4)
        monkeypatch.setattr(moments, "_JOIN_CHUNK", 1)
        dedupe = moments._dedupe
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                raise MemoryError("batch")
            return dedupe(*args)

        monkeypatch.setattr(moments, "_dedupe", failing)
        with pytest.raises(MemoryError):
            build_group_table(spec, 4)
        monkeypatch.setattr(moments, "_dedupe", dedupe)
        again = build_group_table(spec, 4)
        assert np.array_equal(again.coeffs, want.coeffs)
        assert np.array_equal(again.power_sum(3), want.power_sum(3))

    @pytest.mark.parametrize("packing", ["packed", "three rows"])
    @pytest.mark.parametrize(
        "n, s", [(24, 4), (13, 6), (40, 2), (30, 3), (20, 5), (9, 7), (6, 8)]
    )
    def test_matches_the_ordered_join(self, monkeypatch, n, s, packing):
        # Integer products add exactly in any order, so those tables keep
        # every bit; a complex multiset takes its multinomial times one
        # product instead of a sum of equal products.
        if packing == "three rows":
            monkeypatch.setattr(moments, "_packing_multipliers", lambda n, s: None)
        for family in ("constant", "random_sign", "random_phase"):
            spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, 7))
            got = build_group_table(spec, s)
            with monkeypatch.context() as m:
                m.setattr(moments, "_join", ordered_join)
                want = build_group_table(spec, s)
            for name in ("p1", "p2", "p3"):
                assert np.array_equal(column(got, name), column(want, name))
            assert got.coeffs.dtype == want.coeffs.dtype
            if family == "random_phase":
                np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=0.0)
            else:
                assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_dedupe_adds_equal_keys_in_input_order_either_sort(self, rows):
        # One packed row takes the unstable sort, three rows the stable
        # lexsort; either way each group adds its summands in input order,
        # as a stable sort and a running sum do: the same bits.
        rng = np.random.default_rng(rows)
        keys = rng.integers(0, 50, (rows, 3000))
        coeffs = phased_coeffs(rng, 3000, "complex")
        got_k, got_c = moments._dedupe(keys, coeffs)
        want_k, want_c = [], []
        for i in np.lexsort(keys[::-1]):
            if want_k and np.array_equal(want_k[-1], keys[:, i]):
                want_c[-1] = want_c[-1] + coeffs[i]
            else:
                want_k.append(keys[:, i])
                want_c.append(coeffs[i])
        assert len(want_c) < 3000
        assert np.array_equal(got_k, np.array(want_k).T)
        assert np.array_equal(got_c.view(np.uint64), np.array(want_c).view(np.uint64))

    def test_multiset_counts_match_a_brute_count(self):
        for n, s in ((1, 1), (1, 4), (2, 3), (5, 2), (7, 3), (6, 4), (4, 6)):
            sums = [sum(c) for c in itertools.combinations_with_replacement(range(1, n + 1), s)]
            brute = np.bincount(np.array(sums) - s, minlength=s * (n - 1) + 1)
            assert np.array_equal(moments._multiset_counts(n, s), brute), (n, s)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8])
    def test_joins_form_each_multiset_once(self, monkeypatch, s):
        # One join per table forms each s-multiset of 1..n once,
        # C(n+s-1, s) pairs, and at s <= 3 no two share a key, so the
        # sigma = 0 stream, which reads no keys, sorts no batch there.
        joins = []
        join = moments._join
        dedupe = moments._dedupe
        sorts = []

        def spy_join(left, right, unit, half=False, keyed=True):
            pairs = 0
            for batch in join(left, right, unit, half, keyed):
                pairs += batch[2]
                yield batch
            joins.append((left.keys.shape[1], right.keys.shape[1], pairs))

        def spy_dedupe(keys, coeffs):
            sorts.append(coeffs.size)
            return dedupe(keys, coeffs)

        monkeypatch.setattr(moments, "_JOIN_CHUNK", 5_000)
        monkeypatch.setattr(moments, "_join", spy_join)
        monkeypatch.setattr(moments, "_dedupe", spy_dedupe)
        n = {2: 24, 3: 24, 4: 16, 5: 9, 6: 7, 7: 5, 8: 4}[s]
        spec = ExpSumSpec(n=n, coeffs=coeffs_for("random_phase", n, 2))
        table = build_group_table(spec, s)
        assert sum(sorts) == table.join_pairs  # every pair of the build is sorted
        sorts.clear()
        res = moment_exact(spec, s)
        assert sum(sorts) == (0 if s <= 3 else table.join_pairs)
        detail = res.detail
        assert len(joins) == 2 and joins[0] == joins[1]  # one join per build or stream
        assert detail["join_pairs"] == table.join_pairs == joins[-1][2]
        assert detail["join_pairs"] - detail["table_entries"] == detail["merged_entries"]
        assert table.join_pairs == math.comb(n + s - 1, s)
        if s <= 3:
            assert detail["merged_entries"] == 0
        if s == 4:  # {1, 5, 8, 12} and {2, 3, 10, 11} share their power sums
            assert detail["merged_entries"] > 0


def ordered_join(left, right, unit, half=False, keyed=True):
    """The join that forms every ordered pair (i, j) of two _Multisets sides,
    their coefficients multiplied: a multiset's coeffs sum the products of
    the tuples that order to it, so the pairs add up the product of every
    s-tuple. half stops at the middle output p1, as in _join, and cuts a
    batch there. Yields keys, coefficients, the pair count and the weight of
    each batch, in p1 order: 2 below the middle p1 of a half join, else 1.
    Ordered pairs meet the same multiset many times, so every batch is
    sorted and summed, whatever keyed says."""
    p1a, hist_a = moments._p1_offsets(left.keys, unit)
    _, hist_b = moments._p1_offsets(right.keys, unit)
    ka, ca, kb, cb = left.keys, left.coeffs, right.keys, right.coeffs
    starts_b = np.concatenate([[0], np.cumsum(hist_b)])
    per_p1 = np.convolve(hist_a, hist_b)
    q_max = per_p1.size - 1
    if half:
        per_p1 = per_p1[: q_max // 2 + 1]
    batch_of = (np.cumsum(per_p1) - per_p1) // moments._JOIN_CHUNK
    cuts = set(np.flatnonzero(np.diff(batch_of)) + 1) | {0, per_p1.size}
    if half and q_max % 2 == 0:
        cuts.add(q_max // 2)
    cuts = sorted(int(q) for q in cuts)

    def batch(q_lo, q_hi):
        jlo = starts_b[np.clip(q_lo - p1a, 0, hist_b.size)]
        lens = starts_b[np.clip(q_hi - p1a, 0, hist_b.size)] - jlo
        j = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens - jlo, lens)
        keys = np.repeat(ka, lens, axis=1) + kb[:, j]
        weight = 2 if half and 2 * (q_hi - 1) < q_max else 1
        return (*moments._dedupe(keys, np.repeat(ca, lens) * cb[j]), j.size, weight)

    yield from moments._in_order((batch, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))


def group_slices(table):
    """Slices of the table's (p1, p2) groups, in table order."""
    keys = np.stack([table.p1, table.p2], axis=1)
    _, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
    return [slice(a, a + g) for a, g in sorted(zip(first.tolist(), counts.tolist()))]


def full_square_sum(table, sigma, h0):
    """Sum of c_i conj(c_j) K(p3_i - p3_j) over the full g x g square of each group."""
    total = 0.0 + 0.0j
    for sl in group_slices(table):
        p3 = table.power_sum(3, sl)
        d = p3[:, None] - p3[None, :]
        w = interval_kernel(d.ravel(), sigma, h0, table.n).reshape(d.shape)
        c = table.coeffs[sl].astype(complex)
        total += np.sum(c[:, None] * np.conj(c[None, :]) * w)
    return total.real


def phased_coeffs(rng, n, kind):
    coeffs = rng.uniform(0.2, 1.0, n)
    if kind == "complex":
        coeffs = coeffs * np.exp(2j * math.pi * rng.uniform(0, 1, n))
    return coeffs


class TestPairAssembly:
    def test_only_blocks_run_on_the_pool(self, monkeypatch):
        # The diagonal is summed on the calling thread before any block is
        # submitted, so its whole-table arrays never meet the blocks'.
        table = build_group_table(spec_ones(24), 4)
        submitted = []
        in_order = moments._in_order

        def spy(calls):
            def seen():
                for call in calls:
                    submitted.append(call[0].__name__)
                    yield call
            return in_order(seen())

        monkeypatch.setattr(moments, "_in_order", spy)
        moments._pair_assemble(table, 1.0, 0.3)
        assert submitted and set(submitted) == {"block"}

    @pytest.mark.parametrize("h0", [0.0, 0.37])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("s, n", [(2, 12), (3, 10), (4, 8)])
    def test_matches_full_square_for_every_block_size(self, monkeypatch, s, n, kind, h0):
        rng = np.random.default_rng(100 * s + n)
        spec = ExpSumSpec(n=n, coeffs=phased_coeffs(rng, n, kind), sigma=1.2, h0=h0)
        table = build_group_table(spec, s)
        want = full_square_sum(table, spec.sigma, h0)
        for chunk in (1, 7, 10**9):
            monkeypatch.setattr(moments, "_PAIR_CHUNK", chunk)
            assert moment_exact(spec, s).value == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("sigma", [0.0, 1.3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_err_estimate_bounds_exact_rational_sum(self, monkeypatch, sigma, kind):
        # The same float coefficients and kernel values as the assembly,
        # summed without rounding: L sum |c_i|^2 plus, for every in-group pair
        # i < j, Re(2 c_i conj(c_j) conj(K(d))) with K the float
        # interval_kernel(d). Left out is only the assembly's own arithmetic
        # (products, bins, their split and sums), which err_estimate bounds too.
        n, s = 8, 3
        rng = np.random.default_rng(31)
        spec = ExpSumSpec(n=n, coeffs=phased_coeffs(rng, n, kind), sigma=sigma, h0=0.61)
        table = build_group_table(spec, s)
        exact = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in table.coeffs.tolist())
        exact *= Fraction(float(n) ** -sigma)
        if sigma > 0.0:
            for sl in group_slices(table):
                p3 = table.power_sum(3, sl)
                c = [(Fraction(z.real), Fraction(z.imag)) for z in table.coeffs[sl].tolist()]
                for i, j in zip(*np.triu_indices(p3.size, 1)):
                    k = complex(interval_kernel(int(p3[j] - p3[i]), sigma, spec.h0, n))
                    (ar, ai), (br, bi) = c[i], c[j]
                    # Re(c_i conj(c_j) conj(K)) = Re(t) Re(K) + Im(t) Im(K).
                    exact += 2 * ((ar * br + ai * bi) * Fraction(k.real)
                                  + (ai * br - ar * bi) * Fraction(k.imag))
        for seg in (5, moments._SUM_SEG):
            monkeypatch.setattr(moments, "_SUM_SEG", seg)
            res = moment_exact(spec, s)
            assert 0.0 < res.err_estimate < 1e-12 * res.value
            assert abs(Fraction(res.value) - exact) <= Fraction(res.err_estimate)

    def test_kernel_sees_only_the_strict_upper_triangle(self, monkeypatch):
        # interval_kernel is called once, on the calling thread, at 0 (for
        # K(0) = L) and at the distinct differences of the strict upper
        # triangles; the blocks bin every such pair once.
        spec = ExpSumSpec(n=14, coeffs=coeffs_for("random_phase", 14, 2), sigma=1.1, h0=0.2)
        table = build_group_table(spec, 4)
        want = set()
        n_pairs = 0
        for sl in group_slices(table):
            p3 = table.power_sum(3, sl)
            i, j = np.triu_indices(p3.size, 1)
            want.update((p3[j] - p3[i]).tolist())
            n_pairs += i.size
        kernel, spectrum = moments.interval_kernel, moments._spectrum
        calls, pairs = [], []

        def counting(d, *args):
            calls.append((np.asarray(d).tolist(), threading.current_thread()))
            return kernel(d, *args)

        def spy(q, terms, quantum):
            out = spectrum(q, terms, quantum)
            pairs.append(out[1])
            return out

        monkeypatch.setattr(moments, "_PAIR_CHUNK", 1000)
        monkeypatch.setattr(moments, "interval_kernel", counting)
        monkeypatch.setattr(moments, "_spectrum", spy)
        res = moment_exact(spec, 4)
        ((d, thread),) = calls
        assert thread is threading.current_thread()
        assert d[0] == 0 and d[1:] == sorted(want) and min(want) > 0
        assert res.detail["distinct_d"] == len(want)
        assert sum(pairs) == n_pairs > 0 and len(pairs) > 1

    def test_concurrent_moments_match_serial(self, monkeypatch):
        # Rows of a sweep assemble at once on the shared pool; their blocks
        # must neither mix nor change the sums.
        monkeypatch.setattr(moments, "_PAIR_CHUNK", 2_000)
        spec = ExpSumSpec(n=20, coeffs=coeffs_for("random_phase", 20, 5), sigma=1.2, h0=0.3)
        serial = moment_exact(spec, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(moment_exact, spec, 4) for _ in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for res in results:
            assert (res.value, res.err_estimate) == (serial.value, serial.err_estimate)

    def test_block_error_propagates_and_pool_stays_usable(self, monkeypatch):
        spec = ExpSumSpec(n=12, coeffs=coeffs_for("random_phase", 12, 4), sigma=1.0, h0=0.4)
        want = moment_exact(spec, 4).value
        monkeypatch.setattr(moments, "_PAIR_CHUNK", 1)
        spectrum = moments._spectrum
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                raise MemoryError("block")
            return spectrum(*args)

        monkeypatch.setattr(moments, "_spectrum", failing)
        with pytest.raises(MemoryError):
            moment_exact(spec, 4)
        monkeypatch.setattr(moments, "_spectrum", spectrum)
        assert moment_exact(spec, 4).value == pytest.approx(want, rel=1e-13)
        monkeypatch.undo()
        assert moment_exact(spec, 4).value == want

    def test_pool_workers_cannot_submit(self):
        def nested():
            return list(moments._in_order([(abs, -1)]))

        with pytest.raises(RuntimeError):
            moments._POOL.submit(nested).result(timeout=60)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize(
        "size", [256 * 4096 - 1, 256 * 4096, 256 * 4096 + 4097]
    )
    def test_chunked_energy_matches_one_pass(self, size, kind):
        # The diagonal is squared in pieces of whole segments; the weight
        # without entries adds only a zero.
        assert moments._ENERGY_CHUNK == 256 * moments._SUM_SEG == 256 * 4096
        c = phased_coeffs(np.random.default_rng(size), size, kind)
        got = moments._weighted_energy([(c, 1)])
        want = moments._segment_sums(np.square(np.abs(c)))
        assert np.array_equal(got[got != 0.0], want[want != 0.0])
        assert math.fsum(got).hex() == math.fsum(want).hex()

    def test_segment_sums_are_pairwise(self):
        # The err_estimate bound counts at most 32 roundings per term of a
        # segment. Added one by one, 1 + (_SUM_SEG - 1) halves of an ulp
        # would stay 1.0.
        seg = moments._SUM_SEG
        t = np.full(2 * seg + 3, 2.0**-53, dtype=complex)
        t[::seg] = 1.0
        sums = moments._segment_sums(t.real)
        assert sums.shape == (3,)
        assert np.all(sums[:2] > 1.0)


class TestWindowSpectrum:
    # For sigma > 0 the pairs enter through R(d), the sum of weighted
    # c_i conj(c_j) over the in-group pairs with difference d, binned by d // 6.

    @pytest.mark.parametrize("s, n", [(2, 30), (3, 16), (4, 10), (5, 7), (6, 5)])
    def test_in_group_differences_are_multiples_of_6(self, monkeypatch, s, n):
        # k^3 = k (mod 6), so p3 = p1 (mod 6) and equal p1 give d = 0 (mod 6).
        tables = [
            build_group_table(ExpSumSpec(n=n, coeffs=coeffs_for(family, n, s)), s)
            for family in ("constant", "random_sign", "random_phase")
        ]
        tables.append(build_group_table(spec_ones(n), s, mirrored=True))
        monkeypatch.setattr(moments, "_packing_multipliers", lambda n, s: None)
        tables.append(build_group_table(spec_ones(n), s))
        assert tables[-1].multipliers is None and tables[-2].mirrored
        for table in tables:
            p3 = table.power_sum(3)
            starts = table.group_starts()
            sizes = np.diff(np.append(starts, table.n_entries))
            assert (sizes.max() > 1) == (s > 2)  # s = 2: each (p1, p2) is one multiset
            # Every in-group d is a difference of two offsets from the group's first p3.
            offset = p3 - np.repeat(p3[starts], sizes)
            assert np.all(offset % 6 == 0)
            assert np.all((p3 - table.p1) % 6 == 0)

    @pytest.mark.parametrize("family", ["constant", "random_sign"])
    def test_integer_coefficients_give_an_exact_spectrum(self, monkeypatch, family):
        # Integer products are multiples of the split's quantum, so every lo
        # part is 0 and the bins hold R(d) exactly, mirrored table or not.
        n, s = 16, 4
        spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, 3), sigma=1.0, h0=0.3)
        full = build_group_table(spec, s)
        want = {}
        for sl in group_slices(full):
            p3 = full.power_sum(3, sl).tolist()
            c = [int(x) for x in np.rint(full.coeffs[sl]).tolist()]
            for i, j in itertools.combinations(range(len(p3)), 2):
                key = (p3[j] - p3[i]) // 6
                want[key] = want.get(key, 0) + 2 * c[i] * c[j]
        spectrum = moments._spectrum
        got = {}

        def spy(q, terms, quantum):
            sums, pairs = spectrum(q, terms, quantum)
            count, hi, lo = sums
            assert quantum <= 1.0 and not lo.any() and np.array_equal(hi, np.rint(hi))
            assert count.sum() == pairs
            for key, value in enumerate(hi.tolist()):
                got[key] = got.get(key, 0) + int(value)
            return sums, pairs

        monkeypatch.setattr(moments, "_spectrum", spy)
        res = moment_exact(spec, s)
        assert res.detail["mirrored"] is (family == "constant")
        assert {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}

    def test_quantum_refuses_2_to_the_52_pairs(self):
        # S = 8 P big^2 = 720 lies in [2^9, 2^10), so Q = 2^(10 - 51).
        assert moments._quantum(10, 3.0) == 2.0**-41
        assert moments._quantum(0, 0.0) == 2.0**-51
        assert moments._quantum(2**52 - 1, 1.0) == 2.0**4
        with pytest.raises(SpecValidationError):
            moments._quantum(2**52, 1.0)

    def test_block_size_keeps_the_bits(self, monkeypatch):
        # With integer coefficients every bin sum is exact, so the value has
        # the same bits for any block size.
        spec = ExpSumSpec(n=20, coeffs=coeffs_for("random_sign", 20, 4), sigma=1.2, h0=0.3)
        values = set()
        for chunk in (1, 7, 10**9):
            monkeypatch.setattr(moments, "_PAIR_CHUNK", chunk)
            values.add(moment_exact(spec, 4).value.hex())
        assert len(values) == 1

    @pytest.mark.parametrize("family", ["random_phase", "random_sign"])
    def test_detail_counts_bins_and_distinct_d(self, family):
        # distinct_d counts the d that pairs have, also where R(d) cancels to
        # 0, as it does at 7 of the 51 d of this random-sign table.
        spec = ExpSumSpec(n=14, coeffs=coeffs_for(family, 14, 2), sigma=1.1, h0=0.2)
        table = build_group_table(spec, 4)
        spectrum = {}
        for sl in group_slices(table):
            p3, c = table.power_sum(3, sl), table.coeffs[sl]
            i, j = np.triu_indices(p3.size, 1)
            for d, t in zip((p3[j] - p3[i]).tolist(), (c[i] * np.conj(c[j])).tolist()):
                spectrum[d] = spectrum.get(d, 0) + t
        cancelled = sum(1 for t in spectrum.values() if t == 0)
        assert cancelled == (7 if family == "random_sign" else 0)
        detail = moment_exact(spec, 4).detail
        assert detail["spectrum_bins"] == max(spectrum) // 6 + 1 > detail["distinct_d"] == len(spectrum)
        # sigma = 0 forms no spectrum and says nothing about one.
        flat = moment_exact(ExpSumSpec(n=14, coeffs=spec.coeffs), 4).detail
        assert "spectrum_bins" not in flat and "distinct_d" not in flat


def mpmath_moment(table, sigma, h0):
    """The moment of a whole table's float coefficients at 50 digits.

    Every same-(p1, p2) pair (i, j), the diagonal included, adds
    c_i conj(c_j) times the integral of e(d x) over [h0, h0 + L], with
    d = p3_i - p3_j and L the float n^-sigma, evaluated as
    (e(d (h0 + L)) - e(d h0)) / (2 pi i d). Groups come from np.unique, not
    from the engine, and no float kernel is used.
    """
    with mpmath.workdps(50):
        lo = mpmath.mpf(h0)
        length = mpmath.mpf(float(table.n) ** -sigma)
        hi = lo + length  # exact at 50 digits
        kernel = {0: length}
        total = mpmath.mpf(0)
        for sl in group_slices(table):
            p3 = table.power_sum(3, sl).tolist()
            c = [mpmath.mpc(z) for z in table.coeffs[sl].astype(complex).tolist()]
            for ci, pi in zip(c, p3):
                for cj, pj in zip(c, p3):
                    d = pi - pj
                    if d not in kernel:
                        kernel[d] = (mpmath.expjpi(2 * d * hi) - mpmath.expjpi(2 * d * lo)) / (
                            2j * mpmath.pi * d
                        )
                    total += (ci * mpmath.conj(cj) * kernel[d]).real
        return total


def oracle_coeffs(rng, n, family):
    if family == "complex":
        return phased_coeffs(rng, n, family)
    if family == "real":
        return rng.uniform(-1.0, 1.0, n)
    head = rng.uniform(-1.0, 1.0, (n + 1) // 2)  # real palindromic
    return np.concatenate([head, head[: n // 2][::-1]])


class TestFactoredKernel:
    # The kernel is L times the mean of e(d L t) times e(d h0), with d h0
    # reduced mod 1 exactly by splitting h0 (_split, _phase); pair assembly
    # applies it once to the window spectrum.

    @pytest.mark.parametrize("s, n", [(3, 584), (4, 118)])
    def test_split_pieces_multiply_exactly(self, s, n):
        # The largest N the default budget allows for s = 3 and s = 4.
        assert n**s <= moments.DEFAULT_TUPLE_BUDGET < (n + 1) ** s
        top = s * n**3
        bits = 53 - top.bit_length()
        rng = np.random.default_rng(top)
        for x in [0.61 - 1.0, 0.37, 1e-300, -0.5, float(n) ** -2.0, *rng.uniform(-0.5, 1, 20)]:
            pieces = moments._split(x, bits)
            assert sum(Fraction(p) for p in pieces) == Fraction(x)
            assert len(pieces) <= -(-53 // bits)
            for p in pieces:
                assert float(top) * p == Fraction(top) * Fraction(p)  # exact product
                assert Fraction(p).numerator.bit_length() <= bits

    @settings(max_examples=40, deadline=None)
    @given(
        sn=st.sampled_from([(3, 584), (4, 118)]),
        x=st.one_of(
            st.floats(min_value=-0.5, max_value=0.5),
            st.integers(min_value=6, max_value=584).flatmap(
                lambda n: st.floats(0.5, 2.0).map(lambda sigma: float(n) ** -sigma)
            ),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_phase_matches_mpmath(self, sn, x, seed):
        s, n = sn
        top = s * n**3
        p3 = np.random.default_rng(seed).integers(0, top + 1, 64)
        p3[:2] = (top, top - 1)
        got = moments._phase(p3.astype(float), moments._split(x, 53 - top.bit_length()))
        assert np.all(np.abs(got) <= 0.5)
        with mpmath.workdps(60):
            for k, g in zip(p3.tolist(), got.tolist()):
                want = k * mpmath.mpf(x)
                miss = want - g - mpmath.nint(want - g)  # distance mod 1
                assert abs(miss) <= 4 * 2.0**-53, (k, x, g)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=14),
        s=st.sampled_from([3, 4]),
        sigma=st.floats(min_value=0.5, max_value=2.0),
        h0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        family=st.sampled_from(["real", "complex", "palindromic"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_moment_within_err_estimate_of_mpmath(self, n, s, sigma, h0, family, seed):
        coeffs = oracle_coeffs(np.random.default_rng(seed), n, family)
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0)
        res = moment_exact(spec, s)
        assert res.detail["mirrored"] is (family == "palindromic")
        # The whole table: a mirrored one's head is its first half bit for bit.
        want = mpmath_moment(build_group_table(spec, s), sigma, h0)
        assert abs(mpmath.mpf(res.value) - want) <= res.err_estimate

    def test_err_estimate_covers_the_cancellation_at_small_d(self):
        # One group of two entries, d = 6, with L = 1000^-2: d L is tiny, so
        # e(d L) - 1 would cancel; the kernel's sin form does not, and the
        # value stays within err_estimate of 50 digits.
        n, sigma = 1000, 2.0
        rng = np.random.default_rng(11)
        for _ in range(20):
            top = 6 * int(rng.integers(10**7, n**3 // 2))
            c = phased_coeffs(rng, 2, "complex")
            keys = np.array([[5, 5], [9, 9], [top, top + 6]], dtype=np.int64)
            table = moments.TupleGroupTable(n=n, s=3, keys=keys, coeffs=c)
            h0 = float(rng.uniform(0, 1))
            value, err, detail = moments._pair_assemble(table, sigma, h0)
            assert detail == {"spectrum_bins": 2, "distinct_d": 1}
            miss = abs(mpmath.mpf(value) - mpmath_moment(table, sigma, h0))
            assert miss <= err

    def test_p3_past_2_to_the_45_is_refused_only_with_pairs(self):
        # One group of two entries whose p3 need 46 bits.
        n = 2**16
        table = moments.TupleGroupTable(
            n=n, s=1, keys=np.array([[1, 1], [1, 1], [1, 2**45]], dtype=np.int64),
            coeffs=np.ones(2),
        )
        with pytest.raises(SpecValidationError):
            moments._pair_assemble(table, 1.0, 0.3)
        # s = 1 has no pairs, so large N still works.
        big = ExpSumSpec(n=40_000, coeffs=np.ones(40_000), sigma=1.0, h0=0.3)
        assert moment_exact(big, 1).value == pytest.approx(1.0, rel=1e-12)


class TestMomentExact:
    def test_n5_s2_constant_is_45(self):
        # 2N^2 - N solutions at N = 5.
        assert moment_exact(spec_ones(5), 2).value == pytest.approx(45.0)

    def test_n10_s2_constant_is_190(self):
        assert moment_exact(spec_ones(10), 2).value == pytest.approx(190.0)

    def test_n1_any_sigma_is_window_length(self):
        for sigma in (0.0, 0.7, 2.0):
            res = moment_exact(spec_ones(1, sigma=sigma), 3)
            assert res.value == pytest.approx(1.0**-sigma)

    def test_s1_identity_all_sigma(self):
        # 2nd moment = N^(-sigma) * sum |a_k|^2 exactly.
        rng = np.random.default_rng(8)
        for sigma in (0.0, 0.5, 1.0, 2.0):
            coeffs = rng.uniform(-1, 1, 12)
            spec = ExpSumSpec(n=12, coeffs=coeffs, sigma=sigma, h0=0.4)
            want = 12.0**-sigma * np.sum(coeffs**2)
            assert moment_exact(spec, 1).value == pytest.approx(want, rel=1e-13)

    def test_s2_sigma2_random_sign_is_deterministic(self):
        # Every (p1, p2) class has one distinct p3, so the moment collapses
        # to N^(-2) (2N^2 - N) for unimodular coefficients.
        for seed in (1, 5, 9):
            n = 20
            spec = ExpSumSpec(n=n, coeffs=coeffs_for("random_sign", n, seed), sigma=2.0)
            want = (2.0 * n * n - n) / n**2
            assert moment_exact(spec, 2).value == pytest.approx(want, rel=1e-12)

    def test_sigma_zero_ignores_h0(self):
        spec_a = spec_ones(7, sigma=0.0, h0=0.0)
        spec_b = spec_ones(7, sigma=0.0, h0=0.61)
        a = moment_exact(spec_a, 2).value
        b = moment_exact(spec_b, 2).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_coefficient_power_scaling(self):
        # moment(lambda * a) = lambda^(2s) moment(a).
        rng = np.random.default_rng(13)
        coeffs = rng.uniform(-1, 1, 8)
        for s in (1, 2, 3):
            base = moment_exact(ExpSumSpec(n=8, coeffs=coeffs, sigma=1.0), s).value
            half = moment_exact(ExpSumSpec(n=8, coeffs=0.5 * coeffs, sigma=1.0), s).value
            assert half == pytest.approx(0.5 ** (2 * s) * base, rel=1e-12)

    def test_value_is_real_and_nonnegative(self):
        rng = np.random.default_rng(21)
        phases = np.exp(2j * math.pi * rng.uniform(0, 1, 9))
        spec = ExpSumSpec(n=9, coeffs=phases, sigma=1.3, h0=-0.2)
        res = moment_exact(spec, 3)
        assert res.value >= 0.0
        assert res.err_estimate < 1e-9 * max(1.0, res.value)

    @pytest.mark.parametrize("sigma", [0.0, 0.75])
    def test_s2_closed_form_unpacked_keys(self, sigma):
        # N = 1100 is too large to pack (p1, p2, p3) into one int64 at s = 2,
        # so the table keeps three key rows. Every (p1, p2) class at s = 2 is
        # one multiset {k1, k2}, so the moment is
        # N^(-sigma) (2 (sum |a|^2)^2 - sum |a|^4).
        n = 1100
        assert _packing_multipliers(n, 2) is None
        rng = np.random.default_rng(17)
        coeffs = rng.uniform(0.2, 1.0, n) * np.exp(2j * math.pi * rng.uniform(0, 1, n))
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=0.3)
        energy = np.abs(coeffs) ** 2
        want = n**-sigma * (2.0 * np.sum(energy) ** 2 - np.sum(energy**2))
        res = moment_exact(spec, 2)
        assert res.value == pytest.approx(want, rel=1e-12)
        assert res.err_estimate <= 1e-9 * want

    def test_result_record_fields(self):
        res = moment_exact(spec_ones(4), 2)
        assert res.method == "exact"
        assert res.detail["n_tuples"] == 16
        assert res.detail["mirrored"] is True

    def test_n384_s3_constant_is_pinned(self):
        # The sigma = 0 count is an exact integer; the mirrored table keeps it.
        res = moment_exact(spec_ones(384), 3)
        assert res.value == 338413056.0
        assert res.detail["mirrored"] is True
        assert res.detail["n_tuples"] == 384**3

    def test_result_record_states_table_memory(self):
        spec = ExpSumSpec(n=9, coeffs=coeffs_for("random_phase", 9, 1), sigma=0.5)
        table = build_group_table(spec, 3)
        res = moment_exact(spec, 3)
        assert res.detail["table_entries"] == res.detail["held_entries"] == table.n_entries
        assert res.detail["table_bytes"] == table.keys.nbytes + table.coeffs.nbytes
        assert res.detail["table_bytes"] == table.n_entries * (8 + 16)

    @pytest.mark.parametrize("chunk", [None, 5_000, 997])
    @pytest.mark.parametrize("s, n", [(1, 9000), (2, 150), (3, 40), (4, 20), (5, 14)])
    def test_sigma0_stream_sums_the_table_bit_for_bit(self, monkeypatch, s, n, chunk):
        # sigma = 0 squares each join batch as it comes and carries its
        # partial 4096-term segment into the next, so wherever the batch
        # cuts fall the segments, and every bit of the sum, are those of
        # one pass over the batches' concatenation, entries below the
        # middle p1 counted twice. From s = 4 on that concatenation is the
        # table, in table order. Up to s = 3 the batches come unsorted:
        # their concatenation is the table's coefficients, bit for bit, in
        # the join's pair order, the same order for every batch size.
        # Unit coefficients give near-integer squares whose sums round
        # alike in any segments; moduli in [0.2, 1] do not.
        sizes = (moments._JOIN_CHUNK, 5_000, 997)
        if chunk is not None:
            monkeypatch.setattr(moments, "_JOIN_CHUNK", chunk)
        rng = np.random.default_rng(n)
        moduli = rng.uniform(0.2, 1.0, (n + 1) // 2)
        families = {
            "constant": np.ones(n),
            "random_sign": coeffs_for("random_sign", n, s),
            "random_phase": coeffs_for("random_phase", n, s),
            "palindromic": palindromic_signs(n, s),
            "complex moduli": phased_coeffs(rng, n, "complex"),
            "palindromic moduli": np.concatenate([moduli, moduli[: n // 2][::-1]]),
        }
        for family, coeffs in families.items():
            spec = ExpSumSpec(n=n, coeffs=coeffs)
            mirrored = moments._mirror_symmetric(spec.coeffs)
            table = build_group_table(spec, s, mirrored=mirrored)
            c, m = table.coeffs, table.doubled
            assert c.size - m > moments._SUM_SEG or m > moments._SUM_SEG
            streams = []  # the weight-2 and the weight-1 entries, per batch size
            for size in sizes:
                with monkeypatch.context() as mp:
                    mp.setattr(moments, "_JOIN_CHUNK", size)
                    stream = moments._table_stream(
                        spec, s, moments.DEFAULT_TUPLE_BUDGET, mirrored, keyed=False
                    )
                    batches = list(stream)
                assert all((keys is None) == (s <= 3) for keys, *_ in batches)
                streams.append([
                    np.concatenate([b[1] for b in batches if b[3] == w] or [c[:0]]) for w in (2, 1)
                ])
            streamed = streams[0 if chunk is None else sizes.index(chunk)]
            for other in streams:
                for a, b in zip(streamed, other):
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), family
            for part, whole in zip(streamed, (c[:m], c[m:])):
                if s <= 3:
                    part, whole = np.sort(part), np.sort(whole)
                assert np.array_equal(part.view(np.uint64), whole.view(np.uint64)), family
            sums = [moments._segment_sums(np.square(np.abs(part))) for part in streamed]
            want = math.fsum(np.append(2.0 * sums[0], sums[1]))
            res = moment_exact(spec, s)
            assert res.value.hex() == want.hex(), family
            assert res.err_estimate.hex() == (moments._ROUNDOFF_K * 2.0**-53 * want).hex()
            detail = res.detail
            assert mirrored is (family in ("constant", "palindromic", "palindromic moduli"))
            assert detail["mirrored"] is mirrored
            assert detail["table_entries"] == table.n_entries
            assert detail["table_bytes"] == table.keys.nbytes + table.coeffs.nbytes
            assert detail["join_pairs"] == table.join_pairs
            # The most entries held at once: one batch, of about _JOIN_CHUNK
            # pairs or one p1 value's; s = 1 has no join and one batch.
            if s == 1:
                assert detail["held_entries"] == table.n_entries
            else:
                most = moments._JOIN_CHUNK + int(moments._multiset_counts(n, s).max())
                assert detail["held_entries"] <= min(most, table.n_entries)
                assert detail["held_entries"] < table.n_entries or chunk != 997

    @pytest.mark.parametrize(
        "n, family, value, err",
        [
            (48, "constant", 2544271.7329733837, 1.9384255539507705e-08),
            (48, "random_phase", 2490266.4008500464, 1.5963070287762392e-08),
            (96, "constant", 21005191.87964426, 2.1892472143721596e-07),
            (96, "random_phase", 20564393.960460633, 1.6887075658459484e-07),
        ],
        ids=["48-constant", "48-random_phase", "96-constant", "96-random_phase"],
    )
    def test_s4_values_are_pinned(self, n, family, value, err):
        # Figures of the window spectrum. A long-double oracle puts every
        # value within 1.2e-9 (6e-17 relative) of the exact moment of the
        # table's coefficients.
        spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, 7), sigma=1.0, h0=0.3)
        res = moment_exact(spec, 4)
        assert (res.value, res.err_estimate) == (value, err)

    def test_values_do_not_depend_on_the_core_count(self, monkeypatch, child_env):
        # The shared pool has one worker per available core. A child pinned
        # to one core before it imports momentcurve runs a one-worker pool;
        # its values and bounds must be this process's, bit for bit, and so
        # must the sigma = 0 stream's coefficients, in their order. Small
        # join batches and pair blocks put several tasks in flight here.
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available")
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2 or moments._WORKERS < 2:
            pytest.skip("only one CPU is available")
        chunks = {"_JOIN_CHUNK": 5_000, "_PAIR_CHUNK": 4_096}
        setup = (
            "import hashlib\n"
            "import numpy as np\n"
            "from momentcurve import ExpSumSpec, coeffs_for, moment_exact, moments\n"
        )
        compute = (
            "rng = np.random.default_rng(60)\n"
            "moduli = rng.uniform(0.2, 1.0, 60) * np.exp(2j * np.pi * rng.uniform(0, 1, 60))\n"
            "phases = coeffs_for('random_phase', 24, 5)\n"
            "results = [\n"
            "    moment_exact(ExpSumSpec(n=60, coeffs=moduli), 3),\n"
            "    moment_exact(ExpSumSpec(n=24, coeffs=phases, sigma=1.0, h0=0.3), 4),\n"
            "]\n"
            "got = [moments._WORKERS] + [[r.value.hex(), r.err_estimate.hex()] for r in results]\n"
            "spec = ExpSumSpec(n=60, coeffs=moduli)\n"
            "stream = moments._table_stream(spec, 3, 10**6, mirrored=False, keyed=False)\n"
            "got.append(hashlib.sha256(b''.join(c.tobytes() for _, c, _, _ in stream)).hexdigest())\n"
        )
        for name, value in chunks.items():
            monkeypatch.setattr(moments, name, value)
        here = {}
        exec(setup + compute, here)
        pinned = (
            f"import json, os\nos.sched_setaffinity(0, {{{min(cpus)}}})\n{setup}"
            + "".join(f"moments.{name} = {value}\n" for name, value in chunks.items())
            + f"{compute}print(json.dumps(got))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", pinned],
            env=child_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child[0] == 1 and child[1:] == here["got"][1:]

    def test_sigma0_memory_stays_below_the_table(self, child_env):
        # Peak RSS, not tracemalloc. sigma = 0 reduces each join batch as it
        # comes and holds no table, so RSS rises by well under the table's
        # bytes: 18.5-19.5 MB against an 84 MB table on a 2-core Linux VM,
        # with batches that form no key rows and are not sorted (24.7-25.4 MB
        # when every batch was sorted). Building the table first rose about
        # 103 MB there; unpacking its key into p1, p2, p3 and copying |c|
        # for the whole table, 240 MB.
        code = (
            "import json, resource\n"
            "from momentcurve import ExpSumSpec, coeffs_for, moment_exact\n"
            "spec = ExpSumSpec(n=320, coeffs=coeffs_for('random_sign', 320, 1))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "res = moment_exact(spec, 3)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(json.dumps({'rise': after - before, 'table': res.detail['table_bytes']}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
        assert got["rise"] * unit <= got["table"] / 2


def palindromic_signs(n, seed):
    """+-1 coefficients with a_k = a_{n+1-k}, not all equal for n >= 3."""
    half = np.random.default_rng(seed).choice([-1.0, 1.0], (n + 1) // 2)
    half[0] = -half[-1]
    return np.concatenate([half, half[: n // 2][::-1]])


def fsum_full_square(table, sigma, h0):
    """The full g x g square of every group of an unhalved table, each real
    term added by math.fsum: only the terms' own products round."""
    terms = []
    for sl in group_slices(table):
        p3 = table.power_sum(3, sl)
        d = p3[:, None] - p3[None, :]
        w = interval_kernel(d.ravel(), sigma, h0, table.n)
        c = table.coeffs[sl].astype(complex)
        terms.append((np.repeat(c, c.size) * np.conj(np.tile(c, c.size)) * w).real)
    return math.fsum(np.concatenate(terms))


class TestMirror:
    # Real palindromic coefficients build only the groups with
    # 2 p1 <= s(N+1) and weigh those below the middle by 2. s(N+1) is odd
    # only for odd s and even N; then there is no middle group.

    @pytest.mark.parametrize("h0", [0.0, 0.3])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("family", ["constant", "palindromic"])
    @pytest.mark.parametrize("s, ns", [(2, (6, 7)), (3, (6, 7)), (4, (4, 5))])
    def test_matches_brute(self, s, ns, family, sigma, h0):
        for n in ns:
            coeffs = np.ones(n) if family == "constant" else palindromic_signs(n, n + s)
            spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0)
            res = moment_exact(spec, s)
            want = moment_brute(spec, s).value
            assert res.detail["mirrored"] is True
            if sigma == 0.0:
                assert res.value == want == int(want)
            else:
                assert abs(res.value - want) <= res.err_estimate, (n, res.value, want)

    @pytest.mark.parametrize(
        "n, s, sigma, h0",
        [(20, 3, 1.0, 0.3), (21, 3, 1.0, 0.0), (12, 4, 1.5, 0.3), (24, 4, 1.0, 0.3),
         (30, 2, 2.0, 0.3), (16, 3, 0.0, 0.0)],
    )
    @pytest.mark.parametrize("family", ["constant", "palindromic"])
    def test_matches_the_unhalved_table(self, n, s, sigma, h0, family):
        coeffs = np.ones(n) if family == "constant" else palindromic_signs(n, n)
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0)
        full = build_group_table(spec, s)
        half = build_group_table(spec, s, mirrored=True)
        assert half.mirrored and not full.mirrored and half.n_tuples == full.n_tuples == n**s
        # The half table is the full table's head, bit for bit ...
        twice_p1 = 2 * full.p1
        middle = s * (n + 1)
        head = twice_p1 <= middle
        assert half.n_entries == int(head.sum()) < full.n_entries
        assert np.array_equal(half.keys, full.keys[:, head])
        assert np.array_equal(half.coeffs.view(np.uint64), full.coeffs[head].view(np.uint64))
        # ... and the tail is the mirror image of the part below the middle.
        p1, p2, p3 = (full.power_sum(e, ~head) for e in (1, 2, 3))
        m = n + 1
        image = np.stack([
            s * m - p1, s * m**2 - 2 * m * p1 + p2, s * m**3 - 3 * m**2 * p1 + 3 * m * p2 - p3
        ])
        order = np.lexsort(image[::-1])
        below = twice_p1 < middle
        assert np.array_equal(image[:, order], np.stack([full.p1, full.p2, full.power_sum(3)])[:, below])
        assert np.array_equal(full.coeffs[~head][order], full.coeffs[below])
        res = moment_exact(spec, s)
        assert res.detail["table_entries"] == half.n_entries
        assert abs(res.value - fsum_full_square(full, sigma, h0)) <= res.err_estimate

    @pytest.mark.parametrize("packing", ["packed", "three rows"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize(
        "n, s, middle", [(6, 3, False), (7, 3, True), (1, 3, True), (1, 2, True)]
    )
    def test_with_and_without_a_middle_group(self, monkeypatch, n, s, middle, sigma, packing):
        if packing == "three rows":
            monkeypatch.setattr(moments, "_packing_multipliers", lambda n, s: None)
        spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma, h0=0.3)
        table = build_group_table(spec, s, mirrored=True)
        assert (table.multipliers is None) == (packing == "three rows")
        doubled = table.doubled
        assert (doubled < table.n_entries) == middle
        assert np.all(2 * table.p1[:doubled] < s * (n + 1))
        assert np.all(2 * table.p1[doubled:] == s * (n + 1))
        res = moment_exact(spec, s)
        assert res.detail["mirrored"] is True
        if n == 1:
            assert table.n_entries == 1 and doubled == 0
            assert res.value == 1.0
        else:
            assert abs(res.value - moment_brute(spec, s).value) <= res.err_estimate

    @pytest.mark.parametrize("join", ["multiset", "ordered"])
    @pytest.mark.parametrize("chunk", [None, 997])
    @pytest.mark.parametrize(
        "s, ns",
        [(1, (9, 10)), (2, (80, 81)), (3, (30, 31)), (4, (14, 15)), (5, (12, 13)), (6, (10, 11))],
    )
    def test_batches_carry_their_mirror_weight(self, monkeypatch, s, ns, chunk, join):
        # A mirrored stream is weight-2 batches, then one weight-1 batch that
        # holds exactly the middle p1, 2 p1 = s(N+1), when s(N+1) is even.
        # Every batch of an unmirrored stream has weight 1.
        if chunk is not None:
            monkeypatch.setattr(moments, "_JOIN_CHUNK", chunk)
        if join == "ordered":
            monkeypatch.setattr(moments, "_join", ordered_join)
        for n in ns:
            middle = s * (n + 1)
            full = build_group_table(spec_ones(n), s)
            assert full.doubled == 0
            stream = moments._table_stream(spec_ones(n), s, n**s, mirrored=False)
            assert {weight for *_, weight in stream} == {1}
            stream = moments._table_stream(spec_ones(n), s, n**s, mirrored=True)
            unit = 1 if stream.multipliers is None else stream.multipliers[0]
            batches = [(keys[0] // unit, weight) for keys, _, _, weight in stream]
            weights = [weight for _, weight in batches]
            twice = [2 * p1 for p1, _ in batches]
            if middle % 2 == 0:
                assert weights == [2] * (len(batches) - 1) + [1]
                assert np.all(twice[-1] == middle)
                twice = twice[:-1]
            else:
                assert weights == [2] * len(batches)
            assert all(np.all(t < middle) for t in twice)
            if chunk == 997 and s > 1:
                assert len(twice) > 1  # the cut falls among several weight-2 batches
            table = build_group_table(spec_ones(n), s, mirrored=True)
            assert table.doubled == int(np.sum(2 * table.p1 < middle))
            assert table.n_entries - table.doubled == int(np.sum(2 * table.p1 == middle))

    def test_empty_sums_are_zero(self):
        # A table without a middle group sums an empty tail.
        for empty in (np.empty(0), np.empty(0, dtype=complex)):
            assert moments._segment_sums(np.abs(empty)).tolist() == [0.0]
            assert moments._weighted_energy([(empty, 2), (empty, 1)]).tolist() == [0.0, 0.0]
        assert moments._weighted_energy([]).tolist() == [0.0, 0.0]

    def test_s1_keeps_the_lower_frequencies(self):
        for n in (5, 6):
            table = build_group_table(spec_ones(n), 1, mirrored=True)
            assert table.p1.tolist() == list(range(1, (n + 1) // 2 + 1))
            assert moment_exact(spec_ones(n, sigma=0.7, h0=0.2), 1).value == pytest.approx(
                n**-0.7 * n, rel=1e-15
            )

    @pytest.mark.parametrize("kind", ["complex palindromic", "real not palindromic"])
    def test_other_coefficients_take_the_full_path(self, kind):
        n, s = 6, 3
        if kind == "real not palindromic":
            coeffs = palindromic_signs(n, 2)
            coeffs[0] = -coeffs[-1]
        else:
            half = np.exp(2j * math.pi * np.random.default_rng(9).uniform(0, 1, n // 2))
            coeffs = np.concatenate([half, half[::-1]])
            assert np.array_equal(coeffs, coeffs[::-1]) and np.any(coeffs.imag != 0.0)
        assert not moments._mirror_symmetric(ExpSumSpec(n=n, coeffs=coeffs).coeffs)
        for sigma in (0.0, 1.0):
            spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=0.3)
            res = moment_exact(spec, s)
            assert res.detail["mirrored"] is False
            assert res.detail["table_entries"] == build_group_table(spec, s).n_entries
            assert res.value == pytest.approx(moment_brute(spec, s).value, rel=1e-12)
            with pytest.raises(SpecValidationError):
                build_group_table(spec, s, mirrored=True)


def mpmath_brute(spec, s):
    """The moment of spec's float coefficients at 50 digits, from every
    same-(p1, p2) pair of s-tuples, the kernel in closed form."""
    n = spec.n
    with mpmath.workdps(50):
        a = [mpmath.mpc(z) for z in spec.coeffs.tolist()]
        lo = mpmath.mpf(spec.h0)
        length = mpmath.mpf(float(n) ** -spec.sigma)
        groups = {}
        for t in itertools.product(range(1, n + 1), repeat=s):
            c = mpmath.mpf(1)
            for k in t:
                c *= a[k - 1]
            key = (sum(t), sum(k * k for k in t))
            groups.setdefault(key, []).append((sum(k**3 for k in t), c))
        total = mpmath.mpf(0)
        for members in groups.values():
            for pi, ci in members:
                for pj, cj in members:
                    d = pi - pj
                    if d == 0:
                        kernel = length
                    else:
                        kernel = (mpmath.expjpi(2 * d * (lo + length)) - mpmath.expjpi(2 * d * lo)) / (
                            2j * mpmath.pi * d
                        )
                    total += (ci * mpmath.conj(cj) * kernel).real
        return total


class TestBruteAgreement:
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("s", [2, 3])
    def test_exact_matches_brute(self, s, sigma):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            coeffs = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
            spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=float(rng.uniform(0, 1)))
            a = moment_exact(spec, s).value
            b = moment_brute(spec, s).value
            assert a == pytest.approx(b, rel=1e-10)

    def test_tiny_imaginary_parts_are_kept(self):
        # Coefficients of modulus 1e-9 have imaginary parts below any absolute
        # closeness tolerance; dropping them changes the moment completely.
        rng = np.random.default_rng(3)
        coeffs = 1e-9 * np.exp(2j * math.pi * rng.uniform(0, 1, 12))
        spec = ExpSumSpec(n=12, coeffs=coeffs, sigma=1.0, h0=0.3)
        want = moment_brute(spec, 2).value
        assert moment_exact(spec, 2).value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_complex_coefficients(self):
        rng = np.random.default_rng(6)
        coeffs = np.exp(2j * math.pi * rng.uniform(0, 1, 5))
        spec = ExpSumSpec(n=5, coeffs=coeffs, sigma=1.0, h0=0.3)
        assert moment_exact(spec, 2).value == pytest.approx(
            moment_brute(spec, 2).value, rel=1e-11
        )

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            moment_brute(spec_ones(30), 4, budget_pairs=10**6)

    def test_brute_forms_only_matched_pairs(self):
        # Kernel values and coefficient products are formed for the pairs
        # with equal (p1, p2) only; forming them for all 4096^2 pairs and
        # masking traced about 1 GiB here.
        spec = ExpSumSpec(n=8, coeffs=coeffs_for("random_phase", 8, 1), sigma=1.0, h0=0.3)
        tracemalloc.start()
        try:
            moment_brute(spec, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    def test_brute_chunks_do_not_grow_with_the_budget(self):
        spec = ExpSumSpec(n=9, coeffs=coeffs_for("random_phase", 9, 2), sigma=1.0, h0=0.3)
        peaks = []
        for budget in (10**8, 10**12):
            tracemalloc.start()
            try:
                moment_brute(spec, 4, budget_pairs=budget)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.1 * min(peaks)

    def test_brute_within_err_estimate_of_exact_at_n10_s4(self):
        spec = ExpSumSpec(n=10, coeffs=coeffs_for("random_phase", 10, 3), sigma=1.0, h0=0.3)
        exact = moment_exact(spec, 4)
        assert abs(moment_brute(spec, 4).value - exact.value) <= exact.err_estimate

    def test_brute_counts_matched_pairs(self):
        # At s = 2, (p1, p2) fixes the multiset {k1, k2}: 2 n^2 - n pairs.
        for n in (1, 5, 12):
            detail = moment_brute(spec_ones(n), 2).detail
            assert detail == {"matched_pairs": 2 * n * n - n, "abs_imag": 0.0}
        # At s = 4, each (p1, p2) group's tuple count squared, from the table.
        table = build_group_table(spec_ones(7), 4)
        counts = np.add.reduceat(np.rint(table.coeffs.real).astype(np.int64), table.group_starts())
        assert moment_brute(spec_ones(7), 4).detail["matched_pairs"] == int(np.sum(counts**2))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        s=st.sampled_from([1, 2, 3]),
        sigma=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0)),
        h0=st.floats(min_value=-1.0, max_value=1.0),
        family=st.sampled_from(["real", "complex", "palindromic"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_brute_err_estimate_bounds_mpmath(self, n, s, sigma, h0, family, seed):
        # err_estimate bounds the brute sum against the exact moment of the
        # float coefficients, every tuple's product taken at 50 digits.
        coeffs = oracle_coeffs(np.random.default_rng(seed), n, family)
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0)
        res = moment_brute(spec, s)
        want = mpmath_brute(spec, s)
        assert abs(mpmath.mpf(res.value) - want) <= res.err_estimate
        assert res.err_estimate <= 1e-11 * max(abs(res.value), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
        sigma=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_exact_matches_brute_hypothesis(self, n, seed, sigma):
        spec = ExpSumSpec(n=n, coeffs=coeffs_for("random_sign", n, seed), sigma=sigma, h0=0.1)
        assert moment_exact(spec, 2).value == pytest.approx(
            moment_brute(spec, 2).value, rel=1e-10
        )


class TestVinogradovCount:
    def test_closed_form_small(self):
        for n in (1, 2, 3, 5, 10, 50, 1100):
            assert vinogradov_count(n, 2) == 2 * n * n - n

    def test_closed_forms_at_s_1_and_3(self):
        # J_1 = N and J_3 = 6N^3 - 9N^2 + 4N (Newton's identities: up to
        # s = 3 every solution is a permutation pair). s(N+1) takes both
        # parities at s = 3, so the mirrored stream runs with and without
        # its middle batch.
        for n in [*range(1, 41), 383, 384]:
            assert vinogradov_count(n, 1) == n
            assert vinogradov_count(n, 3) == 6 * n**3 - 9 * n**2 + 4 * n, n

    @pytest.mark.parametrize("n, s", [(20, 4), (10, 6)])
    def test_matches_the_ordered_join(self, monkeypatch, n, s):
        # Counts are integers, so the multiset join must give exactly the
        # count of the ordered one.
        got = vinogradov_count(n, s)
        monkeypatch.setattr(moments, "_join", ordered_join)
        assert got == vinogradov_count(n, s)

    @pytest.mark.parametrize("s", [7, 12, 20, 27])
    def test_two_frequencies_count_central_binomials(self, s):
        # p1 fixes a multiset of 1s and 2s, so the count is sum_k C(s, k)^2
        # = C(2s, s); the left half holds up to 25 members, whose
        # multinomials must stay exact integers.
        assert vinogradov_count(2, s) == math.comb(2 * s, s)

    @pytest.mark.parametrize("s", [10, 17])
    def test_three_frequencies_count_squared_trinomials(self, s):
        # (p1, p2) fix a multiset of 1s, 2s and 3s (a Vandermonde system).
        f = math.factorial
        want = sum(
            (f(s) // (f(a) * f(b) * f(s - a - b))) ** 2
            for a in range(s + 1)
            for b in range(s + 1 - a)
        )
        assert vinogradov_count(3, s) == want

    @pytest.mark.parametrize("n, s", [(2, 25), (2, 26), (3, 25), (3, 30)])
    def test_table_multinomials_stay_exact_past_18_factorial(self, n, s):
        # Left halves of 23 to 28 members, where size!/prod(m!) in float64
        # rounds and vinogradov_count's rint would hide it. The tables have
        # C(n+s-1, s) entries, small even where the nominal n^s is raised.
        table = build_group_table(spec_ones(n), s, budget_tuples=n**s)
        f = math.factorial
        want = sorted(
            f(s) // math.prod(f(m.count(k)) for k in range(n))
            for m in itertools.combinations_with_replacement(range(n), s)
        )
        assert np.array_equal(np.sort(table.coeffs), np.array(want, dtype=float))

    @pytest.mark.parametrize("s, n", [(1, 50), (2, 150), (3, 40), (4, 20), (5, 12)])
    def test_streamed_count_matches_the_table(self, monkeypatch, s, n):
        # The count sums each mirrored batch as it comes, cut every 997
        # pairs; it must equal the count over the whole built table.
        monkeypatch.setattr(moments, "_JOIN_CHUNK", 997)
        full = build_group_table(spec_ones(n), s)
        counts = np.rint(full.coeffs).astype(np.int64)
        assert vinogradov_count(n, s) == int(np.sum(counts * counts))

    @pytest.mark.parametrize("n, s", [(6, 3), (7, 3), (9, 4), (12, 5), (1, 3)])
    def test_half_table_matches_the_full_count(self, n, s):
        # Weight 2 below the middle p1 and 1 at it, in int64.
        full = build_group_table(spec_ones(n), s)
        counts = np.rint(full.coeffs).astype(np.int64)
        assert vinogradov_count(n, s) == int(np.sum(counts * counts))

    def test_matches_sigma0_moment(self):
        # The count equals the sigma=0 moment with constant coefficients.
        for n in (3, 6, 9):
            for s in (2, 3):
                assert vinogradov_count(n, s) == pytest.approx(
                    moment_exact(spec_ones(n), s).value
                )

    def test_exhaustive_n3_s2(self):
        # Count quadruples (k1,k2,k3,k4) in [1,3]^4 with equal power sums.
        hits = 0
        rng = range(1, 4)
        for k1 in rng:
            for k2 in rng:
                for k3 in rng:
                    for k4 in rng:
                        if (
                            k1 + k2 == k3 + k4
                            and k1**2 + k2**2 == k3**2 + k4**2
                            and k1**3 + k2**3 == k3**3 + k4**3
                        ):
                            hits += 1
        assert vinogradov_count(3, 2) == hits == 15

    def test_validation(self):
        with pytest.raises(SpecValidationError):
            vinogradov_count(0, 2)
        with pytest.raises(SpecValidationError):
            vinogradov_count(4, 0)


def newton_moment(coeffs, s, sigma=0.0):
    """The 2s-th moment in closed form, exact for the float coefficients.

    With w_k = |a_k|^2, P_j = sum_k w_k^j and L = N^-sigma (the float):
    s = 1 gives L P1 at every sigma; s = 2 gives L (2 P1^2 - P2) at every
    sigma and h0, as each (p1, p2) group at s = 2 is one multiset {i, j},
    one table entry of coefficient 2 a_i a_j (a_i^2 when i = j); s = 3 gives
    6 P1^3 - 9 P1 P2 + 4 P3 at sigma = 0, where up to s = 3 (p1, p2, p3) fix
    the multiset (Newton's identities), so only a tuple's own permutations
    meet it. A Fraction.
    """
    w = [Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in np.asarray(coeffs, complex).tolist()]
    p1, p2, p3 = (sum(x**j for x in w) for j in (1, 2, 3))
    if s == 3:
        assert sigma == 0.0
        return 6 * p1**3 - 9 * p1 * p2 + 4 * p3
    length = Fraction(float(len(w)) ** -sigma)
    return length * (p1 if s == 1 else 2 * p1**2 - p2)


def diagonal_count(n, s):
    """D_s = s!^2 [t^s] prod_k sum_m t^m / m!^2 for unit weights: the pairs
    of s-tuples from 1..n that are permutations of each other."""
    series = [Fraction(1, math.factorial(m) ** 2) for m in range(s + 1)]
    poly = [Fraction(1)] + [Fraction(0)] * s
    for _ in range(n):
        poly = [sum(poly[i] * series[m - i] for i in range(m + 1)) for m in range(s + 1)]
    return int(math.factorial(s) ** 2 * poly[s])


class TestClosedForms:
    # Oracles independent of the engine's tables: Newton's identities for
    # s <= 3 and the diagonal count D_s. N reaches 200 at s = 3 and 2000 at
    # s = 2, where one table has about 1.3M and 2M entries; at the default
    # budget's own limits (584 and 14142) one table takes 0.27-2.4 GB, so
    # the benchmark's N = 384 is pinned on its own below.

    @settings(max_examples=30, deadline=None)
    @given(
        sn=st.sampled_from([1, 2, 3]).flatmap(
            lambda s: st.tuples(st.just(s), st.integers(1, {1: 20_000, 2: 2000, 3: 200}[s]))
        ),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        h0=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        family=st.sampled_from(["constant", "random_sign", "random_phase", "moduli"]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_exact_matches_newton(self, sn, sigma, h0, family, seed):
        s, n = sn
        if s == 3:
            sigma = 0.0
        if family == "moduli":  # |a| in [0.5, 1], any phase
            coeffs = phased_coeffs(np.random.default_rng(seed), n, "complex")
            coeffs = 0.5 * coeffs / np.abs(coeffs) + 0.5 * coeffs
        else:
            coeffs = coeffs_for(family, n, seed)
        res = moment_exact(ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0), s)
        assert abs(Fraction(res.value) - newton_moment(coeffs, s, sigma)) <= Fraction(res.err_estimate)
        if family == "constant":
            assert vinogradov_count(n, s) == newton_moment(coeffs, s)

    def test_j3_at_384_is_pinned(self):
        n = 384
        assert vinogradov_count(n, 3) == 6 * n**3 - 9 * n**2 + 4 * n == 338_413_056

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 32])
    def test_diagonal_count(self, n):
        # Up to s = 3 every solution is a permutation pair; from s = 4 on the
        # Prouhet-Tarry-Escott coincidences such as {1, 5, 8, 12} and
        # {2, 3, 10, 11} add more.
        for s in (1, 2, 3):
            assert vinogradov_count(n, s) == diagonal_count(n, s)
        excess = vinogradov_count(n, 4) - diagonal_count(n, 4)
        assert excess == {1: 0, 2: 0, 7: 0, 16: 16_992, 32: 375_264}[n]
