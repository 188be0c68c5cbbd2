"""Unit tests for the exact moment engine and its brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcurve import (
    BudgetError,
    ExpSumSpec,
    SpecValidationError,
    build_group_table,
    interval_kernel,
    moment_brute,
    moment_exact,
    random_sign_coeffs,
    vinogradov_count,
)
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

    def test_vectorized(self):
        d = np.array([-2, 0, 1, 9])
        vals = interval_kernel(d, 1.0, 0.1, 4)
        assert vals.shape == (4,)
        for i, di in enumerate(d):
            assert vals[i] == pytest.approx(complex(interval_kernel(int(di), 1.0, 0.1, 4)))


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
            spec = ExpSumSpec(n=n, coeffs=random_sign_coeffs(n, seed), sigma=2.0)
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
        assert res.wall_time >= 0.0


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

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
        sigma=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_exact_matches_brute_hypothesis(self, n, seed, sigma):
        spec = ExpSumSpec(n=n, coeffs=random_sign_coeffs(n, seed), sigma=sigma, h0=0.1)
        assert moment_exact(spec, 2).value == pytest.approx(
            moment_brute(spec, 2).value, rel=1e-10
        )


class TestVinogradovCount:
    def test_closed_form_small(self):
        for n in (1, 2, 3, 5, 10, 50, 1100):
            assert vinogradov_count(n, 2) == 2 * n * n - n

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
