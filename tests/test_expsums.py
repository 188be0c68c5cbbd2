"""Unit tests for the exponential sum core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcurve import (
    ExpSumSpec,
    SpecValidationError,
    eval_sum,
    phase_row,
)


def spec_ones(n, sigma=0.0, h0=0.0):
    return ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma, h0=h0)


class TestSpecValidation:
    def test_basic_fields(self):
        spec = spec_ones(5, sigma=1.0, h0=0.25)
        assert spec.h_length == pytest.approx(0.2)

    def test_h_length_is_exact_power(self):
        spec = spec_ones(7, sigma=2.0)
        assert spec.h_length == 7.0**-2.0

    def test_rejects_bad_n(self):
        with pytest.raises(SpecValidationError):
            ExpSumSpec(n=0, coeffs=np.ones(0))

    def test_rejects_wrong_coeff_shape(self):
        with pytest.raises(SpecValidationError):
            ExpSumSpec(n=3, coeffs=np.ones(4))

    def test_rejects_large_modulus(self):
        with pytest.raises(SpecValidationError):
            ExpSumSpec(n=2, coeffs=np.array([1.0, 1.5]))

    def test_rejects_sigma_out_of_range(self):
        for sigma in (-0.1, 2.1):
            with pytest.raises(SpecValidationError):
                spec_ones(3, sigma=sigma)

    def test_h0_reduced_mod_one(self):
        # fmod is exact: h0 in [0, 1) is kept bit for bit.
        for h0 in (0.0, 0.25, 0.37, 1.0 - 2.0**-53):
            assert spec_ones(2, h0=h0).h0 == h0
        assert spec_ones(2, h0=3.25).h0 == 0.25
        assert spec_ones(2, h0=-2.75).h0 == -0.75
        assert spec_ones(2, h0=1e308).h0 == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(SpecValidationError):
            ExpSumSpec(n=2, coeffs=np.array([1.0, np.nan]))
        with pytest.raises(SpecValidationError):
            spec_ones(2, h0=math.inf)
        with pytest.raises(SpecValidationError):
            eval_sum(spec_ones(2), (0.0, math.nan, 0.0))


class TestEvalSum:
    def test_mass_at_origin(self):
        # S(0) = sum a_k with no cancellation.
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(-1, 1, 9)
        spec = ExpSumSpec(n=9, coeffs=coeffs)
        assert eval_sum(spec, (0.0, 0.0, 0.0)) == pytest.approx(coeffs.sum())

    def test_half_phase_alternating_cancellation(self):
        # At x = (1/2, 0, 0) terms alternate, so N = 4 ones sum to 0.
        val = eval_sum(spec_ones(4), (0.5, 0.0, 0.0))
        assert abs(val) < 1e-12

    def test_single_frequency_is_pure_phase(self):
        spec = spec_ones(1)
        x = (0.3, 0.1, 0.7)
        expect = np.exp(2j * math.pi * (0.3 + 0.1 + 0.7))
        assert eval_sum(spec, x) == pytest.approx(expect)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-1, 1, 6)
        spec = ExpSumSpec(n=6, coeffs=coeffs)
        x = np.array([0.12, 0.34, 0.56])
        assert eval_sum(spec, -x) == pytest.approx(np.conj(eval_sum(spec, x)))

    def test_integer_periodicity(self):
        spec = spec_ones(5)
        x = np.array([0.21, 0.43, 0.65])
        assert eval_sum(spec, x + 1.0) == pytest.approx(eval_sum(spec, x))

    def test_sequence_and_array_agree(self):
        # One point, as a tuple, a list or a 1-d array, gives the same scalar.
        spec = spec_ones(3)
        value = eval_sum(spec, (0.1, 0.2, 0.3))
        assert isinstance(value, complex)
        assert eval_sum(spec, [0.1, 0.2, 0.3]) == value
        assert eval_sum(spec, np.array([0.1, 0.2, 0.3])) == value

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-1, 1, 5)
        spec = ExpSumSpec(n=5, coeffs=coeffs)
        pts = rng.uniform(0, 1, (11, 3))
        batch = eval_sum(spec, pts)
        single = np.array([eval_sum(spec, p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-13)

    def test_rejects_bad_points(self):
        with pytest.raises(SpecValidationError):
            eval_sum(spec_ones(2), (0.0, 0.0))

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(min_value=-1.0, max_value=1.0),
        x1=st.floats(min_value=0.0, max_value=1.0),
        x2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_coefficient_scaling(self, lam, x1, x2):
        # S is linear in the coefficient vector.
        base = np.array([1.0, -1.0, 0.5, 0.25])
        spec = ExpSumSpec(n=4, coeffs=base)
        scaled = ExpSumSpec(n=4, coeffs=lam * base)
        x = (x1, x2, 0.0)
        assert eval_sum(scaled, x) == pytest.approx(lam * eval_sum(spec, x), abs=1e-12)


class TestGrids:
    def test_phase_row_matches_direct_exponentials(self):
        nu = np.array([1.0, 4.0, 9.0])
        row = phase_row(nu, start=0.3, step=0.01, count=200)
        j = np.arange(200)
        direct = np.exp(2j * math.pi * nu[:, None] * (0.3 + 0.01 * j))
        np.testing.assert_allclose(row, direct, atol=1e-11)

    def test_phase_row_stays_unit_modulus_over_long_runs(self):
        # Every entry is divided by its modulus, so 10^5 steps keep |.| = 1
        # to a few ulp. Renormalizing every 4096 steps let it drift to 1.4e-13.
        row = phase_row(np.array([123.0]), start=0.0, step=1e-4, count=100000)
        drift = np.abs(np.abs(row) - 1.0).max()
        assert drift < 1e-15
