"""Unit tests for the quadrature oracle and local cube moments."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcurve import (
    BudgetError,
    ExpSumSpec,
    SpecValidationError,
    box_power_integral,
    coeffs_for,
    eval_sum,
    interference_lower_bound,
    local_moment_quadrature,
    moment_exact,
    moment_quadrature,
    periodicity_identity_check,
    separation_floor,
    standard_frequency_set,
)
from momentcurve import quadrature
from momentcurve.expsums import phase_row
from momentcurve.quadrature import DEFAULT_CELL_BUDGET, grid_counts


def spec_ones(n, sigma=0.0, h0=0.0):
    return ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma, h0=h0)


class TestGridCounts:
    def test_rule_and_floor(self):
        # m_i = max(floor, ceil(4 * N^i * side_i)) with N = 5, sides (1, 1, 1/5).
        assert grid_counts(4.0, (5, 25, 125), (1.0, 1.0, 0.2), 10**6) == (20, 100, 100)
        assert grid_counts(4.0, (0.5, 1.0, 2.0), (1.0, 1.0, 1.0), 10**6, floor=8) == (8, 8, 8)

    @pytest.mark.parametrize("oversample", [0.5, math.nan, math.inf])
    def test_rejects_oversample_out_of_range(self, oversample):
        with pytest.raises(SpecValidationError):
            grid_counts(oversample, (1, 1, 1), (1.0, 1.0, 1.0), 10**6)

    def test_budget_checked_before_rounding(self):
        # 1e308 * 4 overflows to inf, which must be a budget failure, not an
        # OverflowError from math.ceil.
        with pytest.raises(BudgetError):
            grid_counts(1e308, (4, 16, 64), (1.0, 1.0, 1.0), DEFAULT_CELL_BUDGET)
        with pytest.raises(BudgetError):
            grid_counts(4.0, (100, 100, 100), (1.0, 1.0, 1.0), 10**6)


class TestBoxPowerIntegral:
    def test_matches_dense_grid_mean(self):
        # Midpoint rule against eval_sum at explicitly computed cell centres.
        rng = np.random.default_rng(3)
        n = 4
        coeffs = rng.uniform(-1, 1, n)
        spec = ExpSumSpec(n=n, coeffs=coeffs)
        corner, sides, counts = (0.1, 0.0, 0.2), (0.5, 0.25, 0.125), (6, 7, 8)
        axes = [c + side / m * (np.arange(m) + 0.5)
                for c, side, m in zip(corner, sides, counts)]
        centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        want = float(np.mean(np.abs(eval_sum(spec, centres)) ** 4)) * np.prod(sides)
        xi = np.arange(1, n + 1, dtype=float)
        got = box_power_integral(xi, coeffs, 4.0, corner, sides, counts)
        assert got == pytest.approx(want, rel=1e-12)

    def test_streaming_slabs_match_single_shot(self):
        # Force multiple x3 slabs by using a tall grid; value must not change.
        n = 3
        coeffs = np.ones(n)
        xi = np.arange(1, n + 1, dtype=float)
        a = box_power_integral(xi, coeffs, 2.0, (0, 0, 0), (1, 1, 1), (4, 4, 4096))
        b = box_power_integral(xi, coeffs, 2.0, (0, 0, 0), (1, 1, 1), (4, 4, 64))
        assert a == pytest.approx(b, rel=1e-10)

    def test_budget(self):
        xi = np.array([1.0])
        with pytest.raises(BudgetError):
            box_power_integral(xi, np.ones(1), 2.0, (0, 0, 0), (1, 1, 1),
                               (1024, 1024, 1024), cell_budget=10**6)

    def test_grid_count_validation(self):
        for counts in ((0, 4, 4), (4, -1, 4)):
            with pytest.raises(SpecValidationError):
                box_power_integral(np.array([1.0, 2.0]), np.ones(2), 2.0, (0, 0, 0),
                                   (1, 1, 1), counts)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(SpecValidationError):
            box_power_integral(np.array([1.0]), np.ones(1), 0.0, (0, 0, 0),
                               (1, 1, 1), (2, 2, 2))

    @pytest.mark.parametrize(
        ("p", "corner", "sides"),
        [
            (math.nan, (0, 0, 0), (1, 1, 1)),
            (math.inf, (0, 0, 0), (1, 1, 1)),
            (-2.0, (0, 0, 0), (1, 1, 1)),
            (4.0, (0, math.nan, 0), (1, 1, 1)),
            (4.0, (math.inf, 0, 0), (1, 1, 1)),
            (4.0, (0, 0, 0), (1, 1, -1)),
            (4.0, (0, 0, 0), (1, 0, 1)),
            (4.0, (0, 0, 0), (math.inf, 1, 1)),
            (4.0, (0, 0, 0), (1, 1, math.nan)),
            (4.0, (0, 0), (1, 1, 1)),
            (4.0, (0, 0, 0), (1, 1, 1, 1)),
        ],
        ids=["p_nan", "p_inf", "p_negative", "corner_nan", "corner_inf",
             "side_negative", "side_zero", "side_inf", "side_nan",
             "corner_2d", "sides_4d"],
    )
    def test_rejects_nonfinite_or_degenerate_box(self, p, corner, sides):
        # A negative side used to integrate |S|^4 to -6.0; nan p gave nan.
        with pytest.raises(SpecValidationError):
            box_power_integral(np.array([1.0, 2.0]), np.ones(2), p, corner, sides, (2, 2, 2))

    @staticmethod
    def _dense_reference(xi, coeffs, p, corner, sides, counts):
        # One GEMM over the whole grid and one np.sum: no tiles, no fsum.
        steps = [side / m for side, m in zip(sides, counts)]
        starts = [c + st / 2 for c, st in zip(corner, steps)]
        u = coeffs[:, None] * phase_row(xi, starts[0], steps[0], counts[0])
        v = phase_row(xi**2, starts[1], steps[1], counts[1])
        w = phase_row(xi**3, starts[2], steps[2], counts[2])
        planes = (u[:, :, None] * v[:, None, :]).reshape(xi.size, -1)
        return float(np.sum(np.abs(planes.T @ w) ** p)) * np.prod(sides) / np.prod(counts)

    @pytest.mark.parametrize("p", [2.0, 3.5, 6.0])
    @pytest.mark.parametrize("tile", [(1, 1), (7, 3), None, "whole"])
    def test_tiles_match_dense_reference(self, monkeypatch, p, tile):
        rng = np.random.default_rng(17)
        n = 5
        xi = np.arange(1, n + 1, dtype=float)
        coeffs = np.exp(2j * math.pi * rng.uniform(0, 1, n)) * rng.uniform(0.2, 1, n)
        corner, sides, counts = (0.1, 0.0, 0.37), (0.5, 0.25, 1.5), (6, 7, 9)
        if tile == "whole":
            tile = (counts[0] * counts[1], counts[2])
        if tile is not None:
            monkeypatch.setattr(quadrature, "_TILE_ROWS", tile[0])
            monkeypatch.setattr(quadrature, "_TILE_COLS", tile[1])
        want = self._dense_reference(xi, coeffs, p, corner, sides, counts)
        got = box_power_integral(xi, coeffs, p, corner, sides, counts)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 12.0])
    def test_even_power_step_matches_abs_power(self, p):
        rng = np.random.default_rng(5)
        tile = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        tile[0, 0] = 0.0
        got = quadrature._abs_power(tile, p, np.empty((2,) + tile.shape))
        np.testing.assert_allclose(got, np.abs(tile) ** p, rtol=1e-13, atol=0.0)

    @staticmethod
    def _chain_from_one(tile, p):
        # The chain that starts from 1 and multiplies in every set bit of p//2.
        base = tile.real**2 + tile.imag**2
        want = np.ones_like(base)
        k = int(p) // 2
        while k:
            if k & 1:
                want *= base
            k >>= 1
            if k:
                base = base * base
        return want

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0, 12.0, 14.0, 16.0, 500.0])
    def test_even_power_chain_keeps_every_bit(self, p):
        # Starting from the lowest set bit must not move a single bit.
        rng = np.random.default_rng(8)
        tile = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
        tile[0, 0] = 0.0
        with np.errstate(over="ignore"):
            want = self._chain_from_one(tile, p)
            got = quadrature._abs_power(tile, p, np.empty((2,) + tile.shape))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", [3.0, 5.0, 7.0, 9.0, 15.0, 501.0])
    def test_odd_power_is_the_chain_times_the_root(self, p):
        # r2^((p-1)/2) * sqrt(r2) with r2 = re^2 + im^2: no hypot, no pow.
        rng = np.random.default_rng(8)
        tile = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
        tile[0, 0] = 0.0
        with np.errstate(over="ignore"):
            want = self._chain_from_one(tile, p) * np.sqrt(tile.real**2 + tile.imag**2)
            got = quadrature._abs_power(tile, p, np.empty((3,) + tile.shape))
        np.testing.assert_array_equal(got, want)
        if p < 100:
            np.testing.assert_allclose(got, np.abs(tile) ** p, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_powers_below_two_keep_the_modulus(self, p):
        # re^2 + im^2 = 2e400 overflows; |z|^p does not.
        tile = np.full((2, 3), 1e200 + 1e200j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature._abs_power(tile, p, np.empty((3,) + tile.shape))
        np.testing.assert_array_equal(got, np.abs(tile) ** p)

    def test_memory_is_bounded_by_one_tile(self):
        # 16.8M cells: the old x3 slabs held 4M complex cells (64 MiB) at once.
        n = 4
        xi = np.arange(1, n + 1, dtype=float)
        counts = (64, 256, 1024)
        plane_bytes = counts[0] * counts[1] * n * 16
        tracemalloc.start()
        try:
            box_power_integral(xi, np.ones(n), 4.0, (0, 0, 0), (1, 1, 1), counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < plane_bytes + 4 * 2**20

    @pytest.mark.parametrize("p", [512.0, 515.0, 509.5])
    def test_huge_powers_are_scaled_not_overflowed(self, p):
        # |S|^p is homogeneous of degree p in the coefficients. At A = 4 the
        # grid sum cells * 4^p passes float64 and the scaled path runs; at
        # A = 1 it does not, and 4^p is added back in logs.
        xi = np.arange(1, 5, dtype=float)
        coeffs = coeffs_for("random_phase", 4, 9)
        counts = (16, 64, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = box_power_integral(xi, coeffs, p, (0, 0, 0), (1, 1, 1), counts)
            unit = box_power_integral(xi, coeffs / 4.0, p, (0, 0, 0), (1, 1, 1), counts)
        assert math.isfinite(big)
        assert math.log(big) == pytest.approx(math.log(unit) + p * math.log(4.0), rel=1e-14)

    @pytest.mark.parametrize("p", [2000.0, 1e300])
    def test_value_past_float64_is_a_validation_error(self, p):
        # Past the range the value is inf (or, when every scaled cell
        # underflows, unknown): an error, never a number.
        xi = np.arange(1, 5, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecValidationError, match="out of float64 range"):
                box_power_integral(xi, np.ones(4), p, (0, 0, 0), (1, 1, 1), (16, 64, 256))


class TestMomentQuadrature:
    def test_single_frequency_gives_window_length(self):
        # |S| = 1 everywhere, so the p-th moment is the box volume N^(-sigma).
        for sigma in (0.0, 1.0, 2.0):
            res = moment_quadrature(spec_ones(1, sigma=sigma), 6.0)
            assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_fourth_moment_matches_exact_n5(self):
        res = moment_quadrature(spec_ones(5), 4.0, oversample=4.0)
        assert res.value == pytest.approx(45.0, rel=1e-3)
        assert res.method == "quadrature"

    def test_cross_check_consistency(self):
        # Quadrature agrees with the exact p = 4 count within 3 err_estimate.
        spec = ExpSumSpec(n=4, coeffs=coeffs_for("random_sign", 4, 2), sigma=1.0, h0=0.2)
        exact = moment_exact(spec, 2).value
        res = moment_quadrature(spec, 4.0, oversample=4.0)
        residual = abs(res.value - exact)
        assert residual <= 3.0 * res.err_estimate
        assert residual <= 1e-6 * max(1.0, exact)

    def test_holder_monotonicity(self):
        # Normalized p-norms increase with p on the window.
        spec = ExpSumSpec(n=6, coeffs=coeffs_for("random_sign", 6, 4), sigma=1.0)
        vol = spec.h_length
        m2 = moment_quadrature(spec, 2.0).value / vol
        m4 = moment_quadrature(spec, 4.0).value / vol
        assert m2**0.5 <= m4**0.25 + 1e-12

    def test_err_estimate_bounds_true_error(self):
        spec = spec_ones(5, sigma=1.0, h0=0.1)
        exact = moment_exact(spec, 2).value
        res = moment_quadrature(spec, 4.0, oversample=4.0)
        assert abs(res.value - exact) <= 3.0 * res.err_estimate + 1e-12 * exact

    def test_routes_agree_at_huge_h0(self):
        # The spec reduces h0 = 1e308 mod 1; unreduced, the quadrature phases
        # overflow and the value is nan.
        coeffs = coeffs_for("random_sign", 4, 2)
        spec = ExpSumSpec(n=4, coeffs=coeffs, sigma=1.0, h0=1e308)
        exact = moment_exact(spec, 2).value
        res = moment_quadrature(spec, 4.0)
        assert abs(res.value - exact) <= 3.0 * res.err_estimate
        assert abs(res.value - exact) <= 1e-6 * exact

    def test_moments_are_one_periodic_in_h0(self):
        coeffs = coeffs_for("random_phase", 5, 3)
        a, b = (ExpSumSpec(n=5, coeffs=coeffs, sigma=1.0, h0=h0) for h0 in (3.25, 0.25))
        assert moment_exact(a, 2).value == moment_exact(b, 2).value
        assert moment_quadrature(a, 4.0).value == moment_quadrature(b, 4.0).value


class TestMirror:
    """Real coefficients on a window with 2 h0 + |H| integral: the mirror M.

    On top of the shifts, x -> g - x halves x1 once more when m1/f1 is even.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        s=st.integers(min_value=1, max_value=3),
        h0=st.sampled_from([0.0, 0.5]),
        family=st.sampled_from(["constant", "random_sign", "uniform"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mirror_matches_the_full_box(self, n, s, h0, family, seed):
        if family == "uniform":
            coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        else:
            coeffs = coeffs_for(family, n, seed)
        res = moment_quadrature(ExpSumSpec(n=n, coeffs=coeffs, h0=h0), 2.0 * s)
        assert res.detail["mirror"] is True
        xi = np.arange(1, n + 1, dtype=float)
        full = box_power_integral(
            xi, coeffs, 2.0 * s, (0.0, 0.0, h0), (1.0, 1.0, 1.0), res.detail["counts"]
        )
        assert res.value == pytest.approx(full, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "family, n, sigma, h0, oversample, half_box, mirror",
        [
            # (12, 36, 108): |H| = 1 with 6 | m1 and 6 | m3, so the slab
            # x1 < 1/6, x2 < 1/2, and the mirror halves x1 again (m1/6 = 2).
            # The coarse (6, 18, 54) has m1/6 = 1 odd: no mirror.
            ("constant", 3, 0.0, 0.0, 4.0, ((12, 2), (6, 2)), True),
            ("random_sign", 3, 0.0, 0.5, 4.0, ((12, 2), (6, 2)), True),
            ("random_sign", 3, 0.0, -0.5, 4.0, ((12, 2), (6, 2)), True),
            # (12, 45, 180): a = 6 with odd m2 keeps x2 whole; the coarse
            # (6, 22, 90) has even m2 again.
            ("constant", 4, 0.0, 0.0, 2.8, ((12, 1), (6, 2)), True),
            ("random_phase", 4, 0.0, 0.0, 2.8, ((6, 1), (6, 2)), False),
            # (6, 16, 46): 6 divides m1 but not m3, so a = 2; m1/2 = 3 is odd,
            # so no mirror. The coarse (3, 8, 23) has odd m1 and m3.
            ("constant", 3, 0.0, 0.0, 1.7, ((2, 2), (1, 1)), False),
            # (8, 16, 32): 6 does not divide m1, so a = 2 with x2 halved.
            ("constant", 2, 0.0, 0.0, 4.0, ((4, 2), (4, 2)), True),
            # (4, 7, 14): a = 2 with odd m2; the coarse (2, 3, 7) has odd m3,
            # so a = 1 and, with m2 odd, no T: only the mirror cuts.
            ("random_sign", 2, 0.0, 0.0, 1.7, ((4, 1), (2, 1)), True),
            ("random_phase", 2, 0.0, 0.0, 1.7, ((2, 1), (1, 1)), False),
            # sigma > 0: no x3 shift keeps H, so T and the mirror alone.
            ("random_sign", 2, 1.0, 0.25, 4.0, ((4, 1), (4, 1)), True),
            ("random_sign", 2, 1.0, 0.0, 4.0, ((2, 1), (2, 1)), False),
            # N = 1 has |H| = 1 at any sigma: (4, 4, 4), a = 2.
            ("random_phase", 1, 1.0, 0.3, 4.0, ((2, 2), (2, 2)), False),
            # Complex coefficients or a window M does not keep: G alone.
            ("random_phase", 3, 0.0, 0.0, 4.0, ((6, 2), (6, 2)), False),
            ("constant", 3, 0.0, 0.25, 4.0, ((6, 2), (6, 2)), False),
            # 2 h0 + 1 rounds to 1.0 in float64; the exact test is not fooled.
            ("constant", 3, 0.0, 2.0**-60, 4.0, ((6, 2), (6, 2)), False),
            # (9, 17, 34): m1 is odd, no cut at all; the coarse (4, 8, 17) has
            # odd m3, so T with the mirror.
            ("constant", 2, 0.0, 0.0, 4.25, ((1, 1), (4, 1)), False),
            # (6, 18, 54): a = 6 and m1/6 = 1 is odd, so the mirror is not
            # applied and not reported. The coarse (3, 9, 27) has odd m1 with
            # 3 | m1 and 3 | m3: x1 in thirds, x2 whole (odd m2).
            ("constant", 3, 0.0, 0.0, 2.0, ((6, 2), (3, 1)), False),
            # Odd m1 with 3 | m1 and 3 | m3 is cut in thirds by (1/3, 0, 2/3);
            # m1/3 is odd, so the mirror never doubles it. (9, 27, 81): odd m2
            # and m3 keep x2 whole; the coarse (4, 13, 40) takes a = 2 and,
            # for constant coefficients, the mirror.
            ("constant", 3, 0.0, 0.0, 3.0, ((3, 1), (4, 1)), False),
            ("random_phase", 3, 0.0, 0.0, 3.0, ((3, 1), (2, 1)), False),
            # (3, 6, 12) and (9, 26, 78): m2 and m3 even, so (0, 1/2, 1/2)
            # halves x2 as well. The coarse (1, 3, 6) is not cut; the coarse
            # (4, 13, 39) has odd m3, so only the mirror cuts it.
            ("random_phase", 2, 0.0, 0.0, 1.5, ((3, 2), (1, 1)), False),
            ("constant", 3, 0.0, 0.0, 2.87, ((3, 2), (2, 1)), False),
            # sigma > 0 keeps odd m1 whole: (3, 9, 9) at N = 3, sigma = 1.
            ("constant", 3, 1.0, 0.0, 1.0, ((1, 1), (1, 1)), False),
            # (8, 15, 29): odd m3 and odd m2, so only the mirror cuts; the
            # coarse (4, 7, 14) takes a = 2 with x2 whole.
            ("random_phase", 2, 0.0, 0.0, 3.6, ((1, 1), (2, 1)), False),
            ("constant", 2, 0.0, 0.0, 3.6, ((2, 1), (4, 1)), True),
        ],
    )
    def test_half_box_exactly_when_the_rule_holds(
        self, monkeypatch, family, n, sigma, h0, oversample, half_box, mirror
    ):
        # half_box: (f1, f2) of the fine and the coarse grid. Each is
        # evaluated on the slab [0, 1/f1) x [0, 1/f2) x H at counts
        # (m1/f1, m2/f2, m3).
        calls = []
        real = quadrature.box_power_integral

        def spy(xi, coeffs, p, corner, sides, counts, *args):
            calls.append((tuple(sides), tuple(counts)))
            return real(xi, coeffs, p, corner, sides, counts, *args)

        monkeypatch.setattr(quadrature, "box_power_integral", spy)
        spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, 2), sigma=sigma, h0=h0)
        res = moment_quadrature(spec, 4.0, oversample=oversample)
        fine = tuple(res.detail["counts"])
        want = []
        for (m1, m2, m3), (f1, f2) in zip((fine, tuple(max(1, m // 2) for m in fine)), half_box):
            want.append(((1.0 / f1, 1.0 / f2, spec.h_length), (m1 // f1, m2 // f2, m3)))
        assert calls == want
        (f1, f2), _ = half_box
        detail = {"counts": list(fine), "oversample": oversample, "fold": f1 * f2}
        if mirror:
            detail["mirror"] = True
        assert res.detail == detail

    @pytest.mark.parametrize("n", range(4, 11))
    def test_constant_sixth_moment_is_j3(self, n):
        res = moment_quadrature(spec_ones(n), 6.0)
        assert res.detail["mirror"] is True
        assert abs(res.value - (6 * n**3 - 9 * n**2 + 4 * n)) <= 3.0 * res.err_estimate


def _expected_fold(counts, full_period, mirror):
    """(f1, f2, mirrored) of moment_quadrature's rule, restated.

    On a full period x1 is cut by the larger of 6 and 2 that divides both
    m1 and m3, and x2 is then halved when m2 is even. For odd m1 it is cut
    by 3 when 3 divides m1 and m3, and x2 is then halved when m2 and m3 are
    both even. Otherwise only T = (1/2, 1/2, 0) is left, which halves x1
    when m1 and m2 are both even. The mirror halves x1 once more when the
    cut count is even.
    """
    m1, m2, m3 = counts
    cuts = [a for a in (6, 2) if full_period and m1 % a == m3 % a == 0]
    if cuts:
        f1, f2 = cuts[0], (2 if m2 % 2 == 0 else 1)
    elif full_period and m1 % 2 == 1 and m1 % 3 == m3 % 3 == 0:
        f1, f2 = 3, (2 if m2 % 2 == m3 % 2 == 0 else 1)
    else:
        f1, f2 = (2 if m1 % 2 == m2 % 2 == 0 else 1), 1
    if mirror and (m1 // f1) % 2 == 0:
        return 2 * f1, f2, True
    return f1, f2, False


class TestFold:
    """The shifts g with e(g . (k, k^2, k^3)) = 1 for every integer k.

    They are the g with 6 g3, 2 g2 + 6 g3 and g1 + g2 + g3 all integers: a
    group of order 12 mod 1, generated by T = (1/2, 1/2, 0) and the shear
    (1/6, 0, -1/6).
    """

    @staticmethod
    def _drawn(n, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0.0, 1.0, n) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
        return ExpSumSpec(n=n, coeffs=coeffs), float(np.sum(np.abs(coeffs)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        x=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_half_translate_keeps_the_sum(self, n, x, seed):
        spec, scale = self._drawn(n, seed)
        moved = (x[0] + 0.5, x[1] + 0.5, x[2])
        # Relative to sum |a_k|, the scale of S, as S itself may vanish.
        assert abs(eval_sum(spec, moved) - eval_sum(spec, x)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        # x_i = j 2^-53 < 1/12, so x + float(g) is exact for every g below.
        x=st.tuples(*[st.integers(min_value=0, max_value=2**53 // 12 - 1)] * 3),
        g=st.sampled_from([
            (Fraction(1, 6), 0, Fraction(-1, 6)),
            (0, Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
        ]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_shear_and_x3_shifts_keep_the_sum(self, n, x, g, seed):
        # k^3 = k mod 6, so the shear keeps S; (0, 1/2, 1/2) holds as
        # (k^2 + k^3) / 2 = k^2 (k + 1) / 2 is an integer.
        spec, scale = self._drawn(n, seed)
        x = tuple(math.ldexp(j, -53) for j in x)
        moved = tuple(xi + float(gi) for xi, gi in zip(x, g))
        assert all(Fraction(m) == Fraction(xi) + Fraction(float(gi)) for m, xi, gi in zip(moved, x, g))
        # Only float(g) != g moves the phase of term k, by 2 pi times
        # sum_i k^i (float(g_i) - g_i): at most 2e-13 sum |a_k| at N = 12.
        drift = sum(
            abs(a) * abs(float(sum(k**i * (Fraction(float(gi)) - gi) for i, gi in enumerate(g, 1))))
            for k, a in enumerate(spec.coeffs.tolist(), 1)
        )
        assert abs(eval_sum(spec, moved) - eval_sum(spec, x)) <= 2 * math.pi * drift + 1e-14 * scale

    @pytest.mark.parametrize(
        "g", [(1 / 3, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5), (1 / 12, 0.0, -1 / 12)]
    )
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_shifts_outside_the_group_move_the_modulus(self, n, g):
        # Each g fails one of the three integer conditions, so |S| moves at
        # some point and no fold may use g: the fold cannot grow past G.
        spec, scale = self._drawn(n, 5)
        rng = np.random.default_rng(6)
        moved = max(
            abs(abs(eval_sum(spec, tuple(x + g))) - abs(eval_sum(spec, tuple(x)))) / scale
            for x in rng.uniform(0.0, 1.0, (16, 3))
        )
        assert moved > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        s=st.integers(min_value=1, max_value=3),
        sigma=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        # Real coefficients on h0 in {0, 1/2} take the mirror where |H| = 1.
        real=st.booleans(),
        h0=st.floats(min_value=-1.0, max_value=1.0),
        # 3.0, 3.6 and 4.25 give m1, m2 or m3 that 2 or 6 does not divide.
        oversample=st.sampled_from([4.0, 3.0, 3.6, 4.25]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fold_matches_the_full_box(self, n, s, sigma, real, h0, oversample, seed):
        if real:
            coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
            h0 = 0.5 if h0 > 0 else 0.0
        else:
            coeffs = coeffs_for("random_phase", n, seed)
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=h0)
        res = moment_quadrature(spec, 2.0 * s, oversample=oversample)
        full_period = spec.h_length == 1.0
        f1, f2, mirrored = _expected_fold(res.detail["counts"], full_period, real and full_period)
        assert res.detail["fold"] == f1 * f2
        assert res.detail.get("mirror", False) is mirrored
        xi = np.arange(1, n + 1, dtype=float)
        full = box_power_integral(
            xi, coeffs, 2.0 * s, (0.0, 0.0, spec.h0), (1.0, 1.0, spec.h_length),
            res.detail["counts"],
        )
        assert res.value == pytest.approx(full, rel=1e-14, abs=0.0)


class TestLocalMoments:
    def test_single_frequency_average_is_one(self):
        res = local_moment_quadrature(
            np.array([0.0]), np.ones(1), 4.0, 16.0, 0.5, 16.0
        )
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_p2_exact_route_is_set_size(self):
        # Orthogonality: the large-cube average of |S|^2 is sum |a|^2 = |Xi|.
        xi = standard_frequency_set(16.0, 0.5)
        res = local_moment_quadrature(xi, np.ones(xi.size), 2.0, 16.0, 0.5, 16.0)
        assert res.method == "exact"
        assert res.value == pytest.approx(float(xi.size), abs=1e-9)

    def test_p2_sampled_route_close_to_exact(self):
        # The midpoint rule on the same cube agrees with the p = 2 closed form.
        xi = standard_frequency_set(64.0, 0.5)
        coeffs = coeffs_for("random_sign", xi.size, 3).astype(complex)
        exact = local_moment_quadrature(xi, coeffs, 2.0, 64.0, 0.5, 64.0)
        sides = (64.0, 64.0, 64.0)
        span = [float(np.max(xi**i)) for i in (1, 2, 3)]
        counts = grid_counts(4.0, span, sides, DEFAULT_CELL_BUDGET)
        sampled = box_power_integral(xi, coeffs, 2.0, (0.0, 0.0, 0.0), sides, counts)
        assert exact.method == "exact"
        assert sampled / 64.0**3 == pytest.approx(exact.value, rel=0.05)

    def test_full_grid_and_translate_routes_agree(self):
        # side 64 runs the full grid; a slightly larger cube switches to the
        # translate estimator; both estimate the same average.
        xi = standard_frequency_set(64.0, 0.5)
        coeffs = np.ones(xi.size, dtype=complex)
        full = local_moment_quadrature(xi, coeffs, 4.0, 64.0, 0.5, 64.0)
        trans = local_moment_quadrature(xi, coeffs, 4.0, 64.0, 0.5, 128.0, seed=11)
        assert trans.detail["route"] == "translates"
        assert trans.value == pytest.approx(full.value, rel=5 * trans.err_estimate / full.value + 0.2)

    def test_exact_p2_with_offset_corner(self):
        xi = standard_frequency_set(16.0, 0.5)
        rng = np.random.default_rng(9)
        coeffs = np.exp(2j * math.pi * rng.uniform(0, 1, xi.size))
        shifted = local_moment_quadrature(
            xi, coeffs, 2.0, 16.0, 0.5, 16.0, cube_corner=(3.7, -1.2, 0.5)
        )
        base = local_moment_quadrature(xi, coeffs, 2.0, 16.0, 0.5, 16.0)
        # Different cubes of the same admissible size: both within O(1/side)
        # of sum |a|^2; the exact p=2 values differ by boundary phases only.
        assert shifted.value == pytest.approx(base.value, rel=0.5)

    def test_separation_validation(self):
        xi = np.array([0.0, 0.4, 0.4005])
        with pytest.raises(SpecValidationError):
            local_moment_quadrature(xi, np.ones(3), 2.0, 256.0, 0.5, 256.0)

    def test_cube_size_validation(self):
        xi = standard_frequency_set(256.0, 0.5)
        with pytest.raises(SpecValidationError):
            local_moment_quadrature(xi, np.ones(xi.size), 2.0, 256.0, 0.5, 100.0)

    def test_range_validation(self):
        with pytest.raises(SpecValidationError):
            local_moment_quadrature(np.array([-0.1, 0.5]), np.ones(2), 2.0, 16.0, 0.5, 16.0)


class TestFrequencySets:
    def test_standard_set_shape_and_spacing(self):
        xi = standard_frequency_set(1024.0, 0.5)
        assert xi.size == 32
        assert xi[0] == 0.0
        np.testing.assert_allclose(np.diff(xi), 1024.0**-0.5)
        assert xi.max() < 1.0

    def test_noninteger_count_rounds_up(self):
        xi = standard_frequency_set(10.0, 0.5)  # 10^0.5 = 3.16 -> 4 points
        assert xi.size == 4

    def test_separation_floor(self):
        assert separation_floor(np.array([0.5])) == math.inf
        assert separation_floor(np.array([0.9, 0.1, 0.4])) == pytest.approx(0.3)


class TestPeriodicityIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_identity_residual_small(self, n, sigma):
        spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma, h0=0.0)
        report = periodicity_identity_check(spec, 1)
        assert report.residual <= 1e-3

    def test_rejects_large_n(self):
        with pytest.raises(SpecValidationError):
            periodicity_identity_check(spec_ones(5), 1)


def test_values_are_pinned():
    # Every quadrature route against pinned literals; a refactor must not move
    # a single bit. The tiled evaluator's fsum of tile sums moved the p = 3
    # moment and the full-cube local moment, and their err, in the last bits.
    # Unit-modulus phase rows moved every value here towards the exact one
    # (spec's p = 4 moment is 9 and spec0's 28; the identity's sides are 729).
    spec = ExpSumSpec(n=5, coeffs=coeffs_for("random_phase", 5, 3), sigma=1.0, h0=0.3)
    spec0 = ExpSumSpec(n=4, coeffs=coeffs_for("random_phase", 4, 3))
    got = [
        (r.value, r.err_estimate, r.detail)
        for r in (
            moment_quadrature(spec, 4.0),
            moment_quadrature(spec, 3.0),
            moment_quadrature(spec0, 4.0),
            moment_quadrature(spec0, 3.0),
        )
    ]
    # Complex coefficients: spec (sigma = 1) takes the half box by T, and
    # spec0 (|H| = 1, a = 2) the slab x1 < 1/2, x2 < 1/2.
    grid = {"counts": [20, 100, 100], "oversample": 4.0, "fold": 2}
    grid0 = {"counts": [16, 64, 256], "oversample": 4.0, "fold": 4}
    assert got == [
        (9.0, 9e-13, grid),
        (2.857026203624632, 7.9936238339684e-07, grid),
        (28.000000000000007, 2.800000000000001e-12, grid0),
        (10.120680982579428, 4.546774478697557e-06, grid0),
    ]

    local = []
    for r_scale, p in ((16.0, 4.0), (256.0, 4.0), (16.0, 2.0)):
        xi = standard_frequency_set(r_scale, 0.5)
        res = local_moment_quadrature(
            xi, coeffs_for("random_phase", xi.size, 3), p, r_scale, 0.5, r_scale, seed=3
        )
        local.append((res.method, res.value, res.err_estimate, res.detail))
    assert local == [
        ("quadrature", 28.000000000000007, 0.05591219639591216,
         {"route": "full-cube", "counts": [48, 36, 27]}),
        ("quadrature", 472.05875238963847, 95.9335379335276,
         {"route": "translates", "n_translates": 32, "counts_per_cell": 12}),
        ("exact", 4.0, 4e-13, {"route": "pair-sum"}),
    ]

    rep = periodicity_identity_check(ExpSumSpec(n=3, coeffs=np.ones(3), sigma=1.0), 1)
    assert (rep.lhs, rep.rhs_scaled, rep.residual) == (
        729.0000000000002, 729.0000000000001, 1.5594902293774484e-16
    )
    rep = interference_lower_bound(ExpSumSpec(n=16, coeffs=np.ones(16), sigma=1.0), 4)
    assert (rep.value, rep.ratio, rep.box_fraction, rep.counts) == (
        0.029304044382540716, 0.00011446892336929967, 0.05, (8, 8, 8)
    )
