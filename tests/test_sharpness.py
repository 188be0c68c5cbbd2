"""Unit tests for coefficient families, sweeps, fits, and the dichotomy."""

import itertools
import math
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

from momentcurve import (
    BudgetError,
    ExpSumSpec,
    SpecValidationError,
    SweepConfig,
    SweepRow,
    broad_narrow_check,
    coeffs_for,
    exponent_fit,
    interference_lower_bound,
    moment_exact,
    verify_envelope,
)
from momentcurve import cli, sharpness
from momentcurve.cli import main
from momentcurve.expsums import TWO_PI
from momentcurve.records import format_cell
from momentcurve.sharpness import BroadNarrowReport


U = 2.0**-53


def _np_exp_waves(x, n):
    """e(phi_k) as exp of the whole rounded phase k x1 + k^2 x2 + k^3 x3, the
    route broad_narrow_check took before the recurrence."""
    k = np.arange(1, n + 1, dtype=float)
    phase = (
        k[:, None] * x[None, :, 0]
        + (k**2)[:, None] * x[None, :, 1]
        + (k**3)[:, None] * x[None, :, 2]
    )
    return np.exp(1j * TWO_PI * phase)


def _recurrence_wave_bound(k):
    """The bound stated in sharpness._cubic_waves' docstring."""
    return 1.001 * U * (56 + 185 * (k - 1) + 191 * math.comb(k - 1, 2) + 65 * math.comb(k - 1, 3))


def _np_exp_wave_bound(k):
    """The rounded phase errs by (3k + 3k^2 + 2k^3) u and the angle by 2 pi
    (5k + 5k^2 + 4k^3) u; sin and cos within 4 ulps add 8 sqrt(2) u < 12u."""
    return TWO_PI * U * (5 * k + 5 * k**2 + 4 * k**3) + 12 * U


def _band_sums(spec, waves, n_bands):
    """|band sums| (n_bands, samples) and |f| from the coefficient-weighted waves."""
    k = np.arange(1, spec.n + 1, dtype=float)
    band_of = np.minimum((k / spec.n * n_bands).astype(int), n_bands - 1)
    band_abs = np.empty((n_bands, waves.shape[1]))
    for j in range(n_bands):
        mask = band_of == j
        band_abs[j] = np.abs(waves[mask].sum(axis=0)) if mask.any() else 0.0
    return band_abs, np.abs(waves.sum(axis=0))


def _separated_triples(n_bands, e_sep):
    return [
        t
        for t in itertools.combinations(range(n_bands), 3)
        if t[1] - t[0] >= e_sep and t[2] - t[1] >= e_sep
    ]


def _rhs(band_abs, n_bands, e_sep):
    """4E max_band + bands^2 * best separated GM, every triple formed explicitly."""
    triples = _separated_triples(n_bands, e_sep)
    if triples:
        ti = np.array(triples)
        gm = (band_abs[ti[:, 0]] * band_abs[ti[:, 1]] * band_abs[ti[:, 2]]) ** (1.0 / 3.0)
        gm_best = gm.max(axis=0)
    else:
        gm_best = np.zeros(band_abs.shape[1])
    return 4.0 * e_sep * band_abs.max(axis=0) + n_bands**2 * gm_best


def _broad_narrow_reference(spec, n_bands, e_sep, samples, seed, waves_of=None):
    """broad_narrow_check with every separated triple's geometric mean
    formed explicitly before the max. The waves come from waves_of(x, n),
    by default the recurrence broad_narrow_check uses."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (samples, 3))
    waves_of = waves_of or sharpness._cubic_waves
    band_abs, f_abs = _band_sums(spec, spec.coeffs[:, None] * waves_of(x, spec.n), n_bands)
    m = band_abs.max(axis=0)
    significant = band_abs >= (m / n_bands)[None, :] * (1.0 - 1e-12)
    broad = significant.sum(axis=0) >= 3.0 * e_sep - 1e-12
    rhs = _rhs(band_abs, n_bands, e_sep)
    ratio = np.divide(f_abs, rhs, out=np.zeros_like(f_abs), where=rhs > 0)
    return BroadNarrowReport(
        max_ratio=float(ratio.max()),
        n_bands=n_bands,
        e_sep=float(e_sep),
        samples_used=samples,
        broad_count=int(np.count_nonzero(broad)),
        narrow_count=int(np.count_nonzero(~broad)),
        triple_count=len(_separated_triples(n_bands, e_sep)),
    )


class TestCoefficientFamilies:
    def test_constant(self):
        np.testing.assert_array_equal(coeffs_for("constant", 4, 0), np.ones(4))

    def test_random_sign_values_and_reproducibility(self):
        a = coeffs_for("random_sign", 100, 7)
        b = coeffs_for("random_sign", 100, 7)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) == {-1.0, 1.0}

    def test_random_sign_seeds_differ(self):
        assert not np.array_equal(
            coeffs_for("random_sign", 64, 1), coeffs_for("random_sign", 64, 2)
        )

    def test_random_phase_unimodular(self):
        a = coeffs_for("random_phase", 50, 3)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_dispatch(self):
        np.testing.assert_array_equal(coeffs_for("constant", 3, 0), np.ones(3))
        with pytest.raises(SpecValidationError):
            coeffs_for("bogus", 3, 0)

    def test_rejects_empty(self):
        for family in ("constant", "random_sign", "random_phase"):
            with pytest.raises(SpecValidationError):
                coeffs_for(family, 0, 1)

    def test_pinned_draws(self):
        # The seeded families are one default_rng(seed) draw each.
        rng = np.random.default_rng(5)
        sign = rng.integers(0, 2, size=9).astype(float) * 2.0 - 1.0
        np.testing.assert_array_equal(coeffs_for("random_sign", 9, 5), sign)
        rng = np.random.default_rng(5)
        phase = np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, 9))
        np.testing.assert_array_equal(coeffs_for("random_phase", 9, 5), phase)


class TestExponentFit:
    def test_recovers_exact_power_law(self):
        xs = (4, 16, 64, 256)
        fit = exponent_fit((x, 3.7 * x**2.5) for x in xs)
        assert fit.slope == pytest.approx(2.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-9)
        assert fit.max_residual < 1e-12
        assert fit.n_points == 4

    def test_rejects_too_few_points(self):
        with pytest.raises(SpecValidationError):
            exponent_fit([(1, 1.0), (2, 2.0)])

    def test_rejects_duplicate_x(self):
        with pytest.raises(SpecValidationError):
            exponent_fit([(2, 1.0), (2, 2.0), (4, 3.0)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(SpecValidationError):
            exponent_fit([(1, 1.0), (2, 0.0), (4, 3.0)])


class TestSweepConfig:
    def test_validation(self):
        # s=2 makes each config valid but for the field under test.
        with pytest.raises(SpecValidationError, match="x values"):
            SweepConfig(x_values=(8, 16), s=2)
        with pytest.raises(SpecValidationError, match="x values"):
            SweepConfig(x_values=(16, 8, 32), s=2)
        with pytest.raises(SpecValidationError, match="x values"):
            SweepConfig(x_values=(0, 1, 2), kind="maincor", p=4.0, beta=0.5)
        with pytest.raises(SpecValidationError, match="family"):
            SweepConfig(x_values=(8, 16, 32), s=2, family="nope")
        with pytest.raises(SpecValidationError, match="h0_policy"):
            SweepConfig(x_values=(8, 16, 32), s=2, h0_policy="sometimes")
        with pytest.raises(SpecValidationError, match="tolerance"):
            SweepConfig(x_values=(8, 16, 32), s=2, tolerance=0.0)
        with pytest.raises(SpecValidationError, match="kind"):
            SweepConfig(x_values=(8, 16, 32), s=2, kind="mainexpp")

    @pytest.mark.parametrize("oversample", [0.5, math.nan, math.inf])
    def test_rejects_oversample_out_of_range(self, oversample):
        with pytest.raises(SpecValidationError, match="oversample"):
            SweepConfig(x_values=(8, 16, 32), s=2, oversample=oversample)

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"kind": "mainexp"}, "s >= 1"),
            ({"kind": "mainexp", "s": 0}, "s >= 1"),
            ({"kind": "maincor", "beta": 0.5}, "p > 0"),
            ({"kind": "maincor", "p": 2.0}, "beta"),
            ({"kind": "maincor", "p": 2.0, "beta": 0.1}, "beta"),
            ({"kind": "mainexp", "s": 2, "budget_tuples": 0}, "budget_tuples"),
            # numpy generators take no negative seed; rows used to raise ValueError.
            ({"kind": "mainexp", "s": 2, "seeds": (1, -1)}, "seed"),
            # inf used to pass any slope and nan to fail every one.
            ({"kind": "mainexp", "s": 2, "tolerance": math.inf}, "tolerance"),
            ({"kind": "mainexp", "s": 2, "tolerance": math.nan}, "tolerance"),
            ({"kind": "maincor", "p": math.nan, "beta": 0.5}, "p > 0"),
            ({"kind": "maincor", "p": math.inf, "beta": 0.5}, "p > 0"),
        ],
        ids=["mainexp-no_s", "mainexp-s_zero", "maincor-no_p", "maincor-no_beta",
             "maincor-beta_0.1", "budget_zero", "seed_negative", "tolerance_inf",
             "tolerance_nan", "maincor-p_nan", "maincor-p_inf"],
    )
    def test_rejects_by_kind(self, fields, message):
        # Each kind's own fields are checked when the config is made, before any row.
        with pytest.raises(SpecValidationError, match=message):
            SweepConfig(x_values=(64, 128, 256), **fields)

    def test_x_label(self):
        assert SweepConfig(x_values=(8, 16, 32), s=2).x_label == "N"
        maincor = SweepConfig(x_values=(8, 16, 32), kind="maincor", p=2.0, beta=0.5)
        assert maincor.x_label == "R"

    def test_h0_policies(self):
        fixed = SweepConfig(x_values=(8, 16, 32), s=2, h0=0.25)
        assert fixed.h0_for(8, 1) == 0.25
        rand = SweepConfig(x_values=(8, 16, 32), s=2, h0_policy="random")
        a = rand.h0_for(8, 1)
        assert a == rand.h0_for(8, 1)  # deterministic per (seed, x)
        assert a != rand.h0_for(16, 1)
        assert 0.0 <= a < 1.0


class TestEnvelopeSweeps:
    def test_s1_recovers_one_minus_sigma(self):
        # The 2nd moment is exactly N^(1-sigma) for unimodular families.
        for sigma in (0.0, 1.0, 2.0):
            cfg = SweepConfig(
                x_values=(16, 32, 64, 128), family="random_sign",
                seeds=(1, 2, 3), sigma=sigma, s=1, tolerance=1e-6,
            )
            rep = verify_envelope(cfg)
            assert rep.fit.slope == pytest.approx(1.0 - sigma, abs=1e-6)
            assert rep.passed
            assert rep.target == 1.0 - sigma

    def test_s1_rows_are_exact_powers(self):
        cfg = SweepConfig(x_values=(8, 16, 32), family="random_sign",
                          seeds=(5,), sigma=1.0, s=1)
        rep = verify_envelope(cfg)
        for row in rep.rows:
            assert row.value == pytest.approx(1.0, rel=1e-12)

    def test_constant_s2_sigma0_slope_near_two(self):
        # Moment is 2N^2 - N exactly; log-log slope just under 2.
        cfg = SweepConfig(x_values=(16, 32, 64), s=2, tolerance=0.3)
        rep = verify_envelope(cfg)
        assert rep.fit.slope == pytest.approx(2.0, abs=0.02)
        assert rep.passed
        for row in rep.rows:
            assert row.value == 2 * row.x**2 - row.x

    def test_mainexp_requires_s(self):
        with pytest.raises(SpecValidationError, match="s >= 1"):
            verify_envelope(SweepConfig(x_values=(8, 16, 32)))

    def test_maincor_p2_recovers_beta(self):
        cfg = SweepConfig(x_values=(256, 1024, 4096), kind="maincor",
                          family="random_sign", seeds=(1, 2), p=2.0, beta=0.5,
                          tolerance=1e-6)
        rep = verify_envelope(cfg)
        assert rep.fit.slope == pytest.approx(0.5, abs=1e-6)

    def test_maincor_requires_p_and_beta(self):
        with pytest.raises(SpecValidationError, match="p > 0"):
            verify_envelope(SweepConfig(x_values=(64, 128, 256), kind="maincor", beta=0.5))
        with pytest.raises(SpecValidationError, match="beta"):
            verify_envelope(
                SweepConfig(x_values=(64, 128, 256), kind="maincor", p=2.0, beta=0.1)
            )

    def test_rows_deterministic(self):
        cfg = SweepConfig(x_values=(8, 16, 32), family="random_sign",
                          seeds=(1, 2, 3), sigma=1.0, s=2)
        a = verify_envelope(cfg)
        b = verify_envelope(cfg)
        assert [r.value for r in a.rows] == [r.value for r in b.rows]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_rows_in_order_until_first_error(self, workers, tmp_path, monkeypatch):
        # verify_envelope and `sweep --workers N` both run the rows in x order
        # on the calling thread; the sweep keeps every row finished before a
        # BudgetError.
        calls = []

        def row_fn(cfg, x):
            calls.append((x, threading.current_thread()))
            if x == 16:
                raise BudgetError("rows", x, 2)
            return SweepRow(x=x, value=1.0, envelope=1.0, seed_count=1,
                            method="exact", err_estimate=0.0)

        monkeypatch.setattr(sharpness, "mainexp_row", row_fn)
        monkeypatch.setattr(cli, "mainexp_row", row_fn)
        with pytest.raises(BudgetError):
            verify_envelope(SweepConfig(x_values=(4, 8, 16, 32), s=2))
        cfg = tmp_path / "rows.ini"
        cfg.write_text("[sweep]\nx_values = 4 8 16 32\ns = 2\n", encoding="utf-8")
        argv = ["sweep", str(cfg), "--workers", str(workers), "--out", str(tmp_path)]
        assert main(argv) == 3
        assert [x for x, _ in calls] == [4, 8, 16] * 2
        assert all(thread is threading.current_thread() for _, thread in calls)
        (table,) = sorted((tmp_path / "tables").glob("*.csv"))
        assert table.read_text().splitlines()[1:] == [
            ",".join(format_cell(c) for c in (x, 1.0, 1.0, 1, "exact", 0.0))
            for x in (4, 8)
        ]


class TestInterference:
    def test_requires_all_ones_and_zero_h0(self):
        with pytest.raises(SpecValidationError):
            interference_lower_bound(
                ExpSumSpec(n=8, coeffs=coeffs_for("random_sign", 8, 1)), 4
            )
        with pytest.raises(SpecValidationError):
            interference_lower_bound(
                ExpSumSpec(n=8, coeffs=np.ones(8), h0=0.5), 4
            )

    def test_ratio_above_frozen_floor(self):
        spec = ExpSumSpec(n=32, coeffs=np.ones(32), sigma=1.0)
        rep = interference_lower_bound(spec, 4)
        assert rep.ratio >= rep.kappa_floor

    def test_envelope_sandwich(self):
        # The full moment dominates its restriction to the small box.
        for n in (8, 16, 32):
            spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=1.0)
            lower = interference_lower_bound(spec, 3).value
            full = moment_exact(spec, 3).value
            assert full >= lower > 0.0

    def test_ratio_stable_in_n(self):
        ratios = []
        for n in (16, 32, 64):
            spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=1.0)
            ratios.append(interference_lower_bound(spec, 4).ratio)
        assert max(ratios) / min(ratios) < 4.0


class TestBroadNarrow:
    def test_ratio_bounded_by_one_random_specs(self):
        for seed in range(5):
            spec = ExpSumSpec(n=64, coeffs=coeffs_for("random_sign", 64, seed))
            rep = broad_narrow_check(spec, n_bands=16, e_sep=2.0,
                                     samples=2000, seed=seed)
            assert rep.max_ratio <= 1.0
            assert rep.broad_count + rep.narrow_count == 2000

    def test_origin_is_covered(self):
        # At x = 0 all band sums align, the broad branch engages, and the
        # all-ones sum meets the bound with room from the bands^2 factor.
        spec = ExpSumSpec(n=60, coeffs=np.ones(60))
        rep = broad_narrow_check(spec, n_bands=6, e_sep=1.0, samples=10, seed=0)
        assert rep.max_ratio <= 1.0

    def test_triples_are_separated(self):
        spec = ExpSumSpec(n=32, coeffs=np.ones(32))
        rep = broad_narrow_check(spec, n_bands=9, e_sep=3.0, samples=10, seed=1)
        # E = 3 with 9 bands leaves exactly one admissible triple (0, 3, 6)..
        # (2, 5, 8): count pairs with gaps >= 3.
        assert rep.triple_count == 10

    def test_validation(self):
        spec = ExpSumSpec(n=16, coeffs=np.ones(16))
        with pytest.raises(SpecValidationError):
            broad_narrow_check(spec, n_bands=4, e_sep=2.0)
        with pytest.raises(SpecValidationError):
            broad_narrow_check(spec, n_bands=9, e_sep=0.5)

    def test_deterministic(self):
        spec = ExpSumSpec(n=32, coeffs=coeffs_for("random_sign", 32, 4))
        a = broad_narrow_check(spec, 12, 2.0, samples=500, seed=9)
        b = broad_narrow_check(spec, 12, 2.0, samples=500, seed=9)
        assert a.max_ratio == b.max_ratio

    # N = 8 with 16 bands leaves empty bands; E = 1.5 and 5 bands exercise
    # the rounding of the separation up to an integer gap; E = 1.2 with 4
    # bands admits no triple at all.
    @pytest.mark.parametrize(
        "n, n_bands, e_sep",
        [(8, 16, 1.0), (8, 16, 2.0), (64, 16, 1.0), (64, 16, 2.0), (64, 5, 1.5),
         (12, 4, 1.2)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_all_triples_reference(self, n, n_bands, e_sep, seed):
        for family in ("random_sign", "random_phase", "constant"):
            spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, seed))
            args = (spec, n_bands, e_sep, 1500, seed)
            assert broad_narrow_check(*args) == _broad_narrow_reference(*args)

    def test_rejects_zero_samples(self):
        spec = ExpSumSpec(n=16, coeffs=np.ones(16))
        with pytest.raises(SpecValidationError):
            broad_narrow_check(spec, n_bands=6, e_sep=1.0, samples=0)

    @pytest.mark.parametrize("n", [1, 8, 17, 64])
    @pytest.mark.parametrize("family", ["random_sign", "random_phase", "constant"])
    def test_blocks_keep_every_sample_bit(self, n, family):
        # Per-sample ratio, band maximum and broad flag, block by block as the
        # check walks them, against one block of all samples. A one-column
        # block would sum its waves pairwise and move the bits; samples =
        # width + 1 is where a tail would be one column wide. The band maxima
        # are also those of the out-of-place coefficient product.
        coeffs = coeffs_for(family, n, n)
        spec = ExpSumSpec(n=n, coeffs=coeffs)
        width = sharpness._BLOCK_ENTRIES // n
        for samples in (1, 2, width, width + 1, 2 * width + 3):
            x = np.random.default_rng(samples).uniform(0.0, 1.0, (samples, 3))
            blocks = sharpness._sample_blocks(samples, n)
            got = [sharpness._broad_narrow_block(coeffs, x[lo:hi], 16, 2.0) for lo, hi in blocks]
            want = sharpness._broad_narrow_block(coeffs, x, 16, 2.0)
            for part, whole in zip(zip(*got), want):
                assert np.concatenate(part).tobytes() == whole.tobytes()
            band_abs, _ = _band_sums(spec, coeffs[:, None] * sharpness._cubic_waves(x, n), 16)
            assert want[1].tobytes() == band_abs.max(axis=0).tobytes()

    def test_one_wave_keeps_the_out_of_place_product_bits(self):
        # At N = 1 and one sample the coefficient product is one element,
        # where numpy's in-place complex multiply rounds differently from
        # a * b (in about half of these draws under numpy 2.4).
        x = np.random.default_rng(2).uniform(0.0, 1.0, (64, 1, 3))
        for seed in range(64):
            coeffs = coeffs_for("random_phase", 1, seed)
            m = sharpness._broad_narrow_block(coeffs, x[seed], 3, 1.0)[1]
            want = np.abs(coeffs[:, None] * sharpness._cubic_waves(x[seed], 1))[0]
            assert m.tobytes() == want.tobytes()

    @pytest.mark.parametrize("samples", [1, 2, 3, 4099])
    def test_overflowed_sums_give_nan_as_one_pass(self, samples):
        # Coefficients near the float maximum (past ExpSumSpec's |a_k| <= 1,
        # so a bare stand-in spec) overflow the sums, and inf / inf makes NaN
        # ratios; a NaN in any block reaches max_ratio as it does in one max
        # over every sample.
        spec = types.SimpleNamespace(n=64, coeffs=np.full(64, 1e308))
        args = (spec, 16, 2.0, samples, 7)
        with np.errstate(over="ignore", invalid="ignore"):
            got = broad_narrow_check(*args)
            want = _broad_narrow_reference(*args)
        assert math.isnan(want.max_ratio)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("n", [1, 8, 64, 1 << 16, 1 << 17, 1 << 20])
    @pytest.mark.parametrize("samples", [1, 2, 3, 2047, 2048, 2049, 2050, 10**4])
    def test_sample_blocks_tile_without_one_column_blocks(self, n, samples):
        blocks = sharpness._sample_blocks(samples, n)
        assert blocks[0][0] == 0 and blocks[-1][1] == samples
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        widths = [hi - lo for lo, hi in blocks]
        assert min(widths) >= min(2, samples)
        assert max(widths) <= max(2, sharpness._BLOCK_ENTRIES // n) + 1

    @pytest.mark.parametrize("entries", [16, 200])
    @pytest.mark.parametrize("n, n_bands, e_sep", [(8, 16, 2.0), (17, 6, 2.0), (64, 5, 1.5)])
    def test_small_blocks_match_all_triples_reference(self, monkeypatch, entries, n, n_bands,
                                                      e_sep):
        # Many blocks, two columns wide at N = 64 with 16 entries, against the
        # one-pass reference that forms every triple.
        monkeypatch.setattr(sharpness, "_BLOCK_ENTRIES", entries)
        for family in ("random_sign", "random_phase", "constant"):
            spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, 5))
            for samples in (1, 2, 3, 97, 301):
                args = (spec, n_bands, e_sep, samples, samples)
                assert broad_narrow_check(*args) == _broad_narrow_reference(*args)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_memory_grows_by_a_block_not_by_the_samples(self, child_env):
        # The whole (N, samples) waves at N = 64 and 2e5 samples took about
        # 400 MB; blocks of 2^17 waves take a few MB. The child's peak RSS is
        # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of the
        # process it was forked from, so a large test process hid any growth.
        code = (
            "from momentcurve import ExpSumSpec, broad_narrow_check, coeffs_for\n"
            "def peak_mb():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:')) / 1024\n"
            "spec = ExpSumSpec(n=64, coeffs=coeffs_for('random_phase', 64, 1))\n"
            "broad_narrow_check(spec, 16, 2.0, 10, 1)\n"
            "before = peak_mb()\n"
            "rep = broad_narrow_check(spec, 16, 2.0, 200_000, 1)\n"
            "print(peak_mb() - before, rep.max_ratio, rep.samples_used)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        growth_mb, max_ratio, used = proc.stdout.split()
        assert float(growth_mb) < 64.0
        assert 0.0 < float(max_ratio) <= 1.0 and int(used) == 200_000

    def test_waves_are_within_the_stated_bound_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.random.default_rng(11).uniform(0.0, 1.0, (40, 3))
        top = 1.0 - U
        x = np.vstack([x, [[0.0, 0.0, 0.0], [top, top, top], [0.5, 0.25, top], [0.0, 0.0, top]]])
        n = 64
        waves = sharpness._cubic_waves(x, n)
        direct = _np_exp_waves(x, n)
        with mpmath.workdps(40):
            for j, row in enumerate(x):
                x1, x2, x3 = (mpmath.mpf(float(v)) for v in row)
                for k in range(1, n + 1):
                    exact = mpmath.expjpi(2 * (k * x1 + k**2 * x2 + k**3 * x3))
                    assert abs(mpmath.mpc(waves[k - 1, j]) - exact) <= _recurrence_wave_bound(k)
                    assert abs(mpmath.mpc(direct[k - 1, j]) - exact) <= _np_exp_wave_bound(k)

    @pytest.mark.parametrize(
        "n, n_bands, e_sep", [(64, 16, 2.0), (64, 16, 1.0), (8, 16, 2.0), (64, 5, 1.5)]
    )
    @pytest.mark.parametrize("family", ["random_sign", "random_phase", "constant"])
    def test_holds_the_np_exp_route_within_the_propagated_bound(self, n, n_bands, e_sep, family):
        seed = 3
        spec = ExpSumSpec(n=n, coeffs=coeffs_for(family, n, seed))
        args = (spec, n_bands, e_sep, 2000, seed)
        rep = broad_narrow_check(*args)
        old = _broad_narrow_reference(*args, waves_of=_np_exp_waves)
        for name in ("n_bands", "samples_used", "broad_count", "narrow_count", "triple_count"):
            assert getattr(rep, name) == getattr(old, name)
        # Each term a_k e(phi_k) of a band sum and of f moves between the two
        # routes by at most |a_k| times both wave bounds, plus, per route, the
        # coefficient product (sqrt(5) u), the summation ((n - 1) u) and the
        # modulus (2u). The rhs is nondecreasing in every band modulus, so
        # moving each by its bound brackets the ratio at every sample.
        k = np.arange(1, n + 1)
        bound = np.array([_recurrence_wave_bound(j) + _np_exp_wave_bound(j) for j in k])
        per_term = np.abs(spec.coeffs) * (bound + (2 * n + 7) * U)
        band_of = np.minimum((k / n * n_bands).astype(int), n_bands - 1)
        d_band = np.bincount(band_of, weights=per_term, minlength=n_bands)[:, None]
        d_f = per_term.sum()
        x = np.random.default_rng(seed).uniform(0.0, 1.0, (2000, 3))
        band_abs, f_abs = _band_sums(spec, spec.coeffs[:, None] * _np_exp_waves(x, n), n_bands)
        rhs_hi = _rhs(band_abs + d_band, n_bands, e_sep)
        rhs_lo = _rhs(np.maximum(band_abs - d_band, 0.0), n_bands, e_sep)
        lo = np.max((f_abs - d_f) / rhs_hi)
        hi = np.max(np.where(rhs_lo > 0, (f_abs + d_f) / np.where(rhs_lo > 0, rhs_lo, 1.0), np.inf))
        # 1e-14: the ratio formula's own few roundings, on both sides.
        assert lo * (1.0 - 1e-14) <= rep.max_ratio <= hi * (1.0 + 1e-14)
        assert hi - lo < 1e-6
