"""Acceptance suite: nine numbered criteria, one printed line each.

Each test prints a single "[criterion k] PASS/FAIL ..." line (past pytest's
capture, so the lines always appear) and then asserts. Tolerances and grids
are pinned; none are adaptive beyond the documented 3x err_estimate rule for
quadrature self-reported error.
"""

import time

import numpy as np
import pytest

from momentcurve import (
    DecouplingParams,
    ExpSumSpec,
    SweepConfig,
    broad_narrow_check,
    check_cone_containment_geo2,
    check_cone_containment_geo3,
    check_overlap_geo1,
    check_partition,
    check_rescale,
    coeffs_for,
    default_geo1_scales,
    default_geo2_scales,
    default_geo3_scales,
    exponent_fit,
    interference_lower_bound,
    moment_brute,
    moment_exact,
    moment_quadrature,
    periodicity_identity_check,
    verify_envelope,
    vinogradov_count,
)

FAMILIES = ("constant", "random_sign", "random_phase")


@pytest.fixture
def report(capsys):
    """Emit one live pass/fail line per criterion, past pytest's capture."""

    def emit(criterion: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[criterion {criterion}] {verdict} {detail}", flush=True)

    return emit


def test_criterion_1_l2_identity(report):
    # 100 random specs, N <= 500, sigma in {0,1,2}, all families:
    # moment_exact(s=1) = N^-sigma sum |a_k|^2 to 1e-10 relative, < 10 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 501))
        sigma = float(rng.choice([0.0, 1.0, 2.0]))
        family = FAMILIES[i % 3]
        coeffs = coeffs_for(family, n, seed=i)
        spec = ExpSumSpec(n=n, coeffs=coeffs, sigma=sigma, h0=float(rng.uniform(0, 1)))
        value = moment_exact(spec, 1).value
        want = float(n) ** -sigma * float(np.sum(np.abs(coeffs) ** 2))
        worst = max(worst, abs(value - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"L2 identity, 100 specs, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence(report):
    # exact = brute to 1e-10 rel (N <= 10, s in {2,3}, constant/random-sign,
    # sigma in {0,1}, 5 seeds); quadrature (p=2s, oversample 4) agrees to
    # 1e-3 rel for N <= 6. < 2 min.
    t0 = time.perf_counter()
    worst_pair = 0.0
    for n in range(1, 11):
        for s in (2, 3):
            for sigma in (0.0, 1.0):
                for family in ("constant", "random_sign"):
                    seeds = (1, 2, 3, 4, 5) if family == "random_sign" else (1,)
                    for seed in seeds:
                        spec = ExpSumSpec(
                            n=n, coeffs=coeffs_for(family, n, seed),
                            sigma=sigma, h0=0.25,
                        )
                        a = moment_exact(spec, s).value
                        b = moment_brute(spec, s).value
                        worst_pair = max(worst_pair, abs(a - b) / max(abs(a), 1e-300))
    worst_quad = 0.0
    for n in range(1, 7):
        for s in (2, 3):
            for sigma in (0.0, 1.0):
                for family, seed in (("constant", 1), ("random_sign", 2)):
                    spec = ExpSumSpec(
                        n=n, coeffs=coeffs_for(family, n, seed),
                        sigma=sigma, h0=0.25,
                    )
                    exact = moment_exact(spec, s).value
                    quad = moment_quadrature(spec, 2.0 * s, oversample=4.0).value
                    worst_quad = max(worst_quad, abs(quad - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-10 and worst_quad <= 1e-3 and elapsed < 120.0
    report(
        2, ok,
        f"oracle equivalence, brute rel {worst_pair:.2e}, "
        f"quad rel {worst_quad:.2e}, {elapsed:.1f}s",
    )
    assert worst_pair <= 1e-10
    assert worst_quad <= 1e-3
    assert elapsed < 120.0


def test_criterion_3_vinogradov_diagonal_law(report):
    # vinogradov_count(N, 2) = 2N^2 - N for N <= 200, brute-validated for
    # N <= 12 first. < 1 min.
    t0 = time.perf_counter()
    brute_ok = True
    for n in range(1, 13):
        spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=0.0)
        brute = int(round(moment_brute(spec, 2).value))
        brute_ok = brute_ok and brute == 2 * n * n - n == vinogradov_count(n, 2)
    law_ok = all(vinogradov_count(n, 2) == 2 * n * n - n for n in range(1, 201))
    elapsed = time.perf_counter() - t0
    ok = brute_ok and law_ok and elapsed < 60.0
    report(3, ok, f"diagonal law 2N^2-N for N<=200, brute N<=12, {elapsed:.1f}s")
    assert brute_ok
    assert law_ok
    assert elapsed < 60.0


def test_criterion_4_envelope_exponents(report):
    # (a) a=1, sigma=1, s=4: slope within 0.3 of 3;
    # (b) a=1, sigma=0, s=3: slope in [3.0, 3.5];
    # (c) random signs, sigma=2, s=2, median of 20 seeds: within 0.3 of 0.
    # < 30 min total.
    t0 = time.perf_counter()
    rep_a = verify_envelope(
        SweepConfig(x_values=(32, 48, 64, 96), sigma=1.0, s=4, tolerance=0.3)
    )
    ok_a = abs(rep_a.fit.slope - 3.0) <= 0.3

    pts = []
    for n in (64, 128, 256, 512):
        spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=0.0)
        pts.append((n, moment_exact(spec, 3).value))
    slope_b = exponent_fit(pts).slope
    ok_b = 3.0 <= slope_b <= 3.5

    rep_c = verify_envelope(
        SweepConfig(
            x_values=(64, 128, 256), family="random_sign",
            seeds=tuple(range(1, 21)), sigma=2.0, s=2, tolerance=0.3,
        )
    )
    ok_c = abs(rep_c.fit.slope - 0.0) <= 0.3
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 1800.0
    report(
        4, ok,
        f"envelope exponents a={rep_a.fit.slope:.3f} (target 3 +-0.3), "
        f"b={slope_b:.3f} (in [3.0,3.5]), c={rep_c.fit.slope:.3f} "
        f"(target 0 +-0.3), {elapsed:.1f}s",
    )
    assert ok_a, rep_a.fit
    assert ok_b, slope_b
    assert ok_c, rep_c.fit
    assert elapsed < 1800.0


def test_criterion_5_interference_floor(report):
    # ratio value / N^(2s-6) for s=4, sigma=1, N in {16,32,64} varies by
    # less than a factor of 4. < 5 min.
    t0 = time.perf_counter()
    ratios = []
    for n in (16, 32, 64):
        spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=1.0)
        ratios.append(interference_lower_bound(spec, 4).ratio)
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = spread < 4.0 and elapsed < 300.0
    report(5, ok, f"interference ratio spread x{spread:.3f} (< 4), {elapsed:.1f}s")
    assert spread < 4.0
    assert elapsed < 300.0


def test_criterion_6_local_moment_trend(report):
    # beta=1/2, p=4, random signs, R in {256,1024,4096}: slope <= 1.3;
    # p=2 control recovers beta to 1e-6. < 15 min.
    t0 = time.perf_counter()
    rep4 = verify_envelope(
        SweepConfig(
            x_values=(256, 1024, 4096), kind="maincor", family="random_sign",
            seeds=tuple(range(1, 21)), p=4.0, beta=0.5, tolerance=0.3,
        )
    )
    ok_p4 = rep4.fit.slope <= 0.5 * 4.0 / 2.0 + 0.3
    rep2 = verify_envelope(
        SweepConfig(
            x_values=(256, 1024, 4096), kind="maincor", family="random_sign",
            seeds=tuple(range(1, 21)), p=2.0, beta=0.5, tolerance=1e-6,
        )
    )
    ok_p2 = abs(rep2.fit.slope - 0.5) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok_p4 and ok_p2 and elapsed < 900.0
    report(
        6, ok,
        f"local moments p=4 slope {rep4.fit.slope:.3f} (<= 1.3), "
        f"p=2 slope {rep2.fit.slope:.9f} (beta to 1e-6), {elapsed:.1f}s",
    )
    assert ok_p4, rep4.fit
    assert ok_p2, rep2.fit
    assert elapsed < 900.0


def test_criterion_7_geometry_suite(report):
    # Zero violations for geo1, geo2 (both cases), geo3, partition, rescale
    # on {R=2^20; beta in {1/2,3/4,1}; C_eps in {1,4}; 1e4 samples; 3 seeds};
    # rescale curve residual <= 1e-9. < 2 min.
    t0 = time.perf_counter()
    R = float(2**20)
    samples = 10**4
    total_violations = 0
    worst_residual = 0.0
    for beta in (0.5, 0.75, 1.0):
        params = DecouplingParams(R, beta)
        for c_eps in (1.0, 4.0):
            for seed in (1, 2, 3):
                g1 = check_overlap_geo1(
                    *default_geo1_scales(R, beta), R, c_eps, samples, seed
                )
                total_violations += g1.violations
                for case in ("1", "2"):
                    g2 = check_cone_containment_geo2(
                        *default_geo2_scales(R, beta, case), R, c_eps,
                        None, samples, seed,
                    )
                    total_violations += g2.violations
                g3 = check_cone_containment_geo3(
                    *default_geo3_scales(R), None, c_eps, samples, seed
                )
                total_violations += g3.violations
                part = check_partition(params, samples, seed)
                total_violations += part.violations
                resc = check_rescale(4096.0, 3, params, samples, seed)
                total_violations += resc.member_violations
                worst_residual = max(worst_residual, resc.max_curve_residual)
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and worst_residual <= 1e-9 and elapsed < 120.0
    report(
        7, ok,
        f"geometry suite, {total_violations} violations, rescale residual "
        f"{worst_residual:.2e} (<= 1e-9), {elapsed:.1f}s",
    )
    assert total_violations == 0
    assert worst_residual <= 1e-9
    assert elapsed < 120.0


def test_criterion_8_broad_narrow(report):
    # ratio <= 1 at 1e4 sampled points for 10 random specs, N=64, 16 bands,
    # E=2. < 1 min.
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        spec = ExpSumSpec(n=64, coeffs=coeffs_for("random_sign", 64, seed))
        rep = broad_narrow_check(spec, n_bands=16, e_sep=2.0,
                                 samples=10**4, seed=seed)
        worst = max(worst, rep.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    report(8, ok, f"broad/narrow max ratio {worst:.4f} (<= 1), {elapsed:.1f}s")
    assert worst <= 1.0
    assert elapsed < 60.0


def test_criterion_9_reduction_identity(report):
    # periodicity residual <= 1e-3 for N in {1,2,3}, s=1, sigma in {0,1}.
    # < 2 min.
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for sigma in (0.0, 1.0):
            spec = ExpSumSpec(n=n, coeffs=np.ones(n), sigma=sigma)
            worst = max(worst, periodicity_identity_check(spec, 1).residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 120.0
    report(9, ok, f"reduction identity, max residual {worst:.2e} (<= 1e-3), {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 120.0
