"""Unit tests for the moment-curve cap geometry."""

import math

import numpy as np
import pytest

from momentcurve import (
    CanonicalBlock,
    DecouplingParams,
    SpecValidationError,
    cap_index_of,
    check_cone_containment_geo2,
    check_cone_containment_geo3,
    check_overlap_geo1,
    check_partition,
    check_rescale,
    cone_angle,
    cone_map_T,
    cone_radius,
    curve_point,
    default_geo1_scales,
    default_geo2_scales,
    default_geo3_scales,
    defect2,
    defect3,
    frame_coordinates,
    frame_matrix,
    frenet_frame,
    gamma_tilde,
    neighborhood_membership,
    rescale_map_L,
    sample_block,
    sample_neighborhood,
)
from momentcurve import geometry
from momentcurve.geometry import (
    CanonicalConeReport,
    ConeReport,
    OverlapReport,
    PartitionReport,
    RescaleReport,
    _sorted_distinct,
    _spread_l_indices,
)

SQRT2 = math.sqrt(2.0)


def _geo1_loop_reference(r_k, r_next, R, c_eps=1.0, samples=10000, seed=0):
    """check_overlap_geo1 as a double loop: one gamma_tilde box and one
    scalar-t0 frame solve per (l, l') pair, in the same rng draw order."""
    rng = np.random.default_rng(seed)
    n_l = int(r_k)
    ls = _spread_l_indices(n_l, rng)
    per_l = max(1, samples // ls.size)
    threshold = geometry.OVERLAP_FACTOR * c_eps * (r_next / r_k)
    # Clipped to n_l as in check_overlap_geo1: a threshold past n_l (or inf,
    # at r_next near 1e308) leaves every l' near.
    window = min(n_l, math.ceil(min(threshold, n_l)) + 2)
    violations = max_mult = pairs = far_pairs = used = 0
    for l in ls:
        box = gamma_tilde(r_k, r_next, R, int(l), c_eps)
        pts = box.to_points(box.sample(rng, per_l))
        used += per_l
        near = np.arange(max(0, l - window), min(n_l, l + window + 1))
        mult = np.zeros(per_l, dtype=int)
        for lp in near:
            other = gamma_tilde(r_k, r_next, R, int(lp), c_eps)
            mult += other.contains_abc(frame_coordinates(other.t0, pts)).astype(int)
            pairs += 1
        max_mult = max(max_mult, int(mult.max()))
        # The far indices counted without the window, then put around it.
        below, above = max(0, l - window), min(n_l, l + window + 1)
        n_far = below + n_l - above
        if n_far:
            probe = rng.choice(n_far, size=min(8, n_far), replace=False)
            for lp in np.where(probe < below, probe, probe + above - below):
                other = gamma_tilde(r_k, r_next, R, int(lp), c_eps)
                abc = frame_coordinates(other.t0, pts)
                violations += int(np.count_nonzero(other.contains_abc(abc)))
                far_pairs += 1
    return OverlapReport(
        threshold=threshold,
        l_count=int(ls.size),
        samples_used=used,
        pairs_checked=pairs,
        far_pairs_checked=far_pairs,
        max_multiplicity=max_mult,
        violations=violations,
    )


def _cone_slab_loop_reference(boxes, r, w_ang, w_rad, rng, per_l, case, beta1):
    """geometry._cone_slab_check as a loop: draws, cone map, deviations and
    angular cells box by box."""
    t_map = cone_map_T()
    slab_lo, slab_hi = 0.5 / r, 1.0 / r
    violations = used = skipped = 0
    max_ang = max_rad = 0.0
    touched = set()
    max_caps_per_l = 0
    for box in boxes:
        t0 = box.t0
        rho = cone_radius(t0)
        margin = box.b_bound * t0 / SQRT2 + box.c_bound / SQRT2
        z_lo = max(slab_lo, box.a_lo * rho + margin)
        z_hi = min(slab_hi, box.a_hi * rho - margin)
        if z_lo >= z_hi:
            skipped += 1
            continue
        z = rng.uniform(z_lo, z_hi, per_l)
        b = rng.uniform(-box.b_bound, box.b_bound, per_l)
        c = rng.uniform(-box.c_bound, box.c_bound, per_l)
        a = (z - b * t0 / SQRT2 - c / SQRT2) / rho
        pts = box.to_points(np.column_stack([a, b, c]))
        y = r * t_map.apply(pts)
        used += per_l
        zeta, ok, ang, rad = geometry._cone_deviation(y, cone_angle(t0), w_ang, w_rad)
        height_ok = (y[:, 2] >= 0.5 * (1.0 - geometry.SLACK)) & (y[:, 2] <= 1.0 + geometry.SLACK)
        violations += int(np.count_nonzero(~(height_ok & ok)))
        max_ang = max(max_ang, ang)
        max_rad = max(max_rad, rad)
        cells = np.unique(np.floor(zeta / w_ang).astype(int))
        touched.update(int(v) for v in cells)
        max_caps_per_l = max(max_caps_per_l, int(cells.size))
    return ConeReport(
        case=case,
        r=r,
        beta1=beta1,
        angular_halfwidth=0.5 * w_ang,
        radial_width=w_rad,
        cap_count=int(math.ceil(2.0 * math.pi / w_ang)),
        caps_touched=len(touched),
        max_caps_per_l=max_caps_per_l,
        l_count=len(boxes),
        samples_used=used,
        skipped_l=skipped,
        violations=violations,
        max_angular_ratio=max_ang,
        max_radial_ratio=max_rad,
    )


def _sample_block_reference(block, rng, count, dilation):
    """sample_block written out: the draws, the defect factors multiplied
    left to right, and the lift to the curve."""
    s = float(block.s)
    center = (block.l + 0.5) / s
    x1 = center + (rng.uniform(0.0, 1.0, count) - 0.5) * dilation / s
    d2 = rng.uniform(-1.0, 1.0, count) * dilation * s**-2.0 * geometry.DEFECT_MARGIN
    d3 = rng.uniform(-1.0, 1.0, count) * dilation * s**-3.0 * geometry.DEFECT_MARGIN
    x2 = x1**2 + d2
    return np.column_stack([x1, x2, 3.0 * x1 * x2 - 2.0 * x1**3 + d3])


def _geo3_loop_reference(r_k_scale, r_next_scale, r=None, c_eps=1.0, samples=10000, seed=0):
    """check_cone_containment_geo3 batch by batch: two block samples per
    batch, their difference, np.linalg.norm, the cone map and the
    deviations of each batch's kept images."""
    rng = np.random.default_rng(seed)
    s = round(r_k_scale ** (1.0 / 3.0))
    if r is None:
        r_lo = r_k_scale ** (1.0 / 3.0) / c_eps
        r = 2.0 ** round(0.5 * (math.log2(r_lo) + math.log2(r_next_scale ** (1.0 / 3.0))))
    w_ang = geometry.WIDTH_FACTOR * c_eps * r * r_k_scale ** (-2.0 / 3.0)
    w_rad = geometry.WIDTH_FACTOR * c_eps**2 * r**2 * r_k_scale ** (-4.0 / 3.0)
    ball = r_next_scale ** (-1.0 / 3.0)
    slab_lo, slab_hi = 0.5 / r, 1.0 / r
    t_map = cone_map_T()
    ls = _spread_l_indices(s, rng)
    per_l = max(1, samples // ls.size)
    violations = used = rejected = 0
    max_ang = max_rad = 0.0
    for l in ls:
        block = CanonicalBlock(s=s, l=int(l))
        center = cone_angle(block.t0)
        kept = batches = 0
        while kept < per_l and batches < 200:
            batches += 1
            draw = 4 * per_l
            delta = _sample_block_reference(block, rng, draw, c_eps) - _sample_block_reference(
                block, rng, draw, c_eps
            )
            norms = np.linalg.norm(delta, axis=1)
            q = t_map.apply(delta)
            keep = (norms >= ball) & (q[:, 2] >= slab_lo) & (q[:, 2] <= slab_hi)
            rejected += int(np.count_nonzero(~keep))
            q = q[keep][: per_l - kept]
            if q.size == 0:
                continue
            kept += q.shape[0]
            _, ok, ang, rad = geometry._cone_deviation(r * q, center, w_ang, w_rad)
            violations += int(np.count_nonzero(~ok))
            max_ang = max(max_ang, ang)
            max_rad = max(max_rad, rad)
        used += kept
    gaps = np.abs(np.diff([cone_angle(l / s) for l in range(s)]))
    return CanonicalConeReport(
        r=r,
        angular_halfwidth=0.5 * w_ang,
        radial_width=w_rad,
        block_count=s,
        l_count=int(ls.size),
        samples_used=used,
        rejected=rejected,
        violations=violations,
        max_angular_ratio=max_ang,
        max_radial_ratio=max_rad,
        min_angle_gap_ratio=float(np.min(gaps) * s) if gaps.size else math.inf,
    )


class TestFrame:
    def test_curve_point(self):
        np.testing.assert_allclose(curve_point(2.0), [2.0, 4.0, 8.0])

    def test_frame_vectors(self):
        d1, d2, d3 = frenet_frame(0.5)
        np.testing.assert_allclose(d1, [1.0, 1.0, 0.75])
        np.testing.assert_allclose(d2, [0.0, 2.0, 3.0])
        np.testing.assert_allclose(d3, [0.0, 0.0, 6.0])

    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.3, 1.0, 7.0])
    def test_frame_determinant_is_12(self, t):
        assert np.linalg.det(frame_matrix(t)) == pytest.approx(12.0)

    def test_frame_coordinates_roundtrip(self):
        rng = np.random.default_rng(0)
        for t0 in (0.0, 0.3, 1.0):
            abc = rng.uniform(-1, 1, (50, 3))
            pts = abc @ frame_matrix(t0).T
            back = frame_coordinates(t0, pts)
            np.testing.assert_allclose(back, abc, atol=1e-12)

    def test_stacked_frame_product_is_bitwise(self):
        # One matmul over a stack of boxes gives each box's to_points bits,
        # and to_points gives those of the product with frame_matrix(t0).T.
        rng = np.random.default_rng(12)
        for k, n in [(1, 1), (3, 7), (64, 156), (8, 1250), (17, 33)]:
            t0 = rng.integers(0, 4096, k) / 4096.0
            abc = rng.uniform(-1, 1, (k, n, 3)) * [1e-2, 1e-4, 1e-6]
            stacked = geometry._frame_points(abc, t0)
            for j in range(k):
                box = geometry.ParamBox(float(t0[j]), 0.0, 1.0, 1.0, 1.0)
                assert np.array_equal(stacked[j], box.to_points(abc[j]))
                assert np.array_equal(stacked[j], abc[j] @ frame_matrix(t0[j]).T)

    def test_frame_coordinates_broadcast_over_t0_is_bitwise(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, (40, 3)) * [1e-2, 1e-4, 1e-6]
        t0 = np.arange(0, 97) / 96.0
        batched = frame_coordinates(t0[:, None], pts)
        looped = np.stack([frame_coordinates(float(t), pts) for t in t0])
        assert batched.shape == (97, 40, 3)
        assert np.array_equal(batched.view(np.uint64), looped.view(np.uint64))

    def test_defects_vanish_on_curve(self):
        t = np.linspace(0, 1, 11)
        pts = curve_point(t)
        np.testing.assert_allclose(defect2(pts), 0.0, atol=1e-15)
        np.testing.assert_allclose(defect3(pts), 0.0, atol=1e-14)


class TestNeighborhood:
    def test_curve_points_are_members(self):
        params = DecouplingParams(1024.0, 0.5)
        pts = curve_point(np.linspace(0, 1, 33))
        assert neighborhood_membership(params, pts).all()

    def test_defect_boundary_point_is_member(self):
        params = DecouplingParams(1024.0, 0.5)
        xi = np.array([0.0, params.defect2_tol, 0.0])
        assert bool(neighborhood_membership(params, xi))

    def test_point_past_tolerance_is_not_member(self):
        params = DecouplingParams(1024.0, 0.5)
        xi = np.array([0.0, 1.5 * params.defect2_tol, 0.0])
        assert not bool(neighborhood_membership(params, xi))

    def test_param_fields(self):
        params = DecouplingParams(float(2**20), 0.75)
        assert params.cap_width == pytest.approx(2.0**-15)
        assert params.n_caps == 2**15
        assert params.defect2_tol == pytest.approx(2.0**-30)
        assert params.defect3_tol == pytest.approx(2.0**-20)

    def test_param_validation(self):
        with pytest.raises(SpecValidationError):
            DecouplingParams(1.0, 0.5)
        with pytest.raises(SpecValidationError):
            DecouplingParams(16.0, 0.25)

    @pytest.mark.parametrize(
        "r_scale, beta",
        [(2.0**21, 1.0), (2.12e6, 1.0), (2.0**40, 1 / 3), (1.8e12, 1 / 3)],
        ids=["quadratic-dyadic", "quadratic", "cubic-dyadic", "cubic"],
    )
    def test_largest_resolved_scales_partition_cleanly(self, r_scale, beta):
        # The largest accepted dyadic and non-dyadic R of each limit. Past
        # float64 resolution exact draws failed membership: R = 7e7 at
        # beta = 1 gave 1,308 false violations in 20,000 samples.
        params = DecouplingParams(r_scale, beta)
        assert check_partition(params, 20_000, 3).violations == 0

    @pytest.mark.parametrize(
        "r_scale, beta",
        [(2.0**22, 1.0), (2.13e6, 1.0), (5e7, 1.0), (2.0**41, 1 / 3), (1.81e12, 1 / 3)],
    )
    def test_unresolved_tolerances_are_rejected(self, r_scale, beta):
        with pytest.raises(SpecValidationError, match="float64 resolution"):
            DecouplingParams(r_scale, beta)

    def test_sampled_members_are_members(self):
        params = DecouplingParams(4096.0, 1.0)
        rng = np.random.default_rng(2)
        xi = sample_neighborhood(params, rng, 500)
        assert neighborhood_membership(params, xi).all()


class TestCaps:
    def test_cap_index_basic(self):
        params = DecouplingParams(16.0, 0.5)  # 4 caps of width 1/4
        assert cap_index_of(params, np.array([0.1, 0.01, 0.001])) == 0
        assert cap_index_of(params, curve_point(0.6)) == 2

    def test_right_edge_clamps_into_last_cap(self):
        params = DecouplingParams(16.0, 0.5)
        assert cap_index_of(params, curve_point(1.0)) == 3
        assert cap_index_of(params, curve_point(1.0 - 1e-12)) == 3

    def test_non_member_returns_none(self):
        params = DecouplingParams(16.0, 0.5)
        assert cap_index_of(params, np.array([0.5, 0.9, 0.1])) is None

    def test_vectorized_index_marks_non_members(self):
        params = DecouplingParams(16.0, 0.5)
        pts = np.vstack([curve_point(0.3), [0.5, 0.9, 0.1]])
        idx = cap_index_of(params, pts)
        assert idx[0] == 1 and idx[1] == -1


class TestConeMap:
    def test_pinned_image_of_gamma3(self):
        # T maps gamma'''(t) = (0, 0, 6) to (0, -1/sqrt2, 1/sqrt2) * ... and
        # the specific vector (1, 0, 6) to (0, 0, sqrt 2).
        T = cone_map_T()
        np.testing.assert_allclose(T.apply([1.0, 0.0, 6.0]).ravel(),
                                   [0.0, 0.0, SQRT2], atol=1e-14)

    def test_determinant_magnitude(self):
        # |det| = 1/12: T and the frame matrix (det 12) compose to volume 1.
        assert abs(cone_map_T().det) == pytest.approx(1.0 / 12.0, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.7, 1.0])
    def test_tangent_image_lies_on_cone(self, t):
        w = cone_map_T().apply(frenet_frame(t)[0]).ravel()
        assert math.hypot(w[0], w[1]) == pytest.approx(w[2], abs=1e-13)
        assert w[2] == pytest.approx(cone_radius(t))
        assert math.atan2(w[1], w[0]) == pytest.approx(cone_angle(t))

    def test_angle_is_strictly_decreasing_from_half_pi(self):
        t = np.linspace(0.0, 1.0, 200)
        angles = np.array([cone_angle(v) for v in t])
        assert angles[0] == pytest.approx(math.pi / 2)
        assert np.all(np.diff(angles) < 0)
        # Endpoint angle is asin(1/3), the direction of gamma'(1).
        assert angles[-1] == pytest.approx(math.asin(1.0 / 3.0), abs=1e-12)

    def test_inverse_roundtrip(self):
        T = cone_map_T()
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, (20, 3))
        np.testing.assert_allclose(T.inverse().apply(T.apply(pts)), pts, atol=1e-12)


class TestGammaTilde:
    def test_sample_coefficients_stay_in_ranges(self):
        box = gamma_tilde(64.0, 128.0, float(2**20), l=5, c_eps=2.0)
        rng = np.random.default_rng(3)
        abc = box.sample(rng, 400)
        mag_a = np.abs(abc[:, 0])
        assert mag_a.min() >= 1.0 / (2.0 * 128.0) - 1e-15
        assert mag_a.max() <= 2.0 / 64.0 + 1e-15
        assert np.abs(abc[:, 1]).max() <= 2.0 / 64.0**2 + 1e-18
        assert np.abs(abc[:, 2]).max() <= 2.0 / 2.0**20 + 1e-21
        assert box.contains_abc(abc).all()

    def test_points_recover_coefficients(self):
        box = gamma_tilde(16.0, 32.0, 4096.0, l=2)
        rng = np.random.default_rng(5)
        abc = box.sample(rng, 100)
        pts = box.to_points(abc)
        np.testing.assert_allclose(frame_coordinates(box.t0, pts), abc, atol=1e-12)

    def test_validation(self):
        with pytest.raises(SpecValidationError):
            gamma_tilde(128.0, 64.0, 4096.0, l=0)
        with pytest.raises(SpecValidationError):
            gamma_tilde(16.0, 32.0, -1.0, l=0)


class TestRescaleMap:
    def test_l0_is_pure_diagonal(self):
        L = rescale_map_L(4096.0, 0)
        np.testing.assert_allclose(L.matrix, np.diag([16.0, 256.0, 4096.0]))
        np.testing.assert_allclose(L.offset, 0.0, atol=1e-15)

    def test_curve_identity(self):
        # L(gamma(t0 + u)) = gamma(S u) with S = r_prev^(1/3), t0 = l/S.
        L = rescale_map_L(4096.0, 3)
        s, t0 = 16.0, 3.0 / 16.0
        u = np.linspace(0.0, 1.0 / 16.0, 64)
        lhs = L.apply(curve_point(t0 + u))
        rhs = curve_point(s * u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_defects_scale_exactly(self):
        L = rescale_map_L(1728.0, 5)  # S = 12
        rng = np.random.default_rng(6)
        xi = np.column_stack([
            rng.uniform(5 / 12, 6 / 12, 50),
            rng.uniform(0, 1, 50),
            rng.uniform(0, 1, 50),
        ])
        xi[:, 1] = xi[:, 0] ** 2 + rng.uniform(-1, 1, 50) * 1e-4
        xi[:, 2] = 3 * xi[:, 0] * xi[:, 1] - 2 * xi[:, 0] ** 3 + rng.uniform(-1, 1, 50) * 1e-5
        mapped = L.apply(xi)
        np.testing.assert_allclose(defect2(mapped), 144.0 * defect2(xi), rtol=1e-9)
        np.testing.assert_allclose(defect3(mapped), 1728.0 * defect3(xi), rtol=1e-9)

    def test_roundtrip(self):
        L = rescale_map_L(4096.0, 7)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (30, 3))
        np.testing.assert_allclose(L.inverse().apply(L.apply(pts)), pts, atol=1e-10)

    def test_check_rescale_report(self):
        params = DecouplingParams(float(2**20), 0.75)
        rep = check_rescale(4096.0, 3, params, samples=2000, seed=1)
        assert rep.scale == pytest.approx(16.0)
        assert rep.max_curve_residual <= 1e-9
        assert rep.max_roundtrip_residual <= 1e-9
        assert rep.member_violations == 0
        assert rep.member_samples == 2000

    def test_validation(self):
        with pytest.raises(SpecValidationError):
            rescale_map_L(0.5, 0)


class TestLadderChecks:
    def test_geo1_zero_violations_and_threshold(self):
        R = float(2**20)
        r_k, r_next = default_geo1_scales(R, 0.75)
        rep = check_overlap_geo1(r_k, r_next, R, 1.0, samples=2000, seed=1)
        assert rep.violations == 0
        # Separation threshold 10 * c_eps * r_next / r_k = 20 anchor steps.
        assert rep.threshold == pytest.approx(20.0)
        assert rep.max_multiplicity >= 1
        assert rep.far_pairs_checked > 0

    def test_geo1_scale_validation(self):
        with pytest.raises(SpecValidationError):
            check_overlap_geo1(128.0, 64.0, float(2**20))

    @pytest.mark.parametrize("case", ["1", "2"])
    def test_geo2_zero_violations(self, case):
        R = float(2**20)
        r_k, r_next = default_geo2_scales(R, 0.75, case)
        rep = check_cone_containment_geo2(r_k, r_next, R, 1.0, samples=1500, seed=2)
        assert rep.case == case
        assert rep.violations == 0
        assert rep.max_angular_ratio <= 1.0
        assert rep.max_radial_ratio <= 1.0
        assert rep.caps_touched <= rep.cap_count

    def test_geo2_case2_beta1_in_range(self):
        # r_k = R^(2/5) puts beta1 = (2/5)/(3/5) = 2/3 inside [1/2, 1].
        R = float(2**20)
        rep = check_cone_containment_geo2(2.0**8, 2.0**9, R, 1.0, samples=800, seed=3)
        assert rep.case == "2"
        assert rep.beta1 == pytest.approx(8.0 / 12.0)

    def test_geo3_zero_violations(self):
        rep = check_cone_containment_geo3(float(2**18), float(2**24),
                                          samples=1500, seed=4)
        assert rep.violations == 0
        assert rep.rejected >= 0
        # Anchor angles are spaced ~|w'(t)|/s with |w'| in [2 sqrt2/3, sqrt2],
        # so the normalized gap stays above 0.9 but can dip below 1 near t=1.
        assert 0.9 <= rep.min_angle_gap_ratio <= 1.5

    def test_geo3_requires_integer_cube_root(self):
        with pytest.raises(SpecValidationError):
            check_cone_containment_geo3(float(2**19), float(2**24))

    def test_partition_members_in_exactly_one_cap(self):
        params = DecouplingParams(1024.0, 0.5)
        rep = check_partition(params, samples=5000, seed=5)
        assert rep.violations == 0
        assert rep.samples_used == 5000


GEO1_R = float(2**20)
GEO1_ORACLE_CASES = [
    # The six (beta, c_eps) pairs of the benchmark's criterion-7 grid.
    *[(*default_geo1_scales(GEO1_R, beta), c_eps, 1200, 3)
      for beta in (0.5, 0.75, 1.0) for c_eps in (1.0, 4.0)],
    # n_l <= 64 and every l' inside the window: no far candidates.
    (1.0, 1.0, 1.0, 500, 0),
    (2.0, 4.0, 1.0, 500, 1),
    (2.0, 4.0, 4.0, 500, 2),
    (16.0, 32.0, 1.0, 2000, 7),
    # r_next = 1e308: the threshold overflows to inf and the window is n_l.
    (64.0, 1e308, 1.0, 640, 2),
    # n_l > 64, far probes drawn from both sides.
    (200.0, 400.0, 1.0, 900, 4),
    # samples < ls.size gives per_l = 1.
    (256.0, 512.0, 4.0, 10, 5),
]


class TestGeo1Broadcast:
    @pytest.mark.parametrize("r_k, r_next, c_eps, samples, seed", GEO1_ORACLE_CASES)
    def test_matches_loop_reference(self, r_k, r_next, c_eps, samples, seed):
        args = (r_k, r_next, GEO1_R, c_eps, samples, seed)
        assert check_overlap_geo1(*args) == _geo1_loop_reference(*args)

    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_matches_loop_reference_at_cli_defaults(self, beta):
        # The CLI's sample count and seed at c_eps = 4, the widest window.
        args = (*default_geo1_scales(GEO1_R, beta), GEO1_R, 4.0, 10000, 1)
        assert check_overlap_geo1(*args) == _geo1_loop_reference(*args)

    def test_matches_loop_reference_with_subnormal_a(self, monkeypatch):
        # Every draw is put at |A| = a_lo = 5e-309, a subnormal. One end of
        # its candidate interval, r_k (q1/2 -+ b) / A, is past b r_k / |A|
        # and overflows to inf, so the interval is clipped to the window; the
        # C coordinate still confines its hits to its own l.
        sample = geometry.ParamBox.sample
        calls = []
        frame_points = geometry._frame_points

        def pinned_sample(box, rng, count):
            calls.append(count)
            abc = sample(box, rng, count)
            abc[:, 0] = np.copysign(box.a_lo, abc[:, 0])
            return abc

        def spied_frame_points(abc, t0):
            points.append(frame_points(abc, t0))
            return points[-1]

        monkeypatch.setattr(geometry.ParamBox, "sample", pinned_sample)
        r_k, r_next, c_eps = 4.0, 1e308, 16.0
        box = gamma_tilde(r_k, r_next, GEO1_R, 0, c_eps)
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(box.b_bound) / box.a_lo * r_k)
        args = (r_k, r_next, GEO1_R, c_eps, 400, 9)
        points = []
        monkeypatch.setattr(geometry, "_frame_points", spied_frame_points)
        rep = check_overlap_geo1(*args)
        # Every anchor drew through the patched sampler, and every tested
        # point has |A| = a_lo (A is a point's first coordinate at any t0).
        assert calls == [100] * 4
        (pts,) = points
        assert np.array_equal(np.abs(pts[..., 0]), np.full((4, 100), box.a_lo))
        assert rep.max_multiplicity == 1
        calls.clear()
        assert rep == _geo1_loop_reference(*args)
        assert calls == [100] * 4

    def test_matches_loop_reference_with_far_hits(self, monkeypatch):
        # A threshold far below the true overlap range puts overlapping boxes
        # among the far probes, so the violation count is exercised too.
        monkeypatch.setattr(geometry, "OVERLAP_FACTOR", 0.05)
        args = (256.0, 512.0, GEO1_R, 4.0, 1200, 6)
        rep = check_overlap_geo1(*args)
        assert rep.violations > 0
        assert rep == _geo1_loop_reference(*args)

    def test_ladder_at_2_to_the_53_completes(self):
        # The largest r_k admitted, and the float below it. Far probes are
        # drawn as numbers below the far count and put around the near
        # window; an array of all far indices per anchor, 2^53 of them, would
        # raise numpy's _ArrayMemoryError (64 PiB).
        for r_k in (2.0**53, 2.0**53 - 1):
            args = (r_k, 2 * r_k, 2.0**60, 1.0, 64, 3)
            rep = check_overlap_geo1(*args)
            assert rep.l_count == 64 and rep.far_pairs_checked == 8 * 64
            assert rep.violations == 0
            assert rep == _geo1_loop_reference(*args)
            top = np.array([int(r_k) - 2, int(r_k) - 1], dtype=np.int64)
            assert np.diff(top / r_k)[0] > 0  # the last two indices stay apart

    def test_ladder_past_2_to_the_53_is_refused(self):
        # Past 2^53 neighbouring l'/r_k round to one float (2^53 and 2^53 + 1
        # here), so neighbouring boxes would test as one: at 2^56 the report
        # read max_multiplicity 16-48 with 0 violations, a false clean pass.
        for r_k in (2.0**53 + 2, 2.0**56):
            assert np.diff(np.array([2**53, 2**53 + 1], dtype=np.int64) / r_k)[0] == 0
            with pytest.raises(SpecValidationError, match="2\\^53"):
                check_overlap_geo1(r_k, 2 * r_k, 2.0**60, 1.0, 64, 3)

    def test_small_sample_case_uses_one_sample_per_l(self):
        rep = check_overlap_geo1(256.0, 512.0, GEO1_R, 4.0, samples=10, seed=5)
        assert rep.l_count > 10
        assert rep.samples_used == rep.l_count
        assert rep.far_pairs_checked > 0

    def test_rejects_r_k_below_one(self):
        with pytest.raises(SpecValidationError):
            check_overlap_geo1(0.5, 1.0, GEO1_R)


GEO2_ORACLE_CASES = [
    # The criterion-7 grid at the CLI's samples and seed, both cases.
    *[(*default_geo2_scales(GEO1_R, beta, case), c_eps, None, 10000, 1)
      for beta in (0.5, 0.75, 1.0) for c_eps in (1.0, 4.0) for case in ("1", "2")],
    # Slab bottom 1/(2r) = a_hi: only boxes with rho(t0) > 1, t0 > 0.91,
    # reach it, so most are skipped.
    (256.0, 512.0, 1.0, 128.0, 3000, 3),
    # Slab bottom 2 a_hi: no box reaches it.
    (256.0, 512.0, 1.0, 64.0, 3000, 4),
]


class TestGeo2Stacked:
    @pytest.mark.parametrize("r_k, r_next, c_eps, r, samples, seed", GEO2_ORACLE_CASES)
    def test_matches_loop_reference(self, r_k, r_next, c_eps, r, samples, seed, monkeypatch):
        args = (r_k, r_next, GEO1_R, c_eps, r, samples, seed)
        rep = check_cone_containment_geo2(*args)
        monkeypatch.setattr(geometry, "_cone_slab_check", _cone_slab_loop_reference)
        assert rep == check_cone_containment_geo2(*args)

    def test_skipped_boxes_are_counted(self):
        some = check_cone_containment_geo2(256.0, 512.0, GEO1_R, 1.0, 128.0, 3000, 3)
        assert 0 < some.skipped_l < some.l_count
        assert some.samples_used == (some.l_count - some.skipped_l) * (3000 // some.l_count)
        none = check_cone_containment_geo2(256.0, 512.0, GEO1_R, 1.0, 64.0, 3000, 4)
        assert none.skipped_l == none.l_count
        assert (none.samples_used, none.caps_touched, none.max_caps_per_l) == (0, 0, 0)


GEO3_ORACLE_CASES = [
    # The criterion-7 grid at the CLI's samples and seed: geo3's scales do not
    # depend on beta, so its six (beta, c_eps) pairs are two cases.
    *[(*default_geo3_scales(GEO1_R), c_eps, 10000, 1) for c_eps in (1.0, 4.0)],
    # Fewer samples at other seeds and c_eps.
    *[(512.0, 4096.0, c_eps, samples, seed)
      for c_eps, samples, seed in [(1.0, 500, 2), (1.0, 3000, 5), (4.0, 500, 7), (2.0, 3000, 11)]],
    # Other rungs: s = 64 (anchors drawn), s = 4 and s = 16.
    (2.0**18, 2.0**24, 1.0, 3000, 4),
    (64.0, 4096.0, 1.0, 3000, 6),
    (4096.0, 32768.0, 1.0, 500, 8),
    (4096.0, 32768.0, 4.0, 3000, 9),
    # s or c_eps off the powers of two, where the defect factors round: with
    # dilation * s**-2.0 * DEFECT_MARGIN folded first, each of these reports
    # moves. s = 3, 5, 12 and 8.
    (27.0, 729.0, 1.5, 3000, 0),
    (125.0, 8000.0, 1.0, 500, 1),
    (1728.0, 13824.0, 3.0, 3000, 3),
    (512.0, 4096.0, 3.0, 3000, 4),
]


@pytest.mark.parametrize("size, high", [(0, 1), (1, 1), (62, 5), (64, 2**40), (4096, 30)])
def test_sorted_distinct_is_unique(size, high):
    x = np.random.default_rng(size).integers(-high, high, size)
    got = _sorted_distinct(x)
    assert got.dtype == x.dtype and np.array_equal(got, np.unique(x))


class TestGeo3Batched:
    @pytest.mark.parametrize("r_k, r_next, c_eps, samples, seed", GEO3_ORACLE_CASES)
    def test_matches_loop_reference(self, r_k, r_next, c_eps, samples, seed):
        args = (r_k, r_next, None, c_eps, samples, seed)
        assert check_cone_containment_geo3(*args) == _geo3_loop_reference(*args)

    def test_norms_are_linalg_norm_bits(self):
        # Each batch sums the squared difference columns left to right, which
        # is np.linalg.norm(delta, axis=1) bit for bit. Reports cannot show a
        # one-ulp change, which would move a draw across the ball only rarely.
        rng = np.random.default_rng(13)
        delta = rng.standard_normal((5000, 3)) * [1e-1, 1e-2, 1e-3]
        d0, d1, d2 = delta.T.copy()
        assert np.array_equal(geometry._column_norms(d0, d1, d2),
                              np.linalg.norm(delta, axis=1))


@pytest.mark.parametrize(
    "check",
    [
        lambda n: check_overlap_geo1(256.0, 512.0, GEO1_R, samples=n),
        lambda n: check_cone_containment_geo2(2.0**8, 2.0**9, GEO1_R, samples=n),
        lambda n: check_cone_containment_geo3(float(2**18), float(2**24), samples=n),
        lambda n: check_rescale(4096.0, 3, DecouplingParams(GEO1_R, 0.75), samples=n),
        lambda n: check_partition(DecouplingParams(1024.0, 0.5), samples=n),
    ],
    ids=["geo1", "geo2", "geo3", "rescale", "partition"],
)
def test_checks_reject_zero_samples(check):
    with pytest.raises(SpecValidationError):
        check(0)


# Reports at 500 samples, seed 7, pinned field by field (floats by repr):
# geo2 at its default case-1 (2^12, 2^13) and case-2 (2^8, 2^9) scales for
# R = 2^20, beta = 0.75; geo3 at its default (8^3, 8^4) rungs; rescale and
# partition at the CLI defaults.
PINNED_REPORTS = [
    (
        lambda: check_cone_containment_geo2(4096.0, 8192.0, GEO1_R, 1.0, None, 500, 7),
        ConeReport(
            case="1", r=8192.0, beta1=None, angular_halfwidth=0.0390625,
            radial_width=0.078125, cap_count=81, caps_touched=16, max_caps_per_l=2,
            l_count=64, samples_used=448, skipped_l=0, violations=0,
            max_angular_ratio=0.22556637314949057, max_radial_ratio=0.13729901384452886,
        ),
    ),
    (
        lambda: check_cone_containment_geo2(256.0, 512.0, GEO1_R, 1.0, None, 500, 7),
        ConeReport(
            case="2", r=512.0, beta1=0.6666666666666667,
            angular_halfwidth=0.031003926796253876, radial_width=0.0048828125,
            cap_count=102, caps_touched=20, max_caps_per_l=2, l_count=64,
            samples_used=448, skipped_l=0, violations=0,
            max_angular_ratio=0.45638374898550305, max_radial_ratio=0.1431931557804546,
        ),
    ),
    (
        lambda: check_cone_containment_geo3(512.0, 4096.0, None, 1.0, 500, 7),
        CanonicalConeReport(
            r=16.0, angular_halfwidth=1.2500000000000002, radial_width=0.6250000000000002,
            block_count=8, l_count=8, samples_used=496, rejected=3866, violations=0,
            max_angular_ratio=0.38412573861103666, max_radial_ratio=0.07636796291681269,
            min_angle_gap_ratio=1.063251735856677,
        ),
    ),
    (
        lambda: check_rescale(4096.0, 3, DecouplingParams(GEO1_R, 0.75), 500, 7),
        RescaleReport(
            scale=16.0, max_curve_residual=1.7434404614435906e-14,
            max_roundtrip_residual=1.7763568394002505e-15, member_samples=500,
            member_violations=0,
        ),
    ),
    (
        lambda: check_partition(DecouplingParams(GEO1_R, 0.75), 500, 7),
        PartitionReport(samples_used=500, violations=0),
    ),
]


@pytest.mark.parametrize(
    "run, expected", PINNED_REPORTS, ids=["geo2-case1", "geo2-case2", "geo3", "rescale", "partition"]
)
def test_report_is_pinned(run, expected):
    assert run() == expected


class TestDefaultScales:
    def test_geo1_scales_in_ladder_window(self):
        R = float(2**20)
        r_k, r_next = default_geo1_scales(R, 0.75)
        assert R ** (1.0 / 3.0) <= r_k <= R**0.75
        assert r_next == 2.0 * r_k

    def test_geo2_case1_matches_r_to_06(self):
        # At R = 2^20, beta = 0.75 the dyadic midpoint rounds to R^0.6 = 2^12.
        r_k, _ = default_geo2_scales(float(2**20), 0.75, "1")
        assert r_k == 2.0**12

    def test_geo2_case1_needs_beta_at_least_half(self):
        with pytest.raises(SpecValidationError):
            default_geo2_scales(float(2**20), 0.4, "1")

    def test_geo2_case2_window(self):
        R = float(2**20)
        r_k, r_next = default_geo2_scales(R, 0.75, "2")
        assert R ** (1.0 / 3.0) <= r_k <= math.sqrt(R)
        assert r_next == 2.0 * r_k

    def test_geo3_adjacent_cube_rungs(self):
        s_k, s_next = default_geo3_scales(float(2**20))
        assert s_next == 8.0 * s_k
        assert round(s_k ** (1.0 / 3.0)) ** 3 == s_k


class TestBlocks:
    @pytest.mark.parametrize("s, l, dilation", [(8, 3, 1.0), (12, 5, 3.0), (27, 26, 1.5)])
    def test_sample_block_matches_reference(self, s, l, dilation):
        block = CanonicalBlock(s, l)
        got = sample_block(block, np.random.default_rng(s), 2000, dilation=dilation)
        want = _sample_block_reference(block, np.random.default_rng(s), 2000, dilation)
        assert np.array_equal(got, want)

    def test_block_contains_its_samples(self):
        block = CanonicalBlock(64, 10)
        rng = np.random.default_rng(8)
        pts = sample_block(block, rng, 300)
        assert block.contains(pts).all()

    def test_dilated_samples_leave_core_block(self):
        block = CanonicalBlock(64, 10)
        rng = np.random.default_rng(9)
        pts = sample_block(block, rng, 600, dilation=4.0)
        inside = block.contains(pts)
        assert 0 < inside.sum() < 600

    def test_block_validation(self):
        with pytest.raises(SpecValidationError):
            CanonicalBlock(0, 0)
        with pytest.raises(SpecValidationError):
            CanonicalBlock(8, 8)
