"""Tour of the curve neighborhood: frames, caps, cone map, rescaling ladder.

Prints the frame at a sample parameter, recovers a difference box's frame
coefficients from its points, shows how far a dilated block's draws reach,
shows how the quadratic and cubic defects transform under the
renormalization map, maps tangent directions onto the light cone, and runs
the sampled containment checks at modest sizes.
"""

import argparse
import math

import numpy as np

from momentcurve import (
    CanonicalBlock,
    DecouplingParams,
    check_cone_containment_geo2,
    check_cone_containment_geo3,
    check_overlap_geo1,
    check_partition,
    check_rescale,
    cone_map_T,
    curve_point,
    default_geo1_scales,
    default_geo2_scales,
    default_geo3_scales,
    frame_coordinates,
    frame_matrix,
    frenet_frame,
    gamma_tilde,
    rescale_map_L,
    sample_block,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--R", type=float, default=float(2**20))
    parser.add_argument("--beta", type=float, default=0.75)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    t0 = 0.5
    print(f"curve point gamma({t0}) = {curve_point(t0)}")
    frame = frame_matrix(t0)
    print(f"frame determinant {np.linalg.det(frame):.12g} (always 12)")

    rng = np.random.default_rng(args.seed)
    r_k = 64.0
    box = gamma_tilde(r_k, 2.0 * r_k, args.R, 32)
    pts = box.to_points(box.sample(rng, 200))
    print(f"\ndifference box at l=32 of r_k={r_k:.0f}: its points, read back in frames at l':")
    for lp in (32, 33, 40):
        inside = box.contains_abc(frame_coordinates(lp / r_k, pts))
        print(f"  l'={lp}: {np.count_nonzero(inside)} of {len(pts)} inside")
    block = CanonicalBlock(16, 5)
    for dilation in (1.0, 4.0):
        drawn = sample_block(block, rng, 1000, dilation=dilation)
        print(f"  block (s=16, l=5) dilated {dilation:g}: "
              f"{np.count_nonzero(block.contains(drawn))} of 1000 draws in the core block")

    print("\ncone map T on tangent directions (angle falls from pi/2):")
    cone = cone_map_T()
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        w = cone.apply(frenet_frame(t)[0]).ravel()
        angle = math.atan2(w[1], w[0])
        print(f"  t={t:4.2f}  angle {angle:.6f}  "
              f"radius {math.hypot(w[0], w[1]):.6f}  w3 {w[2]:.6f}")
    print(f"  asin(1/3) = {math.asin(1.0 / 3.0):.6f} (angle at t=1)")

    r_prev = 4096.0
    scale = r_prev ** (1.0 / 3.0)
    lmap = rescale_map_L(r_prev, 0)
    print(f"\nrescale map, l=0: diagonal {np.diag(lmap.matrix)}")
    print(f"quadratic defects scale by S^2 = {scale**2:.0f}, "
          f"cubic by S^3 = {scale**3:.0f}")

    params = DecouplingParams(args.R, args.beta)
    print(f"\nsampled checks at R=2^{round(math.log2(args.R))}, "
          f"beta={args.beta}, {args.samples} samples:")
    g1 = check_overlap_geo1(*default_geo1_scales(args.R, args.beta),
                            args.R, 1.0, args.samples, args.seed)
    print(f"  overlap: {g1.violations} violations, "
          f"max multiplicity {g1.max_multiplicity} "
          f"(threshold {g1.threshold:.0f})")
    for case in ("1", "2"):
        g2 = check_cone_containment_geo2(
            *default_geo2_scales(args.R, args.beta, case),
            args.R, 1.0, None, args.samples, args.seed,
        )
        print(f"  cone containment case {case}: {g2.violations} violations, "
              f"max angular ratio {g2.max_angular_ratio:.3f}")
    g3 = check_cone_containment_geo3(
        *default_geo3_scales(args.R), None, 1.0, args.samples, args.seed
    )
    print(f"  canonical-block containment: {g3.violations} violations")
    part = check_partition(params, args.samples, args.seed)
    print(f"  cap partition: {part.violations} violations "
          f"over {part.samples_used} members")
    resc = check_rescale(r_prev, 3, params, args.samples, args.seed)
    print(f"  rescale: curve residual {resc.max_curve_residual:.2e}, "
          f"roundtrip {resc.max_roundtrip_residual:.2e}, "
          f"{resc.member_violations} member violations")


if __name__ == "__main__":
    main()
