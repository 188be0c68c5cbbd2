"""Average p-th powers of a unit-spectrum sum over cubes of side R^max(2beta,1).

Frequencies sit on the curve (xi, xi^2, xi^3) with spacing R^-beta. The p = 2
moment has a closed form (pair sum of interval averages), so it calibrates
the sampled route; p > 2 shows the R^(beta p / 2) square-root-cancellation
trend for random signs.
"""

import argparse

import numpy as np

from momentcurve import (
    coeffs_for,
    exponent_fit,
    local_moment_quadrature,
    standard_frequency_set,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--p", type=float, default=4.0)
    parser.add_argument("--r-values", type=float, nargs="+",
                        default=[256.0, 1024.0, 4096.0])
    parser.add_argument("--n-seeds", type=int, default=8)
    args = parser.parse_args()

    print(f"beta={args.beta}, p={args.p}, {args.n_seeds} seeds per R")
    side_exp = max(2.0 * args.beta, 1.0)
    points = []
    print(f"{'R':>8}  {'|Xi|':>6}  {'median moment':>16}  {'R^(beta p/2)':>14}")
    for r_scale in args.r_values:
        xi = standard_frequency_set(r_scale, args.beta)
        vals = []
        for seed in range(1, args.n_seeds + 1):
            coeffs = coeffs_for("random_sign", xi.size, seed)
            rec = local_moment_quadrature(
                xi, coeffs, args.p, r_scale, args.beta,
                cube_side=r_scale**side_exp, seed=seed,
            )
            vals.append(rec.value)
        med = float(np.median(vals))
        points.append((r_scale, med))
        print(f"{r_scale:>8.0f}  {xi.size:>6}  {med:>16.9g}  "
              f"{r_scale ** (args.beta * args.p / 2):>14.6g}")

    fit = exponent_fit(points)
    print(f"\nfitted exponent {fit.slope:.6f}")
    print(f"envelope target {args.beta * args.p / 2:.6f} (beta p / 2)")

    xi = standard_frequency_set(args.r_values[0], args.beta)
    coeffs = coeffs_for("random_sign", xi.size, 1)
    rec = local_moment_quadrature(
        xi, coeffs, 2.0, args.r_values[0], args.beta,
        cube_side=args.r_values[0] ** side_exp,
    )
    print(f"\np=2 control at R={args.r_values[0]:.0f}: "
          f"moment {rec.value:.12g} vs |Xi| = {xi.size} "
          f"(route: {rec.method})")


if __name__ == "__main__":
    main()
