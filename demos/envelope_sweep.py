"""Fit the moment growth exponent against the N^(s-sigma) + N^(2s-6) envelope.

Sweeps the exact 2s-th moment over a dyadic range of N, fits a power law in
log-log space, and compares the slope with the larger envelope exponent.
Constant coefficients probe the constructive branch (2s - 6 for large s);
random signs probe the square-root-cancellation branch (s - sigma).
"""

import argparse

from momentcurve import SweepConfig, verify_envelope
from momentcurve.records import write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--family", default="constant",
                        choices=("constant", "random_sign", "random_phase"))
    parser.add_argument("--n-values", type=int, nargs="+",
                        default=[32, 48, 64, 96])
    parser.add_argument("--n-seeds", type=int, default=8)
    parser.add_argument("--out", help="optional CSV path for the sweep rows")
    args = parser.parse_args()

    seeds = tuple(range(1, args.n_seeds + 1)) if args.family != "constant" else (1,)
    cfg = SweepConfig(
        x_values=tuple(args.n_values), family=args.family, seeds=seeds,
        sigma=args.sigma, s=args.s,
    )
    report = verify_envelope(cfg)

    print(f"family={args.family}, s={args.s}, sigma={args.sigma}, "
          f"{len(seeds)} seed(s)")
    print(f"{'N':>6}  {'moment':>18}  {'envelope':>14}")
    for row in report.rows:
        print(f"{row.x:>6.0f}  {row.value:>18.9g}  {row.envelope:>14.6g}")

    print(f"\nfitted exponent {report.fit.slope:.4f}")
    print(f"envelope target {report.target:.4f} (max of s-sigma and 2s-6)")
    print(f"within tolerance {cfg.tolerance}: {report.passed}")

    if args.out:
        write_csv(
            args.out,
            ["N", "value", "envelope"],
            [[row.x, row.value, row.envelope] for row in report.rows],
        )
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
