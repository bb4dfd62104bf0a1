#!/usr/bin/env python3
"""KS-distance trend of normalized additive-function values against the normal law.

Convergence is O(1/sqrt(lnln n)), so expect a slow drift downward, with a
floor set by the discreteness of integer-valued functions.
"""

import argparse

from apmoments.arith_fn import builtin
from apmoments.sieve import Progression
from apmoments.stats import erdos_kac_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mod", type=int, default=4)
    ap.add_argument("--res", type=int, default=1)
    ap.add_argument("--decades", default="4,5,6,7")
    ap.add_argument("--norm", choices=["sigma", "sqrt_mean"], default="sqrt_mean")
    args = ap.parse_args()

    prog = Progression(args.mod, args.res)
    fn, ext = builtin("omega")
    print(f"omega over {args.res} mod {args.mod}, normalization={args.norm}")
    print(f"{'n':>12} {'count':>10} {'mean':>8} {'scale':>8} {'KS':>8} {'floor':>8}")
    for d in (int(t) for t in args.decades.split(",")):
        rep = erdos_kac_report(fn, ext, prog, 10**d, normalization=args.norm)
        print(
            f"{rep.n:>12} {rep.count:>10} {rep.center:>8.4f} "
            f"{rep.scale:>8.4f} {rep.ks:>8.4f} {rep.ks_floor:>8.4f}"
        )


if __name__ == "__main__":
    main()
