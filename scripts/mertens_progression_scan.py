#!/usr/bin/env python3
"""Decade-by-decade comparison of exact prime sums against their main terms.

For each residue class the table shows the exact partial sum of f(p)/p,
the catalogued main term, and the gap, which should stabilize (the O(1)
constant) as the limit grows.
"""

import argparse

from apmoments.arith_fn import parse_fn
from apmoments.prime_sums import closed_form_asymptotic, prime_power_sum
from apmoments.sieve import Progression


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fn", default="const:1")
    ap.add_argument("--max-decade", type=int, default=8)
    ap.add_argument("--classes", default="4:1,4:3,3:1,3:2")
    args = ap.parse_args()

    fn = parse_fn(args.fn)
    progs = []
    for tok in args.classes.split(","):
        k, l = tok.split(":")
        progs.append(Progression(int(k), int(l)))

    # decades outside, classes inside: the classes of one modulus at one x
    # follow each other, so where the primes past 10^6 are counted
    # (from 10^8 on for mod 3 and mod 4) they share one counting table
    decades = range(3, args.max_decade + 1)
    exact = {(d, prog): prime_power_sum(fn, 1, 10**d, prog).value
             for d in decades for prog in progs}

    print(f"fn={args.fn}  (start prime {fn.start_prime})")
    for prog in progs:
        print(f"\nclass {prog.residue} mod {prog.modulus}")
        print(f"{'x':>12} {'exact':>12} {'main term':>12} {'gap':>10}")
        for d in decades:
            x, value = 10**d, exact[d, prog]
            main = closed_form_asymptotic(fn, 1, x, prog.modulus).main_term
            print(f"{x:>12} {value:>12.6f} {main:>12.6f} {value - main:>10.6f}")


if __name__ == "__main__":
    main()
