#!/usr/bin/env python3
"""Empirical moments of an additive function next to the model's predictions.

Shows the empirical mean/central moments over progression members, the
exact model moments under both prime-set readings (residue-class primes
vs all primes coprime to the modulus), and the first-order approximation
sum f(p)^u / p.  The two readings bracket the empirical values; neither
is asserted as the correct one.
"""

import argparse

from apmoments.arith_fn import resolve_spec
from apmoments.model import exact_moments
from apmoments.moments import collect_datasets, summarize
from apmoments.sieve import Progression


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mod", type=int, default=4)
    ap.add_argument("--res", type=int, default=1)
    ap.add_argument("--n", type=lambda s: int(float(s)), default=10**6)
    ap.add_argument("--fn", default="omega")
    ap.add_argument("--ext", choices=["strong", "complete"], default=None,
                    help="prime-power rule (default: the built-in's, else strong)")
    ap.add_argument("--umax", type=int, default=4)
    args = ap.parse_args()

    prog = Progression(args.mod, args.res)
    fn, ext = resolve_spec(args.fn, prog, args.ext)

    (dataset,) = collect_datasets([(fn, ext)], prog, args.n, args.umax, keep=False)
    emp = summarize(dataset.moments, prog, args.n)
    restricted = exact_moments(fn, prog, args.n, u_max=args.umax, mode="restricted")
    density = exact_moments(fn, prog, args.n, u_max=args.umax, mode="density")

    print(f"fn={args.fn} ext={ext.mode} over {args.res} mod {args.mod}, n={args.n}")
    print(f"{'':>14} {'empirical':>12} {'restricted':>12} {'density':>12} {'approx(r)':>12}")
    print(
        f"{'mean':>14} {emp.mean:>12.6f} {restricted.kappa[1]:>12.6f} "
        f"{density.kappa[1]:>12.6f} {restricted.first_order[1]:>12.6f}"
    )
    for u in range(2, args.umax + 1):
        print(
            f"{'mu_' + str(u):>14} {emp.mu[u]:>12.6f} {restricted.mu[u]:>12.6f} "
            f"{density.mu[u]:>12.6f} {restricted.first_order[u]:>12.6f}"
        )


if __name__ == "__main__":
    main()
