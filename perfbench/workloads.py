"""The benchmark's workloads: each is a series of ``apmoments`` subcommands.

A workload is a list of :class:`Op`.  The seed picks residue classes
among the coprime residues of fixed moduli, the order of the four
Mertens sums and the Monte Carlo seeds; it never changes a size, so
every seed asks for the same amount of work.  ``small`` shrinks every
size for the benchmark's own tests.

Paths inside an argv use the ``{work}`` placeholder, which the runner
replaces with its scratch directory.  Each op carries the checks that
run on its report after the timed window (see ``checks.py``) and a pin
key: the argv that identifies its deterministic output, without the
Monte Carlo seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("members_lattice", "members_real", "primes_model")

# Residue-class slots per workload: slot -> the classes the seed picks from.
SLOTS: dict[str, dict[str, tuple[int, ...]]] = {
    "members_lattice": {"res4": (1, 3)},
    "members_real": {"res3_invloglog": (1, 2), "res3_tab": (1, 2)},
    "primes_model": {"res4": (1, 3), "res3": (1, 2)},
}

MERTENS_CLASSES = ((4, 1), (4, 3), (3, 1), (3, 2))


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    checks: tuple[tuple, ...] = ()

    @property
    def pin_key(self) -> str:
        """The argv without the Monte Carlo seed: what fixes the pinned output."""
        argv = list(self.argv)
        if "--seed" in argv:
            i = argv.index("--seed")
            del argv[i : i + 2]
        return " ".join(argv)


def _sizes(small: bool) -> dict[str, str]:
    if small:
        return {"lattice_n": "3e5", "real_n": "1e5", "tab_n": "1e4", "x": "1e6",
                "x_lo": "1e5", "x_stream": "2e6", "model_n": "1e6", "sample_n": "1e4",
                "trials": "1e3"}
    return {"lattice_n": "3e7", "real_n": "1e7", "tab_n": "1e6", "x": "1e8",
            "x_lo": "1e7", "x_stream": "4e8", "model_n": "1e8", "sample_n": "1e6",
            "trials": "1e5"}


def _members_lattice(c: dict, rng: random.Random, s: dict) -> list[Op]:
    cls = ("--mod", "4", "--res", str(c["res4"]), "--n", s["lattice_n"])
    return [
        Op("moments", ("moments", "--fn", "omega", *cls, "--umax", "6"),
           (("count",), ("mean", "omega", False), ("chebyshev",))),
        Op("ektest", ("ektest", "--fn", "omega", "--norm", "sqrt_mean", *cls),
           (("count",), ("center_is_mean", "moments"))),
        Op("compare", ("compare", "--fn-star", "omega", "--fn", "bigomega", "--class", "H", *cls),
           (("count",), ("pair_means", "omega", "bigomega", True))),
    ]


def _members_real(c: dict, rng: random.Random, s: dict) -> list[Op]:
    spill = ("--spill", "{work}/values.f64")
    full = ("--mod", "1", "--n", s["real_n"])
    tab = "tab:5=1.5,7=2,default=0.25"
    return [
        Op("moments_spill", ("moments", "--fn", "sqrtloglog", *full, *spill),
           (("count",), ("mean", "sqrtloglog", False), ("chebyshev",))),
        Op("ektest_spill", ("ektest", "--fn", "sqrtloglog", "--norm", "sigma", *full, *spill),
           (("count",), ("center_is_mean", "moments_spill"))),
        Op("moments_complete",
           ("moments", "--fn", "invloglog", "--ext", "complete", "--mod", "3",
            "--res", str(c["res3_invloglog"]), "--n", s["real_n"]),
           (("count",), ("mean", "invloglog", True), ("chebyshev",))),
        Op("moments_tab",
           ("moments", "--fn", tab, "--mod", "3", "--res", str(c["res3_tab"]), "--n", s["tab_n"]),
           (("count",), ("mean", tab, False), ("chebyshev",))),
    ]


def _primes_model(c: dict, rng: random.Random, s: dict) -> list[Op]:
    r4, r3 = str(c["res4"]), str(c["res3"])
    order = list(MERTENS_CLASSES)
    rng.shuffle(order)
    ops = []
    for k, l in order:
        ops.append(Op(f"sum_{k}_{l}", ("sum", "--fn", "const:1", "--mod", str(k), "--res", str(l),
                                       "--x", s["x"])))
    for k, l in order:
        ops.append(Op(f"sum_lo_{k}_{l}",
                      ("sum", "--fn", "const:1", "--mod", str(k), "--res", str(l), "--x", s["x_lo"]),
                      (("mertens", f"sum_{k}_{l}"),)))
    seeds = rng.sample(range(1, 1 << 31), 2)
    ops += [
        Op("sum_invloglog", ("sum", "--fn", "invloglog", "--mod", "4", "--res", r4, "--x", s["x"])),
        Op("sum_sqrtloglog", ("sum", "--fn", "sqrtloglog", "--u", "2", "--mod", "3", "--res", r3,
                              "--x", s["x"])),
        Op("sum_stream", ("sum", "--fn", "const:1", "--mod", "4", "--res", r4,
                          "--x", s["x_stream"])),
        Op("asymptotic_closed", ("asymptotic", "--fn", "invloglog", "--mod", "4", "--x", s["x"],
                                 "--method", "closed")),
        Op("asymptotic_integral", ("asymptotic", "--fn", "sqrtloglog", "--u", "2", "--mod", "3",
                                   "--x", s["x"], "--method", "integral")),
        Op("probe_series", ("probe", "--series", "inv_p_squared", "--fn", "const:1",
                            "--mod", "4", "--res", r4)),
        Op("probe_custom", ("probe", "--fn", "invloglog", "--mod", "4", "--res", r4)),
        Op("probe_integral", ("probe", "--fn", "invloglog", "--integral")),
    ]
    for mode in ("restricted", "density"):
        ops.append(Op(f"exact_{mode}", ("model", "exact", "--fn", "const:1", "--mod", "4",
                                        "--res", r4, "--n", s["model_n"], "--umax", "6",
                                        "--mode", mode), (("gap",),)))
    ops.append(Op("lindeberg", ("model", "lindeberg", "--fn", "sqrtloglog", "--mod", "4",
                                "--res", r4, "--n", s["model_n"])))
    for res, seed in zip(("1", "3"), seeds):
        ops.append(Op(f"sample_{res}", ("model", "sample", "--fn", "const:1", "--mod", "4",
                                        "--res", res, "--n", s["sample_n"],
                                        "--trials", s["trials"], "--seed", str(seed)),
                      (("monte_carlo",),)))
    return ops


_BUILDERS = {
    "members_lattice": _members_lattice,
    "members_real": _members_real,
    "primes_model": _primes_model,
}


def build(name: str, seed: int, small: bool = False) -> list[Op]:
    """The ops of one workload for one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    choice = {slot: rng.choice(opts) for slot, opts in SLOTS[name].items()}
    return _BUILDERS[name](choice, rng, _sizes(small))


def every_variant(name: str) -> list[list[Op]]:
    """One op list per combination of residue classes (for pinning outputs)."""
    slots = SLOTS[name]
    variants = []
    for combo in itertools.product(*slots.values()):
        choice = dict(zip(slots, combo))
        variants.append(_BUILDERS[name](choice, random.Random(0), _sizes(False)))
    return variants
