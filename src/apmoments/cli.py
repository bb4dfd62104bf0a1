"""Command-line entry point wiring every module.

Reports are JSON on stdout by default (CSV by flag where a schema is
defined), with the resolved configuration embedded in every report and
floats rendered at 15 significant digits.  Output files are written to a
temporary sibling and renamed, so no partial files survive an error.
Wall-clock duration goes to stderr to keep report bytes identical across
reruns with the same configuration.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__, model, moments, prime_sums, stats
from .arith_fn import Extension, FunctionPair, PrimeFunction, builtin, collect_values, parse_fn
from .config import CHEBYSHEV_B_DEFAULT, PROBE_CHECKPOINTS, U_MAX_CAP, U_MAX_DEFAULT
from .sieve import Progression, iter_prime_blocks

_CSV_HEADER = ["x", "k", "l", "u", "exact_sum", "main_term", "err1", "err2", "case", "verdict"]

_BUILTIN_NAMES = ("omega", "bigomega", "big_omega", "omega1", "half_omega")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return "" if v is None else str(v)


def _quantize(obj: Any) -> Any:
    """Round floats to 15 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _emit(report: dict, args: argparse.Namespace, csv_rows: list[list] | None = None) -> None:
    cfg = report["config"]
    if args.format == "csv":
        if csv_rows is None:
            raise ValueError(f"csv output is not defined for subcommand {cfg['subcommand']!r}")
        lines = [
            "# config: " + json.dumps(_quantize(cfg)),
            f"# version: {__version__}",
            ",".join(_CSV_HEADER if "ks" not in report else ["x", "F_emp", "Phi", "abs_diff"]),
        ]
        lines += [",".join(_fmt(c) for c in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_quantize(report), indent=2) + "\n"
    if args.out:
        with moments.atomic_file(args.out) as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {"subcommand": args.subcommand}
    for key, value in sorted(vars(args).items()):
        if key in skip or key == "subcommand":
            continue
        out[key] = value
    return out


def _report(args: argparse.Namespace, payload: dict) -> dict:
    return {"config": _resolved_config(args), "version": __version__, **payload}


class _UsageError(ValueError):
    """A bad argument value found after parsing; exits 2 like a parser error."""


def _progression(args) -> Progression:
    try:
        return Progression(args.mod, args.res)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_fn(args) -> tuple[PrimeFunction, Extension]:
    """Function spec + extension from --fn/--ext/--p0, including builtins."""
    name = args.fn.lower()
    ext_flag = getattr(args, "ext", "strong")
    if name in _BUILTIN_NAMES:
        prog = _progression(args) if name == "omega1" else None
        fn, ext = builtin(name, prog)
    else:
        fn = parse_fn(args.fn)
        ext = Extension(ext_flag)
    if name == "omega" and ext_flag == "complete":
        ext = Extension("complete")
    if getattr(args, "p0", None) is not None:
        try:
            fn = dataclasses.replace(fn, p0=args.p0)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return fn, ext


def _fn_spec(text: str) -> str:
    """Parser type for --fn/--fn-star: the spec text, once it parses."""
    if text.lower() not in _BUILTIN_NAMES:
        try:
            parse_fn(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _integer(text: str) -> int:
    """Parser type for sizes (--n, --x, --limit, --trials): an integer, 1e6 allowed."""
    try:
        return int(float(text))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _positive_integer(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _modulus(text: str) -> int:
    """Parser type for --mod: an integer k >= 1."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"modulus must be >= 1, got {k}")
    return k


def _sieve_limit(flag: str, limit: int) -> int:
    if limit < 2:
        raise _UsageError(f"argument --{flag}: sieve limit must be >= 2, got {limit}")
    return limit


def _checkpoints(args, start_prime: int | None = None) -> tuple[int, ...]:
    """--checkpoints (or the defaults): increasing sieve limits, or, for the
    rate integral, increasing upper ends above its start prime."""
    cps = PROBE_CHECKPOINTS
    if args.checkpoints:
        try:
            cps = tuple(int(float(tok)) for tok in args.checkpoints.split(","))
        except (ValueError, OverflowError):
            cps = ()
        if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
            raise _UsageError(
                f"argument --checkpoints: expected increasing limits, got {args.checkpoints!r}"
            )
    if start_prime is None and cps[0] < 2:
        raise _UsageError(f"argument --checkpoints: sieve limits must be >= 2, got {cps[0]}")
    if start_prime is not None and cps[0] <= start_prime:
        raise _UsageError(
            f"argument --checkpoints: the first checkpoint must exceed the start prime "
            f"{start_prime}, got {cps[0]}"
        )
    return cps


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_sieve(args) -> None:
    prog = _progression(args)
    blocks = iter_prime_blocks(_sieve_limit("limit", args.limit), None if prog.is_full else prog)
    texts = ("\n".join(map(str, block.tolist())) + "\n" for block in blocks)
    if args.out:
        with moments.atomic_file(args.out) as fh:
            for text in texts:
                fh.write(text.encode())
    else:
        for text in texts:
            sys.stdout.write(text)


def cmd_sum(args) -> None:
    fn, _ = _resolve_fn(args)
    if args.u < 1:
        raise _UsageError(f"argument --u: sum needs an order >= 1, got {args.u}")
    res = prime_sums.prime_power_sum(fn, args.u, args.x, _progression(args))
    payload = {
        "x": res.x,
        "k": res.progression.modulus,
        "l": res.progression.residue,
        "u": res.u,
        "exact_sum": res.value,
        "term_count": res.term_count,
        "compensated": res.compensated,
    }
    rows = [[res.x, args.mod, args.res, res.u, res.value, None, None, None, None, None]]
    _emit(_report(args, payload), args, rows)


def cmd_asymptotic(args) -> None:
    fn, _ = _resolve_fn(args)
    k = args.mod
    method = args.method
    est = None
    if method in ("auto", "closed"):
        try:
            est = prime_sums.closed_form_asymptotic(fn, args.u, args.x, k)
        except prime_sums.ClosedFormUnavailable:
            if method == "closed":
                raise
    if est is None:
        est = prime_sums.integral_asymptotic(fn, args.u, args.x, k)
    payload = {
        "x": args.x,
        "k": k,
        "u": args.u,
        "main_term": est.main_term,
        "err1": est.error_magnitude_1,
        "err2": est.error_magnitude_2,
        "formula_tag": est.formula_tag,
    }
    rows = [[args.x, k, getattr(args, "res", None), args.u, None, est.main_term,
             est.error_magnitude_1, est.error_magnitude_2, None, None]]
    _emit(_report(args, payload), args, rows)


def cmd_classify(args) -> None:
    fn, _ = _resolve_fn(args)
    c = prime_sums.classify_decay(fn, args.u)
    payload = {"fn": args.fn, "u": args.u, "case": c.label, "sign": c.sign, "note": c.note}
    rows = [[None, None, None, args.u, None, None, None, None, c.label, None]]
    _emit(_report(args, payload), args, rows)


def cmd_probe(args) -> None:
    if args.integral:
        fn, _ = _resolve_fn(args)
        res = prime_sums.divergence_probe(fn, args.u, _checkpoints(args, fn.start_prime))
    elif args.series == "custom":
        fn, _ = _resolve_fn(args)
        res = prime_sums.convergence_probe("custom", _progression(args), _checkpoints(args),
                                           custom=(fn, args.u))
    else:
        res = prime_sums.convergence_probe(args.series, _progression(args), _checkpoints(args))
    payload = {
        "checkpoints": list(res.checkpoints),
        "values": list(res.values),
        "verdict": res.verdict,
        "tail_bound": res.tail_bound,
    }
    rows = [
        [cp, args.mod, args.res, args.u, v, None, None, None, None, res.verdict]
        for cp, v in zip(res.checkpoints, res.values)
    ]
    _emit(_report(args, payload), args, rows)


def cmd_moments(args) -> None:
    fn, ext = _resolve_fn(args)
    prog = _progression(args)
    # predictions first, so the sieve's temporaries are gone before the values exist
    preds = model.mean_predictions(fn, prog, args.n)
    values = collect_values(fn, ext, prog, args.n)
    summary = moments.moment_summary(values, prog, args.n, u_max=args.umax)
    if args.spill:
        moments.write_spill(args.spill, values)
    cheb = moments.chebyshev_check(summary, values, CHEBYSHEV_B_DEFAULT)
    payload = {
        "n": summary.n,
        "k": prog.modulus,
        "l": prog.residue,
        "count": summary.count,
        "mean": summary.mean,
        "sigma": summary.sigma,
        "mu": [summary.mu[u] for u in sorted(summary.mu)],
        "predictions": {
            "restricted_sum": preds["restricted"],
            "density_sum": preds["density"],
        },
        "coverage": [
            {"b": b, "coverage": c, "bound": bound}
            for b, c, bound in zip(cheb.b_values, cheb.coverage, cheb.bounds)
        ],
    }
    _emit(_report(args, payload), args)


def cmd_model_exact(args) -> None:
    fn, _ = _resolve_fn(args)
    n = _sieve_limit("n", args.n)
    mm = model.exact_moments(fn, _progression(args), n, u_max=args.umax, mode=args.mode)
    payload = {
        "n": mm.n,
        "k": args.mod,
        "l": args.res,
        "mode": mm.mode,
        "term_count": mm.term_count,
        "kappa": [mm.kappa[u] for u in sorted(mm.kappa)],
        "mu": [mm.mu[u] for u in sorted(mm.mu)],
        "first_order": [mm.first_order[u] for u in sorted(mm.first_order)],
        "gap_bound": [mm.gap_bound[u] for u in sorted(mm.gap_bound)],
    }
    _emit(_report(args, payload), args)


def cmd_model_sample(args) -> None:
    fn, _ = _resolve_fn(args)
    prog = _progression(args)
    n = _sieve_limit("n", args.n)
    ss = model.sample(fn, prog, n, args.trials, args.seed, mode=args.mode)
    mm = model.exact_moments(fn, prog, n, u_max=2, mode=args.mode)
    mean = float(ss.values.mean())
    var = float(ss.values.var())
    z = (
        (mean - mm.kappa[1]) / math.sqrt(mm.kappa[2] / args.trials)
        if mm.kappa[2] > 0
        else 0.0
    )
    if args.spill:
        moments.write_spill(args.spill, ss.values)
    payload = {
        "mode": args.mode,
        "seed": ss.seed,
        "trials": ss.trials,
        "sample_mean": mean,
        "sample_variance": var,
        "kappa": [mm.kappa[1], mm.kappa[2]],
        "z_score": z,
    }
    _emit(_report(args, payload), args)


def cmd_model_lindeberg(args) -> None:
    fn, _ = _resolve_fn(args)
    if not args.epsilon > 0.0:
        raise _UsageError(f"argument --epsilon: epsilon must be positive, got {args.epsilon}")
    n = _sieve_limit("n", args.n)
    rep = model.lindeberg_check(fn, _progression(args), n, args.epsilon, mode=args.mode)
    payload = {
        "n": rep.n,
        "epsilon": rep.epsilon,
        "variance": rep.variance,
        "ratio": rep.ratio,
        "max_over_sqrt_d": rep.max_over_sqrt_d,
    }
    _emit(_report(args, payload), args)


def cmd_model_compare(args) -> None:
    prog = _progression(args)

    def resolve(name: str) -> tuple[PrimeFunction, Extension]:
        sub = argparse.Namespace(**{**vars(args), "fn": name})
        return _resolve_fn(sub)

    pair = FunctionPair(resolve(args.fn_star), resolve(args.fn), args.pair_class)
    cmp = model.compare_pair(pair, prog, args.n, u_max=args.umax)

    def summary_dict(s) -> dict:
        return {
            "count": s.count,
            "mean": s.mean,
            "sigma": s.sigma,
            "mu": [s.mu[u] for u in sorted(s.mu)],
        }

    payload = {
        "n": args.n,
        "k": prog.modulus,
        "l": prog.residue,
        "class": args.pair_class,
        "f_star": {"fn": args.fn_star, **summary_dict(cmp.summary_star)},
        "f": {"fn": args.fn, **summary_dict(cmp.summary)},
        "mean_diff": cmp.mean_diff,
        "mu_diff": [cmp.mu_diff[u] for u in sorted(cmp.mu_diff)],
        "predictions_f_star": {
            "restricted_sum": cmp.predictions_star["restricted"],
            "density_sum": cmp.predictions_star["density"],
        },
        "predictions_f": {
            "restricted_sum": cmp.predictions["restricted"],
            "density_sum": cmp.predictions["density"],
        },
        "override_contribution": cmp.override_contribution,
    }
    _emit(_report(args, payload), args)


def cmd_ektest(args) -> None:
    fn, ext = _resolve_fn(args)
    rep = stats.erdos_kac_report(
        fn, ext, _progression(args), args.n, normalization=args.norm, spill=args.spill
    )
    payload = {
        "ks": rep.ks,
        "ks_floor": rep.ks_floor,
        "n": rep.n,
        "count": rep.count,
        "normalization": rep.normalization,
        "center": rep.center,
        "scale": rep.scale,
        "grid": [{"x": x, "F_emp": fe, "Phi": ph} for x, fe, ph in rep.grid],
    }
    rows = [[x, fe, ph, abs(fe - ph)] for x, fe, ph in rep.grid]
    _emit(_report(args, payload), args, rows)


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "mod" in names:
        p.add_argument("--mod", type=_modulus, default=1, help="progression modulus k")
        p.add_argument("--res", type=int, default=0, help="progression residue l")
    if "n" in names:
        p.add_argument("--n", type=_integer, required=True, help="member limit")
    if "x" in names:
        p.add_argument("--x", type=_integer, required=True, help="prime limit")
    if "fn" in names:
        p.add_argument("--fn", type=_fn_spec, required=True,
                       help="function spec, e.g. const:1, invloglog, omega")
        p.add_argument("--ext", choices=["strong", "complete"], default="strong")
        p.add_argument("--p0", type=int, default=None, help="override start prime")
    if "u" in names:
        p.add_argument("--u", type=int, default=1, help="power applied to f(p)")
    if "umax" in names:
        p.add_argument("--umax", type=int, default=U_MAX_DEFAULT, metavar="U",
                       choices=range(2, U_MAX_CAP + 1), help="highest central moment")
    if "mode" in names:
        p.add_argument("--mode", choices=["restricted", "density"], default="restricted")
    if "spill" in names:
        p.add_argument("--spill", default=None, help="raw float64 value file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write report to file (atomic)")
    p.add_argument("--config", default=None, help="flat key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apmoments",
        description="Prime sums, moments, and normal-limit diagnostics on arithmetic progressions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sieve", help="list primes, optionally in a residue class")
    p.add_argument("--limit", type=_integer, required=True)
    _add_common(p, "mod")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("sum", help="exact sum of f(p)^u/p over a progression")
    _add_common(p, "mod", "x", "fn", "u")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("asymptotic", help="main-term estimate with error magnitudes")
    _add_common(p, "mod", "x", "fn", "u")
    p.add_argument("--method", choices=["auto", "closed", "integral"], default="auto")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("classify", help="catalogued decay case of f(p)^u")
    _add_common(p, "fn", "u")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("probe", help="convergence/divergence probes at checkpoints")
    _add_common(p, "mod", "fn", "u")
    p.add_argument("--series", default="custom",
                   choices=["inv_p_squared", "inv_p_log2p", "inv_p_logp", "custom"])
    p.add_argument("--integral", action="store_true",
                   help="probe the rate integral instead of partial sums")
    p.add_argument("--checkpoints", default=None, help="comma-separated increasing limits")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("moments", help="empirical moments over progression members")
    _add_common(p, "mod", "n", "fn", "umax", "spill")
    p.set_defaults(func=cmd_moments)

    pm = sub.add_parser("model", help="independent-variable model operations")
    msub = pm.add_subparsers(dest="model_op", required=True)

    p = msub.add_parser("exact", help="exact cumulants and central moments")
    _add_common(p, "mod", "n", "fn", "mode")
    p.add_argument("--umax", type=int, default=U_MAX_DEFAULT, metavar="U",
                   choices=range(1, U_MAX_CAP + 1), help="highest moment order")
    p.set_defaults(func=cmd_model_exact)

    p = msub.add_parser("sample", help="seeded Monte Carlo realizations")
    _add_common(p, "mod", "n", "fn", "mode", "spill")
    p.add_argument("--trials", type=_positive_integer, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_model_sample)

    p = msub.add_parser("lindeberg", help="tail-variance ratio diagnostic")
    _add_common(p, "mod", "n", "fn", "mode")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=cmd_model_lindeberg)

    def add_compare(parent, name):
        p = parent.add_parser(name, help="empirical comparison of a function pair")
        _add_common(p, "mod", "n", "fn", "umax")
        p.add_argument("--fn-star", dest="fn_star", type=_fn_spec, required=True,
                       help="strongly additive reference function")
        p.add_argument("--class", dest="pair_class", choices=["H", "V"], default="V")
        p.set_defaults(func=cmd_model_compare)

    add_compare(msub, "compare")
    add_compare(sub, "compare")

    p = sub.add_parser("ektest", help="normal-limit KS diagnostic")
    _add_common(p, "mod", "n", "fn", "spill")
    p.add_argument("--norm", choices=["sigma", "sqrt_mean"], default="sqrt_mean")
    p.set_defaults(func=cmd_ektest)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Inject key=value file entries as flag defaults (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        parser.error("argument --config: expected one argument")
    path = argv[i + 1]
    given = {tok.split("=", 1)[0].lstrip("-") for tok in argv if tok.startswith("--")}
    extra: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in given:
            continue
        extra.extend([f"--{key}", value])
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except (ValueError, LookupError, OSError, prime_sums.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# completed in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
