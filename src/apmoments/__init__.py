"""Moments of additive arithmetic functions on arithmetic progressions.

Desk-scale machinery for: exact prime sums over residue classes and
their main-term estimates, empirical moments of additive functions, an
independent two-valued-variable model with exact cumulant moments and
seeded Monte Carlo, and distribution diagnostics against the normal law.
"""

__version__ = "0.1.0"

from .arith_fn import (
    COMPLETE,
    STRONG,
    Extension,
    FunctionPair,
    PrimeFunction,
    builtin,
    collect_values,
    eval_additive,
    eval_at_prime,
    parse_fn,
)
from .model import (
    BernoulliTerm,
    LindebergReport,
    ModelMoments,
    SampleSet,
    compare_pair,
    exact_moments,
    lindeberg_check,
    central_moment_first_order,
    sample,
)
from .moments import (
    ChebyshevReport,
    CoMoments,
    MomentSummary,
    chebyshev_check,
    empirical_moments,
    lln_check,
    mean_via_counts,
)
from .prime_sums import (
    AsymptoticEstimate,
    Classification,
    DecayCase,
    PrimeSumResult,
    ProbeResult,
    classify_decay,
    closed_form_asymptotic,
    convergence_probe,
    divergence_probe,
    integral_asymptotic,
    prime_power_sum,
)
from .sieve import (
    PrimeRange,
    Progression,
    euler_phi,
    factorize,
    primes_in_progression,
    sieve_primes,
)
from .stats import NormalityReport, erdos_kac_report, ks_distance, phi

__all__ = [name for name in dir() if not name.startswith("_")]
