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
    PrimeFunction,
    parse_fn,
)
from .model import (
    LindebergReport,
    ModelMoments,
    SampleSet,
    exact_moments,
    lindeberg_check,
    sample,
)
from .moments import (
    ChebyshevReport,
    CoMoments,
    MomentSummary,
    chebyshev_check,
    compare_pair,
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
from .sieve import Progression, euler_phi, factorize
from .stats import NormalityReport, erdos_kac_report, ks_distance, phi

__all__ = [name for name in dir() if not name.startswith("_")]
