import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments.arith_fn import PrimeFunction, STRONG, builtin, collect_values
from apmoments.model import exact_moments, sample
from apmoments.sieve import Progression
from apmoments.stats import erdos_kac_report, ks_distance, phi, phi_inv


def table(values):
    return np.unique(values, return_counts=True)


def brute_force_ks(values, center: float, scale: float) -> float:
    # per-value sup gap: F_emp just after and just before each sorted value
    v = sorted((float(t) - center) / scale for t in values)
    m = len(v)
    return max(
        max((i + 1) / m - phi(t), phi(t) - i / m) for i, t in enumerate(v)
    )


def brute_force_cdf(normalized, x: float) -> float:
    return sum(1 for t in normalized if t <= x) / len(normalized)


def phi_quadrature_oracle(x: float) -> float:
    # trapezoid integration of the normal density, abs error well below 1e-8
    lo = -12.0
    t = np.linspace(lo, x, 400_001)
    y = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(y, t))


class TestPhi:
    def test_center(self):
        assert phi(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.5, 1.0, 2.0):
            assert phi(-x) == pytest.approx(1.0 - phi(x), abs=1e-15)

    def test_975_quantile(self):
        assert phi(1.959964) == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("x", [-3.0, -1.2, -0.3, 0.7, 1.5, 2.8])
    def test_against_quadrature_oracle(self, x):
        assert phi(x) == pytest.approx(phi_quadrature_oracle(x), abs=1e-7)

    def test_tails(self):
        assert phi(-8.0) < 1e-14
        assert phi(8.0) > 1.0 - 1e-14

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        if a <= b:
            assert phi(a) <= phi(b)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip(self, q):
        assert phi(phi_inv(q)) == pytest.approx(q, abs=1e-10)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        m = 1000
        values = np.array([phi_inv((i - 0.5) / m) for i in range(1, m + 1)])
        assert ks_distance(*table(values), 0.0, 1.0) <= 0.0005 + 1e-12

    def test_point_mass(self):
        assert ks_distance(*table(np.zeros(100)), 0.0, 1.0) >= 0.5

    def test_single_value_at_median(self):
        assert ks_distance(*table(np.array([0.0])), 0.0, 1.0) == pytest.approx(0.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ks_distance(*table(np.array([1.0])), 0.0, 0.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=200),
        st.floats(-50, 50),
        st.floats(0.01, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, data, shift, stretch):
        values = np.array(data)
        base = ks_distance(*table(values), 1.5, 2.0)
        moved = ks_distance(
            *table(values * stretch + shift), 1.5 * stretch + shift, 2.0 * stretch
        )
        assert moved == pytest.approx(base, abs=1e-9)


    @given(
        st.lists(st.integers(-3, 6), min_size=1, max_size=200),
        st.floats(-2, 4),
        st.floats(0.1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_ties_match_per_value_brute_force(self, data, center, scale):
        values = np.array(data, dtype=np.float64)
        got = ks_distance(*table(values), center, scale)
        assert got == pytest.approx(brute_force_ks(values, center, scale), abs=1e-15)


class TestErdosKacReport:
    def test_omega_full_series(self):
        om, ste = builtin("omega")
        rep = erdos_kac_report(om, ste, Progression(1, 0), 10**5, "sqrt_mean")
        assert 0.0 < rep.ks < 0.5
        assert rep.count == 10**5
        assert len(rep.grid) == 21
        values = collect_values(om, ste, Progression(1, 0), 10**5)
        normalized = ((values - rep.center) / rep.scale).tolist()
        for x, emp, ph in rep.grid:
            assert 0.0 <= emp <= 1.0
            assert emp == brute_force_cdf(normalized, x)
            assert ph == pytest.approx(phi(x), abs=1e-12)

    def test_trend_with_n(self):
        om, ste = builtin("omega")
        prog = Progression(4, 1)
        ks4 = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean").ks
        ks6 = erdos_kac_report(om, ste, prog, 10**6, "sqrt_mean").ks
        assert ks6 < ks4

    def test_sigma_normalization(self):
        om, ste = builtin("omega")
        rep = erdos_kac_report(om, ste, Progression(4, 3), 10**4, "sigma")
        assert rep.scale > 0
        assert rep.normalization == "sigma"

    def test_sqrt_mean_requires_bounded_nonnegative(self):
        unbounded = PrimeFunction("sqrt_loglog")
        with pytest.raises(ValueError):
            erdos_kac_report(unbounded, STRONG, Progression(1, 0), 10**4, "sqrt_mean")
        # the sigma form still works for it
        rep = erdos_kac_report(unbounded, STRONG, Progression(1, 0), 10**4, "sigma")
        assert rep.ks > 0

    def test_degenerate_single_member(self):
        om, ste = builtin("omega")
        with pytest.raises(ValueError):
            erdos_kac_report(om, ste, Progression(10**4, 9973), 9973, "sqrt_mean")

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_ks_at_least_discreteness_floor(self, n):
        om, ste = builtin("omega")
        prog = Progression(4, 1)
        rep = erdos_kac_report(om, ste, prog, n, "sqrt_mean")
        values = collect_values(om, ste, prog, n)
        max_mass = np.bincount(values.astype(np.int64)).max() / values.size
        assert rep.ks_floor == max_mass / 2
        assert rep.ks >= rep.ks_floor

    def test_spill_input(self, tmp_path):
        from apmoments.moments import empirical_moments

        om, ste = builtin("omega")
        prog = Progression(4, 1)
        path = tmp_path / "spill.f64"
        empirical_moments(om, ste, prog, 10**4, spill=path)
        rep_direct = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean")
        rep_spill = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean", spill=path)
        assert rep_spill.ks == rep_direct.ks


class TestModelSamplesLookNormal:
    def test_ks_decreases_with_n(self):
        # the model sum's distribution drifts toward the normal as n grows
        one = PrimeFunction("constant", c=1.0)
        prog = Progression(4, 1)
        distances = []
        for n in (10**4, 10**7):
            mm = exact_moments(one, prog, n, u_max=2)
            ss = sample(one, prog, n, trials=10**5, seed=11)
            distances.append(
                ks_distance(*table(ss.values), mm.kappa[1], math.sqrt(mm.kappa[2]))
            )
        assert distances[1] < distances[0]
