import math
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments import arith_fn, config, counting, stats
from apmoments.arith_fn import PrimeFunction, STRONG, resolve_spec
from apmoments.model import exact_moments, sample
from apmoments.sieve import Progression
from apmoments.stats import erdos_kac_report, ks_distance, ks_lattice, phi
from oracles import collect_values, empirical_moments, write_spill


def table(values):
    return np.unique(values, return_counts=True)


def brute_force_ks(values, center: float, scale: float) -> float:
    # per-value sup gap: F_emp just after and just before each sorted value
    v = sorted((float(t) - center) / scale for t in values)
    m = len(v)
    return max(
        max((i + 1) / m - phi(t), phi(t) - i / m) for i, t in enumerate(v)
    )


def brute_force_ks_lattice(values, center: float, scale: float, step: float) -> float:
    # per value v: F_emp(v) against the normal CDF half a lattice step past v
    m = len(values)
    return max(
        abs(sum(1 for t in values if t <= v) / m - phi((float(v) + step / 2 - center) / scale))
        for v in values
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
        assert phi(NormalDist().inv_cdf(q)) == pytest.approx(q, abs=1e-10)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        m = 1000
        values = np.array([NormalDist().inv_cdf((i - 0.5) / m) for i in range(1, m + 1)])
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


class TestKsLattice:
    @given(
        st.lists(st.integers(-3, 6), min_size=1, max_size=120),
        st.sampled_from([0.5, 1.0, 2.5]),
        st.floats(-2, 4),
        st.floats(0.1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_value_brute_force(self, data, step, center, scale):
        values = np.array(data, dtype=np.float64) * step
        got = ks_lattice(*table(values), center, scale, step)
        assert got == pytest.approx(brute_force_ks_lattice(values, center, scale, step), abs=1e-15)

    def test_report_field_on_omega(self):
        om, ste = resolve_spec("omega")
        prog = Progression(4, 3)
        rep = erdos_kac_report(om, ste, prog, 3000, "sqrt_mean")
        values = collect_values(om, ste, prog, 3000)
        want = brute_force_ks_lattice(values.tolist(), rep.center, rep.scale, 1.0)
        assert rep.ks_lattice == pytest.approx(want, abs=1e-15)
        # the half-step shift undoes most of the discreteness gap
        assert rep.ks_lattice < rep.ks_floor < rep.ks

    def test_half_omega_uses_its_step(self):
        half, ext = resolve_spec("half_omega")
        prog = Progression(4, 1)
        rep = erdos_kac_report(half, ext, prog, 3000, "sigma")
        values = collect_values(half, ext, prog, 3000)
        want = brute_force_ks_lattice(values.tolist(), rep.center, rep.scale, 0.5)
        assert rep.ks_lattice == pytest.approx(want, abs=1e-15)

    def test_null_off_the_lattice(self):
        rep = erdos_kac_report(PrimeFunction("sqrt_loglog"), STRONG, Progression(1, 0), 10**4,
                               "sigma")
        assert rep.ks_lattice is None


class TestErdosKacAtScale:
    """omega on 1 mod 4 past the sweep's desk range, counted from the joint
    law: the figures the lattice sweep gave (README) to 4 decimals."""

    @pytest.mark.parametrize("n, ks, ks_floor, ks_lat", [
        (10**8, 0.2218, 0.1745, 0.1188),
        (10**9, 0.2135, 0.1734, 0.1161),
    ])
    def test_reproduces_the_sweep(self, n, ks, ks_floor, ks_lat, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("member sweep")

        monkeypatch.setattr(arith_fn, "iter_progression_values", refuse)
        om, ste = resolve_spec("omega")
        rep = erdos_kac_report(om, ste, Progression(4, 1), n, "sqrt_mean")
        assert rep.count == n // 4
        assert (round(rep.ks, 4), round(rep.ks_floor, 4), round(rep.ks_lattice, 4)) == (
            ks, ks_floor, ks_lat)
        assert counting.pays(n, 4)


class TestErdosKacReport:
    def test_omega_full_series(self):
        om, ste = resolve_spec("omega")
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

    @pytest.mark.parametrize("text", ["omega", "sqrtloglog"])  # a table, per-member values
    def test_grid_sits_at_the_normal_quantiles(self, text):
        fn, ext = resolve_spec(text)
        rep = erdos_kac_report(fn, ext, Progression(4, 1), 10**4, "sigma")
        qs = np.linspace(config.CDF_GRID_LO, config.CDF_GRID_HI, config.CDF_GRID_POINTS)
        assert [ph for _, _, ph in rep.grid] == pytest.approx(qs, abs=1e-15, rel=0)
        assert rep.grid[config.CDF_GRID_POINTS // 2][0] == 0.0

    def test_trend_with_n(self):
        om, ste = resolve_spec("omega")
        prog = Progression(4, 1)
        ks4 = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean").ks
        ks6 = erdos_kac_report(om, ste, prog, 10**6, "sqrt_mean").ks
        assert ks6 < ks4

    def test_sigma_normalization(self):
        om, ste = resolve_spec("omega")
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
        om, ste = resolve_spec("omega")
        with pytest.raises(ValueError):
            erdos_kac_report(om, ste, Progression(10**4, 9973), 9973, "sqrt_mean")

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_ks_at_least_discreteness_floor(self, n):
        om, ste = resolve_spec("omega")
        prog = Progression(4, 1)
        rep = erdos_kac_report(om, ste, prog, n, "sqrt_mean")
        values = collect_values(om, ste, prog, n)
        max_mass = np.bincount(values.astype(np.int64)).max() / values.size
        assert rep.ks_floor == max_mass / 2
        assert rep.ks >= rep.ks_floor

    def test_spill_input(self, tmp_path):
        om, ste = resolve_spec("omega")
        prog = Progression(4, 1)
        path = tmp_path / "spill.f64"
        empirical_moments(om, ste, prog, 10**4, spill=path)
        rep_direct = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean")
        rep_spill = erdos_kac_report(om, ste, prog, 10**4, "sqrt_mean", spill=path)
        assert rep_spill.ks == rep_direct.ks

    @pytest.mark.parametrize(
        "spec,norm,k,l",
        # const:0.1 sums to other floats than k * 0.1 (0.6 != 6 * 0.1), so a
        # spill file only reproduces the sweep after folding onto the lattice
        [("omega", "sqrt_mean", 4, 3), ("sqrtloglog", "sigma", 4, 3), ("const:0.1", "sigma", 1, 0)],
    )
    def test_spill_and_sweep_agree_bit_for_bit(self, tmp_path, spec, norm, k, l):
        fn, ext = resolve_spec(spec)
        prog = Progression(k, l)
        path = tmp_path / "spill.f64"
        empirical_moments(fn, ext, prog, 10**5, spill=path)
        swept = erdos_kac_report(fn, ext, prog, 10**5, norm)
        spilled = erdos_kac_report(fn, ext, prog, 10**5, norm, spill=path)
        assert swept == spilled
        values = collect_values(fn, ext, prog, 10**5)
        assert swept.center == pytest.approx(float(values.mean()), rel=1e-14)

    def test_spill_is_read_onto_the_lattice(self, tmp_path):
        # a spilled value an ulp off its lattice point still counts there
        from apmoments.moments import spill_label

        om, ste = resolve_spec("omega")
        prog = Progression(4, 3)
        values = collect_values(om, ste, prog, 10**4)
        modal = np.flatnonzero(values == np.bincount(values.astype(np.int64)).argmax())[0]
        values[modal] = np.nextafter(values[modal], np.inf)
        path = tmp_path / "spill.f64"
        write_spill(path, values, spill_label(om, ste, prog, 10**4))
        spilled = erdos_kac_report(om, ste, prog, 10**4, "sigma", spill=path)
        assert spilled == erdos_kac_report(om, ste, prog, 10**4, "sigma")


def bounded(values, center, scale):
    values = np.asarray(values, dtype=np.float64)
    return stats._bounded_ks(values, float(values.min()), float(values.max()), center, scale)


def unique_oracle(values, center, scale):
    # (KS, largest tie, CDF grid) read off the np.unique table of the values
    x, counts = table(np.asarray(values, dtype=np.float64))
    return ks_distance(x, counts, center, scale), int(counts.max()), stats._cdf_grid(
        x, counts, center, scale)


centers = st.floats(-3, 3)
scales = st.floats(0.05, 5)


class TestBoundedKs:
    """The binned KS, largest tie and grid of per-member values equal the
    np.unique table's exactly, given the same center and scale."""

    @given(st.lists(st.integers(-4, 6), min_size=1, max_size=300), st.sampled_from([1.0, 0.1, 3.7]),
           centers, scales)
    @settings(max_examples=150, deadline=None)
    def test_ties(self, ints, step, center, scale):
        values = np.array(ints) * step
        assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=300), st.data())
    @settings(max_examples=150, deadline=None)
    def test_real_values_with_repeats(self, data, draw):
        values = np.array(data + draw.draw(st.lists(st.sampled_from(data), max_size=100)))
        center, scale = float(values.mean()), float(values.std()) or 1.0
        assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=200), centers, scales,
           st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_every_value_in_one_bin(self, data, center, scale, bins):
        # one bin, or a few bins whose widened edges overlap everything
        values = np.array(data)
        with mock.patch.object(stats, "_KS_BINS", bins):
            assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(1, 50), st.integers(1, 50),
           centers, scales)
    @settings(max_examples=150, deadline=None)
    def test_two_distinct_values(self, a, b, na, nb, center, scale):
        values = np.array([a] * na + [b] * nb)
        assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    def test_one_distinct_value(self):
        values = np.full(40, 2.5)
        assert bounded(values, 2.0, 0.5) == unique_oracle(values, 2.0, 0.5)

    @given(st.lists(st.integers(0, 8), min_size=6, max_size=200),
           st.sampled_from([2.0**-10, 0.25, 1.0, 4.0]), st.integers(-100, 100), centers, scales)
    @settings(max_examples=150, deadline=None)
    def test_values_on_bin_edges(self, ks, width, lo, center, scale):
        # 8 bins over [lo, lo + 8 * width], edges exact in floating point:
        # every value is an edge
        values = lo + np.array([0, 8, *ks]) * width
        with mock.patch.object(stats, "_KS_BINS", 8):
            assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    def test_value_an_ulp_below_its_bin_edge(self):
        # floor((v - lo) * per) can put v in bin i although v sits an ulp
        # below that bin's computed left edge; with a grid point between
        # the two, only the widened edge counts v on the right side of it
        t = stats._grid_points()[10]
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            lo = float(rng.uniform(-10, 10))
            hi = lo + float(rng.uniform(1, 30))
            edges = lo + np.arange(9) * ((hi - lo) / 8)
            i = int(rng.integers(1, 8))
            v = float(np.nextafter(edges[i], -np.inf))
            if int((v - lo) * (8 / (hi - lo))) != i:
                continue
            center = v - t
            for _ in range(8):  # a center with z(v) <= t < z(edge)
                if v - center <= t < edges[i] - center:
                    break
                center = float(np.nextafter(center, np.inf if v - center > t else -np.inf))
            else:
                continue
            values = np.array([lo, hi, v, v, v])
            with mock.patch.object(stats, "_KS_BINS", 8):
                assert bounded(values, center, 1.0) == unique_oracle(values, center, 1.0)
            return
        pytest.fail("no value below its bin edge found")

    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.5]), min_size=1, max_size=200),
           centers, scales)
    @settings(max_examples=150, deadline=None)
    def test_signed_zeros_are_one_value(self, data, center, scale):
        values = np.array(data)
        assert bounded(values, center, scale) == unique_oracle(values, center, scale)

    @pytest.mark.parametrize("buckets", [1, 2])
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=200), st.floats(-10, 10),
           centers, scales)
    @settings(max_examples=100, deadline=None)
    def test_bucket_collisions(self, buckets, ints, noise, center, scale):
        # every value shares one of one or two buckets with many others
        values = np.array(ints) * 0.5 + np.array(ints) ** 2 * noise
        with mock.patch.object(stats, "_TIE_BUCKETS", buckets):
            assert bounded(values, center, scale) == unique_oracle(values, center, scale)


class TestBoundedKsInPieces:
    """Blocks and pieces of any length, the last of each short, count and
    table what one pass over the values would."""

    @pytest.mark.parametrize("block", [997, 1])
    def test_multi_block_spill_file(self, tmp_path, member_block, block):
        from apmoments.moments import SpillFile

        member_block(block)
        rng = np.random.default_rng(block)
        values = np.concatenate([np.round(rng.standard_normal(2500), 2), rng.standard_normal(700)])
        path = tmp_path / "values.f64"
        write_spill(path, values, {"dataset": "test values", "count": values.size})
        spill = SpillFile(path, values.size)
        center, scale = float(values.mean()), float(values.std())
        lo, hi = float(values.min()), float(values.max())
        assert stats._bounded_ks(spill, lo, hi, center, scale) == unique_oracle(
            values, center, scale)

    def test_extremes_in_a_later_piece(self, tmp_path, member_block):
        # the least and largest values sit in neither the first piece nor the
        # first block, so the range pass must read every piece of every block
        from apmoments.moments import spill_label

        member_block(997)
        fn, ext = resolve_spec("sqrtloglog")
        prog = Progression(3, 1)
        values = collect_values(fn, ext, prog, 10**4)
        values[997 + 300] = float(values.min()) - 1.0
        values[2 * 997 + 500] = float(values.max()) + 1.0
        path = tmp_path / "values.f64"
        write_spill(path, values, spill_label(fn, ext, prog, 10**4))
        rep = erdos_kac_report(fn, ext, prog, 10**4, "sigma", spill=path)
        x, counts = table(values)
        assert rep.ks == ks_distance(x, counts, rep.center, rep.scale)
        assert rep.ks_floor == counts.max() / rep.count / 2
        assert rep.grid == stats._cdf_grid(x, counts, rep.center, rep.scale)

    @pytest.mark.parametrize("block", [997, config.MEMBER_BLOCK])
    def test_tie_round_tables_one_bucket(self, monkeypatch, member_block, block):
        # more values than the bucket cap, one heavy tie among distinct values:
        # only the heavy tie's bucket is tabled, in either round
        member_block(block)
        rng = np.random.default_rng(5)
        values = rng.permutation(np.concatenate([np.full(40_000, 0.5), rng.standard_normal(40_000)]))
        assert values.size > stats._TIE_BUCKETS
        shift = np.uint64(64 - (stats._TIE_BUCKETS.bit_length() - 1))
        buckets = ((values + 0.0).view(np.uint64) * stats._HASH_MUL) >> shift
        heavy = int(np.count_nonzero(buckets == buckets[values == 0.5][0]))
        sizes, unique = [], np.unique

        def spy(values, *args, **kwargs):
            sizes.append(np.asarray(values).size)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        center, scale = float(values.mean()), float(values.std())
        ks, tie, _ = stats._bounded_ks(values, float(values.min()), float(values.max()),
                                       center, scale)
        monkeypatch.setattr(np, "unique", unique)
        assert tie == 40_000
        assert len(sizes) in (2, 4) and sum(sizes[1::2]) == heavy  # bins, then buckets, per round
        assert (ks, tie) == unique_oracle(values, center, scale)[:2]


class TestReportWithoutSort:
    @pytest.mark.parametrize("spec,k,l,n", [("sqrtloglog", 1, 0, 10**5),
                                            ("invloglog", 3, 2, 10**5),
                                            ("tab:5=0.7,default=0.5", 4, 1, 3 * 10**4)])
    def test_report_equals_unique_table(self, spec, k, l, n):
        fn, ext = resolve_spec(spec)
        prog = Progression(k, l)
        rep = erdos_kac_report(fn, ext, prog, n, "sigma")
        x, counts = table(collect_values(fn, ext, prog, n))
        assert rep.ks == ks_distance(x, counts, rep.center, rep.scale)
        assert rep.ks_floor == counts.max() / rep.count / 2
        assert rep.grid == stats._cdf_grid(x, counts, rep.center, rep.scale)
        assert rep.ks_lattice is None

    def test_no_table_of_every_value(self, monkeypatch):
        # only the refined bins and buckets are tabled, never all the values
        sizes = []
        unique = np.unique

        def spy(values, *args, **kwargs):
            sizes.append(np.asarray(values).size)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        rep = erdos_kac_report(PrimeFunction("sqrt_loglog"), STRONG, Progression(1, 0), 10**5,
                               "sigma")
        assert sizes and max(sizes) < rep.count // 20

    @pytest.mark.parametrize("spec", ["omega", "sqrtloglog", "tab:5=0.7,default=0.5"])
    def test_spill_and_sweep_agree_in_small_blocks(self, tmp_path, member_block, spec):
        member_block(4099)
        fn, ext = resolve_spec(spec)
        prog, path = Progression(4, 1), tmp_path / "spill.f64"
        empirical_moments(fn, ext, prog, 10**5, spill=path)
        swept = erdos_kac_report(fn, ext, prog, 10**5, "sigma")
        assert erdos_kac_report(fn, ext, prog, 10**5, "sigma", spill=path) == swept


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
