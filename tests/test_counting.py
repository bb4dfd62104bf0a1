"""Class-wise prime counting against the sieve, known values of pi, of the
digamma function (in the fixed point the tables take) and of the Hurwitz
zeta function, the memo of
tail sums, the cost rule's measured decisions, the joint law of omega
and Omega on a class against brute force, and the store that keeps the
tails and the laws of one x."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apmoments import cli, counting
from apmoments.arith_fn import parse_fn
from apmoments.counting import _digamma_fixed, class_tables, hurwitz, omega_law, tail_sums
from apmoments.prime_sums import prime_power_sum
from apmoments.sieve import Progression
from oracles import omega_power_sums, sieve_primes, squarefree_in_class

EULER_GAMMA = 0.5772156649015329


class TestDigamma:
    """psi(t + m) as class_tables takes it (_digamma_fixed): fixed point in
    units of 1 / ONE, for 0 < t <= 1 and integers m >= 1."""

    ONE = 1 << 57  # the unit class_tables takes at x = 10^12

    def psi(self, t, m):
        return int(_digamma_fixed(t, np.array([m], dtype=np.int64), self.ONE)[0]) / self.ONE

    def test_known_values(self):
        # psi(2) = 1 - gamma, psi(3/2) = 2 - gamma - 2 ln 2, psi(n + 1) = H_n - gamma
        assert self.psi(1.0, 1) == pytest.approx(1 - EULER_GAMMA, rel=1e-15)
        assert self.psi(0.5, 1) == pytest.approx(2 - EULER_GAMMA - 2 * math.log(2), rel=1e-15)
        for n in (5, 11, 12, 40, 10**6):
            harmonic = math.fsum(1.0 / i for i in range(1, n + 1))
            assert self.psi(1.0, n) == pytest.approx(harmonic - EULER_GAMMA, rel=2e-15)

    def test_recurrence_across_the_series_threshold(self):
        # psi(t + m + 1) - psi(t + m) = 1 / (t + m) on both sides of the shift to 12
        for t in (0.05, 0.3, 0.5, 0.999, 1.0):
            for m in (1, 2, 10, 11, 12, 13, 1000):
                gap = self.psi(t, m + 1) - self.psi(t, m)
                assert gap == pytest.approx(1.0 / (t + m), rel=0, abs=1e-14)


class TestHurwitz:
    def test_known_values(self):
        # zeta(2, 1) = pi^2 / 6, zeta(2, 1/2) = pi^2 / 2, zeta(3, 1) = zeta(3),
        # zeta(s, n + 1) = zeta(s) - H_n^(s)
        assert hurwitz(2, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert hurwitz(2, 0.5) == pytest.approx(math.pi**2 / 2, rel=1e-15)
        assert hurwitz(3, 1.0) == pytest.approx(1.2020569031595942, rel=1e-15)
        assert hurwitz(3, 0.5) == pytest.approx(7 * 1.2020569031595942, rel=1e-15)
        for n in (5, 11, 12, 40):
            head = math.fsum(1.0 / i**2 for i in range(1, n + 1))
            assert hurwitz(2, n + 1.0) == pytest.approx(math.pi**2 / 6 - head, rel=1e-14)

    @pytest.mark.parametrize("s", [2, 3])
    def test_partial_sums_match_fsum(self, s):
        # the start values are zeta(s, z) - zeta(s, z + m): the sum of
        # (z + i)^(-s) over i < m, on both sides of the series threshold
        for z in (0.25, 1 / 3, 0.75, 1.0, 1.5, 7 / 3, 11.5, 12.0, 12.5, 100.25, 1e4):
            for m in (1, 5, 12, 13, 1000, 10**5):
                want = math.fsum((z + i) ** -s for i in range(m))
                got = float(hurwitz(s, z) - hurwitz(s, z + m))
                assert abs(got - want) <= 1e-15 * float(hurwitz(s, z))

    def test_arrays_match_scalars(self):
        z = np.array([0.05, 0.3, 2.5, 11.999, 12.0, 1e3])
        for s in (2, 3):
            assert hurwitz(s, z).tolist() == [float(hurwitz(s, v)) for v in z.tolist()]


def _every_floor_value(x):
    r = math.isqrt(x)
    return sorted(set(range(1, r + 1)) | {x // i for i in range(1, r + 1)})


class TestClassTables:
    @pytest.mark.parametrize("x, k", [
        (2, 1), (3, 2), (30, 1), (1000, 1), (99_991, 4), (10**5, 6), (123_457, 9),
        (10**6, 12), (777_777, 7), (10**6 + 3, 30), (2 * 10**6, 3),
    ])
    def test_counts_equal_the_sieve_at_every_floor_value(self, x, k):
        t = class_tables(x, k)
        assert t.values.tolist() == _every_floor_value(x)
        primes = sieve_primes(x)
        for row, a in enumerate(t.units):
            cls = primes[primes % k == a] if k > 1 else primes
            assert np.array_equal(t.counts[row], np.searchsorted(cls, t.values, side="right"))

    @pytest.mark.parametrize("x, k", [(10**6, 4), (10**6 + 7, 9), (3 * 10**6, 12), (10**7, 30)])
    def test_sums_match_an_exact_oracle_at_floor_values(self, x, k):
        t = class_tables(x, k)
        primes = sieve_primes(x)
        for a in t.units:
            cls = primes[primes % k == a] if k > 1 else primes
            for v in {x, x // 2, x // 3, x // 17, math.isqrt(x), math.isqrt(x) // 3 + 1}:
                want = math.fsum((1.0 / cls[cls <= v]).tolist())
                assert t.at(v, a) == (np.count_nonzero(cls <= v), pytest.approx(want, rel=1e-14, abs=0))

    @pytest.mark.parametrize("k", [1, 3, 4, 7])
    def test_power_sums_match_the_sieve(self, k):
        # P_2 and P_3 at floor values from the top to the bottom of V
        x = 10**6
        t = class_tables(x, k, 3)
        primes = sieve_primes(x)
        for a in t.units:
            cls = (primes[primes % k == a] if k > 1 else primes).astype(np.float64)
            for v in {x, x // 2, x // 3, x // 17, x // 1000, math.isqrt(x), 333, 10, 2}:
                below = cls[cls <= v]
                got = t.at(v, a)
                assert got[0] == below.size
                for s in (2, 3):
                    assert abs(got[s] - math.fsum((below**-s).tolist())) <= 1e-15

    def test_orders_past_one_leave_the_counts_and_reciprocals(self):
        one, three = class_tables(10**6 + 7, 9), class_tables(10**6 + 7, 9, 3)
        assert np.array_equal(one.counts, three.counts)
        assert np.array_equal(one.sums[0], three.sums[0])

    @pytest.mark.parametrize("x, k", [(2, 1), (99_991, 4), (10**6 + 7, 9), (10**7, 12)])
    def test_order_zero_builds_the_counts_alone(self, x, k):
        alone, one = class_tables(x, k, 0), class_tables(x, k)
        assert alone.sums.shape == (0, *one.counts.shape)
        assert np.array_equal(alone.counts, one.counts)
        assert alone.at(x, 1) == one.at(x, 1)[:1]

    @pytest.mark.parametrize("x, k, residues", [
        (10**8, 1, (0,)), (10**8, 3, (1, 2)), (10**8, 12, (1, 5, 7, 11)), (10**9, 4, (1,)),
    ])
    def test_sums_match_the_sieve_route(self, x, k, residues, monkeypatch):
        monkeypatch.setattr(counting, "pays", lambda x, k: False)
        one = parse_fn("const:1")
        t = class_tables(x, k)
        for a in residues:
            res = prime_power_sum(one, 1, x, Progression(k, a))
            assert t.at(x, a) == (res.term_count, pytest.approx(res.value, rel=1e-14, abs=0))

    @pytest.mark.parametrize("x", [10**4 + 7, 3 * 10**6])
    @pytest.mark.parametrize("k", [1, 4, 12])
    @pytest.mark.parametrize("smax", [0, 1, 3])
    def test_strike_chunk_leaves_the_tables(self, x, k, smax, monkeypatch):
        # every column takes the strikes past cbrt(x) in ascending p whatever
        # the chunk, so the fixed-point P_1 and the float P_2, P_3 rows too
        # are the same bit for bit
        tables = []
        for pairs in (1, 7, 1 << 13, 1 << 16):
            monkeypatch.setattr(counting, "_PAIRS", pairs)
            tables.append(class_tables(x, k, smax))
        first = tables[0]
        assert first.sums.shape == (smax, len(first.units), first.values.size)
        for t in tables[1:]:
            assert np.array_equal(t.counts, first.counts)
            assert np.array_equal(t.sums, first.sums)

    def test_pi_of_ten_to_the_ten(self):
        t = class_tables(10**10, 4)
        # 2 is the one prime in neither class
        assert t.at(10**10, 1)[0] + t.at(10**10, 3)[0] + 1 == 455_052_511

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            class_tables(1, 4)
        with pytest.raises(ValueError):
            class_tables(100, 0)
        with pytest.raises(ValueError):
            class_tables(100, 4, -1)


@pytest.fixture
def builds(monkeypatch):
    """The (x, k, smax) of every table build."""
    seen, build = [], counting.class_tables

    def spy(x, k, smax=1):
        seen.append((x, k, smax))
        return build(x, k, smax)

    monkeypatch.setattr(counting, "class_tables", spy)
    return seen


class TestTailSums:
    def test_differences_of_the_tables(self):
        x, k = 3 * 10**6, 4
        y = x // (x // 10**6)
        t = class_tables(x, k, 3)
        tails = tail_sums(x, k, y, 3)
        assert sorted(tails) == [1, 3]
        for a, (count, *sums) in tails.items():
            high, low = t.at(x, a), t.at(y, a)
            assert count == high[0] - low[0] > 0
            assert sums == [h - l for h, l in zip(high[1:], low[1:])]

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_tails_hold_to_the_last_digits(self, k):
        # the rows start near ln x; a tail is within an ulp of the sum at x,
        # where float rows carried 7.5e-15 at k = 1
        x, y = 3 * 10**6, 10**6
        primes = sieve_primes(x)
        for a, (count, p_1) in tail_sums(x, k, y).items():
            cls = primes[(primes > y) & (primes % k == a % k)]
            assert count == cls.size
            assert p_1 == pytest.approx(math.fsum((1.0 / cls).tolist()), rel=0, abs=5e-16)

    def test_memo_of_one_x(self, builds):
        x = 3 * 10**6
        three = tail_sums(x, 4, 10**6, 3)
        one = tail_sums(x, 4, 10**6, 1)  # fewer orders: read from the memo
        assert builds == [(x, 4, 3)]
        assert one == {a: sums[:2] for a, sums in three.items()}
        tail_sums(x, 4, 10**6, 3)
        tail_sums(x, 4, 1, 3)  # another y
        tail_sums(x, 4, 1, 3)
        tail_sums(x, 3, 1, 3)  # another k
        tail_sums(x, 4, 1, 3)  # every (k, y) at one x is kept
        tail_sums(x, 3, 1, 3)
        assert builds == [(x, 4, 3), (x, 4, 3), (x, 3, 3)]
        tail_sums(10**6, 4, 1, 3)  # another x drops them
        tail_sums(x, 4, 1, 3)
        assert builds[3:] == [(10**6, 4, 3), (x, 4, 3)]

    def test_more_orders_than_the_memo_rebuild(self, builds):
        tail_sums(10**6, 4, 1000, 1)
        tail_sums(10**6, 4, 1000, 2)
        assert builds == [(10**6, 4, 1), (10**6, 4, 2)]

    @pytest.mark.parametrize("y", [0, 10**6 + 1, 400_000, 499_999])
    def test_rejects_a_y_off_the_floor_values(self, y):
        with pytest.raises(ValueError):
            tail_sums(10**6, 4, y)


class TestCostRule:
    @pytest.mark.parametrize("x, k, counts", [
        (4 * 10**8, 1, True), (4 * 10**8, 4, True), (4 * 10**8, 12, True),
        (4 * 10**8, 7, False), (4 * 10**8, 9, False), (4 * 10**8, 30, False),
        (4 * 10**9, 12, True), (4 * 10**9, 24, False), (4 * 10**9, 60, False),
        (10**12, 4, True), (10**12, 6, True), (10**12, 5, False),
        (10**6, 1, True), (10**6, 3, False), (10**12, 9 * 10**19 + 1, False),
    ])
    def test_measured_decisions(self, x, k, counts):
        assert counting.pays(x, k) is counts


# The brute-force oracle's range: omega(m) and Omega(m) for every m <= it.
ORACLE_N = 3 * 10**4


@pytest.fixture(scope="module")
def omegas():
    """(omega(m), Omega(m)) for m = 0..ORACLE_N, each prime and prime power
    marking its multiples."""
    w = np.zeros(ORACLE_N + 1, dtype=np.int64)
    big_w = np.zeros(ORACLE_N + 1, dtype=np.int64)
    for p in sieve_primes(ORACLE_N).tolist():
        w[p::p] += 1
        pa = p
        while pa <= ORACLE_N:
            big_w[pa::pa] += 1
            pa *= p
    return w, big_w


class TestOmegaLaw:
    # n = p^2 - 1, p^2 and 3 p^2 are the edges of s p^2 <= n for p = 37, 97, 173
    @pytest.mark.parametrize("n", [
        2, 3, 8, 9, 10, 1368, 1369, 4107, 9408, 9409, 28226, 28227, 29928, 29929, ORACLE_N])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
    def test_equals_brute_force_cell_by_cell(self, omegas, k, n):
        w, big_w = omegas
        for r in [r for r in range(k) if math.gcd(r, k) == 1] if k > 1 else [0]:
            members = np.arange(r or k, n + 1, k) if k > 1 else np.arange(1, n + 1)
            want = np.zeros((n.bit_length() + 1,) * 2, dtype=np.int64)
            np.add.at(want, (w[members], big_w[members]), 1)
            got = omega_law(n, k, r)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, k, r)

    @pytest.mark.parametrize("n", [1, 2, 9, 1368, 1369, 29929, ORACLE_N])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
    def test_squarefree_oracle_equals_brute_force(self, omegas, k, n):
        w, big_w = omegas
        for r in [r for r in range(k) if math.gcd(r, k) == 1] if k > 1 else [0]:
            members = np.arange(r or k, n + 1, k) if k > 1 else np.arange(1, n + 1)
            want = int(np.count_nonzero(w[members] == big_w[members]))
            assert squarefree_in_class(n, k, r) == want, (n, k, r)

    @pytest.mark.parametrize("n, k, r, want", [
        (10**9, 4, 1, 202_642_379), (10**9, 12, 5, 75_990_876), (3 * 10**7, 4, 3, 6_079_300),
        (10**6, 1, 0, 607_926),
    ])
    def test_diagonal_counts_the_squarefree_members(self, n, k, r, want):
        # omega = Omega exactly on the squarefree members, which the Moebius
        # sum counts with no table and no walk
        assert squarefree_in_class(n, k, r) == want
        assert int(np.trace(omega_law(n, k, r))) == want

    @pytest.mark.parametrize("n", [2, 6, 9, 1368, 1369, 29929, ORACLE_N])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
    def test_pair_identity_oracle_equals_brute_force(self, omegas, k, n):
        w, _ = omegas
        for r in [r for r in range(k) if math.gcd(r, k) == 1] if k > 1 else [0]:
            members = np.arange(r or k, n + 1, k) if k > 1 else np.arange(1, n + 1)
            want = (int(np.sum(w[members])), int(np.sum(w[members] ** 2)))
            assert omega_power_sums(n, k, r) == want, (n, k, r)

    @pytest.mark.parametrize("n, k, r, want", [
        (10**6, 4, 1, (601_757, 1_652_239)), (10**7, 12, 5, (1_883_095, 4_899_283)),
        (10**8, 4, 1, (67_243_872, 206_649_440)),
    ])
    def test_omega_marginal_power_sums_by_counting(self, n, k, r, want):
        # sum omega and sum omega^2 over the class from the members each prime
        # and each pair of primes divides, with no table and no walk
        assert omega_power_sums(n, k, r) == want
        marginal = omega_law(n, k, r).sum(axis=1)
        i = np.arange(marginal.size)
        assert (int(np.sum(i * marginal)), int(np.sum(i * i * marginal))) == want

    def test_rejects_bad_inputs(self):
        # beside a kept law too: the input is checked before the store is
        # read, and k = 0 would divide by zero in its key
        omega_law(100, 4, 1)
        for n, k, r in [(1, 4, 1), (100, 0, 0), (100, 4, 2), (100, 6, 3)]:
            with pytest.raises(ValueError):
                omega_law(n, k, r)

    def test_peak_at_ten_to_the_ten(self):
        # the walk takes its nodes in pieces: the process stays near the tables
        code = (
            "from apmoments.counting import omega_law\n"
            "law = omega_law(10**10, 4, 1)\n"
            "assert law.sum() == 2_500_000_000\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).split()[1])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 100 * 1024  # KiB


class TestStore:
    """The tails and the laws of the last x, kept in one store."""

    def test_a_second_law_is_read_from_the_store(self, builds):
        law = omega_law(10**5, 4, 1)
        again = omega_law(10**5, 4, 5)  # 5 = 1 mod 4: the same class
        assert builds == [(10**5, 4, 0)]
        assert again is law and not law.flags.writeable
        with pytest.raises(ValueError):
            law[0, 0] = 1
        omega_law(10**5, 4, 3)  # another class walks again
        assert builds == [(10**5, 4, 0)] * 2

    def test_another_x_clears_laws_and_tails_together(self, builds):
        x = 3 * 10**6
        law = omega_law(x, 4, 1)
        tail_sums(x, 4, 10**6)
        omega_law(x, 4, 1)
        tail_sums(x, 4, 10**6)
        assert builds == [(x, 4, 0), (x, 4, 1)]
        assert sorted(key[1] for key in counting._store) == ["law", "tails"]
        omega_law(10**5, 4, 1)  # another x
        assert [key[0] for key in counting._store] == [10**5]
        assert np.array_equal(omega_law(x, 4, 1), law)
        tail_sums(x, 4, 10**6)
        assert builds[2:] == [(10**5, 4, 0), (x, 4, 0), (x, 4, 1)]

    def test_one_process_counts_the_law_once(self, builds, monkeypatch, tmp_path):
        # counting does not pay at 3e5, so it is forced here and in the
        # separate processes alike
        monkeypatch.setattr(counting, "pays", lambda n, k: True)
        cls = ["--mod", "4", "--res", "1", "--n", "3e5"]
        ops = {
            "moments": ["moments", "--fn", "omega", *cls, "--umax", "6"],
            "ektest": ["ektest", "--fn", "omega", "--norm", "sqrt_mean", *cls],
            "compare": ["compare", "--fn-star", "omega", "--fn", "bigomega", "--class", "H",
                        *cls],
        }
        argv = {name: [*a, "--out", str(tmp_path / f"{name}.json")] for name, a in ops.items()}
        for a in argv.values():
            assert cli.main(a) == 0
        assert builds == [(3 * 10**5, 4, 0)]
        together = {name: (tmp_path / f"{name}.json").read_bytes() for name in ops}
        code = ("import sys\n"
                "from apmoments import cli, counting\n"
                "counting.pays = lambda n, k: True\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for name, a in argv.items():
            (tmp_path / f"{name}.json").unlink()
            proc = subprocess.run([sys.executable, "-c", code, *a], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert (tmp_path / f"{name}.json").read_bytes() == together[name], name
