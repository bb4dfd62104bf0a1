import json
import math
import mmap
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmoments import sieve
from apmoments.arith_fn import Extension, PrimeFunction
from apmoments.cli import main
from apmoments.sieve import (
    Progression,
    euler_phi,
    factorize,
    is_prime,
    iter_prime_blocks,
    map_parts,
    map_prime_blocks,
    primes_upto_monolithic,
)
from oracles import HUGE_MODULI, no_child_left, sieve_primes


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        if m > 2 and m % 2 == 0:
            continue
        if all(m % d for d in range(3, math.isqrt(m) + 1, 2)):
            out.append(m)
    return out


class TestProgression:
    def test_full_series(self):
        p = Progression(1, 0)
        assert p.count(10) == 10

    def test_members(self):
        p = Progression(4, 1)
        assert p.count(30) == 8

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            Progression(4, 2)
        with pytest.raises(ValueError):
            Progression(0, 0)
        with pytest.raises(ValueError):
            Progression(4, 5)

    @given(st.integers(2, 40), st.integers(0, 39), st.integers(1, 500))
    def test_count_matches_enumeration(self, k, l, n):
        if l >= k or math.gcd(k, l) != 1:
            return
        p = Progression(k, l)
        expected = len([m for m in range(1, n + 1) if m % k == l])
        assert p.count(n) == expected


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_thirty(self):
        pr = sieve_primes(30)
        assert len(pr) == 10
        assert pr[-1] == 29

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_agrees_with_trial_division(self):
        assert sieve_primes(10**5).tolist() == trial_division_primes(10**5)

    def test_segmented_matches_monolithic(self, sieve_geometry):
        # identical sequences for several block sizes, including odd ones
        mono = primes_upto_monolithic(10**6)
        for block in (1 << 12, 1 << 16, 999_983):
            sieve_geometry(block, cache_max=0)
            seg = np.concatenate(list(iter_prime_blocks(10**6)))
            assert np.array_equal(seg, mono)

    def test_prime_count_1e7(self):
        assert len(sieve_primes(10**7)) == 664_579


class TestProgressionFilter:
    def test_examples(self):
        assert sieve_primes(30, Progression(4, 1)).tolist() == [5, 13, 17, 29]
        assert sieve_primes(10, Progression(4, 3)).tolist() == [3, 7]
        assert len(sieve_primes(30, Progression(1, 0))) == 10

    @pytest.mark.parametrize("k", [3, 4, 5, 12])
    def test_partition_property(self, k):
        # coprime classes plus the primes dividing k tile the full prime set
        x = 10**4
        full = sieve_primes(x).tolist()
        parts = [p for p in full if k % p == 0]
        for l in range(k):
            if math.gcd(k, l) == 1:
                parts.extend(sieve_primes(x, Progression(k, l)).tolist())
        assert sorted(parts) == full

    def test_modulus_primes_never_listed(self):
        for l in (1, 3):
            pr = sieve_primes(10**4, Progression(4, l))
            assert 2 not in pr


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(29) == [(29, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(2, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_product_roundtrip(self, m):
        factors = factorize(m)
        prod = 1
        seen = set()
        for p, a in factors:
            assert a >= 1
            assert p not in seen
            seen.add(p)
            prod *= p**a
        assert prod == m


class TestIsPrime:
    def test_matches_the_sieve_to_1e5(self):
        flags = np.zeros(10**5 + 1, dtype=bool)
        flags[primes_upto_monolithic(10**5)] = True
        assert [is_prime(m) for m in range(-3, 10**5 + 1)] == [False] * 3 + flags.tolist()

    @pytest.mark.parametrize("m", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        (1 << 64) - 1,
    ])
    def test_strong_pseudoprimes_are_composite(self, m):
        assert not is_prime(m)

    @pytest.mark.parametrize("m", [10000000000037, (1 << 61) - 1, (1 << 64) - 59])
    def test_large_primes(self, m):
        assert is_prime(m)

    def test_refuses_2_to_the_64(self):
        with pytest.raises(ValueError, match="2\\^64"):
            is_prime(1 << 64)

    def test_tab_keys_and_overrides_check_in_constant_time(self):
        started = time.perf_counter()
        PrimeFunction("tabulated", table=((10000000000037, 1.0),), default=0.0)
        Extension(overrides=(((10000000000037, 2), 1.0),))
        assert time.perf_counter() - started < 0.05  # trial division took 0.23 s
        with pytest.raises(ValueError, match="not a prime"):
            PrimeFunction("tabulated", table=((3215031751, 1.0),))
        with pytest.raises(ValueError, match="override"):
            Extension(overrides=(((3825123056546413051, 1), 1.0),))

    def test_cli_refuses_a_key_past_2_to_the_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--fn", f"tab:{(1 << 64) + 13}=1,default=0", "--x", "1e4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2^64" in err


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(4) == 2
        assert euler_phi(12) == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @given(st.integers(1, 3000))
    @settings(max_examples=100, deadline=None)
    def test_counts_coprime_residues(self, k):
        assert euler_phi(k) == sum(1 for r in range(k) if math.gcd(r, k) == 1) or k == 1
        if k == 1:
            assert euler_phi(1) == 1


# Moduli for the class oracle: 1 and 2 (the odd-number flags), odd moduli
# (members 2k apart) sharing none, some or all of the pre-sieve primes, or a
# base prime, even moduli, and one modulus past every limit
# (its classes hold at most their residue).
ORACLE_MODULI = [1, 2, 3, 4, 7, 12, 15, 17, 30, 105, 15015, (1 << 21) + 1]
# Limits inside the pre-sieve primes, on both sides of pattern periods, and
# one with many segments of every length.
ORACLE_LIMITS = list(range(2, 21)) + [15015 * j + d for j in (1, 2) for d in (-1, 1)] + [10**6]
ORACLE_BLOCKS = [1024, 4099, 999_983]
ORACLE_PRIMES = primes_upto_monolithic(max(ORACLE_LIMITS))


def use_layout(sieve_geometry, block_size):
    """None: the cached layout; a segment length: streamed segments of it."""
    if block_size is None:
        sieve_geometry()
    else:
        sieve_geometry(block_size, cache_max=0)


def coprime_classes(k, below):
    """The coprime classes mod k with a member <= below (the rest are empty)."""
    if k == 1:
        return [0]
    return [r for r in range(1, min(k, below + 1)) if math.gcd(k, r) == 1]


def layout_primes(x, prog, sieve_geometry, block_size):
    """The class's primes <= x from one layout; every block int64 with 1 to
    PRIME_CHUNK primes."""
    use_layout(sieve_geometry, block_size)
    blocks = list(iter_prime_blocks(x, prog))
    assert all(0 < b.size <= sieve.PRIME_CHUNK and b.dtype == np.int64 for b in blocks)
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


class TestClassOracle:
    """Both layouts of iter_prime_blocks against the monolithic sieve cut by % k."""

    @staticmethod
    def check(x, k, r, sieve_geometry):
        ref = ORACLE_PRIMES[ORACLE_PRIMES <= x]
        want = ref[ref % k == r]
        for block_size in [None, *ORACLE_BLOCKS]:
            got = layout_primes(x, Progression(k, r), sieve_geometry, block_size)
            assert np.array_equal(got, want), (x, k, r, block_size)

    @pytest.mark.parametrize("k", ORACLE_MODULI)
    def test_classes_at_every_limit_and_layout(self, k, sieve_geometry):
        # every class for the small moduli; an even spread of about 60
        # classes (the last included) for the large ones
        for x in ORACLE_LIMITS:
            classes = coprime_classes(k, x)
            spread = classes[:: max(1, len(classes) // 60)] + classes[-1:]
            for r in sorted(set(spread)):
                self.check(x, k, r, sieve_geometry)

    @pytest.mark.parametrize("k", [15015, (1 << 21) + 1])
    def test_every_class_of_a_large_modulus(self, k, sieve_geometry):
        # every class with a member up to x, from one segment and from the cache
        x = 15015 + 1
        ref = ORACLE_PRIMES[ORACLE_PRIMES <= x]
        for r in coprime_classes(k, x):
            want = ref[ref % k == r]
            for block_size in (None, 999_983):
                got = layout_primes(x, Progression(k, r), sieve_geometry, block_size)
                assert np.array_equal(got, want), (k, r, block_size)

    @pytest.mark.parametrize("k", HUGE_MODULI)
    def test_modulus_past_int_types(self, k, sieve_geometry):
        # the residues: 2, a composite, primes, a prime past x
        x = 10**6
        ref = ORACLE_PRIMES.tolist()
        for r in (2, 9, 7, 4999, 999_983, 1_000_003):
            if math.gcd(k, r) != 1:
                continue
            want = [p for p in ref if p <= x and p % k == r]
            for block_size in [None, *ORACLE_BLOCKS]:
                got = layout_primes(x, Progression(k, r), sieve_geometry, block_size)
                assert got.tolist() == want, (k, r, block_size)


class TestPrimeCache:
    def test_cache_is_uint32_and_blocks_int64(self, monkeypatch):
        monkeypatch.setattr(sieve, "_cache", sieve._PrimeCache())
        for prog in (None, Progression(4, 1), Progression(15015, 2)):
            assert all(b.dtype == np.int64 for b in iter_prime_blocks(10**5, prog))
        assert sieve._cache._primes.dtype == np.uint32
        assert sieve_primes(10**5).dtype == np.int64

    def test_cache_buffer_is_an_anonymous_mapping(self, monkeypatch):
        # a heap buffer freed as the cache grows raises glibc's mmap and trim
        # thresholds, and the heap then keeps later passes' temporaries
        monkeypatch.setattr(sieve, "_cache", sieve._PrimeCache())
        for limit in (10**4, 10**5):
            owner = sieve._cache.primes_upto(limit)
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert isinstance(owner.base.obj, mmap.mmap)

    def test_cache_stays_within_its_budget(self, monkeypatch, sieve_geometry, tmp_path):
        # passes past the budget stream the class sieve and leave the cache
        # where it was, for a class and for every prime
        monkeypatch.setattr(sieve, "_cache", sieve._PrimeCache())
        sieve_geometry(cache_max=10**4)
        for _ in iter_prime_blocks(10**4, Progression(4, 1)):
            pass
        assert sieve._cache._limit == 10**4
        for _ in iter_prime_blocks(10**5, Progression(4, 1)):
            pass
        assert sieve._cache._limit <= 10**4
        out = tmp_path / "primes.txt"
        assert main(["sieve", "--limit", "1e5", "--out", str(out)]) == 0
        assert sieve._cache._limit <= 10**4
        assert out.read_text().split() == [str(p) for p in ORACLE_PRIMES[ORACLE_PRIMES <= 10**5]]

    def test_warm_class_pass_stays_within_two_chunks(self, monkeypatch, sieve_geometry):
        # a Python int in the cache's searchsorted converts the whole cache
        # (78498 primes at 1e6, 628 kB as int64) to int64 on every call
        chunk = 1 << 14
        monkeypatch.setattr(sieve, "_cache", sieve._PrimeCache())
        sieve_geometry(chunk=chunk)
        prog = Progression(4, 1)
        for _ in iter_prime_blocks(10**6, prog):
            pass
        tracemalloc.start()
        try:
            for _ in iter_prime_blocks(10**6, prog):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * chunk * np.dtype(np.int64).itemsize


class TestStreamedSum:
    def test_sum_past_the_cache_matches_the_cached_sum(self, sieve_geometry, capsys):
        # with the cache budget below x, `sum` reads the streamed segments
        argv = ["sum", "--fn", "const:1", "--mod", "4", "--res", "1", "--x", "1e6"]
        assert main(argv) == 0
        cached = json.loads(capsys.readouterr().out)
        sieve_geometry(cache_max=1000)
        assert main(argv) == 0
        streamed = json.loads(capsys.readouterr().out)
        assert streamed["term_count"] == cached["term_count"] == 39175
        assert streamed["exact_sum"] == pytest.approx(cached["exact_sum"], rel=1e-14, abs=0)

    @pytest.mark.parametrize("argv", [
        ["sum", "--fn", "invloglog", "--mod", "4", "--res", "1", "--x", "1e6"],
        ["sum", "--fn", "sqrtloglog", "--u", "2", "--mod", "3", "--res", "2", "--x", "1e6"],
        ["model", "lindeberg", "--fn", "sqrtloglog", "--mod", "4", "--res", "3", "--n", "1e6"],
    ], ids=["sum_invloglog", "sum_sqrtloglog", "lindeberg"])
    def test_passes_past_the_cache_report_the_same(self, argv, sieve_geometry, capsys):
        # the benchmark's passes to 1e8 stream past the cache; here the same
        # ops at 1e6 from the cache and from short streamed segments
        assert main(argv) == 0
        cached = capsys.readouterr().out
        sieve_geometry(1 << 12, cache_max=1000)
        assert main(argv) == 0
        assert capsys.readouterr().out == cached


class TestModulusPastTheLimit:
    @pytest.mark.parametrize("k", HUGE_MODULI)
    @pytest.mark.parametrize("argv", [
        ["sum", "--fn", "const:1", "--x", "1e6"],
        ["sieve", "--limit", "1e6"],
        ["moments", "--fn", "omega", "--n", "1e6"],
        ["model", "exact", "--fn", "omega", "--n", "1e6"],
    ], ids=["sum", "sieve", "moments", "model_exact"])
    def test_same_report_from_each_layout(self, argv, k, sieve_geometry, capsys):
        argv = [*argv, "--mod", str(k), "--res", "4999"]
        assert main(argv) == 0
        cached = capsys.readouterr().out
        sieve_geometry(1 << 12, cache_max=1000)
        assert main(argv) == 0
        assert capsys.readouterr().out == cached

    @pytest.mark.parametrize("k", HUGE_MODULI)
    def test_density_model_drops_the_primes_dividing_k(self, k, sieve_geometry, capsys):
        # the layouts split the primes into different blocks, so the model's
        # sums agree to rounding
        argv = ["model", "exact", "--fn", "omega", "--n", "1e6", "--mode", "density",
                "--mod", str(k), "--res", "4999"]
        reports = []
        for cache_max in (10**6, 1000):
            sieve_geometry(1 << 12, cache_max=cache_max)
            assert main(argv) == 0
            reports.append(json.loads(capsys.readouterr().out))
        cached, streamed = reports
        assert cached["term_count"] == streamed["term_count"] == sum(1 for p in ORACLE_PRIMES.tolist() if k % p)
        assert streamed["kappa"] == pytest.approx(cached["kappa"], rel=1e-12)


@pytest.fixture
def split_sieve(sieve_geometry, usable_cpus):
    """Short streamed segments from 2 up (no cache), pieces of at most 64
    primes, and set(cpus): the number of usable CPUs the split sees."""
    sieve_geometry(1 << 8, cache_max=0, chunk=64)
    return usable_cpus


class TestSplitPass:
    """map_prime_blocks returns the serial list whatever the split, and
    leaves no child behind."""

    @pytest.mark.parametrize("x", [10**4, 10**5 + 3])
    @pytest.mark.parametrize("k", [1, 3, 4, 12, 30])
    def test_every_class_maps_to_the_serial_list(self, k, x, split_sieve):
        for r in coprime_classes(k, x):
            prog = Progression(k, r)
            want = [b.tolist() for b in iter_prime_blocks(x, prog)]
            segments = -(-sieve._class_members(x, k, r)[2] // sieve.SIEVE_BLOCK)
            assert segments >= 2
            for cpus in (1, 2, 3):
                split_sieve(cpus)
                got = map_prime_blocks(x, prog, lambda b: (os.getpid(), b.tolist()))
                assert [b for _, b in got] == want, (k, r, cpus)
                # one process per part, the first of them this one
                pids = list(dict.fromkeys(pid for pid, _ in got))
                assert len(pids) == min(cpus, segments) and pids[0] == os.getpid()
        assert no_child_left()

    def test_the_cached_layout_and_a_platform_without_fork_stay_serial(
            self, split_sieve, sieve_geometry, monkeypatch):
        split_sieve(2)
        pids = lambda: {pid for pid in map_prime_blocks(10**5, None, lambda b: os.getpid())}
        assert len(pids()) == 2
        with monkeypatch.context() as m:
            m.delattr(sieve.os, "fork")
            assert pids() == {os.getpid()}
        sieve_geometry(1 << 8, cache_max=10**5)
        assert pids() == {os.getpid()}

    @pytest.mark.parametrize("argv", [
        ["sum", "--fn", "sqrtloglog", "--u", "2", "--mod", "4", "--res", "1", "--x", "1e5"],
        ["sum", "--fn", "tab:2=1,7=3,default=0.5", "--mod", "1", "--x", "1e5"],
        ["probe", "--fn", "invloglog", "--mod", "4", "--res", "3", "--checkpoints", "1e3,3e4,1e5"],
        ["probe", "--series", "inv_p_squared", "--fn", "const:1", "--mod", "3", "--res", "1",
         "--checkpoints", "1e3,1e4,1e5"],
        ["model", "exact", "--fn", "sqrtloglog", "--mod", "4", "--res", "1", "--n", "1e5"],
        ["model", "exact", "--fn", "sqrtloglog", "--mod", "12", "--res", "5", "--n", "1e5",
         "--mode", "density"],
        ["model", "lindeberg", "--fn", "tab:2=1,7=3,default=0.5", "--mod", "3", "--res", "1",
         "--n", "1e5", "--epsilon", "0.5"],
        ["model", "lindeberg", "--fn", "tab:2=1,7=3,default=0.5", "--mod", "3", "--res", "1",
         "--n", "1e5", "--epsilon", "0.5", "--mode", "density"],
    ], ids=["sum", "sum_tab", "probe_custom", "probe_series", "exact", "exact_density",
            "lindeberg", "lindeberg_density"])
    def test_reports_do_not_depend_on_the_split(self, argv, split_sieve, capsys):
        reports = []
        for cpus in (1, 2):
            split_sieve(cpus)
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert no_child_left()

    def test_an_error_in_a_child_is_raised_here(self, split_sieve):
        split_sieve(2)
        parent = os.getpid()

        def per_block(block):
            if os.getpid() != parent:
                raise ArithmeticError(f"block from {int(block[0])}")
            return block.size

        with pytest.raises(ArithmeticError, match="block from"):
            map_prime_blocks(10**5, Progression(4, 1), per_block)
        assert no_child_left()

    def test_an_error_here_kills_and_reaps_the_children(self, split_sieve):
        split_sieve(3)
        parent, slept = os.getpid(), []

        def per_block(block):
            if os.getpid() == parent:
                raise ArithmeticError("parent's half")
            if not slept:  # each child is still running when the parent fails
                slept.append(time.sleep(30))
            return block.size

        started = time.perf_counter()
        with pytest.raises(ArithmeticError, match="parent's half"):
            map_prime_blocks(10**5, Progression(4, 1), per_block)
        assert time.perf_counter() - started < 10
        assert no_child_left()


class TestMapParts:
    """map_parts runs contiguous parts, one per usable CPU, and returns their
    lists in part order."""

    @pytest.mark.parametrize("units", [0, 1, 2, 5])
    def test_parts_are_contiguous_and_in_order(self, units, usable_cpus):
        for cpus in (1, 2, 3, 7):
            usable_cpus(cpus)
            got = map_parts(lambda part: [(os.getpid(), list(part))], range(units))
            assert [u for _, part in got for u in part] == list(range(units))
            assert len(got) == max(1, min(cpus, units)) and got[0][0] == os.getpid()
            assert len({pid for pid, _ in got}) == len(got)
        assert no_child_left()

    def test_a_child_that_ends_without_a_result_is_named(self, usable_cpus):
        usable_cpus(3)
        parent = os.getpid()

        def run(part):
            if os.getpid() != parent and part[0] == 1:
                os._exit(3)
            return list(part)

        with pytest.raises(RuntimeError, match=r"^part 1 of 3 ended with wait status 768 and no result$"):
            map_parts(run, range(3))
        assert no_child_left()
