"""Fixtures that set the package's block geometry and CPU count for one test.

The sieve's segment length, cache budget and prime-block length and the
member sweep's block length are module constants, read at call time, and
the split passes read the usable CPUs from os.sched_getaffinity at call
time; these fixtures set them with monkeypatch, so the defaults come back
when the test ends.
"""

import os

import pytest

from apmoments import config


@pytest.fixture
def sieve_geometry(monkeypatch):
    """set(segment, cache_max, chunk): sieve segments of `segment` member
    flags, the cached layout only for limits up to `cache_max` (0 streams
    every limit), and prime blocks of at most `chunk` primes.  Called with
    no arguments it restores the defaults."""

    def set_geometry(segment=config.SIEVE_BLOCK, cache_max=config.PRIME_CACHE_MAX,
                     chunk=config.PRIME_CHUNK):
        monkeypatch.setattr("apmoments.sieve.SIEVE_BLOCK", segment)
        monkeypatch.setattr("apmoments.sieve.PRIME_CACHE_MAX", cache_max)
        monkeypatch.setattr("apmoments.sieve.PRIME_CHUNK", chunk)

    return set_geometry


@pytest.fixture
def member_block(monkeypatch):
    """set(n): the member sweep yields blocks of n members.  Called with no
    argument it restores the default."""

    def set_block(n=config.MEMBER_BLOCK):
        monkeypatch.setattr("apmoments.arith_fn.MEMBER_BLOCK", n)

    return set_block


@pytest.fixture
def usable_cpus(monkeypatch):
    """set(cpus): the number of usable CPUs the split passes see
    (sieve.map_parts)."""

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return set_cpus


@pytest.fixture(autouse=True)
def fresh_counting_store(monkeypatch):
    """Each test starts with an empty counting store (no kept tail sums and
    no kept laws), so a test that counts table builds or walks sees its own."""
    monkeypatch.setattr("apmoments.counting._store", {})
