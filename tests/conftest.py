"""Fixtures that set the package's block geometry for one test.

The sieve's segment length and cache budget and the member sweep's block
length are module constants, read at call time; these fixtures set them
with monkeypatch, so the defaults come back when the test ends.
"""

import pytest

from apmoments import config


@pytest.fixture
def sieve_geometry(monkeypatch):
    """set(segment, cache_max): sieve segments of `segment` member flags, and
    the cached layout only for limits up to `cache_max` (0 streams every limit).
    Called with no arguments it restores the defaults."""

    def set_geometry(segment=config.SIEVE_BLOCK, cache_max=config.PRIME_CACHE_MAX):
        monkeypatch.setattr("apmoments.sieve.SIEVE_BLOCK", segment)
        monkeypatch.setattr("apmoments.sieve.PRIME_CACHE_MAX", cache_max)

    return set_geometry


@pytest.fixture
def member_block(monkeypatch):
    """set(n): the member sweep yields blocks of n members.  Called with no
    argument it restores the default."""

    def set_block(n=config.MEMBER_BLOCK):
        monkeypatch.setattr("apmoments.arith_fn.MEMBER_BLOCK", n)

    return set_block
