"""Halton sampling against the per-index digit loop it vectorizes."""

import numpy as np
import pytest

from warpgeo import sampling
from warpgeo.errors import BadDimension, BadRange


def halton_reference(count, base):
    """The radical inverse of each index after _HALTON_SKIP, one index at a
    time, digit by digit."""
    out = np.empty(count)
    for i in range(count):
        k = i + sampling._HALTON_SKIP
        f, r = 1.0, 0.0
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


@pytest.mark.parametrize("count", [1, 2, 7, 20, 200, 1000])
def test_unit_box_is_the_digit_loop_bit_for_bit(count):
    dim = len(sampling._PRIMES)
    want = np.stack([halton_reference(count, b) for b in sampling._PRIMES], 1)
    shift = np.random.default_rng(3).random(dim)
    got = sampling.unit_box(count, dim, seed=3)
    assert np.array_equal(got, np.mod(want + shift, 1.0))
    # fewer axes take the leading primes
    shift = np.random.default_rng(0).random(5)
    assert np.array_equal(sampling.unit_box(count, 5, seed=0),
                          np.mod(want[:, :5] + shift, 1.0))


def test_unit_box_guards():
    # and they run before the table is built
    sampling._halton.cache_clear()
    with pytest.raises(BadDimension):
        sampling.unit_box(4, len(sampling._PRIMES) + 1)
    with pytest.raises(BadRange):
        sampling.unit_box(4, 3, seed=-1)
    assert sampling._halton.cache_info().currsize == 0


@pytest.mark.parametrize("count", [1, 7, 200])
@pytest.mark.parametrize("dim", [1, 5, len(sampling._PRIMES)])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_cached_table_is_the_digit_loop(count, dim, seed):
    # the table is built once per (count, dim); the seed's shift is not
    want = np.stack([halton_reference(count, b)
                     for b in sampling._PRIMES[:dim]], 1)
    shift = np.random.default_rng(seed).random(dim)
    for _ in range(2):
        assert np.array_equal(sampling.unit_box(count, dim, seed=seed),
                              np.mod(want + shift, 1.0))
    table = sampling._halton(count, dim)
    assert sampling._halton(count, dim) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0.5



def test_large_tables_are_not_kept():
    # a table above _HALTON_KEPT_ENTRIES is built for the call alone
    sampling._halton.cache_clear()
    count = sampling._HALTON_KEPT_ENTRIES // 5
    sampling.unit_box(count + 1, 5)
    assert sampling._halton.cache_info().currsize == 0
    sampling.unit_box(count, 5)
    assert sampling._halton.cache_info().currsize == 1
