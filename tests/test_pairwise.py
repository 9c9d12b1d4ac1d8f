"""The float helpers that expansion sums with are numpy's float64 sums.

These tests are the guard across numpy versions: the search's priors are
bit for bit those of the array formulas only while numpy sums float64
vectors in its pairwise order, and under a numpy that sums otherwise they
fail first.
"""
import math

import numpy as np
import pytest

from argsynth.pairwise import SupportSum, pairwise_sum

SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


def same_float(got, want):
    """Equal bits, or both NaN: which NaN a sum of two NaNs keeps depends
    on the order of operands in numpy's compiled loop, and the program
    reads only that the sum is NaN."""
    want = float(want)
    return (np.float64(got).tobytes() == np.float64(want).tobytes()
            or (math.isnan(got) and math.isnan(want)))


def vectors(r, n):
    """Float64 vectors of length n: plain, spread over 16 decades, mostly
    zeros and subnormals, and laced with the specials."""
    yield r.standard_normal(n)
    yield r.standard_normal(n) * 10.0 ** r.integers(-8, 9, n)
    v = r.standard_normal(n) * 1e-310
    v[r.random(n) < 0.5] = 0.0
    yield v
    for _ in range(3):
        v = r.standard_normal(n) * 10.0 ** r.integers(-8, 9, n)
        if n:
            at = r.integers(0, n, r.integers(1, n + 1))
            v[at] = r.choice(SPECIALS, len(at))
        yield v
    yield np.full(n, -0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pairwise_sum_is_add_reduce_at_every_length_to_300():
    r = np.random.default_rng(0)
    for n in range(301):
        for v in vectors(r, n):
            got = pairwise_sum(v.tolist())
            assert type(got) is float
            assert same_float(got, np.add.reduce(v)), (n, v.tolist())


def test_pairwise_sum_is_not_a_sum_in_sequence():
    """From 8 entries on the order differs from a loop's: ten 0.1s add up
    to 1.0 in numpy's lanes, to 0.9999999999999999 in sequence."""
    v = [0.1] * 10
    loop = 0.0
    for x in v:
        loop += x
    assert pairwise_sum(v) == np.add.reduce(np.array(v)) == 1.0
    assert loop == 0.9999999999999999


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [5, 12, 17, 64])
def test_a_support_sum_is_add_reduce_of_the_masked_vector(n):
    """At 17 entries (the `noargs` library's programs) the total has a
    tail after the blocks of 8; at 5 it is a sum in sequence."""
    r = np.random.default_rng(n)
    for trial in range(300):
        mask = r.random(n) < r.random()
        if trial == 0:
            mask[:] = True
        plan = SupportSum(np.flatnonzero(mask).tolist(), n)
        for v in vectors(r, n):
            got = plan.total(v.tolist())
            assert same_float(got, np.add.reduce(np.where(mask, v, 0.0))), (mask, v.tolist())


def test_a_support_sum_reads_only_the_support():
    plan = SupportSum([1, 9, 16], 17)
    v = [math.nan] * 17
    v[1], v[9], v[16] = 0.25, 0.5, 1.0
    assert plan.total(v) == 1.75
    assert plan.support == (1, 9, 16)
