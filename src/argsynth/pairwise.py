"""numpy's float64 pairwise summation, on lists of Python floats.

`np.add.reduce` of a float64 vector of n entries is 0.0 plus numpy's
pairwise sum of them, which sums a run of entries

- under 8 long in sequence, from 0.0;
- up to 128 long in 8 lanes: lane j starts at entry j and adds every 8th
  entry after it, over the run's whole blocks of 8; the lanes combine as
  ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the last n % 8
  entries are then added in sequence;
- longer as two runs, the first n2 entries and the rest, where n2 is half
  the length rounded down to a multiple of 8.

Python floats are IEEE doubles, as numpy's float64 entries are, so a sum
that makes numpy's additions in numpy's order has numpy's bits. On the 5
to 64 entries of a search node's vectors a loop over a list costs less
than numpy's call. The bit-identity rests on numpy summing float64 this
way; a property test holds both helpers to `np.add.reduce`, and under a
numpy that sums otherwise it fails first.
"""
from __future__ import annotations

from typing import Sequence


def pairwise_sum(v: Sequence[float]) -> float:
    """`np.add.reduce` of the float64 vector `v`, bit for bit."""
    n = len(v)
    if n < 8:
        s = 0.0
        for x in v:
            s += x
        return s  # never -0.0, so adding it to 0.0 would change nothing
    return 0.0 + _run(v, 0, n)


def _run(v: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of the n entries of `v` from `lo` on, n >= 8
    (a split of more than 128 leaves at least 64 on each side)."""
    if n > 128:
        n2 = n // 2
        n2 -= n2 % 8
        return _run(v, lo, n2) + _run(v, lo + n2, n - n2)
    r0, r1, r2, r3, r4, r5, r6, r7 = v[lo:lo + 8]
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        r0 += v[i]
        r1 += v[i + 1]
        r2 += v[i + 2]
        r3 += v[i + 3]
        r4 += v[i + 4]
        r5 += v[i + 5]
        r6 += v[i + 6]
        r7 += v[i + 7]
    s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        s += v[i]
    return s


class SupportSum:
    """`np.add.reduce(np.where(mask, v, 0.0))` for one mask over vectors of
    n <= 128 entries, read from the entries on the mask (its support)
    alone.

    The plan is numpy's pairwise order with the entries off the support
    left out: each lane adds its support entries in sequence from 0.0, the
    lanes combine as numpy combines them (a lane with none, or all 8 when
    n < 8, holds 0.0), and the support entries of the tail follow. A
    left-out entry is a +0.0, and adding +0.0 changes no sum but a -0.0,
    so each partial sum is numpy's but for the sign of a zero. Every sum
    here starts from +0.0 and so is never -0.0, and numpy's total, 0.0
    plus its pairwise sum, is never -0.0 either: the totals are equal,
    bit for bit."""

    __slots__ = ("support", "lanes", "tail")

    def __init__(self, support: Sequence[int], n: int):
        assert n <= 128, "one run of numpy's pairwise sum holds 128 entries"
        self.support = tuple(support)  # ascending
        end = n - n % 8 if n >= 8 else 0
        self.lanes = tuple(i for i in self.support if i < end)  # entry i is in lane i % 8
        self.tail = tuple(i for i in self.support if i >= end)

    def total(self, v: Sequence[float]) -> float:
        r = [0.0] * 8
        for i in self.lanes:
            r[i & 7] += v[i]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in self.tail:
            s += v[i]
        return s
