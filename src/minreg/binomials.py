"""Binomial coefficients and Macaulay expansions.

The binomial convention used everywhere in this package is the vanishing
one: C(n, m) = 0 whenever m < 0 or n < m, and C(n, 0) = 1 for n >= 0.
All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


def binom(n: int, m: int) -> int:
    """C(n, m) with the vanishing convention for out-of-range arguments."""
    if m < 0 or n < m:
        return 0
    return math.comb(n, m)


@dataclass(frozen=True)
class BinomialExpansion:
    """Expansion of a positive integer in a fixed binomial base.

    Represents a = C(k_t, t) + C(k_{t-1}, t-1) + ... + C(k_j, j) where
    base = t, tops = (k_t, k_{t-1}, ..., k_j), the tops strictly decrease,
    each top is at least its index, and the indices run consecutively down
    to j >= 1.  With those constraints the writing is unique.  A trusted
    record: only the greedy macaulay_expand builds one, and nothing
    re-checks the shape on construction.
    """

    base: int
    tops: tuple[int, ...]

    @property
    def lowest_index(self) -> int:
        return self.base - len(self.tops) + 1

    def indices(self) -> range:
        return range(self.base, self.base - len(self.tops), -1)

    def value(self) -> int:
        return sum(binom(k, i) for k, i in zip(self.tops, self.indices()))

    def shifted_value(self, dk: int, di: int) -> int:
        """Value after replacing every C(k, i) with C(k + dk, i + di)."""
        return sum(binom(k + dk, i + di) for k, i in zip(self.tops, self.indices()))


def _largest_top(remainder: int, index: int) -> int:
    """Largest k with C(k, index) <= remainder, for remainder >= 1."""
    lo, hi = index, index + 1
    while binom(hi, index) <= remainder:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom(mid, index) <= remainder:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=None)
def macaulay_expand(a: int, t: int) -> BinomialExpansion:
    """Unique Macaulay expansion of a >= 1 in base t >= 1 (greedy)."""
    if a < 1 or t < 1:
        raise ValueError("macaulay expansion needs a >= 1 and t >= 1")
    tops = []
    remainder = a
    index = t
    while remainder > 0:
        # At index 1 the greedy top equals the remainder, so the loop
        # always terminates before the index can drop below 1.
        k = _largest_top(remainder, index)
        tops.append(k)
        remainder -= binom(k, index)
        index -= 1
    return BinomialExpansion(t, tuple(tops))


@lru_cache(maxsize=None)
def plus_plus(a: int, t: int) -> int:
    """Macaulay growth bound: add one to every top and every index.

    For a ruled degree-t piece of size a this bounds the size of the
    degree t+1 piece.  Extended by plus_plus(0, t) = 0.
    """
    if a == 0:
        return 0
    return macaulay_expand(a, t).shifted_value(1, 1)


@lru_cache(maxsize=None)
def minus_minus(a: int, t: int) -> int:
    """Subtract one from every top and every index of the expansion.

    Extended by minus_minus(0, t) = 0.  For a >= 1 the result is always
    at least 1 because every term C(k-1, i-1) with k >= i >= 1 is positive.
    """
    if a == 0:
        return 0
    return macaulay_expand(a, t).shifted_value(-1, -1)
