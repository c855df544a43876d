"""Binomial coefficients and Macaulay expansions.

The binomial convention used everywhere in this package is the vanishing
one: C(n, m) = 0 whenever m < 0 or n < m, and C(n, 0) = 1 for n >= 0.
All arithmetic is exact.  The Macaulay expansion of a >= 1 in base t,
a = C(k_t, t) + ... + C(k_j, j) with strictly decreasing tops k_i >= i
and j >= 1, is held as its tuple of tops (k_t, ..., k_j).  Two
operators read it: plus_plus, Macaulay's growth bound a^<t>, and
lowered_chain, which carries one expansion down through the values
a_<t>, a_<t><t-1>, ... that a minimal function takes below its top.
"""

from __future__ import annotations

import math
from functools import lru_cache


def binom(n: int, m: int) -> int:
    """C(n, m) with the vanishing convention for out-of-range arguments."""
    if m < 0 or n < m:
        return 0
    return math.comb(n, m)


def _largest_top(remainder: int, index: int, hi: int) -> int:
    """Largest k < hi with C(k, index) <= remainder, for remainder >= 1
    and C(hi, index) > remainder: the remainder itself at index 1, else
    found by bisection from C(index, index) = 1."""
    if index == 1:
        return remainder
    lo = index
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, index) <= remainder:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_expand(a: int, t: int) -> tuple[int, ...]:
    """Tops of the Macaulay expansion of a >= 1 in base t >= 1 (greedy)."""
    if a < 1 or t < 1:
        raise ValueError("macaulay expansion needs a >= 1 and t >= 1")
    # Doubling the gap above t, not t + 1 itself, keeps binomials such as
    # C(2t + 2, t) out when a is near t.
    gap = 1
    while math.comb(t + gap, t) <= a:
        gap *= 2
    hi = t + gap
    tops, remainder, index = [], a, t
    while remainder > 0:
        # After C(k, index) is taken the remainder is below C(k, index-1),
        # so the next top is below k.  At index 1 the top is the whole
        # remainder, so the index never drops below 1.
        k = _largest_top(remainder, index, hi)
        tops.append(k)
        remainder -= math.comb(k, index)
        index, hi = index - 1, k
    return tuple(tops)


# is_admissible_function re-tests the same values of a function (and of
# its difference) for every candidate, so most calls hit this cache.
@lru_cache(maxsize=None)
def plus_plus(a: int, t: int) -> int:
    """Macaulay growth bound a^<t>: add one to every top and every index.

    For a ruled degree-t piece of size a this bounds the size of the
    degree t+1 piece.  Extended by plus_plus(0, t) = 0.
    """
    if a == 0:
        return 0
    return sum(math.comb(k + 1, i + 1)
               for k, i in zip(macaulay_expand(a, t), range(t, 0, -1)))


def lowered_chain(a: int, t: int) -> list:
    """Values at 0, 1, ..., t-1 below a at t, each a_<s> of the next
    value b at s: one subtracted from every top and every index of b's
    expansion in base s.  One expansion is carried down: lowering its
    tops gives the next one, once a last term C(k-1, 0) = 1 is folded
    into the term above it and equal last tops merge by
    C(k, i) + C(k, i-1) = C(k+1, i).
    """
    if a == 0 or t == 0:
        return [0] * t
    tops = list(macaulay_expand(a, t))
    chain = [1] * t
    for base in range(t - 1, 0, -1):
        tops = [k - 1 for k in tops]
        if len(tops) > base:
            tops.pop()
            tops[-1] += 1
            # Merging changes no value; it keeps the list the expansion,
            # whose fewer terms make long chains about twice as fast.
            while len(tops) > 1 and tops[-1] == tops[-2]:
                tops.pop()
                tops[-1] += 1
        chain[base] = sum(map(math.comb, tops, range(base, 0, -1)))
    return chain
