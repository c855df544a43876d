"""Tests for binomial conventions and Macaulay expansion operators.

The expansion, a tuple of tops with indices counting down from the base,
is checked against its defining constraints (value, strictly decreasing
tops, each top at least its index, lowest index at least 1), which pin it
down uniquely, and against the plain greedy conftest.reference_expand.
The lowered chain is checked against repeated conftest.minus_minus, a_<t>
by one expansion each.
plus_plus is checked against an independent set-theoretic oracle: the
growth of the complement of a lex ideal, counted by hand from monomials.
minus_minus, with which the tests check the chain, is checked against
its dual minimality property.
"""

import random

import pytest

from minreg.binomials import (binom, lowered_chain, macaulay_expand,
                              plus_plus)

from conftest import minus_minus, reference_expand


def _value(tops, t):
    return sum(binom(k, i) for k, i in zip(tops, range(t, 0, -1)))


def _lowest_index(tops, t):
    return t - len(tops) + 1


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 0) == 1
    assert binom(0, 0) == 1
    assert binom(2, 5) == 0
    assert binom(5, -1) == 0
    assert binom(-1, 0) == 0
    # exact big integers, no overflow
    assert binom(600, 300) == binom(599, 299) + binom(599, 300)


def test_expansion_constraints_enforced():
    assert _value((5, 3, 1), 3) == 10 + 3 + 1
    assert _lowest_index((5, 3, 1), 3) == 1
    assert macaulay_expand(14, 3) == (5, 3, 1)


def test_macaulay_expand_defining_properties():
    # value + constraint checks pin the expansion down uniquely, so this
    # is a complete correctness proof over the swept range
    for t in range(1, 7):
        for a in range(1, 401):
            tops = macaulay_expand(a, t)
            assert _value(tops, t) == a
            assert all(k > later for k, later in zip(tops, tops[1:]))
            assert all(k >= i for k, i in zip(tops, range(t, 0, -1)))
            assert _lowest_index(tops, t) >= 1


def test_macaulay_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        macaulay_expand(0, 3)
    with pytest.raises(ValueError):
        macaulay_expand(5, 0)
    with pytest.raises(ValueError):
        macaulay_expand(-2, 2)


# ---------------------------------------------------------------------------
# the expansion and the lowered chain against their references


def _random_pairs(count):
    """Seeded pairs (a, t) with 1 <= a < 10^40 and 1 <= t <= 60."""
    rng = random.Random(2013)
    return [(rng.randrange(1, 10 ** rng.randint(1, 40)), rng.randint(1, 60))
            for _ in range(count)]


def _repeated_minus_minus(a, t):
    chain = []
    for s in range(t, 0, -1):
        a = minus_minus(a, s)
        chain.append(a)
    return chain[::-1]


def test_macaulay_expand_matches_reference_greedy():
    for t in range(1, 31):
        for a in range(1, 501):
            assert macaulay_expand(a, t) == reference_expand(a, t), (a, t)
    for a, t in _random_pairs(400):
        assert macaulay_expand(a, t) == reference_expand(a, t), (a, t)


def test_macaulay_expand_near_the_doubling_edges():
    # The first top is found by doubling its gap above t: a = C(t + 2^k, t)
    # and its neighbours put the top at either end of a gap, and large a
    # put it far above t.
    for t in range(1, 41):
        for k in range(9):
            edge = binom(t + 2 ** k, t)
            for a in (edge - 1, edge, edge + 1):
                if a >= 1:
                    assert macaulay_expand(a, t) == reference_expand(a, t), \
                        (a, t)
    for t, top in ((2, 10 ** 6), (3, 50000), (5, 3000), (30, 4000),
                   (200, 203), (2999, 3000), (9999, 10000)):
        for a in (binom(top, t) - 1, binom(top, t), binom(top, t) + 1):
            assert macaulay_expand(a, t) == reference_expand(a, t), (top, t)


def test_lowered_chain_matches_repeated_minus_minus():
    for t in range(31):
        for a in range(501):
            assert lowered_chain(a, t) == _repeated_minus_minus(a, t), (a, t)
    for a, t in _random_pairs(200):
        assert lowered_chain(a, t) == _repeated_minus_minus(a, t), (a, t)


@pytest.mark.parametrize("a,t,expected", [
    (12, 3, 17),
    (4, 1, 10),
    (1, 5, 1),
    (3, 2, 4),
    (13, 3, 19),
])
def test_plus_plus_values(a, t, expected):
    assert plus_plus(a, t) == expected


@pytest.mark.parametrize("a,t,expected", [
    (17, 4, 12),
    (13, 3, 8),
    (12, 3, 8),
    (4, 1, 1),
    (1, 5, 1),
])
def test_minus_minus_values(a, t, expected):
    assert minus_minus(a, t) == expected


def test_zero_extension():
    for t in range(1, 6):
        assert plus_plus(0, t) == 0
        assert minus_minus(0, t) == 0


def test_minus_minus_is_positive():
    # every term C(k-1, i-1) with k >= i >= 1 is at least 1
    for t in range(1, 7):
        for a in range(1, 401):
            assert minus_minus(a, t) >= 1


# ---------------------------------------------------------------------------
# independent oracle for plus_plus: growth of a lex quotient, by counting


def _monomials(nvars, degree):
    """All exponent tuples of the given total degree, nvars variables."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def _lex_quotient_growth(nvars, degree, size):
    """Count degree+1 monomials all of whose divisors lie in the span of
    the `size` lex-smallest monomials of the given degree."""
    level = sorted(_monomials(nvars, degree))[:size]
    kept = set(level)
    grown = 0
    for m in _monomials(nvars, degree + 1):
        divisors = []
        for i in range(nvars):
            if m[i] > 0:
                divisors.append(m[:i] + (m[i] - 1,) + m[i + 1:])
        if all(d in kept for d in divisors):
            grown += 1
    return grown


def test_plus_plus_against_lex_growth():
    # Macaulay: the lex quotient achieves the growth bound exactly
    for degree in (1, 2, 3):
        total = len(_monomials(5, degree))
        for size in range(1, total + 1):
            assert plus_plus(size, degree) == _lex_quotient_growth(5, degree, size)


def test_plus_plus_against_lex_growth_few_variables():
    for nvars in (2, 3):
        for degree in (1, 2, 3, 4):
            total = len(_monomials(nvars, degree))
            for size in range(1, total + 1):
                assert plus_plus(size, degree) == _lex_quotient_growth(nvars, degree, size)


def test_minus_minus_minimality():
    # minus_minus(a, t) is the least b whose growth bound at t-1 reaches a
    for t in range(2, 7):
        for a in range(1, 301):
            b = minus_minus(a, t)
            assert plus_plus(b, t - 1) >= a
            if b > 1:
                assert plus_plus(b - 1, t - 1) < a


# ---------------------------------------------------------------------------
# interaction identities used throughout the regularity algorithms


def test_double_action_identity():
    # applying minus_minus then plus_plus one base lower recovers a, with a
    # correction of k(2) - k(1) when the expansion reaches index 1
    for t in range(2, 9):
        for a in range(1, 501):
            tops = macaulay_expand(a, t)
            back = plus_plus(minus_minus(a, t), t - 1)
            if _lowest_index(tops, t) > 1:
                assert back == a
            else:
                k1 = tops[-1]
                k2 = tops[-2] if len(tops) >= 2 else None
                assert k2 is not None  # t >= 2 forces at least two terms
                assert back == a + k2 - k1


def test_increment_identities():
    # how both operators move when a grows by one
    for t in range(1, 9):
        for a in range(1, 501):
            tops = macaulay_expand(a, t)
            j = _lowest_index(tops, t)
            k1 = tops[-1] if j == 1 else 0
            assert plus_plus(a + 1, t) == plus_plus(a, t) + 1 + k1
            if j > 1:
                assert minus_minus(a + 1, t) == minus_minus(a, t) + 1
            else:
                assert minus_minus(a + 1, t) == minus_minus(a, t)


# ---------------------------------------------------------------------------
# alternative strictly decreasing writings (exhaustive search)


def _writings_below_greedy(a, t, cap):
    """All writings a = sum C(h_i, i) with i = t, t-1, ..., consecutive,
    h strictly decreasing, h_i >= i, and h_t < cap.  Returned as tuples of
    per-position term values.  Index may run all the way down to 0."""
    found = []

    def rec(rem, index, bound, values):
        if rem == 0:
            found.append(tuple(values))
            return
        if index < 0:
            return
        for h in range(index, bound):
            term = binom(h, index)
            if term > rem:
                break
            rec(rem - term, index - 1, h, values + [term])

    rec(a, t, cap, [])
    return found


def test_alternative_writing_exists_only_for_pure_binomials():
    for t in range(1, 6):
        for a in range(1, 301):
            greedy_top = macaulay_expand(a, t)[0]
            alternatives = _writings_below_greedy(a, t, greedy_top)
            pure = a == binom(greedy_top, t)
            if pure and greedy_top > t:
                k = greedy_top
                expected = tuple(binom(k - 1 - i, t - i) for i in range(t + 1))
                assert alternatives, (a, t)
                for alt in alternatives:
                    assert alt == expected
            else:
                # either not a single binomial, or C(t, t) = 1: no room below
                assert alternatives == [], (a, t)
