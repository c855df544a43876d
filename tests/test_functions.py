"""Tests for Hilbert functions, growth admissibility and minimal functions.

The regularity minima are checked against naive oracles that scan the
whole valid range (too slow for real inputs with large Gotzmann numbers,
but fine as an independent cross-check on small ones), and minimality of
the constructed functions is certified by per-point lowering probes.
Both steps of the proof that the scheme-minimum scan is monotone in t
are checked on random writings.
"""

import time

import pytest
from hypothesis import assume, given, settings

from minreg.binomials import lowered_chain, plus_plus
from minreg.borel import StronglyStableIdeal
from minreg.errors import (InternalInconsistency, NegativeDerivative,
                           NotAdmissible, ParseError, RhoTooSmall)
from minreg.functions import (HilbertFunction, is_admissible_function,
                              is_scheme_function, least_dominated_regularity,
                              min_function_regularity, min_scheme_regularity,
                              minimal_function, minimal_function_exact,
                              minimal_scheme_function, parse_hilbert_function)
from minreg.polynomials import (AdmissiblePolynomial, parse_polynomial,
                                polynomial_from_coefficients)

from conftest import (dominated_by, from_writing, minus_minus, partial_sums,
                      reference_least_dominated, reference_scheme_minimum,
                      values, writings)


def hf(text):
    return parse_hilbert_function(text)


def poly(text):
    return parse_polynomial(text)


# ---------------------------------------------------------------------------
# representation


def test_prefix_is_canonicalized():
    h = hf("1,4,8,12 ; 5z-3")
    assert h.prefix == (1, 4, 8)
    assert h.regularity == 3
    assert h == hf("1,4,8 ; 5z-3")
    built = HilbertFunction((1, 4, 8, 12, 17), poly("5z-3"))
    assert built.prefix == (1, 4, 8)
    assert built == h


def test_records_compare_and_hash_by_type_and_fields():
    # The value types are cache keys: a fresh equal record must find the
    # entry an earlier one left.  The parser keeps one record per text,
    # so the fresh one is read from another spelling.
    p = poly("7z-5")
    min_scheme_regularity(p)
    hits = min_scheme_regularity.cache_info().hits
    fresh = poly("-5+7z")
    assert fresh is not p
    min_scheme_regularity(fresh)
    assert min_scheme_regularity.cache_info().hits == hits + 1
    ideal = StronglyStableIdeal(3, frozenset({(0, 2, 0), (0, 1, 1),
                                              (0, 0, 3)}))
    pairs = [
        (p, fresh, (p.coordinates,)),
        (hf("1,4,8 ; 5z-3"), HilbertFunction((1, 4, 8), poly("5z-3")),
         ((1, 4, 8), poly("5z-3"))),
        (ideal, StronglyStableIdeal(3, frozenset(ideal.generators)),
         (3, ideal.generators)),
    ]
    for a, b, fields in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != fields and a != fields[0]
        for c, _, _ in pairs:
            assert (a == c) is (a is c)
    assert p != poly("7z-4")
    assert hf("1,4,8 ; 5z-3") != hf("1,4,9 ; 5z-3")
    assert ideal != StronglyStableIdeal(4, ideal.generators)
    assert [repr(a) for a, _, _ in pairs] == [
        "AdmissiblePolynomial('7z-5')", "HilbertFunction('1,4,8 ; 5z-3')",
        "StronglyStableIdeal(3, (x1^2, x1*x2, x2^3))"]


def test_call_and_values():
    h = hf("1,4,8 ; 5z-3")
    assert h(-2) == 0
    assert values(h, 6) == [1, 4, 8, 12, 17, 22]
    z = hf("; 0")
    assert values(z, 3) == [0, 0, 0]
    assert z.regularity == 0


def test_artinian_prefix_trims_zeros():
    h = HilbertFunction((1, 3, 2, 0, 0))
    assert h.prefix == (1, 3, 2)
    assert h.regularity == 3


def test_str_round_trip():
    for text in ("1,4,8 ; 5z-3", "; 0", "1,3,2 ; 0", "; z+1", "1,5,11 ; 15z-24"):
        h = hf(text)
        assert parse_hilbert_function(str(h)) == h


@pytest.mark.parametrize("text", [
    "1,4,8",
    "1,a ; 0",
    "1,2 ;",
    "1,2 ; 2w+1",
    ";",
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_hilbert_function(text)


def test_non_integer_values_rejected():
    from fractions import Fraction
    with pytest.raises(NotAdmissible):
        HilbertFunction((1, Fraction(3, 2)))
    with pytest.raises(NotAdmissible):
        HilbertFunction((1, 2.5), poly("5z-3"))
    assert HilbertFunction((1, 3.0, Fraction(4))).prefix == (1, 3, 4)


# ---------------------------------------------------------------------------
# difference and sums


def test_delta_of_minimal_function():
    f3 = minimal_function(poly("5z-3"), 3)
    d = f3.delta()
    assert d.prefix == (1, 3, 4, 4)
    assert str(d.tail) == "5"


def test_delta_worked_example():
    g7 = minimal_function_exact(poly("12z-25"), 7)
    assert g7.prefix == (1, 4, 9, 16, 25, 36, 48)
    d = g7.delta()
    assert d.prefix == (1, 3, 5, 7, 9, 11, 12, 11)
    assert str(d.tail) == "12"


def test_delta_raises_on_prefix_dip():
    with pytest.raises(NegativeDerivative):
        HilbertFunction((1, 2, 1)).delta()


def test_delta_raises_on_tail_dip():
    # the tail 6z^2-48z+166 dips between 3 and 4 where the prefix no
    # longer covers it
    h = HilbertFunction((1, 2), polynomial_from_coefficients((166, -48, 6)))
    assert values(h, 6) == [1, 2, 94, 76, 70, 76]
    with pytest.raises(NegativeDerivative):
        h.delta()


def test_delta_is_kept_and_a_dip_raises_every_time():
    f = minimal_function_exact(poly("12z-25"), 7)
    g = minimal_function_exact(poly("12z-25"), 7)
    d = f.delta()
    assert f.delta() is d
    assert f.delta() == d == g.delta()
    # g has built its difference and a fresh copy has not: the record
    # compares, hashes and prints by its prefix and tail alone
    fresh = minimal_function_exact(poly("12z-25"), 7)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert {fresh: 1}[f] == 1
    dips = (HilbertFunction((1, 2, 1)),
            HilbertFunction((1, 2), polynomial_from_coefficients((166, -48, 6))))
    for h in dips:
        for _ in range(3):
            with pytest.raises(NegativeDerivative):
                h.delta()


def test_partial_sums():
    f2 = minimal_function(poly("5z-3"), 3)
    s = partial_sums(f2)
    assert values(s, 6) == [1, 5, 13, 25, 42, 64]
    artinian = HilbertFunction((1, 2))
    s2 = partial_sums(artinian)
    assert values(s2, 5) == [1, 3, 3, 3, 3]
    assert str(s2.tail) == "3"
    # summing the truncated triangle numbers (1,3,6,10,15,15,...)
    g = hf("1,3,6,10 ; 15")
    s3 = partial_sums(g)
    assert values(s3, 6) == [1, 4, 10, 20, 35, 50]
    assert s3 == hf("1,4,10 ; 15z-25")
    point = partial_sums(HilbertFunction((1,)))
    assert values(point, 4) == [1, 1, 1, 1]
    assert point.regularity == 0


def test_partial_sums_needs_unit_start():
    with pytest.raises(NotAdmissible):
        partial_sums(HilbertFunction((2, 3)))


def test_sums_and_delta_are_inverse():
    for text in ("1,4,8 ; 5z-3", "1,5,11 ; 15z-24", "1,3 ; 2z+2", "1,3,2 ; 0"):
        h = hf(text)
        assert partial_sums(h).delta() == h
    u = hf("1,4,8 ; 5z-3")
    assert partial_sums(u.delta()) == u


# ---------------------------------------------------------------------------
# domination


def test_dominated_by():
    f3 = minimal_function(poly("5z-3"), 3)
    f5 = minimal_function(poly("5z-3"), 5)
    g4 = minimal_function_exact(poly("5z-3"), 4)
    assert dominated_by(f3, f3)
    assert dominated_by(f5, f3)
    assert dominated_by(f3, g4)
    assert not dominated_by(g4, f3)


def test_dominated_by_distinct_tails():
    a = hf("1 ; 5z-1")
    b = hf("1 ; 5z-3")
    assert dominated_by(b, a)
    assert not dominated_by(a, b)
    assert dominated_by(hf("1,3,2 ; 0"), hf("1,3 ; 2z+2"))
    assert not dominated_by(hf("1,3 ; 2z+2"), hf("1,3,2 ; 0"))
    assert dominated_by(hf("1 ; 2z+2"), hf("; z^2+3z+3"))


# ---------------------------------------------------------------------------
# admissibility


def test_growth_admissibility():
    assert is_admissible_function(hf("1,4,8 ; 5z-3"))
    assert is_admissible_function(hf("1,4,8,13 ; 5z-3"))
    # value jump beyond the growth bound
    assert not is_admissible_function(hf("1,3,8 ; 5z-3"))
    # not starting at 1
    assert not is_admissible_function(hf("2,4 ; 5z-3"))
    assert not is_admissible_function(hf("; 0"))
    # zero cannot grow again
    assert not is_admissible_function(HilbertFunction((1, 0, 2)))
    # negative value hidden in the tail's active range
    assert not is_admissible_function(hf("1 ; 12z-25"))


def test_scheme_functions():
    assert is_scheme_function(hf("1,4,8 ; 5z-3"))
    # admissible but the difference dips
    wavy = hf("1,5 ; 2")
    assert is_admissible_function(wavy)
    assert not is_scheme_function(wavy)
    # admissible but the difference grows too fast (worked example)
    g4 = minimal_function_exact(poly("5z-3"), 4)
    assert is_admissible_function(g4)
    assert not is_scheme_function(g4)


# ---------------------------------------------------------------------------
# minimal functions


def test_minimal_function_chains():
    p = poly("5z-3")
    assert minimal_function(p, 3).prefix == (1, 4, 8)
    assert minimal_function(p, 4).prefix == (1, 4, 8)  # same function
    assert minimal_function(p, 5).prefix == (1, 4, 7, 11, 16)
    assert minimal_function(p, 6).prefix == (1, 3, 6, 10, 15, 21)
    twelve = poly("12")
    assert minimal_function(twelve, 5).prefix == (1, 3, 6, 8, 10)
    assert minimal_function(twelve, 6).prefix == (1, 3, 5, 7, 9, 11)
    assert minimal_function(twelve, 7).prefix == (1, 3, 5, 7, 9, 10, 11)
    # beyond the Gotzmann number the chain freezes
    two = poly("2")
    assert minimal_function(two, 50) == minimal_function(two, 1)


def test_minimal_function_structure():
    # defining recurrence: tail values from the effective start, then the
    # slowest admissible decrease backwards
    for text, rho in (("5z-3", 5), ("12z-24", 6), ("z^2+3z+3", 4), ("12", 7)):
        p = poly(text)
        f = minimal_function(p, rho)
        eff = min(rho, p.gotzmann_number - 1)
        for t in range(eff, eff + 4):
            assert f(t) == p(t)
        for t in range(eff, 0, -1):
            assert f(t - 1) == minus_minus(f(t), t)
        assert is_admissible_function(f)


CHAIN_FIXTURES = ["5z-3", "9z-7", "12z-24", "12z-25", "15z-24", "2z+2",
                  "z^2+3z+3", "6z^2-18z+37", "1/3z^3+2z^2+14/3z-4",
                  "2z^3-6z^2+29z-20"]


def _lowers_by_minus_minus(f, top):
    return all(f(t - 1) == minus_minus(f(t), t) for t in range(top, 0, -1))


def test_minimal_function_chains_lower_by_minus_minus():
    # the carried expansion agrees with one minus_minus per degree along
    # every chain, for rho up to min(r - 1, 120)
    for text in CHAIN_FIXTURES:
        p = poly(text)
        least = min_function_regularity(p)
        for rho in range(least, min(p.gotzmann_number - 1, 120) + 1):
            assert _lowers_by_minus_minus(minimal_function(p, rho), rho)
            if rho < 1:
                continue
            try:
                f = minimal_function_exact(p, rho)
            except NotAdmissible:
                continue
            assert f.regularity == rho
            assert _lowers_by_minus_minus(f, rho - 1), (text, rho)


def test_minimal_function_time_budget():
    # re-expanding every value from scratch took about 20 s on a 2-vCPU VM
    p = poly("2z^3-6z^2+29z-20")
    start = time.perf_counter()
    f = minimal_function(p, 1000)
    assert time.perf_counter() - start < 2.0
    assert f.regularity == 1000 and f(1000) == p(1000)


def test_minimal_function_is_pointwise_minimal():
    # lowering any single value breaks admissibility
    for text, rho in (("5z-3", 3), ("5z-3", 5), ("12z-24", 5), ("12", 6),
                      ("z^2+3z+3", 1), ("6z^2-18z+37", 4)):
        p = poly(text)
        f = minimal_function(p, rho)
        for t0 in range(f.regularity):
            lowered = list(f.prefix)
            lowered[t0] -= 1
            if lowered[t0] < 0:
                continue
            probe = HilbertFunction(tuple(lowered), p)
            assert not is_admissible_function(probe), (text, rho, t0)


def test_minimal_function_rho_too_small():
    with pytest.raises(RhoTooSmall):
        minimal_function(poly("5z-3"), 2)
    with pytest.raises(RhoTooSmall):
        minimal_function(poly("12z-24"), 4)


def test_minimal_function_exact():
    p = poly("5z-3")
    g4 = minimal_function_exact(p, 4)
    assert g4.prefix == (1, 4, 8, 13)
    assert g4.regularity == 4
    # the minimal function at 5 already has regularity 5 and lies below
    # the bump at 4, (1, 4, 8, 13, 18)
    g5 = minimal_function_exact(p, 5)
    assert g5 == minimal_function(p, 5)
    assert g5.prefix == (1, 4, 7, 11, 16)
    with pytest.raises(RhoTooSmall):
        minimal_function_exact(p, 2)
    # regularity exactly 1 would need the value 2 at 0
    with pytest.raises(NotAdmissible):
        minimal_function_exact(poly("2z+1"), 1)


def test_minimal_function_exact_is_minimal_with_its_regularity():
    for text, rho in (("5z-3", 4), ("5z-3", 5), ("12z-25", 7), ("12", 8),
                      ("14", 1), ("3/2z^2+15/2z-18", 4)):
        p = poly(text)
        g = minimal_function_exact(p, rho)
        assert g.regularity == rho
        assert is_admissible_function(g)
        for t0 in range(rho):
            lowered = list(g.prefix)
            lowered[t0] -= 1
            if lowered[t0] < 0:
                continue
            probe = HilbertFunction(tuple(lowered), p)
            # either growth breaks or the regularity drops below rho
            assert (not is_admissible_function(probe)
                    or probe.regularity < rho), (text, rho, t0)


# ---------------------------------------------------------------------------
# regularity minima against naive oracles


TABLE_MINIMA = [
    ("1/3z^3+2z^2+14/3z-4", 3, 3),
    ("z^2+3z+3", 1, 1),
    ("2z+2", 1, 1),
    ("2", 1, 1),
    ("2z^3-6z^2+29z-20", 2, 2),
    ("6z^2-18z+37", 1, 4),
    ("12z-24", 5, 5),
    ("12", 1, 1),
    ("5z-3", 3, 3),
    ("12z-25", 6, 6),
    ("15z-24", 3, 3),
    ("9z-7", 2, 2),
    ("3z+1", 0, 0),
]


@pytest.mark.parametrize("text,rho,rho_bar", TABLE_MINIMA)
def test_regularity_minima(text, rho, rho_bar):
    p = poly(text)
    assert min_function_regularity(p) == rho
    assert min_scheme_regularity(p) == rho_bar


def _naive_min_function_regularity(p):
    # direct scan of the suffix growth condition; only usable when the
    # Gotzmann number is small
    r = p.gotzmann_number
    for t in range(r + 1):
        ok = all(p(u) >= 1 and p(u + 1) <= plus_plus(p(u), u)
                 for u in range(max(t, 1), r + 3))
        if ok and (t > 0 or p(0) == 1):
            return t
    raise AssertionError("no admissible start found")


def _naive_min_scheme_regularity(p):
    for t in range(p.gotzmann_number + 1):
        try:
            f = minimal_function(p, t)
        except RhoTooSmall:
            continue
        if is_scheme_function(f):
            return t
    raise AssertionError("no scheme start found")


@pytest.mark.parametrize("text", [
    "1/3z^3+2z^2+14/3z-4", "z^2+3z+3", "2z+2", "2", "12", "12z-24",
    "12z-25", "15z-24", "5z-3", "9z-7", "3z+1", "z+2", "7",
])
def test_minima_against_naive_scans(text):
    p = parse_polynomial(text)
    assert min_function_regularity(p) == _naive_min_function_regularity(p)
    assert min_scheme_regularity(p) == _naive_min_scheme_regularity(p)


def test_internal_linear_tails():
    from fractions import Fraction
    line = polynomial_from_coefficients((1, 1))
    assert min_function_regularity(line) == 0
    assert min_scheme_regularity(line) == 0
    plane = polynomial_from_coefficients((1, Fraction(3, 2), Fraction(1, 2)))
    assert min_function_regularity(plane) == 0
    assert min_scheme_regularity(plane) == 0
    point = polynomial_from_coefficients((1,))
    assert min_function_regularity(point) == 0
    assert min_scheme_regularity(point) == 0


# ---------------------------------------------------------------------------
# pointwise minimum over schemes


def test_minimal_scheme_function_worked_example():
    p = poly("5z-3")
    assert minimal_scheme_function(p, 2) is None
    f3 = minimal_scheme_function(p, 3)
    assert f3.prefix == (1, 4, 8)
    assert minimal_scheme_function(p, 4) is None
    f5 = minimal_scheme_function(p, 5)
    assert f5.prefix == (1, 4, 7, 11, 16)
    f6 = minimal_scheme_function(p, 6)
    assert f6.prefix == (1, 3, 6, 10, 15, 21)
    # at and beyond the Gotzmann number the class is empty
    assert minimal_scheme_function(p, 7) is None
    assert minimal_scheme_function(p, 12) is None


def test_minimal_scheme_function_is_scheme():
    for text, rho in (("12z-25", 6), ("12z-25", 7), ("6z^2-18z+37", 4),
                      ("z^2+3z+3", 1), ("15z-24", 3)):
        u = minimal_scheme_function(poly(text), rho)
        assert u is not None
        assert is_scheme_function(u)
        assert u.regularity == rho


def test_minimal_scheme_function_empty_beyond_gotzmann():
    for text in ("2z+2", "z^2+3z+3", "2"):
        p = poly(text)
        for rho in range(p.gotzmann_number, p.gotzmann_number + 3):
            assert minimal_scheme_function(p, rho) is None


def test_least_dominated_regularity():
    p = poly("1/3z^3+2z^2+14/3z-4")
    u = minimal_scheme_function(p, 3)
    fit, f = least_dominated_regularity(p.derivative(), u.delta(),
                                        u.regularity + 1)
    assert fit == 4
    assert f == minimal_function(p.derivative(), 4)


def test_least_dominated_regularity_reads_the_tail_past_the_chain():
    # z + 1 lies below the constant 5 up to 3 and above it from 4 on, so
    # only a candidate whose chain covers 0..3 fits under it
    five, line = poly("5"), polynomial_from_coefficients((1, 1))
    w = HilbertFunction((), line)
    assert reference_least_dominated(five, w, 6) == (4, minimal_function(five, 4))
    assert least_dominated_regularity(five, w, 6) == (4, minimal_function(five, 4))


def _scans_match_their_references(top):
    """Down the derivative tower of top: min_scheme_regularity against the
    partial-sum scan, and least_dominated_regularity against building
    every candidate's minimal function, below the difference of each
    scheme function of the level above (the descent's question) and
    below minimal functions whose tails lie above or below q (a tail
    check that passes late or never)."""
    levels = [top]
    while levels[-1].degree > 0:
        levels.append(levels[-1].derivative())
    for p in levels:
        assert min_scheme_regularity.__wrapped__(p) == \
            reference_scheme_minimum(p), p
    for p, q in zip(levels, levels[1:]):
        rho_bar = min_scheme_regularity(p)
        below = []
        for rho in range(rho_bar, min(p.gotzmann_number, rho_bar + 6)):
            u = minimal_scheme_function(p, rho)
            if u is not None:
                below.append((u.delta(), u.regularity + 1))
        for shift in (-1, 1, 3):
            shifted = AdmissiblePolynomial(
                (q.coordinates[0] + shift,) + q.coordinates[1:])
            try:
                shifted.runs
                rho = min_function_regularity(shifted)
            except NotAdmissible:
                continue
            for t in range(rho, rho + 4):
                below.append((minimal_function(shifted, t), t + 3))
        for w, cap in below:
            cap = max(cap, min_scheme_regularity(q))
            expected = reference_least_dominated(q, w, cap)
            if expected is None:
                with pytest.raises(InternalInconsistency):
                    least_dominated_regularity(q, w, cap)
            else:
                assert least_dominated_regularity(q, w, cap) == expected, \
                    (q, w, cap)


@pytest.mark.parametrize("text", CHAIN_FIXTURES)
def test_scans_match_their_references_on_the_fixtures(text):
    _scans_match_their_references(poly(text))


@settings(max_examples=150, deadline=None)
@given(writings)
def test_scans_match_their_references_on_random_writings(writing):
    _scans_match_their_references(polynomial_from_coefficients(
        from_writing(writing)))


# ---------------------------------------------------------------------------
# the scheme-minimum scan is monotone, as min_scheme_regularity proves


@settings(max_examples=150, deadline=None)
@given(writings)
def test_minimal_functions_fall_as_the_regularity_grows(writing):
    """minimal_function(q, t + 1) <= minimal_function(q, t) pointwise,
    from the least function regularity of q to past its Gotzmann
    number."""
    q = polynomial_from_coefficients(from_writing(writing))
    stop = q.gotzmann_number + 2
    functions = [minimal_function(q, t)
                 for t in range(min_function_regularity(q), stop + 1)]
    for f, g in zip(functions, functions[1:]):
        assert all(g(s) <= f(s) for s in range(stop + 2)), (f, g)


@settings(max_examples=150, deadline=None)
@given(writings)
def test_the_scheme_minimum_test_stays_true_once_true(writing):
    """Once the chain's sum is held to p(e - 1) at t, it is at t + 1,
    over every t the scan of min_scheme_regularity may visit and two
    more."""
    p = polynomial_from_coefficients(from_writing(writing))
    assume(p.degree > 0)
    dp = p.derivative()
    last = max(dp.gotzmann_number - 1, 0)
    held = [sum(lowered_chain(dp(e), e)) <= p(e - 1)
            for e in (min(t, last) for t in range(
                max(min_function_regularity(dp), 1), p.gotzmann_number + 4))]
    assert held == sorted(held), held
