"""Tests for parsing and the Gotzmann decomposition.

Small decompositions are verified against a naive summand-by-summand
reconstruction (the defining identity), large ones through the structural
fact that differencing shifts every summand down one degree.  Random
Gotzmann writings check the coordinates against the printed coefficients,
the printer is checked against the Fraction printer in conftest, the
text of a parsed polynomial against both printers on many spellings of
one polynomial, the parser's integer route from numerators over a scale
against conftest's Fraction route, and the nonnegativity scan is
checked against the monomial-basis reference scan in conftest.
slice_growth is checked as the inverse of quotient_tail, at a single
degree, on every small growth vector.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from minreg import polynomials
from minreg.errors import LinearVariety, NotAdmissible, ParseError
from minreg.functions import HilbertFunction, parse_hilbert_function
from minreg.polynomials import (ZERO, AdmissiblePolynomial,
                                parse_coefficients, parse_polynomial,
                                parse_tail, polynomial_from_coefficients,
                                quotient_tail, slice_growth)

from minreg.polynomials import _from_numerators

from conftest import (binomial_coeffs, from_writing, interpolate, poly_add,
                      poly_eval, poly_nonnegative_from, poly_scale, poly_sub,
                      reference_polynomial, reference_str, writings)


# ---------------------------------------------------------------------------
# parsing


def _parsed(text):
    """The ascending coefficients parse_coefficients reads, as Fractions
    of its numerators over its scale."""
    numerators, scale = parse_coefficients(text)
    return tuple(Fraction(n, scale) for n in numerators)


@pytest.mark.parametrize("text,expected", [
    ("2z^3-6z^2+29z-20", (-20, 29, -6, 2)),
    ("z^2+3z+3", (3, 3, 1)),
    ("2z+2", (2, 2)),
    ("12", (12,)),
    ("-z+5", (5, -1)),
    ("z", (0, 1)),
    ("1/3z^3+2z^2+14/3z-4", (-4, Fraction(14, 3), 2, Fraction(1, 3))),
    ("2z + 2", (2, 2)),
    ("z^2 - z + 1", (1, -1, 1)),
    ("[2,-6,29,-20]", (-20, 29, -6, 2)),
    ("[1/3, 2, 14/3, -4]", (-4, Fraction(14, 3), 2, Fraction(1, 3))),
    ("0", ()),
    ("z-z", ()),
])
def test_parse_coefficients(text, expected):
    assert _parsed(text) == tuple(Fraction(c) for c in expected)


@pytest.mark.parametrize("text", [
    "",
    "   ",
    "2x+1",
    "z^-2",
    "1//3z",
    "[1,2",
    "[]",
    "3+",
    "z^",
    "2*z",
    "1/",
    "1/0z",
])
def test_parse_rejects_bad_syntax(text):
    with pytest.raises(ParseError):
        parse_coefficients(text)


@pytest.mark.parametrize("text", [
    "z^2-z+1",
    "-z+5",
    "1/2z+1",
    "z^2-z",
    "-3",
    "0",
])
def test_parse_polynomial_rejects_inadmissible(text):
    with pytest.raises(NotAdmissible):
        parse_polynomial(text)


@pytest.mark.parametrize("text", [
    "1",
    "z+1",
    "1/2z^2+3/2z+1",
])
def test_parse_polynomial_rejects_linear_varieties(text):
    with pytest.raises(LinearVariety):
        parse_polynomial(text)


def test_each_text_is_read_once_into_one_shared_record():
    text = "2z^3-6z^2+29z-20"
    assert parse_polynomial(text) is parse_polynomial(text)
    assert parse_tail(text) is parse_polynomial(text)
    assert parse_hilbert_function("1,4,8 ; 5z-3").tail \
        is parse_polynomial("5z-3")
    assert isinstance(parse_tail.cache_info().maxsize, int)


@pytest.mark.parametrize("text, error", [
    ("1/0z", ParseError),
    ("0", NotAdmissible),
    ("z+1", LinearVariety),
])
def test_a_refused_text_is_refused_alike_on_every_call(text, error):
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            parse_polynomial(text)
        assert type(caught.value) is error
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-digit limit")
def test_the_digit_limit_in_force_decides_each_call():
    # The limit is part of the cache key: a numeral read while no limit
    # held is still refused once the default limit is back.
    text = "1" * 5000 + "z"
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert parse_polynomial(text).coordinates[1] == int("1" * 5000)
    finally:
        sys.set_int_max_str_digits(default)
    with pytest.raises(ParseError, match="more digits than Python"):
        parse_polynomial(text)


def test_linear_variety_tolerated_internally():
    p = polynomial_from_coefficients((1, 1))
    assert p.gotzmann_number == 1
    assert p.runs == ((1, 1),)


@pytest.mark.parametrize("text", [
    "2z^3-6z^2+29z-20",
    "z^2+3z+3",
    "2z+2",
    "12",
    "5z-3",
    "1/3z^3+2z^2+14/3z-4",
    "6z^2-18z+37",
])
def test_str_round_trip(text):
    p = parse_polynomial(text)
    assert str(p) == text.replace(" ", "")
    again = parse_polynomial(str(p))
    assert again == p


def test_str_matches_the_fraction_printer_on_a_grid():
    # Every coordinate tuple of length <= 4 in -4..4, a zero top included.
    for length in range(5):
        for coords in product(range(-4, 5), repeat=length):
            p = AdmissiblePolynomial(coords)
            assert str(p) == reference_str(p), coords


def test_evaluation():
    p = parse_polynomial("2z^3-6z^2+29z-20")
    assert p(0) == -20
    assert p(5) == 225
    assert isinstance(p(3), int)
    q = parse_polynomial("1/3z^3+2z^2+14/3z-4")
    assert [q(t) for t in range(5)] == [-4, 3, 16, 37, 68]


# ---------------------------------------------------------------------------
# Gotzmann decomposition


def _naive_from_runs(runs):
    """Reconstruct the polynomial summand by summand (defining identity)."""
    coeffs = ()
    position = 0
    for degree, count in runs:
        for _ in range(count):
            coeffs_term = binomial_coeffs(degree, degree - position)
            coeffs = tuple(
                (coeffs[i] if i < len(coeffs) else 0)
                + (coeffs_term[i] if i < len(coeffs_term) else 0)
                for i in range(max(len(coeffs), len(coeffs_term))))
            position += 1
    return tuple(c for c in coeffs)


@pytest.mark.parametrize("text,r,runs", [
    ("1/3z^3+2z^2+14/3z-4", 10, ((3, 2), (2, 1), (1, 3), (0, 4))),
    ("z^2+3z+3", 6, ((2, 2), (1, 1), (0, 3))),
    ("2z+2", 3, ((1, 2), (0, 1))),
    ("2", 2, ((0, 2),)),
    ("5z-3", 7, ((1, 5), (0, 2))),
    ("12z-24", 42, ((1, 12), (0, 30))),
    ("12z-25", 41, ((1, 12), (0, 29))),
    ("15z-24", 81, ((1, 15), (0, 66))),
    ("12", 12, ((0, 12),)),
    ("9z-7", 29, ((1, 9), (0, 20))),
])
def test_gotzmann_runs_small(text, r, runs):
    p = parse_polynomial(text)
    assert p.runs == runs
    assert p.gotzmann_number == r
    rebuilt = _naive_from_runs(p.runs)
    assert poly_sub(rebuilt, _parsed(str(p))) == ()


def test_gotzmann_runs_large():
    p = parse_polynomial("2z^3-6z^2+29z-20")
    assert p.runs == ((3, 12), (2, 30), (1, 636), (0, 217820))
    assert p.gotzmann_number == 218498
    q = parse_polynomial("6z^2-18z+37")
    assert q.runs == ((2, 12), (1, 30), (0, 636))
    assert q.gotzmann_number == 678


def test_differencing_shifts_runs_down():
    # delta of the Gotzmann writing lowers every summand degree by one,
    # dropping the constants; this ties the large decompositions above to
    # naively verifiable small ones
    for text in ("2z^3-6z^2+29z-20", "1/3z^3+2z^2+14/3z-4", "6z^2-18z+37",
                 "12z-24", "z^2+3z+3", "5z-3"):
        p = parse_polynomial(text)
        d = p.derivative()
        expected = tuple((k - 1, m) for k, m in p.runs if k >= 1)
        assert d.runs == expected


def test_derivative_chains_from_worked_tables():
    chain1 = ["1/3z^3+2z^2+14/3z-4", "z^2+3z+3", "2z+2", "2"]
    chain2 = ["2z^3-6z^2+29z-20", "6z^2-18z+37", "12z-24", "12"]
    for chain in (chain1, chain2):
        p = parse_polynomial(chain[0])
        for expected in chain[1:]:
            p = p.derivative()
            assert str(p) == expected
        assert p.derivative() == ZERO


def test_zero_is_the_empty_writing():
    """The zero polynomial is a value: the tail of an Artinian quotient,
    of the unit ideal's quotient, and the derivative of a constant."""
    assert ZERO.degree == -1
    assert ZERO.runs == ()
    assert ZERO.gotzmann_number == 0
    assert str(ZERO) == "0"
    assert [ZERO(t) for t in range(-2, 5)] == [0] * 7
    assert ZERO.derivative() == ZERO
    assert parse_tail("0") == ZERO
    assert quotient_tail({(2, 0): 1}, 3) == ZERO
    assert HilbertFunction((1, 3, 2)).tail == ZERO


def test_integer_valued_but_inadmissible():
    # integer valued everywhere, yet no Gotzmann writing
    with pytest.raises(NotAdmissible):
        polynomial_from_coefficients((1, -1, 1))


def test_non_integer_valued_rejected():
    with pytest.raises(NotAdmissible):
        polynomial_from_coefficients((Fraction(1, 2), 1))
    with pytest.raises(NotAdmissible):
        polynomial_from_coefficients((1, Fraction(1, 2)))


@pytest.mark.parametrize("coeffs,outcome", [
    ((2.0, 1.0), (1, 1)),
    ((1, 1.5, 0.5), (0, 0, 1)),
    (("1", "3/2", "1/2"), (0, 0, 1)),
    ((1.5, 2), "not integer valued at z = 0"),
    ((0.0, 0), "the zero polynomial has no gotzmann writing"),
])
def test_coefficients_without_a_denominator_go_through_fraction(coeffs,
                                                               outcome):
    # Floats and strings take Fraction's reading, as they always have.
    assert _outcome(polynomial_from_coefficients, coeffs) == outcome
    assert _outcome(reference_polynomial, coeffs) == outcome


def test_coefficients_fraction_refuses_pass_through():
    with pytest.raises(ValueError):
        polynomial_from_coefficients(("one", 1))
    with pytest.raises(TypeError):
        polynomial_from_coefficients((None, 1))


# ---------------------------------------------------------------------------
# the integer route against the Fraction route


def _outcome(build, *args):
    """The coordinates build gives, or the message it refuses with."""
    try:
        return build(*args).coordinates
    except NotAdmissible as exc:
        return str(exc)


def _term_text(pairs):
    """Term-grammar text of the sum of n/d z^e, pairs[e] = (n, d)."""
    return "".join("%+d/%dz^%d" % (n, d, e) for e, (n, d) in enumerate(pairs))


rationals = st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 12)),
                     min_size=1, max_size=6)
admissible = writings.map(lambda w: [(c.numerator, c.denominator)
                                     for c in from_writing(w)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(rationals, admissible))
def test_integer_route_matches_the_fraction_route(pairs):
    """Coefficients n/d with |n| <= 60, d <= 12 and degree <= 5, which
    are seldom integer valued, and the coefficients of random Gotzmann
    writings, which are admissible: the integer route gives the Fraction
    route's coordinates, or its refusal word for word, from library
    values (ints where d = 1) and from text."""
    coeffs = [n if d == 1 else Fraction(n, d) for n, d in pairs]
    expected = _outcome(reference_polynomial, coeffs)
    assert _outcome(polynomial_from_coefficients, coeffs) == expected
    text = _term_text(pairs)
    if all(n == 0 for n, _ in pairs):
        assert parse_tail(text) == ZERO
        return
    assert _outcome(parse_tail, text) == expected
    if isinstance(expected, str):
        return
    p = AdmissiblePolynomial(expected)
    assert parse_tail(str(p)) == p
    if p.gotzmann_number >= 2:
        assert parse_polynomial(str(p)) == p


numerator_lists = st.tuples(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8).filter(
        lambda ns: ns[-1] != 0).map(tuple),
    st.integers(1, 5040))
writing_numerators = writings.map(
    lambda w: parse_coefficients(str(polynomial_from_coefficients(
        from_writing(w)))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(numerator_lists, writing_numerators))
def test_the_numerator_route_matches_the_fraction_route(pair):
    """Random integer numerators over a scale up to 7!, seldom integer
    valued, and the parsed numerators of random Gotzmann writings: the
    integer route gives the coordinates, or the refusal word for word,
    of the Fraction route from the coefficients numerators[i] / scale."""
    numerators, scale = pair
    assert _outcome(_from_numerators, numerators, scale) == _outcome(
        reference_polynomial, [Fraction(n, scale) for n in numerators])


def _numerals(c):
    """Spellings of the rational c >= 0 that the bracket list reads:
    n/d, unreduced 2n/2d, the integer itself, and a decimal."""
    out = ["%d/%d" % (c.numerator, c.denominator),
           "%d/%d" % (2 * c.numerator, 2 * c.denominator)]
    if c.denominator == 1:
        out.append("%d" % c)
    for places in range(1, 6):
        if (c * 10 ** places).denominator == 1:
            digits = "%0*d" % (places + 1, c * 10 ** places)
            out.append(digits[:-places] + "." + digits[-places:])
            break
    return out


@st.composite
def spellings(draw):
    """A writing's ascending coefficients and a text of them: a bracket
    list of fractions, integers and decimals, or a sum of terms in any
    order, some split in two (z+z), with 0z^k tops, an optional leading
    +, and spaces anywhere."""
    coeffs = list(from_writing(draw(writings)))
    tops = draw(st.integers(0, 2))
    if draw(st.booleans()):
        entries = [("-" if c < 0 else "") + draw(st.sampled_from(
            _numerals(abs(c)))) for c in reversed(coeffs + [0] * tops)]
        text = "[%s]" % ",".join(entries)
    else:
        terms = [(Fraction(0), len(coeffs) + j) for j in range(tops)]
        for e, c in enumerate(coeffs):
            if c and draw(st.booleans()):
                part = Fraction(draw(st.integers(-9, 9)),
                                draw(st.integers(1, 4)))
                terms += [(part, e), (c - part, e)]
            elif c:
                terms.append((c, e))
        pieces = []
        for c, e in draw(st.permutations(terms)):
            var = ("" if e == 0 else draw(st.sampled_from(["z", "z^1"]))
                   if e == 1 else "z^%d" % e)
            mag = abs(c)
            num = ("%d" % mag if mag.denominator == 1
                   else "%d/%d" % (mag.numerator, mag.denominator))
            if mag == 1 and var and draw(st.booleans()):
                num = ""
            sign = "-" if c < 0 else "+"
            if not pieces and sign == "+" and draw(st.booleans()):
                sign = ""
            pieces.append(sign + num + var)
        text = "".join(pieces)
    spaces = draw(st.lists(st.integers(0, len(text)), max_size=4))
    for at in sorted(spaces, reverse=True):
        text = text[:at] + " " + text[at:]
    return coeffs, text


@settings(max_examples=300, deadline=None)
@given(spellings())
def test_parsed_text_is_the_coordinates_text(spelled):
    """A parsed polynomial prints the Fraction printer's text, the text
    printed from its coordinates alone, whatever the spelling."""
    coeffs, text = spelled
    assert _parsed(text) == tuple(coeffs)
    p = parse_tail(text)
    assert p == polynomial_from_coefficients(coeffs)
    assert str(p) == reference_str(p) == str(AdmissiblePolynomial(
        p.coordinates))


@pytest.mark.parametrize("text,expected", [
    ("[1/2,3/2,1]", "1/2z^2+3/2z+1"), ("[0.5, 1.5, 1]", "1/2z^2+3/2z+1"),
    ("[2.0,2]", "2z+2"), ("+ 3z + 0z^3 -1/2z^2 + 1/2z^2 + 3", "3z+3"),
    ("z+z+2", "2z+2")])
def test_parsed_text_of_some_spellings(text, expected):
    assert str(parse_tail(text)) == expected


_HELD_BY_A_PARSE = """
import tracemalloc
from minreg.polynomials import parse_tail, quotient_tail
q = str(quotient_tail({(300, 2): 1}, 301))
tracemalloc.start()
p = parse_tail(q)
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(str(p) == q, held)
"""


def test_a_degree_299_text_is_read_back_in_little_memory():
    # The P^300 quadric's 239 KB text prints back byte for byte, and its
    # parse keeps no table that grows with the degree: a per-degree
    # integer matrix would hold about 9 MB.  A fresh interpreter counts
    # what the parse keeps, whatever earlier tests have built.
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        polynomials.__file__)))
    round_trip, held = subprocess.run(
        [sys.executable, "-c", _HELD_BY_A_PARSE],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=60).stdout.split()
    assert round_trip == "True"
    assert int(held) < 10 ** 6


# ---------------------------------------------------------------------------
# helper polynomials


def test_binomial_coeffs_matches_values():
    from minreg.binomials import binom
    for k in range(5):
        for shift in range(-3, 4):
            coeffs = binomial_coeffs(k, shift)
            for z in range(max(0, k - shift), 8):
                # in this range z + shift >= k >= 0, so the vanishing
                # convention never kicks in
                assert poly_eval(coeffs, z) == binom(z + shift, k)


def test_binomial_coeffs_are_polynomials_not_conventions():
    # below the vanishing range the polynomial keeps its honest value
    assert poly_eval(binomial_coeffs(3, -9), 0) == Fraction(-165)
    assert poly_eval(binomial_coeffs(4, -8), 0) == Fraction(330)


def test_interpolate_recovers_cubic():
    p = parse_polynomial("2z^3-6z^2+29z-20")
    points = [(t, p(t)) for t in range(7, 12)]
    assert interpolate(points) == _parsed(str(p))


# ---------------------------------------------------------------------------
# random Gotzmann writings


def _runs(writing):
    return tuple((k, len(list(group))) for k, group in groupby(writing))


@settings(max_examples=60, deadline=None)
@given(writings)
def test_random_writings(writing):
    p = polynomial_from_coefficients(from_writing(writing))
    assert str(p) == reference_str(p)
    assert parse_polynomial(str(p)) == p
    assert p.runs == _runs(writing)
    printed = _parsed(str(p))
    for t in range(-3, 31):
        assert p(t) == poly_eval(printed, t)
    lowered = [k - 1 for k in writing if k >= 1]
    d = p.derivative()
    if lowered:
        assert d.runs == _runs(lowered)
    else:
        assert d == ZERO


coordinates = st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(
    lambda cs: cs[-1] != 0)


def _monomial(coords):
    coeffs = ()
    for k, a in enumerate(coords):
        coeffs = poly_add(coeffs, poly_scale(binomial_coeffs(k, k), a))
    return coeffs


@settings(max_examples=150, deadline=None)
@given(coordinates, coordinates, st.integers(0, 20))
def test_nonnegativity_matches_the_reference(mine, theirs, start):
    """Random integer-valued polynomials, held by their coordinates
    (AdmissiblePolynomial does not check them), against the scan of the
    forward differences on their monomial coefficients."""
    p, q = AdmissiblePolynomial(tuple(mine)), AdmissiblePolynomial(tuple(theirs))
    assert p.at_least_from(ZERO, start) == \
        poly_nonnegative_from(_monomial(mine), start)
    assert p.at_least_from(q, start) == poly_nonnegative_from(
        poly_sub(_monomial(mine), _monomial(theirs)), start)


def test_nonnegativity_on_a_grid():
    """Every polynomial of degree at most 2 with coordinates in -4..4,
    from every start in 0..5: the roots fall at and around the start."""
    for n in (1, 2, 3):
        for coords in product(range(-4, 5), repeat=n):
            if coords[-1] == 0:
                continue
            p, coeffs = AdmissiblePolynomial(coords), _monomial(coords)
            for start in range(6):
                assert p.at_least_from(ZERO, start) == \
                    poly_nonnegative_from(coeffs, start), (coords, start)


def test_slice_growth_inverts_slice_tail():
    """Every growth vector with class sizes 0..3 in at most five
    variables, at every slice degree up to 5."""
    for nvars in range(1, 6):
        for growth in product(range(4), repeat=nvars):
            for degree in range(6):
                tail = quotient_tail({(i, degree): size for i, size
                                      in enumerate(growth)}, nvars)
                assert slice_growth(tail, degree, nvars) == growth, \
                    (growth, degree)
