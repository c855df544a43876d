"""Tests for the minimal-regularity descent, its trace, and the
ambient-constrained variant."""

import pytest
from hypothesis import given, settings

from minreg import cli
from minreg.errors import (AmbientTooSmall, DomainError, EmptyClass,
                           LinearVariety, NotSchemeHF)
from minreg.functions import (min_scheme_regularity, minimal_function,
                              minimal_scheme_function, parse_hilbert_function)
from minreg.polynomials import parse_polynomial, polynomial_from_coefficients
from minreg.regularity import (min_regularity, min_regularity_at,
                               min_regularity_in_space,
                               min_regularity_of_function)

from conftest import from_writing, writings
from test_verifier import budget


def poly(text):
    return parse_polynomial(text)


def rows_as_tuples(report):
    return [(str(r.polynomial), r.gotzmann_number, r.min_rho,
             r.min_scheme_rho, r.rho_used, r.rho_fit, r.regularity)
            for r in report.rows]


def test_cubic_trace():
    report = min_regularity(poly("1/3z^3+2z^2+14/3z-4"))
    assert report.regularity == 5
    assert rows_as_tuples(report) == [
        ("1/3z^3+2z^2+14/3z-4", 10, 3, 3, 3, 4, 5),
        ("z^2+3z+3", 6, 1, 1, 4, 2, 5),
        ("2z+2", 3, 1, 1, 2, 1, 3),
        ("2", 2, 1, 1, 1, None, 2),
    ]


def test_big_cubic_trace():
    report = min_regularity(poly("2z^3-6z^2+29z-20"))
    assert report.regularity == 7
    assert rows_as_tuples(report) == [
        ("2z^3-6z^2+29z-20", 218498, 2, 2, 2, 4, 7),
        ("6z^2-18z+37", 678, 1, 4, 4, 5, 7),
        ("12z-24", 42, 5, 5, 5, 6, 7),
        ("12", 12, 1, 1, 6, None, 7),
    ]


# Least witness regularity over all schemes with the given polynomial.
GLOBAL_MINIMA = [
    ("1/3z^3+2z^2+14/3z-4", 5),
    ("z^2+3z+3", 2),
    ("2z+2", 2),
    ("2", 2),
    ("2z^3-6z^2+29z-20", 7),
    ("6z^2-18z+37", 7),
    ("12z-24", 7),
    ("12", 2),
    ("5z-3", 5),
    ("12z-25", 8),
    ("15z-24", 5),
    ("9z-7", 4),
    ("3z+1", 2),
]


@pytest.mark.parametrize("text,expected", GLOBAL_MINIMA)
def test_global_minimum(text, expected):
    report = min_regularity(poly(text))
    assert report.regularity == expected


def test_global_minimum_is_cached():
    assert min_regularity(poly("5z-3")) is min_regularity(poly("5z-3"))


def test_twisted_cubic_polynomial():
    # The least regularity for 3z+1 is reached already at regularity 0.
    report = min_regularity(poly("3z+1"))
    assert report.rho_used == 0
    assert report.regularity == 2


# (polynomial, requested regularity, least witness regularity)
PER_RHO = [
    ("12z-25", 6, 8),
    ("12z-25", 7, 9),
    ("5z-3", 3, 5),
    ("5z-3", 5, 6),
    ("5z-3", 6, 7),
    ("12", 1, 2),
    ("12", 2, 3),
    ("12", 11, 12),
    ("2z+2", 2, 3),
]


@pytest.mark.parametrize("text,rho,expected", PER_RHO)
def test_minimum_at_regularity(text, rho, expected):
    report = min_regularity_at(poly(text), rho)
    assert report.regularity == expected
    assert report.rho_used == rho


EMPTY_CLASSES = [
    ("5z-3", 2),
    ("5z-3", 4),
    ("5z-3", 7),
    ("5z-3", 12),
    ("2", 2),
    ("1/3z^3+2z^2+14/3z-4", 1),
    ("12z-25", 41),
    ("12z-25", -1),
]


@pytest.mark.parametrize("text,rho", EMPTY_CLASSES)
def test_empty_regularity_class(text, rho):
    with pytest.raises(EmptyClass):
        min_regularity_at(poly(text), rho)


def test_trace_structure():
    """Each level's polynomial is the derivative of the previous one, the
    picked regularity becomes the next level's function regularity, the
    bottom is constant, and the bound is the largest level bound."""
    for text, _ in GLOBAL_MINIMA:
        report = min_regularity(poly(text))
        rows = report.rows
        for above, below in zip(rows, rows[1:]):
            assert below.polynomial == above.polynomial.derivative()
            assert above.rho_fit == below.rho_used
        assert rows[-1].polynomial.degree == 0
        assert rows[-1].rho_fit is None
        assert report.regularity == max(r.rho_used + 1 for r in rows)
        bounds = [r.regularity for r in rows]
        assert bounds == sorted(bounds, reverse=True)


def check_bounds_and_monotonicity(p):
    """m is between M + 1 and M + 2, where M is the largest of the
    function regularity and the scheme minima of all derivatives, and m
    never decreases as the requested regularity grows, for rho from the
    scheme minimum up to 5 more.  min_regularity_at itself raises when
    its closed form and its descent disagree."""
    floor = min_scheme_regularity(p)
    last = None
    for rho in range(floor, min(p.gotzmann_number - 1, floor + 5) + 1):
        try:
            report = min_regularity_at(p, rho)
        except EmptyClass:
            continue
        m = report.regularity
        big = rho
        q = p
        while q.degree >= 0:
            big = max(big, min_scheme_regularity(q))
            q = q.derivative()
        assert big + 1 <= m <= big + 2
        if last is not None:
            assert m >= last
        last = m


def test_bounds_and_monotonicity():
    for text, _ in GLOBAL_MINIMA:
        check_bounds_and_monotonicity(poly(text))


@settings(max_examples=200, deadline=None)
@given(writings)
def test_bounds_and_monotonicity_on_random_writings(writing):
    check_bounds_and_monotonicity(
        polynomial_from_coefficients(from_writing(writing)))


def test_function_minimum_matches_class_minimum():
    u = minimal_scheme_function(poly("12z-25"), 7)
    assert min_regularity_of_function(u).regularity == 9
    v = parse_hilbert_function("1,5,11 ; 15z-24")
    assert min_regularity_of_function(v).regularity == 5
    w = parse_hilbert_function("1,3,6 ; 9")
    assert min_regularity_of_function(w).regularity == 4


def test_function_minimum_rejects_non_scheme_functions():
    with pytest.raises(NotSchemeHF):
        min_regularity_of_function(parse_hilbert_function("1,5 ; 2"))
    with pytest.raises(NotSchemeHF):
        min_regularity_of_function(parse_hilbert_function("1,2 ; 0"))


def test_function_minimum_rejects_linear_tails():
    u = parse_hilbert_function("1 ; z+1")
    with pytest.raises(LinearVariety):
        min_regularity_of_function(u)


def test_linear_polynomials_are_out_of_scope():
    for coeffs in ((1,), (1, 1)):
        p = polynomial_from_coefficients(coeffs)
        with pytest.raises(LinearVariety):
            min_regularity(p)
        with pytest.raises(LinearVariety):
            min_regularity_at(p, 1)
        with pytest.raises(LinearVariety):
            min_regularity_in_space(p, 5)


# (polynomial, ambient dimension, least witness regularity there)
IN_SPACE = [
    ("5z-3", 3, 5),
    ("5z-3", 2, 7),
    ("12", 1, 12),
    ("12", 11, 2),
    ("12", 30, 2),
    ("2z+2", 2, 3),
    ("2z+2", 3, 2),
    ("15z-24", 4, 5),
    ("15z-24", 3, 6),
]


@pytest.mark.parametrize("text,n,expected", IN_SPACE)
def test_minimum_in_ambient_space(text, n, expected):
    assert min_regularity_in_space(poly(text), n).regularity == expected


@pytest.mark.parametrize("text,n", [
    ("5z-3", 1),
    ("15z-24", 1),
    ("2z^3-6z^2+29z-20", 3),
    ("12", 0),
])
def test_ambient_too_small(text, n):
    with pytest.raises(AmbientTooSmall):
        min_regularity_in_space(poly(text), n)


def chain_choice(p, n):
    """The least t whose minimal function has a value at 1 of at most
    n + 1, found by building each minimal function; None if none has."""
    for t in range(min_scheme_regularity(p), p.gotzmann_number):
        if minimal_function(p, t)(1) <= n + 1:
            return t
    return None


AMBIENT_GRID = ([str(c) for c in range(2, 41)]
                + ["%dz%+d" % (a, b) for a in range(2, 7)
                   for b in range(-6, 7)]
                + ["z^2%+dz%+d" % (a, b) for a in range(2, 5)
                   for b in range(-3, 4)])


def test_ambient_search_matches_the_chain_scan():
    # The search reads the value at 1 off one binomial per candidate t.
    compared = 0
    for text in AMBIENT_GRID:
        try:
            p = poly(text)
            min_regularity(p)
        except DomainError:
            continue
        for n in range(1, 6):
            expected = chain_choice(p, n) if n > p.degree else None
            if expected is None:
                with pytest.raises(AmbientTooSmall):
                    min_regularity_in_space(p, n)
            else:
                report = min_regularity_in_space(p, n)
                assert report.rho_used == expected, (text, n)
            compared += 1
    assert compared > 300


def test_many_points_on_a_line_end_in_time():
    # Building the minimal function of every candidate t ran past 60 s.
    with budget(20):
        report = min_regularity_in_space(poly("3000"), 1)
    assert (report.rho_used, report.regularity) == (2999, 3000)


def test_ten_thousand_points_on_a_line_end_in_time(capsys):
    # Each growth bound near t = 10000 expanded a value near t by doubling
    # its first top from t + 1, through binomials such as C(2t + 2, t):
    # 56 s in all.
    with budget(5):
        code = cli.main(["minreg", "10000", "--ambient", "1"])
    assert (code, capsys.readouterr().out) == (0, "10000\n")


def test_table_lines_render():
    report = min_regularity(poly("12z-25"))
    lines = report.table_lines()
    assert len(lines) == 3
    assert lines[0].startswith("polynomial")
    assert "12z-25" in lines[1]
    assert lines[1].split()[-1] == "8"
