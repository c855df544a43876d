"""Acceptance suite: the headline results, each with a hard runtime budget.

Each test records a criterion label; a conftest hook turns that into one
printed pass/fail line per criterion.
"""

import random
from time import monotonic

import pytest

from minreg.binomials import macaulay_expand, plus_plus
from minreg.borel import StronglyStableIdeal, ghl_ideal, slice_heights
from minreg.constructions import (WitnessCertificate, verify_witness,
                                  witness_min_reg)
from minreg.errors import EmptyClass
from minreg.functions import (is_admissible_function, is_scheme_function,
                              min_scheme_regularity, minimal_function,
                              minimal_function_exact, minimal_scheme_function,
                              parse_hilbert_function)
from minreg.polynomials import parse_polynomial
from minreg.regularity import (min_regularity, min_regularity_at,
                               min_regularity_of_function)

from conftest import (BorelSet, borel_leq, contains, degree_slice, ghl_set,
                      hilbert_function, ideal, lex_segment_ideal, lgh,
                      minus_minus, monomial_basis, regularity,
                      saturate_slice, saturation, stepwise_lifting,
                      witness_of)


def poly(text):
    return parse_polynomial(text)


def chain(report):
    return [(str(r.polynomial), r.gotzmann_number, r.min_rho,
             r.min_scheme_rho, r.rho_used, r.rho_fit, r.regularity)
            for r in report.rows]


def test_criterion_1_cubic_chain(record_property):
    record_property("criterion", "1 (cubic trace chain)")
    start = monotonic()
    report = min_regularity(poly("1/3z^3+2z^2+14/3z-4"))
    assert chain(report) == [
        ("1/3z^3+2z^2+14/3z-4", 10, 3, 3, 3, 4, 5),
        ("z^2+3z+3", 6, 1, 1, 4, 2, 5),
        ("2z+2", 3, 1, 1, 2, 1, 3),
        ("2", 2, 1, 1, 1, None, 2),
    ]
    assert monotonic() - start < 1.0


def test_criterion_2_large_cubic_chain(record_property):
    record_property("criterion", "2 (large cubic trace chain)")
    start = monotonic()
    report = min_regularity(poly("2z^3-6z^2+29z-20"))
    assert chain(report) == [
        ("2z^3-6z^2+29z-20", 218498, 2, 2, 2, 4, 7),
        ("6z^2-18z+37", 678, 1, 4, 4, 5, 7),
        ("12z-24", 42, 5, 5, 5, 6, 7),
        ("12", 12, 1, 1, 6, None, 7),
    ]
    assert monotonic() - start < 5.0


def test_large_cubic_witness():
    start = monotonic()
    p = poly("2z^3-6z^2+29z-20")
    cert = witness_min_reg(min_regularity(p))
    assert cert.hilbert_function == minimal_scheme_function(p, 2)
    assert cert.regularity == 7
    assert verify_witness(cert).ok
    assert monotonic() - start < 60.0


def test_criterion_3_empty_class(record_property):
    record_property("criterion", "3 (empty regularity class)")
    p = poly("5z-3")
    assert minimal_scheme_function(p, 4) is None
    with pytest.raises(EmptyClass):
        min_regularity_at(p, 4)
    g = minimal_function_exact(p, 4)
    assert str(g) == "1,4,8,13 ; 5z-3"
    delta = g.delta()
    assert [delta(t) for t in range(7)] == [1, 3, 4, 5, 4, 5, 5]
    assert not is_admissible_function(delta)
    assert not is_scheme_function(g)


def test_criterion_4_degree_twelve_pair(record_property):
    record_property("criterion", "4 (degree-twelve curve pair)")
    p = poly("12z-25")
    assert min_regularity_at(p, 7).regularity == 9
    assert min_regularity_at(p, 6).regularity == 8
    g7 = minimal_scheme_function(p, 7)
    assert str(g7) == "1,4,9,16,25,36,48 ; 12z-25"
    assert g7 == minimal_function_exact(p, 7)


CROOKED = ideal(5, (0, 0, 0, 0, 2), (0, 0, 0, 1, 1), (0, 0, 0, 2, 0),
                (0, 0, 1, 0, 1), (0, 0, 3, 1, 0), (0, 0, 5, 0, 0))
STRAIGHTENED = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                     (0, 0, 0, 0, 2), (0, 0, 1, 2, 0), (0, 0, 0, 3, 0),
                     (0, 2, 0, 2, 0), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0))
SECTION15 = ideal(4, (0, 0, 5, 0), (0, 1, 4, 0), (0, 2, 3, 0), (0, 3, 2, 0),
                  (0, 4, 1, 0), (0, 5, 0, 0), (0, 0, 0, 1))
CURVE15 = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                (0, 0, 0, 0, 2), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0),
                (0, 0, 3, 2, 0), (0, 0, 2, 3, 0), (0, 0, 1, 4, 0),
                (0, 0, 0, 5, 0))


def test_criterion_5_growth_height_normalization(record_property):
    record_property("criterion", "5 (growth-height normalization)")
    normalized = lgh(degree_slice(CROOKED, 5))
    assert normalized.growth_vector() == (42, 26, 15, 5, 1)
    assert normalized.height_vector() == (47, 26, 12, 4, 0, 0)
    assert saturation(StronglyStableIdeal(normalized.nvars,
                                          normalized.terms)) == STRAIGHTENED


def test_criterion_6_lifting_example(record_property):
    record_property("criterion", "6 (curve lifted from its section)")
    f = parse_hilbert_function("1,5,11 ; 15z-24")
    assert stepwise_lifting(f, SECTION15) == ghl_ideal(f, 5, 5) == CURVE15
    assert verify_witness(WitnessCertificate(CURVE15, f, 5, ())).ok


SWEEP_FIXTURES = ["5z-3", "9z-7", "12z-24", "12z-25", "15z-24", "2z+2",
                  "z^2+3z+3", "6z^2-18z+37", "2", "3", "4", "5", "6"]


def test_criterion_7_cross_validation_sweep(record_property):
    record_property("criterion", "7 (closed form = recursion = witness)")
    start = monotonic()
    checked = 0
    for text in SWEEP_FIXTURES:
        p = poly(text)
        rho_bar = min_scheme_regularity(p)
        m_bar = min_regularity(p).regularity
        for rho in range(min(p.gotzmann_number - 1, rho_bar + 4) + 1):
            u = minimal_scheme_function(p, rho)
            if u is None:
                with pytest.raises(EmptyClass):
                    min_regularity_at(p, rho)
                continue
            if rho <= m_bar - 2:
                closed = m_bar
            elif minimal_function(p, rho).regularity == rho:
                closed = rho + 1
            else:
                closed = rho + 2
            report = min_regularity_at(p, rho)
            cert = witness_min_reg(report)
            assert report.regularity == closed, (text, rho)
            assert cert.regularity == closed, (text, rho)
            assert verify_witness(cert).ok, (text, rho)
            peaks = [u.regularity]
            q = p
            while q.degree > 0:
                q = q.derivative()
                peaks.append(min_scheme_regularity(q))
            M = max(peaks)
            assert M + 1 <= cert.regularity <= M + 2, (text, rho)
            checked += 1
    assert checked >= 50
    assert monotonic() - start < 60.0


def _raising_closure(term):
    seen = {term}
    queue = [term]
    while queue:
        term = queue.pop()
        for i, e in enumerate(term):
            if e > 0:
                for j in range(i + 1, len(term)):
                    raised = list(term)
                    raised[i] -= 1
                    raised[j] += 1
                    raised = tuple(raised)
                    if raised not in seen:
                        seen.add(raised)
                        queue.append(raised)
    return seen


def _random_borel_set(rng, nvars, degree):
    basis = tuple(monomial_basis(nvars, degree))
    picked = rng.sample(basis, rng.randrange(len(basis) + 1))
    closed = set()
    for term in picked:
        closed |= _raising_closure(term)
    return BorelSet(nvars, degree, frozenset(closed))


def _brute_quotient_dimension(I, degree):
    return sum(1 for term in monomial_basis(I.nvars, degree)
               if not contains(I, term))


def test_criterion_8_oracle_suites(record_property):
    record_property("criterion", "8 (oracle suites)")
    start = monotonic()

    # (a) operator identities, exhaustively
    for t in range(2, 9):
        for a in range(1, 501):
            tops = macaulay_expand(a, t)
            back = plus_plus(minus_minus(a, t), t - 1)
            if t - len(tops) + 1 > 1:
                assert back == a
            else:
                assert back == a + tops[-2] - tops[-1]
    for t in range(1, 9):
        for a in range(1, 501):
            tops = macaulay_expand(a, t)
            reaches_one = t - len(tops) + 1 == 1
            k1 = tops[-1] if reaches_one else 0
            assert plus_plus(a + 1, t) == plus_plus(a, t) + 1 + k1
            expected = minus_minus(a, t) + (0 if reaches_one else 1)
            assert minus_minus(a + 1, t) == expected

    # (b) the raising order against its move-closure definition
    for nvars in range(2, 6):
        for degree in range(1, 6):
            basis = tuple(monomial_basis(nvars, degree))
            closures = {term: _raising_closure(term) for term in basis}
            for a in basis:
                for b in basis:
                    assert borel_leq(a, b) == (b in closures[a])

    # (c) Hilbert functions by formula against brute enumeration
    witnesses = [witness_of(minimal_scheme_function(poly(t), r)).ideal
                 for t, r in (("15z-24", 3), ("5z-3", 3), ("4", 2))]
    for I in [CROOKED, STRAIGHTENED, CURVE15, lex_segment_ideal(poly("5z-3")),
              lex_segment_ideal(poly("3z+1"))] + witnesses:
        u = hilbert_function(I)
        for degree in range(regularity(I) + 4):
            assert u(degree) == _brute_quotient_dimension(I, degree)

    # (d) normalization invariants on random Borel sets
    rng = random.Random(417)
    done = 0
    while done < 200:
        B = _random_borel_set(rng, rng.randrange(2, 6), rng.randrange(1, 7))
        if not B.terms:
            continue
        L = lgh(B)
        assert L.growth_vector() == B.growth_vector()
        assert L.height_vector() == B.height_vector()
        before = saturation(StronglyStableIdeal(B.nvars, B.terms))
        after = saturation(StronglyStableIdeal(L.nvars, L.terms))
        assert hilbert_function(before) == hilbert_function(after)
        assert saturate_slice(B) == before
        assert saturate_slice(L) == after
        # the function of the saturation gives back the height classes,
        # and those with the growth classes fix the ghl form
        heights = slice_heights(hilbert_function(before), B.degree, B.nvars)
        assert heights == B.height_vector()
        assert ghl_set(B.nvars, B.degree, B.growth_vector(), heights) == L
        done += 1

    assert monotonic() - start < 120.0


def test_criterion_9_constant_polynomials(record_property):
    record_property("criterion", "9 (constant polynomials)")
    for d in range(2, 10):
        p = poly(str(d))
        assert p.gotzmann_number == d
        assert min_regularity(p).regularity == 2
        for rho in range(1, d):
            u = minimal_scheme_function(p, rho)
            assert u is not None
            assert min_regularity_at(p, rho).regularity == rho + 1
            assert min_regularity_of_function(u).regularity == rho + 1
