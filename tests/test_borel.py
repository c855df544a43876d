"""Tests for Borel sets, strongly stable ideals and the lex normal form."""

import random
from itertools import islice, product

import pytest
from hypothesis import given, settings

from minreg.binomials import binom
from minreg.borel import (StronglyStableIdeal, deglex_key, ghl_ideal,
                          lex_terms, term_string)
from minreg.errors import NotAdmissible
from minreg.functions import (HilbertFunction, min_scheme_regularity,
                              minimal_function, minimal_scheme_function,
                              parse_hilbert_function)
from minreg.polynomials import (AdmissiblePolynomial, parse_polynomial,
                                polynomial_from_coefficients)
from minreg.regularity import min_regularity_of_function

from conftest import (BorelSet, artinian_lex_ideal, artinian_lift,
                      borel_leq, contains, degree_slice, degrevlex_key,
                      from_writing, hilbert_function, ideal, is_saturated,
                      lex_key, lex_segment_ideal, lgh, min_index,
                      minimal_terms, monomial_basis, partial_sums,
                      reference_ghl_ideal, regularity, saturate_slice,
                      saturation, sweep_classes, writings)
from test_verifier import budget


def brute_quotient_dimension(J, t):
    return sum(1 for term in monomial_basis(J.nvars, t)
               if not contains(J, term))


# The running five-variable example: a strongly stable ideal whose
# degree-5 slice is not arranged in lex segments.
CROOKED = ideal(5, (0, 0, 0, 0, 2), (0, 0, 0, 1, 1), (0, 0, 0, 2, 0),
                (0, 0, 1, 0, 1), (0, 0, 3, 1, 0), (0, 0, 5, 0, 0))

# Its lex normal form has a degree-3 generator where CROOKED has none.
STRAIGHTENED = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                     (0, 0, 0, 0, 2), (0, 0, 1, 2, 0), (0, 0, 0, 3, 0),
                     (0, 2, 0, 2, 0), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0))

# A zero-dimensional ideal of 15 points in four variables together with
# the ideal its lifting-and-removal run produces.
POINTS15 = ideal(4, (0, 0, 5, 0), (0, 1, 4, 0), (0, 2, 3, 0), (0, 3, 2, 0),
                 (0, 4, 1, 0), (0, 5, 0, 0), (0, 0, 0, 1))
LIFTED15 = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                 (0, 0, 0, 0, 2), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0),
                 (0, 0, 3, 2, 0), (0, 0, 2, 3, 0), (0, 0, 1, 4, 0),
                 (0, 0, 0, 5, 0))


def test_term_helpers():
    assert term_string((0, 2, 0, 1)) == "x1^2*x3"
    assert term_string((0, 0)) == "1"
    assert min_index((0, 0, 3)) == 2
    assert min_index((0, 0)) is None


def test_lex_orders_three_variables():
    # x0 < x1 < x2, so among the degree-2 terms x2^2 is lex-largest.
    expected = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0),
                (2, 0, 0)]
    assert list(monomial_basis(3, 2)) == expected
    assert sorted(expected, key=lex_key, reverse=True) == expected


def test_degrevlex_disagrees_with_deglex():
    # In four variables x1*x2^2 beats x1^2*x3 in degrevlex but not deglex.
    a = (0, 1, 2, 0)
    b = (0, 2, 0, 1)
    assert degrevlex_key(a) > degrevlex_key(b)
    assert deglex_key(a) < deglex_key(b)


def test_monomial_basis_is_lazy():
    # C(149, 99) terms in all; the first three come at once
    with budget(1):
        first = list(islice(monomial_basis(100, 50), 3))
    assert first == [(0,) * 99 + (50,), (0,) * 98 + (1, 49),
                     (0,) * 97 + (1, 0, 49)]


def test_monomial_basis_counts():
    for nvars in range(1, 5):
        for degree in range(7):
            basis = tuple(monomial_basis(nvars, degree))
            assert len(basis) == binom(degree + nvars - 1, nvars - 1)
            assert list(basis) == sorted(set(basis), key=lex_key,
                                         reverse=True)


def test_borel_leq_basics():
    assert borel_leq((0, 1, 1), (0, 0, 2))
    assert borel_leq((0, 1, 1), (0, 1, 1))
    assert not borel_leq((0, 0, 2), (0, 1, 1))
    # x0*x3 and x1*x2 are incomparable.
    assert not borel_leq((1, 0, 0, 1), (0, 1, 1, 0))
    assert not borel_leq((0, 1, 1, 0), (1, 0, 0, 1))
    with pytest.raises(ValueError):
        borel_leq((1, 0), (2, 0))


def raising_closure(term):
    seen = {term}
    queue = [term]
    while queue:
        current = queue.pop()
        for i in range(len(current)):
            if current[i] == 0:
                continue
            for j in range(i + 1, len(current)):
                raised = list(current)
                raised[i] -= 1
                raised[j] += 1
                raised = tuple(raised)
                if raised not in seen:
                    seen.add(raised)
                    queue.append(raised)
    return seen


@pytest.mark.parametrize("nvars,degree", [(2, 4), (3, 3), (4, 3), (4, 4)])
def test_borel_leq_matches_move_closure(nvars, degree):
    basis = tuple(monomial_basis(nvars, degree))
    for a in basis:
        reachable = raising_closure(a)
        for b in basis:
            assert borel_leq(a, b) == (b in reachable)


def test_borel_set_partitions():
    full = BorelSet(4, 3, frozenset(monomial_basis(4, 3)))
    gv = full.growth_vector()
    hv = full.height_vector()
    assert sum(gv) == len(full) == sum(hv)
    # min-variable classes: terms of degree 3 in x_i..x_3 that use x_i.
    assert gv == (10, 6, 3, 1)
    # x0-exponent classes: a degree 3-j term in the three other variables.
    assert hv == (binom(5, 2), binom(4, 2), binom(3, 2), 1)


def test_borel_set_minimal_terms():
    B = degree_slice(CROOKED, 5)
    minimal = set(minimal_terms(B))
    for term in B:
        below = {low for low in raising_closure_down(term)} & B.terms
        assert (term in minimal) == (below == {term})


def raising_closure_down(term):
    seen = {term}
    queue = [term]
    while queue:
        current = queue.pop()
        for i in range(1, len(current)):
            if current[i] == 0:
                continue
            for j in range(i):
                lowered = list(current)
                lowered[i] -= 1
                lowered[j] += 1
                lowered = tuple(lowered)
                if lowered not in seen:
                    seen.add(lowered)
                    queue.append(lowered)
    return seen


def test_crooked_fixture_vectors():
    assert regularity(CROOKED) == 5
    assert str(hilbert_function(CROOKED)) == "1,5,11 ; 9z-8"
    assert len(degree_slice(CROOKED, 4)) == 42
    B = degree_slice(CROOKED, 5)
    assert len(B) == 89
    assert B.growth_vector() == (42, 26, 15, 5, 1)
    assert B.height_vector() == (47, 26, 12, 4, 0, 0)


def test_lgh_straightens_the_crooked_slice():
    B = degree_slice(CROOKED, 5)
    L = lgh(B)
    assert L.growth_vector() == B.growth_vector()
    assert L.height_vector() == B.height_vector()
    I = saturation(StronglyStableIdeal(L.nvars, L.terms))
    assert I == STRAIGHTENED
    assert saturate_slice(L) == STRAIGHTENED
    assert regularity(I) == 5
    assert hilbert_function(I) == hilbert_function(CROOKED)
    # The rearrangement exposes generators of degree 3 that the original
    # ideal lacks; they are what the removal step later feeds on.
    degree_three = {g for g in I.generators if sum(g) == 3}
    assert (0, 0, 0, 3, 0) in degree_three
    assert not any(sum(g) == 3 for g in CROOKED.generators)


def test_lgh_fixes_lex_segments():
    # A lex-segment slice is already in normal form.
    segment = BorelSet(4, 3, frozenset(tuple(monomial_basis(4, 3))[:9]))
    assert lgh(segment).terms == segment.terms
    B = degree_slice(LIFTED15, 5)
    assert lgh(B).terms == B.terms


def test_lgh_degenerate_inputs():
    empty = BorelSet(3, 2, frozenset())
    assert lgh(empty) is empty
    unit = BorelSet(3, 0, frozenset({(0, 0, 0)}))
    assert lgh(unit) is unit


def random_borel_set(rng, nvars, degree):
    basis = tuple(monomial_basis(nvars, degree))
    picked = set(rng.sample(basis, rng.randrange(len(basis) + 1)))
    closed = set()
    for term in picked:
        closed |= raising_closure(term)
    return BorelSet(nvars, degree, frozenset(closed))


def test_lgh_invariants_on_random_sets():
    rng = random.Random(73)
    for _ in range(40):
        nvars = rng.randrange(2, 5)
        degree = rng.randrange(1, 6)
        B = random_borel_set(rng, nvars, degree)
        if not B.terms:
            continue
        L = lgh(B)
        assert L.growth_vector() == B.growth_vector()
        assert L.height_vector() == B.height_vector()
        before = saturation(StronglyStableIdeal(B.nvars, B.terms))
        after = saturation(StronglyStableIdeal(L.nvars, L.terms))
        assert hilbert_function(before) == hilbert_function(after)
        assert regularity(before) <= regularity(after) <= degree


def test_regularity_and_membership():
    top = ideal(3, (0, 0, 1))
    assert regularity(top) == 1
    assert contains(top, (2, 0, 1))
    assert not contains(top, (2, 1, 0))
    assert regularity(CROOKED) == 5


def test_degree_slice_contents():
    top = ideal(3, (0, 0, 1))
    assert degree_slice(top, 2).terms == frozenset(
        {(1, 0, 1), (0, 1, 1), (0, 0, 2)})
    assert len(degree_slice(top, 0)) == 0
    for J in (CROOKED, STRAIGHTENED, POINTS15, LIFTED15):
        for t in range(regularity(J) + 2):
            assert degree_slice(J, t).terms == frozenset(
                term for term in monomial_basis(J.nvars, t)
                if contains(J, term)), (J, t)


def test_saturation():
    # x1 times the square of the irrelevant ideal saturates to (x1).
    assert saturation(ideal(2, (0, 3), (1, 2), (2, 1))) == ideal(2, (0, 1))
    sat = saturation(CROOKED)
    assert sat == CROOKED
    assert saturation(sat) == sat
    mixed = ideal(3, (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1))
    assert saturation(mixed) == ideal(3, (0, 0, 1), (0, 2, 0))


def test_hilbert_function_requires_saturation():
    with pytest.raises(ValueError):
        hilbert_function(ideal(2, (0, 2), (1, 1)))


@pytest.mark.parametrize("J", [CROOKED, STRAIGHTENED, POINTS15, LIFTED15,
                               ideal(3, (0, 0, 1)),
                               ideal(4, (0, 0, 0, 2), (0, 0, 1, 1),
                                     (0, 0, 3, 0))])
def test_hilbert_function_against_enumeration(J):
    f = hilbert_function(J)
    for t in range(regularity(J) + 4):
        assert f(t) == brute_quotient_dimension(J, t)


@pytest.mark.parametrize("J", [CROOKED, STRAIGHTENED, POINTS15, LIFTED15])
def test_first_difference_reads_the_height_classes(J):
    f = hilbert_function(J)
    n = J.nvars - 1
    t = max(regularity(J), 1)
    hv = degree_slice(J, t).height_vector()
    for j in range(1, t + 1):
        assert f(j) - f(j - 1) == binom(j + n - 1, n - 1) - hv[t - j]


def test_zero_and_unit_ideals():
    zero = ideal(3)
    assert not zero.generators and regularity(zero) == 0
    assert [hilbert_function(zero)(t) for t in range(4)] == [1, 3, 6, 10]
    unit = ideal(3, (0, 0, 0))
    assert regularity(unit) == 0
    assert [hilbert_function(unit)(t) for t in range(3)] == [0, 0, 0]


def test_truncation():
    # the generators of degree at most 3 cut out a larger ideal
    cut = StronglyStableIdeal(5, frozenset(
        g for g in STRAIGHTENED.generators if sum(g) <= 3))
    assert regularity(cut) == 3
    assert contains(cut, (0, 0, 0, 3, 0))
    assert not contains(cut, (0, 0, 5, 0, 0))


def test_artinian_lift():
    lifted = artinian_lift(POINTS15)
    assert lifted.nvars == 5
    assert is_saturated(lifted)
    assert regularity(lifted) == regularity(POINTS15)
    assert str(hilbert_function(lifted)) == "1,4,10 ; 15z-25"
    # Already checked in the fixture: the lift of an ideal in the top
    # variables is saturated because no generator mentions the new x0.
    plane_cubic = artinian_lift(ideal(2, (0, 3)))
    assert str(hilbert_function(plane_cubic)) == "1 ; 3z"


@pytest.mark.parametrize("text,reg", [
    ("5z-3", 7),
    ("3z+1", 4),
    ("2z+2", 3),
    ("2", 2),
    ("6", 6),
])
def test_lex_segment_ideal(text, reg):
    p = parse_polynomial(text)
    L = lex_segment_ideal(p)
    assert is_saturated(L)
    assert regularity(L) == reg == p.gotzmann_number
    assert hilbert_function(L) == minimal_function(p, reg - 1)
    # the saturation of the lex-first terms of the degree-r slice
    size = binom(reg + L.nvars - 1, L.nvars - 1) - p(reg)
    assert L == saturate_slice(BorelSet(
        L.nvars, reg, frozenset(tuple(monomial_basis(L.nvars, reg))[:size])))


def test_lex_segment_ideal_of_constants_lives_on_a_line():
    L = lex_segment_ideal(parse_polynomial("4"))
    assert L.nvars == 2
    assert L == ideal(2, (0, 4))


def test_artinian_lex_ideal():
    # the reference base of the lifting chain, and the ghl slice of the
    # running sums builds its lift
    h = HilbertFunction((1, 2, 2, 2, 2, 2, 1))
    A = ideal(2, (0, 2), (5, 1), (7, 0))
    assert artinian_lex_ideal(h) == A
    assert ghl_ideal(partial_sums(h), 7, 3) == artinian_lift(A)
    staircase = HilbertFunction((1, 2, 3, 4, 5))
    S = ideal(2, (0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0))
    assert artinian_lex_ideal(staircase) == S
    assert ghl_ideal(partial_sums(staircase), 5, 3) == artinian_lift(S)


def test_artinian_lex_ideal_lifts_to_its_running_sums():
    h = HilbertFunction((1, 2, 2, 2, 2, 2, 1))
    lifted = ghl_ideal(partial_sums(h), 7, 3)
    assert lifted == artinian_lift(artinian_lex_ideal(h))
    assert hilbert_function(lifted) == partial_sums(h)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_lex_terms_lists_every_rank_interval(nvars):
    for degree in range(7):
        basis = list(monomial_basis(nvars, degree))
        for lo in range(len(basis) + 1):
            for hi in range(lo, len(basis) + 1):
                assert list(lex_terms(nvars, 0, degree, lo, hi)) \
                    == basis[lo:hi], (degree, lo, hi)


def test_lex_terms_in_the_top_variables_times_a_power_of_the_least():
    for nvars in range(1, 6):
        for low in range(nvars):
            for degree in range(5):
                for bump in range(3):
                    expected = [(0,) * low + (t[0] + bump,) + t[1:]
                                for t in monomial_basis(nvars - low, degree)]
                    for lo in range(len(expected) + 1):
                        assert list(lex_terms(nvars, low, degree, lo,
                                              len(expected), bump)) \
                            == expected[lo:]
    assert list(lex_terms(3, 1, 2, 2, 2)) == []
    assert list(lex_terms(3, 1, 2, 3, 1)) == []


def test_ghl_ideal_matches_the_slices_on_the_sweep():
    for cls in sweep_classes():
        u = parse_hilbert_function(cls["function"])
        m, nvars = cls["certificate"]["regularity"], u(1)
        for s in (m, m + 1, m + 2):
            assert ghl_ideal(u, s, nvars) == reference_ghl_ideal(u, s, nvars)


def lex_grid():
    """Every admissible polynomial with 2 <= r <= 42 among the
    coordinates (a0,), (a0, a1) and a grid of (a0, a1, a2): all of
    degree at most 1, and those of degree 2 on a grid small enough for
    the reference, which lists up to C(45, 3) terms per slice."""
    grid = [(a,) for a in range(2, 43)]
    grid += list(product(range(-900, 43), range(1, 43)))
    grid += list(product(range(-10, 11), range(-4, 5), (1,)))
    for coordinates in grid:
        p = AdmissiblePolynomial(coordinates)
        try:
            r = p.gotzmann_number
        except NotAdmissible:
            continue
        if 2 <= r <= 42:
            yield p


def test_lex_segment_ideal_matches_the_slices_on_a_grid():
    count = 0
    for p in lex_grid():
        r = p.gotzmann_number
        f = minimal_function(p, r - 1)
        assert lex_segment_ideal(p) == reference_ghl_ideal(f, r, f(1)), p
        count += 1
    assert count > 1000


def k_family(k):
    """1, 3, 4, ..., k-1 ; k, the function of (x1*x2, x2^2, x1^(k-1))."""
    return parse_hilbert_function(
        ",".join(["1"] + [str(i) for i in range(3, k)]) + " ; %d" % k)


def test_ghl_ideal_matches_the_slices_on_the_k_family():
    # The reference lists about k^2/2 terms for k; every k up to 60, and
    # three larger ones.
    for k in list(range(4, 61)) + [100, 150, 200]:
        u = k_family(k)
        m = min_regularity_of_function(u).regularity
        assert m == k - 1
        assert ghl_ideal(u, m, 3) == reference_ghl_ideal(u, m, 3), k


@settings(max_examples=40, deadline=None)
@given(writings)
def test_ghl_ideal_matches_the_slices_on_random_writings(writing):
    p = polynomial_from_coefficients(from_writing(writing))
    u = minimal_scheme_function(p, min_scheme_regularity(p))
    m = min_regularity_of_function(u).regularity
    for s in (m, m + 1):
        assert ghl_ideal(u, s, u(1)) == reference_ghl_ideal(u, s, u(1))


def test_ghl_ideal_follows_the_generators_not_the_slice():
    # The degree-799 slice has about 320,000 terms; building it and
    # saturating it took over 10 s.
    u = k_family(800)
    with budget(1):
        J = ghl_ideal(u, 799, 3)
    assert J == ideal(3, (0, 1, 1), (0, 0, 2), (0, 799, 0))


def test_lex_segment_ideal_with_a_huge_slice_ends():
    # Its degree-678 slice has about 5*10^7 terms.
    p = parse_polynomial("6z^2-18z+37")
    with budget(5):
        L = lex_segment_ideal(p)
    assert regularity(L) == p.gotzmann_number == 678
    assert hilbert_function(L) == minimal_function(p, 677)
