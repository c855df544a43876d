"""Tests for the witness constructions and their verifier."""

import random

import pytest
from hypothesis import given, settings

from minreg import constructions
from minreg.borel import (StronglyStableIdeal, artinian_lift, degrevlex_key,
                          ek_index, ghl_ideal, slice_heights, term_string)
from minreg.constructions import (WitnessCertificate, certificate_from_dict,
                                  expanded_lifting, ideal_graft,
                                  remove_minimal_term, verify_witness,
                                  witness_min_reg)
from minreg.errors import (LinearVariety, NoRemovableTerm, NotSchemeHF,
                           PreconditionViolation, VerificationFailure)
from minreg.functions import (minimal_function, minimal_function_exact,
                              minimal_scheme_function, min_scheme_regularity,
                              parse_hilbert_function)
from minreg.polynomials import parse_polynomial, polynomial_from_coefficients
from minreg.regularity import min_regularity, min_regularity_at

import conftest
from conftest import (BorelSet, degree_slice, from_writing, ghl_set, ideal,
                      lex_key, lgh, minimal_terms, reference_removal,
                      reference_witness, saturate_slice, saturation,
                      sweep_classes, writings)
from test_borel import random_borel_set


def poly(text):
    return parse_polynomial(text)


def hf(text):
    return parse_hilbert_function(text)


# Fifteen points in three-space whose generic hyperplane section data
# drives the running lifting example, plus the two reference outputs.
SECTION15 = ideal(4, (0, 0, 5, 0), (0, 1, 4, 0), (0, 2, 3, 0), (0, 3, 2, 0),
                  (0, 4, 1, 0), (0, 5, 0, 0), (0, 0, 0, 1))
CURVE15 = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                (0, 0, 0, 0, 2), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0),
                (0, 0, 3, 2, 0), (0, 0, 2, 3, 0), (0, 0, 1, 4, 0),
                (0, 0, 0, 5, 0))
STRAIGHTENED = ideal(5, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                     (0, 0, 0, 0, 2), (0, 0, 1, 2, 0), (0, 0, 0, 3, 0),
                     (0, 2, 0, 2, 0), (0, 0, 5, 0, 0), (0, 0, 4, 1, 0))


def test_expanded_lifting_reference_run():
    cert = expanded_lifting(hf("1,5,11 ; 15z-24"), SECTION15)
    assert cert.ideal == CURVE15
    assert cert.regularity == 5
    assert cert.hilbert_function == hf("1,5,11 ; 15z-24")
    assert any("removed x0^4*x4" in line for line in cert.log)
    assert verify_witness(cert).ok


def stepwise_lifting(f, Jz):
    """Reference lifting: from the lifted slice, drop one Borel-minimal term
    at a time, the degrevlex-least one at the first gap to f, and bring
    the slice back to ghl form after every removal."""
    m = max(Jz.regularity, f.regularity + 1)
    B = degree_slice(artinian_lift(Jz), m)
    while True:
        B = lgh(B)
        ideal = saturate_slice(B)
        achieved = ideal.hilbert_function()
        if achieved == f:
            return ideal
        assert achieved.dominated_by(f)
        t_bar = next(t for t in range(m) if achieved(t) != f(t))
        candidates = [term for term in minimal_terms(B)
                      if term[0] == m - t_bar]
        if not candidates:
            raise NoRemovableTerm("no candidate at degree %d" % t_bar)
        term = min(candidates, key=degrevlex_key)
        B = BorelSet(B.nvars, m, B.terms - {term})


def sliced_lifting_log(f, Jz):
    """The removal lines of a lifting's log as the difference of two
    whole slices: the lift's degree-m slice in ghl form, less the ghl set
    with its growth classes and the height classes of f."""
    lifted = artinian_lift(Jz)
    m = max(Jz.regularity, f.regularity + 1)
    start = lgh(degree_slice(lifted, m))
    kept = ghl_set(lifted.nvars, m, start.growth_vector(),
                   slice_heights(f, m, lifted.nvars))
    return tuple("removed %s (gap at degree %d)" % (term_string(t), m - t[0])
                 for t in sorted(start.terms - kept.terms,
                                 key=lambda t: (-t[0], lex_key(t))))


def test_expanded_lifting_matches_the_stepwise_removals(monkeypatch):
    f = hf("1,5,11 ; 15z-24")
    assert expanded_lifting(f, SECTION15).ideal \
        == stepwise_lifting(f, SECTION15) == CURVE15
    calls = []

    def recorded(f, Jz):
        cert = expanded_lifting(f, Jz)
        calls.append((f, Jz, cert))
        return cert

    monkeypatch.setattr(conftest, "expanded_lifting", recorded)
    for text, rho, _ in WITNESS_TABLE:
        reference_witness(minimal_scheme_function(poly(text), rho))
    assert len(calls) >= len(WITNESS_TABLE)
    assert any(len(cert.log) > 1 for _, _, cert in calls)
    for f, Jz, cert in calls:
        assert cert.ideal == stepwise_lifting(f, Jz), f
        assert cert.log[1:] == sliced_lifting_log(f, Jz), f


def test_expanded_lifting_without_removals():
    f = artinian_lift(SECTION15).hilbert_function()
    cert = expanded_lifting(f, SECTION15)
    assert cert.hilbert_function == f
    assert cert.regularity == 5
    assert len(cert.log) == 1


def test_expanded_lifting_preconditions():
    f = hf("1,5,11 ; 15z-24")
    with pytest.raises(PreconditionViolation):
        expanded_lifting(hf("1,5 ; 2"), SECTION15)
    with pytest.raises(PreconditionViolation):
        expanded_lifting(f, ideal(2, (0, 2), (1, 1)))
    # fifteen points cannot section a curve of degree twelve
    with pytest.raises(PreconditionViolation):
        expanded_lifting(minimal_function(poly("12z-24"), 5), SECTION15)
    # the section function must fit under the first difference
    fat = minimal_function(poly("15z-24"), 8)
    with pytest.raises(PreconditionViolation):
        expanded_lifting(fat, SECTION15)
    # (x1,x2)^5 in three variables fits under the difference, but f needs
    # one variable more than its lift has
    square5 = ideal(3, *[(0, 5 - k, k) for k in range(6)])
    with pytest.raises(NoRemovableTerm):
        expanded_lifting(f, square5)


def test_removal_reference_run():
    cert = remove_minimal_term(STRAIGHTENED, 5, 3)
    assert cert.hilbert_function == hf("1,5 ; 9z-7")
    assert cert.regularity == 5
    assert "x0^2*x2*x3^2" in cert.log[0]
    assert verify_witness(cert).ok


def test_removal_at_the_regularity_raises_it():
    cert = remove_minimal_term(CURVE15, 6, 5)
    assert cert.regularity == 6
    before = CURVE15.hilbert_function()
    assert cert.hilbert_function(4) == before(4)
    assert cert.hilbert_function(5) == before(5) + 1
    assert cert.hilbert_function(9) == before(9) + 1


def test_removal_keeps_low_degrees():
    cert = remove_minimal_term(STRAIGHTENED, 5, 3)
    before = STRAIGHTENED.hilbert_function()
    for t in range(3):
        assert cert.hilbert_function(t) == before(t)


def removal_outcome(remove, J, s, t_bar):
    try:
        cert = remove(J, s, t_bar)
    except Exception as exc:
        return type(exc), str(exc)
    return cert.ideal, cert.hilbert_function, cert.regularity, cert.log


def removals_match_the_slice_reference(ideals):
    """Every s from reg to reg + 2 and every t_bar < s on each ideal; the
    numbers of certificates and of refusals."""
    removed = refused = 0
    for J in ideals:
        for s in range(J.regularity, J.regularity + 3):
            for t_bar in range(s):
                got = removal_outcome(remove_minimal_term, J, s, t_bar)
                assert got == removal_outcome(reference_removal, J, s,
                                              t_bar), (J, s, t_bar)
                if isinstance(got[0], StronglyStableIdeal):
                    removed += 1
                else:
                    refused += 1
    return removed, refused


def test_removal_matches_the_slice_reference_on_random_ideals():
    rng = random.Random(131)
    ideals = []
    for _ in range(120):
        B = random_borel_set(rng, rng.randrange(2, 6), rng.randrange(1, 6))
        ideals.append(saturation(StronglyStableIdeal(B.nvars, B.terms)))
    removed, refused = removals_match_the_slice_reference(ideals)
    assert removed > 200 and refused > 300


def test_removal_matches_the_slice_reference_on_the_sweep():
    ideals = [certificate_from_dict(cls["certificate"]).ideal
              for cls in sweep_classes()]
    ideals += [STRAIGHTENED, CURVE15, SECTION15]
    assert removals_match_the_slice_reference(ideals) == (334, 707)


def test_removal_errors():
    with pytest.raises(NoRemovableTerm):
        remove_minimal_term(STRAIGHTENED, 5, 0)
    with pytest.raises(PreconditionViolation):
        remove_minimal_term(STRAIGHTENED, 4, 2)
    with pytest.raises(PreconditionViolation):
        remove_minimal_term(STRAIGHTENED, 5, 5)
    with pytest.raises(PreconditionViolation):
        remove_minimal_term(ideal(2, (0, 2), (1, 1)), 3, 1)


def test_graft_realizes_the_next_regularity():
    p = poly("12z-25")
    f6 = minimal_function(p, 6)
    g7 = minimal_function_exact(p, 7)
    base = witness_min_reg(f6)
    bumped = witness_min_reg(g7)
    assert base.regularity == 8
    assert bumped.regularity == 9
    cert = ideal_graft(base.ideal, bumped.ideal, 9)
    assert cert.hilbert_function == g7
    assert cert.regularity == 9
    assert verify_witness(cert).ok


def test_graft_of_points():
    four = poly("4")
    q = witness_min_reg(minimal_function(four, 1))
    w = witness_min_reg(minimal_function(four, 3))
    cert = ideal_graft(q.ideal, w.ideal, 4)
    assert cert.hilbert_function == minimal_function(four, 3)
    assert cert.regularity <= 4


def test_graft_with_itself_changes_nothing():
    f6 = minimal_function(poly("12z-25"), 6)
    base = witness_min_reg(f6).ideal
    cert = ideal_graft(base, base, 8)
    assert cert.hilbert_function == f6
    assert cert.regularity <= 8


def test_graft_preconditions():
    f6 = minimal_function(poly("12z-25"), 6)
    base = witness_min_reg(f6).ideal
    with pytest.raises(PreconditionViolation):
        ideal_graft(base, base, 1)
    other = witness_min_reg(minimal_function(poly("4"), 1)).ideal
    with pytest.raises(PreconditionViolation):
        ideal_graft(base, other, 4)


WITNESS_TABLE = [
    # function source, rho, expected regularity
    ("1/3z^3+2z^2+14/3z-4", 3, 5),
    ("z^2+3z+3", 1, 2),
    ("z^2+3z+3", 4, 5),
    ("2z+2", 1, 2),
    ("2z+2", 2, 3),
    ("15z-24", 3, 5),
    ("9z-7", 2, 4),
    ("5z-3", 3, 5),
    ("12z-24", 5, 7),
    ("12z-25", 6, 8),
    ("3z+1", 0, 2),
]


@pytest.mark.parametrize("text,rho,expected", WITNESS_TABLE)
def test_witnesses_hit_the_computed_minimum(text, rho, expected):
    p = poly(text)
    u = minimal_scheme_function(p, rho)
    assert u is not None
    cert = witness_min_reg(u)
    assert cert.regularity == expected
    assert cert.regularity == min_regularity_at(p, rho).regularity
    assert cert.hilbert_function == u
    assert cert.ideal.nvars == u(1)
    assert verify_witness(cert).ok


def test_witness_is_the_end_of_the_lifting_chain():
    functions = [minimal_scheme_function(poly(text), rho)
                 for text, rho, _ in WITNESS_TABLE]
    functions += [hf(cls["function"]) for cls in sweep_classes()]
    assert len(functions) == len(WITNESS_TABLE) + 50
    for u in functions:
        reference = reference_witness(u)
        cert = witness_min_reg(u)
        assert cert.ideal == reference.ideal, u
        assert cert.regularity == reference.regularity, u


@settings(max_examples=40, deadline=None)
@given(writings)
def test_random_witnesses(writing):
    p = polynomial_from_coefficients(from_writing(writing))
    u = minimal_scheme_function(p, min_scheme_regularity(p))
    cert = witness_min_reg(u)
    assert cert.ideal == reference_witness(u).ideal
    assert cert.regularity == min_regularity(p).regularity
    assert certificate_from_dict(cert.as_dict()) == cert


def test_witness_of_exact_function_needs_more_removals():
    g7 = minimal_function_exact(poly("12z-25"), 7)
    reference = reference_witness(g7)
    removals = [line for line in reference.log if line.startswith("removed")]
    assert len(removals) == 5
    cert = witness_min_reg(g7)
    assert cert.ideal == reference.ideal
    assert cert.regularity == 9
    assert cert.log[-1] == "ghl slice of degree 9 in 4 variables"


def without_a_top_generator(*args):
    """ghl_ideal's ideal less one generator of top degree."""
    J = ghl_ideal(*args)
    top = max(J.generators, key=lambda g: (sum(g), g))
    return StronglyStableIdeal(J.nvars, J.generators - {top})


@pytest.mark.parametrize("builder", ["witness", "lifting", "graft",
                                     "removal"])
def test_builders_refuse_a_sabotaged_result(monkeypatch, builder):
    # Every builder verifies its certificate, so a wrong ideal, whatever
    # step made it, is a VerificationFailure.
    f6 = minimal_function(poly("12z-25"), 6)
    base = witness_min_reg(f6).ideal
    builds = {
        "witness": lambda: witness_min_reg(f6),
        "lifting": lambda: expanded_lifting(hf("1,5,11 ; 15z-24"),
                                            SECTION15),
        "graft": lambda: ideal_graft(base, base, 8),
        "removal": lambda: remove_minimal_term(STRAIGHTENED, 5, 3),
    }
    if builder == "removal":
        monkeypatch.setattr(constructions, "ek_index",
                            lambda v: ek_index(v) - 1)
    else:
        monkeypatch.setattr(constructions, "ghl_ideal",
                            without_a_top_generator)
    with pytest.raises(VerificationFailure, match="failed verification"):
        builds[builder]()


def test_witness_rejects_bad_functions():
    with pytest.raises(NotSchemeHF):
        witness_min_reg(hf("1,5 ; 2"))
    with pytest.raises(LinearVariety):
        witness_min_reg(hf("1 ; z+1"))


def test_witness_builds_linear_sections():
    # The derivative tower of these ends in a linear space C(z+k, k).
    for text in ("z+2", "z+5", "1/2z^2+5/2z+2", "1/2z^2+3/2z+4",
                 "1/6z^3+z^2+11/6z+3"):
        p = poly(text)
        u = minimal_scheme_function(p, min_scheme_regularity(p))
        cert = witness_min_reg(u)
        assert verify_witness(cert).ok, text
        assert cert.regularity == min_regularity_at(
            p, min_scheme_regularity(p)).regularity, text
        reference = reference_witness(u)
        assert reference.log[0].startswith("linear section"), text
        assert cert.ideal == reference.ideal, text


def test_witness_monotone_in_rho():
    for text in ("2z+2", "15z-24", "6"):
        p = poly(text)
        floor = min_scheme_regularity(p)
        pairs = []
        for rho in range(floor, floor + 4):
            u = minimal_scheme_function(p, rho)
            if u is None:
                continue
            pairs.append((rho, witness_min_reg(u).regularity))
        assert len(pairs) >= 2
        values = [v for _, v in pairs]
        assert values == sorted(values)
        assert all(v - rho in (1, 2) for rho, v in pairs)


def test_witness_respects_global_bounds():
    for text in ("z^2+3z+3", "12z-24", "9z-7"):
        p = poly(text)
        rho = min_scheme_regularity(p)
        u = minimal_function(p, rho)
        cert = witness_min_reg(u)
        peaks = [rho]
        q = p
        while q.degree > 0:
            q = q.derivative()
            peaks.append(min_scheme_regularity(q))
        M = max(peaks)
        assert M + 1 <= cert.regularity <= M + 2


def test_verifier_spots_tampering():
    cert = expanded_lifting(hf("1,5,11 ; 15z-24"), SECTION15)
    assert verify_witness(cert).ok
    smaller = StronglyStableIdeal(
        5, cert.ideal.generators - {(0, 0, 5, 0, 0)})
    forged = WitnessCertificate(smaller, cert.hilbert_function,
                                cert.regularity, cert.log)
    report = verify_witness(forged)
    assert not report.ok
    assert "hilbert function by enumeration" in report.failures()
    wrong_reg = WitnessCertificate(cert.ideal, cert.hilbert_function,
                                   cert.regularity + 1, cert.log)
    assert "regularity" in verify_witness(wrong_reg).failures()


@pytest.mark.parametrize("nvars, gens, failed", [
    (3, [(0, 1, 0)], "strongly stable"),
    (2, [(1, 0)], "strongly stable"),
    (2, [(0, 1), (0, 2), (1, 1)], "minimal generators"),
], ids=["x1-in-3-vars", "x0-in-2-vars", "x1-x1^2-x0x1"])
def test_verifier_judges_the_structure(nvars, gens, failed):
    # the record takes any generators; only the verifier judges them
    forged = WitnessCertificate(StronglyStableIdeal(nvars, frozenset(gens)),
                                hf("1 ; 1"), 1, ())
    failures = verify_witness(forged).failures()
    assert failed in failures
    # the Hilbert function is not counted on a refused structure
    assert {"hilbert function by slice formulas",
            "hilbert function by enumeration"} <= set(failures)


def test_lex_segment_packages_as_a_certificate():
    from minreg.borel import lex_segment_ideal
    p = poly("5z-3")
    segment = lex_segment_ideal(p)
    cert = WitnessCertificate(segment, segment.hilbert_function(),
                              p.gotzmann_number, ())
    assert verify_witness(cert).ok


def test_certificate_serialization():
    cert = witness_min_reg(minimal_function(poly("2z+2"), 1))
    payload = cert.as_dict()
    assert payload["ideal"]["vars"] == cert.ideal.nvars
    assert payload["regularity"] == 2
    assert payload["hilbert_function"] == str(cert.hilbert_function)
    assert all(isinstance(line, str) for line in payload["log"])
    gens = {tuple(g) for g in payload["ideal"]["generators"]}
    assert gens == set(cert.ideal.generators)
