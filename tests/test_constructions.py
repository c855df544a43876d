"""Tests for the witness builder and its verifier, and for the paper's
stepwise constructions, kept in conftest as its references."""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings

from minreg import borel, constructions
from minreg.borel import StronglyStableIdeal, ghl_ideal, term_string
from minreg.constructions import witness_min_reg
from minreg.errors import (AmbientTooSmall, EmptyClass, LinearVariety,
                           NotSchemeHF, VerificationFailure)
from minreg.functions import (HilbertFunction, minimal_function,
                              minimal_function_exact, minimal_scheme_function,
                              min_scheme_regularity, parse_hilbert_function)
from minreg.polynomials import parse_polynomial, polynomial_from_coefficients
from minreg.regularity import (min_regularity, min_regularity_at,
                               min_regularity_in_space,
                               min_regularity_of_function)
from minreg.verify import (WitnessCertificate, certificate_from_dict,
                           verify_witness)

import conftest
from conftest import (NoRemovableTerm, artinian_lift, degrevlex_key,
                      ek_index, from_writing, hilbert_function, ideal,
                      lex_segment_ideal, reference_removal,
                      reference_witness, regularity, saturation,
                      stepwise_lifting, sweep_classes, witness_of,
                      writings)
from test_borel import random_borel_set
from test_functions import CHAIN_FIXTURES


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
    f = hf("1,5,11 ; 15z-24")
    log = []
    assert stepwise_lifting(f, SECTION15, log) == CURVE15
    assert "removed x0^4*x4 (gap at degree 1)" in log
    assert ghl_ideal(f, 5, 5) == CURVE15
    assert verify_witness(WitnessCertificate(CURVE15, f, 5, ())).ok


def test_expanded_lifting_matches_the_stepwise_removals(monkeypatch):
    # Every lifting of the paper's chain, on the witness table, keeps the
    # ghl slice of its target at its working degree.
    calls = []

    def recorded(f, Jz, log=None):
        lifted = stepwise_lifting(f, Jz, log)
        calls.append((f, Jz, lifted, log))
        return lifted

    monkeypatch.setattr(conftest, "stepwise_lifting", recorded)
    for text, rho, _ in WITNESS_TABLE:
        reference_witness(minimal_scheme_function(poly(text), rho))
    assert len(calls) >= len(WITNESS_TABLE)
    assert any(line.startswith("removed")
               for _, _, _, log in calls for line in log)
    for f, Jz, lifted, _ in calls:
        m = max(regularity(Jz), f.regularity + 1)
        assert ghl_ideal(f, m, Jz.nvars + 1) == lifted, f
        assert regularity(lifted) <= m, f


def test_expanded_lifting_without_removals():
    f = hilbert_function(artinian_lift(SECTION15))
    log = []
    lifted = stepwise_lifting(f, SECTION15, log)
    assert lifted == artinian_lift(SECTION15)
    assert log == []
    assert ghl_ideal(f, 5, 5) == lifted


def bumped_values(J, t_bar, stop):
    """The quotient function of J, plus one from degree t_bar on, up to
    stop."""
    h = hilbert_function(J)
    return [h(t) + (t >= t_bar) for t in range(stop)]


def check_the_removal_lemma(J, s, t_bar, cert):
    """The paper's removal lemma on reference_removal's certificate: the
    term dropped is x0^(s-t_bar)*v, v the degrevlex-least generator of
    degree t_bar; the saturation replaces v by its multiples v*x_j,
    1 <= j <= ek_index(v); the quotient gains one in every degree from
    t_bar on, and the regularity m moves to m+1 exactly when t_bar = m."""
    v = min((g for g in J.generators if sum(g) == t_bar), key=degrevlex_key)
    assert cert.log == ("removed %s from the degree-%d slice"
                        % (term_string((s - t_bar,) + v[1:]), s),)
    multiples = {v[:j] + (v[j] + 1,) + v[j + 1:]
                 for j in range(1, ek_index(v) + 1)}
    assert cert.ideal.generators == J.generators - {v} | multiples
    m = regularity(J)
    assert cert.regularity == (m + 1 if t_bar == m else m)
    stop = m + 8
    assert [cert.hilbert_function(t) for t in range(stop)] \
        == bumped_values(J, t_bar, stop)
    assert verify_witness(cert).ok


def test_removal_reference_run():
    cert = reference_removal(STRAIGHTENED, 5, 3)
    assert cert.hilbert_function == hf("1,5 ; 9z-7")
    assert cert.regularity == 5
    assert "x0^2*x2*x3^2" in cert.log[0]
    check_the_removal_lemma(STRAIGHTENED, 5, 3, cert)


def test_removal_at_the_regularity_raises_it():
    cert = reference_removal(CURVE15, 6, 5)
    assert cert.regularity == 6
    before = hilbert_function(CURVE15)
    assert cert.hilbert_function(4) == before(4)
    assert cert.hilbert_function(5) == before(5) + 1
    assert cert.hilbert_function(9) == before(9) + 1
    check_the_removal_lemma(CURVE15, 6, 5, cert)


def test_removal_keeps_low_degrees():
    cert = reference_removal(STRAIGHTENED, 5, 3)
    before = hilbert_function(STRAIGHTENED)
    for t in range(3):
        assert cert.hilbert_function(t) == before(t)


def removals_match_the_slice_reference(ideals):
    """Every s from reg to reg + 2 and every t_bar < s on each ideal: the
    slice reference removes a term exactly when the ideal has a generator
    of degree t_bar, and then by the removal lemma.  The numbers of
    certificates and of refusals."""
    removed = refused = 0
    for J in ideals:
        for s in range(regularity(J), regularity(J) + 3):
            for t_bar in range(s):
                removable = s >= 1 and any(sum(g) == t_bar
                                           for g in J.generators)
                try:
                    cert = reference_removal(J, s, t_bar)
                except (ValueError, NoRemovableTerm):
                    assert not removable, (J, s, t_bar)
                    refused += 1
                    continue
                assert removable, (J, s, t_bar)
                check_the_removal_lemma(J, s, t_bar, cert)
                removed += 1
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
        reference_removal(STRAIGHTENED, 5, 0)
    with pytest.raises(ValueError):
        reference_removal(STRAIGHTENED, 4, 2)
    with pytest.raises(ValueError):
        reference_removal(STRAIGHTENED, 5, 5)
    with pytest.raises(ValueError):
        reference_removal(ideal(2, (0, 2), (1, 1)), 3, 1)


def graft(Iq, Iw, m):
    """The paper's ideal graft of the quotient of Iw below degree m onto
    that of Iq, for w(m-1) = q(m-1) and w(m-2) <= q(m-2): the spliced
    function, the slice degree s = max(m, reg(Iq)) and the ghl ideal of
    that function at s, whose regularity is at most s."""
    q, w = hilbert_function(Iq), hilbert_function(Iw)
    assert m > 1 and w(m - 1) == q(m - 1) and w(m - 2) <= q(m - 2)
    target = HilbertFunction(tuple(w(t) if t < m else q(t)
                                   for t in range(max(m, q.regularity))),
                             q.tail)
    s = max(m, regularity(Iq))
    grafted = ghl_ideal(target, s, max(Iq.nvars, Iw.nvars))
    assert regularity(grafted) <= s
    assert verify_witness(WitnessCertificate(
        grafted, target, regularity(grafted), ())).ok
    return target, grafted


def test_graft_realizes_the_next_regularity():
    p = poly("12z-25")
    f6 = minimal_function(p, 6)
    g7 = minimal_function_exact(p, 7)
    base = witness_of(f6)
    bumped = witness_of(g7)
    assert base.regularity == 8
    assert bumped.regularity == 9
    target, grafted = graft(base.ideal, bumped.ideal, 9)
    assert target == g7
    assert regularity(grafted) == 9


def test_graft_of_points():
    four = poly("4")
    q = witness_of(minimal_function(four, 1))
    w = witness_of(minimal_function(four, 3))
    target, grafted = graft(q.ideal, w.ideal, 4)
    assert target == minimal_function(four, 3)
    assert regularity(grafted) <= 4


def test_graft_with_itself_changes_nothing():
    f6 = minimal_function(poly("12z-25"), 6)
    base = witness_of(f6).ideal
    target, grafted = graft(base, base, 8)
    assert target == f6
    assert grafted == base


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
    report = min_regularity_at(p, rho)
    cert = witness_min_reg(report)
    assert cert.regularity == expected
    assert cert.regularity == report.regularity
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
        cert = witness_of(u)
        assert cert.ideal == reference.ideal, u
        assert cert.regularity == reference.regularity, u


@settings(max_examples=40, deadline=None)
@given(writings)
def test_random_witnesses(writing):
    p = polynomial_from_coefficients(from_writing(writing))
    u = minimal_scheme_function(p, min_scheme_regularity(p))
    cert = witness_of(u)
    assert cert.ideal == reference_witness(u).ideal
    assert cert.regularity == min_regularity(p).regularity
    assert certificate_from_dict(cert.as_dict()) == cert


def test_witness_of_exact_function_needs_more_removals():
    g7 = minimal_function_exact(poly("12z-25"), 7)
    reference = reference_witness(g7)
    removals = [line for line in reference.log if line.startswith("removed")]
    assert len(removals) == 5
    cert = witness_of(g7)
    assert cert.ideal == reference.ideal
    assert cert.regularity == 9
    assert cert.log[-1] == "ghl slice of degree 9 in 4 variables"


def test_the_chain_reference_makes_no_ghl_call(monkeypatch):
    # The reference for the one-step witness builds every level by whole
    # slices, so it still runs with ghl_ideal out of reach.
    functions = [minimal_scheme_function(poly(text), rho)
                 for text, rho, _ in WITNESS_TABLE]
    functions += [hf(cls["function"]) for cls in sweep_classes()]
    expected = [witness_of(u).ideal for u in functions]

    def refused(*args):
        raise AssertionError("ghl_ideal called")

    original = borel.ghl_ideal
    for module in list(sys.modules.values()):
        if getattr(module, "ghl_ideal", None) is original:
            monkeypatch.setattr(module, "ghl_ideal", refused)
    with pytest.raises(AssertionError, match="ghl_ideal called"):
        witness_of(functions[0])
    assert len(functions) == 61
    for u, ideal_u in zip(functions, expected):
        assert reference_witness(u).ideal == ideal_u, u


def without_a_top_generator(*args):
    """ghl_ideal's ideal less one generator of top degree."""
    J = ghl_ideal(*args)
    top = max(J.generators, key=lambda g: (sum(g), g))
    return StronglyStableIdeal(J.nvars, J.generators - {top})


@pytest.mark.parametrize("builder", ["witness"])
def test_builders_refuse_a_sabotaged_result(monkeypatch, builder):
    # The builder verifies its certificate, so a wrong ideal, whatever
    # step made it, is a VerificationFailure.
    f6 = minimal_function(poly("12z-25"), 6)
    monkeypatch.setattr(constructions, "ghl_ideal", without_a_top_generator)
    with pytest.raises(VerificationFailure, match="failed verification"):
        witness_of(f6)


def test_witness_rejects_bad_functions():
    with pytest.raises(NotSchemeHF):
        witness_of(hf("1,5 ; 2"))
    with pytest.raises(LinearVariety):
        witness_of(hf("1 ; z+1"))


def test_witness_takes_its_descent_alone():
    # The builder takes one report, so no function can be paired with the
    # descent of another: u beside the descent of 5z-3 once gave a
    # verified certificate claiming 5, where u's own least regularity is 4.
    assert list(inspect.signature(witness_min_reg).parameters) == ["descent"]
    u = hf("1,5 ; 9z-7")
    with pytest.raises(TypeError):
        witness_min_reg(u, min_regularity(poly("5z-3")))
    cert = witness_min_reg(min_regularity_of_function(u))
    assert (cert.hilbert_function, cert.regularity) == (u, 4)


def test_witness_of_a_function_names_the_report_it_takes():
    # A function in place of its report once failed inside the builder
    # with an AttributeError.
    with pytest.raises(TypeError) as caught:
        witness_min_reg(hf("1,4,8 ; 5z-3"))
    assert "RegularityReport" in str(caught.value)
    assert "min_regularity_of_function(u)" in str(caught.value)


def descents(p):
    """(ambient n or None, report) for every descent query on p: the
    global one, each nonempty rho <= 8, each n <= 8 with room for p, and
    the function of each of those on its own."""
    found = [(None, min_regularity(p))]
    for rho in range(9):
        try:
            found.append((None, min_regularity_at(p, rho)))
        except EmptyClass:
            pass
    for n in range(9):
        try:
            found.append((n, min_regularity_in_space(p, n)))
        except AmbientTooSmall:
            pass
    return found + [(n, min_regularity_of_function(report.function))
                    for n, report in found]


@pytest.mark.parametrize("text", CHAIN_FIXTURES)
def test_a_witness_from_every_descent(text):
    reports = descents(poly(text))
    assert any(n is not None for n, _ in reports), text
    for n, report in reports:
        cert = witness_min_reg(report)
        assert verify_witness(cert).ok
        assert cert.hilbert_function == report.function
        assert cert.regularity == report.regularity == \
            min_regularity_of_function(cert.hilbert_function).regularity
        if n is not None:
            assert cert.ideal.nvars <= n + 1, (text, n)


def test_witness_builds_linear_sections():
    # The derivative tower of these ends in a linear space C(z+k, k).
    for text in ("z+2", "z+5", "1/2z^2+5/2z+2", "1/2z^2+3/2z+4",
                 "1/6z^3+z^2+11/6z+3"):
        p = poly(text)
        u = minimal_scheme_function(p, min_scheme_regularity(p))
        cert = witness_of(u)
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
            pairs.append((rho, witness_of(u).regularity))
        assert len(pairs) >= 2
        values = [v for _, v in pairs]
        assert values == sorted(values)
        assert all(v - rho in (1, 2) for rho, v in pairs)


def test_witness_respects_global_bounds():
    for text in ("z^2+3z+3", "12z-24", "9z-7"):
        p = poly(text)
        rho = min_scheme_regularity(p)
        u = minimal_function(p, rho)
        cert = witness_of(u)
        peaks = [rho]
        q = p
        while q.degree > 0:
            q = q.derivative()
            peaks.append(min_scheme_regularity(q))
        M = max(peaks)
        assert M + 1 <= cert.regularity <= M + 2


def test_verifier_spots_tampering():
    cert = WitnessCertificate(CURVE15, hf("1,5,11 ; 15z-24"), 5, ())
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
    p = poly("5z-3")
    segment = lex_segment_ideal(p)
    cert = WitnessCertificate(segment, hilbert_function(segment),
                              p.gotzmann_number, ())
    assert verify_witness(cert).ok


def test_certificate_serialization():
    cert = witness_of(minimal_function(poly("2z+2"), 1))
    payload = cert.as_dict()
    assert payload["ideal"]["vars"] == cert.ideal.nvars
    assert payload["regularity"] == 2
    assert payload["hilbert_function"] == str(cert.hilbert_function)
    assert all(isinstance(line, str) for line in payload["log"])
    gens = {tuple(g) for g in payload["ideal"]["generators"]}
    assert gens == set(cert.ideal.generators)
