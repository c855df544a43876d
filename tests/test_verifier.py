"""verify_witness against the scan verifier kept in conftest as the
reference: both must give the same report, check for check.  Its count
of the standard terms in x1..xn, _standard_counts_match, walks columns
s*x1^e, s in x2..xn; it is also checked alone against conftest's count
over the whole ambient ring and, on ideals too large for that count,
against conftest's reference_walk, the walk term by term that it
replaced, with every claim moved by one up and down at each degree.
Its "slice formulas" function, read off its own table of generators,
must equal conftest's hilbert_function, and claims that the walk cannot
see past its limit must fail it alone; a counting claim holds the walk
to one question per value, none past its limit.  Budget tests hold the witness
of a degree-400 surface in P^3 to the cost of its columns, not of its
terms."""

import json
import random
import signal
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from minreg.binomials import binom
from minreg.borel import StronglyStableIdeal
from minreg.cli import main
from minreg.functions import (HilbertFunction, min_scheme_regularity,
                              minimal_scheme_function, parse_hilbert_function)
from minreg.polynomials import (AdmissiblePolynomial, parse_polynomial,
                                polynomial_from_coefficients)
from minreg.verify import (WitnessCertificate, _standard_counts_match,
                           certificate_from_dict, verify_witness)

from conftest import (binomial_coeffs, hilbert_function, reference_verify,
                      reference_walk, regularity, standard_counts,
                      sweep_classes, witness_of)

KINDS = ("stored", "drop", "raise", "value", "regularity")


def sweep_certificates():
    return [cls["certificate"] for cls in sweep_classes()]


def tampered(rng, payload, kind):
    """A copy of a certificate document with one seeded change: a
    top-degree generator dropped, a generator multiplied by a variable,
    the last prefix value moved by one, or the regularity claimed one
    too high."""
    cert = json.loads(json.dumps(payload))
    gens = cert["ideal"]["generators"]
    if kind == "drop":
        top = max(sum(g) for g in gens)
        gens.remove(rng.choice([g for g in gens if sum(g) == top]))
    elif kind == "raise":
        rng.choice(gens)[rng.randrange(cert["ideal"]["vars"])] += 1
    elif kind == "value":
        prefix, _, tail = cert["hilbert_function"].partition(";")
        values = prefix.split(",")
        values[-1] = str(int(values[-1]) + rng.choice((-1, 1)))
        cert["hilbert_function"] = "%s ;%s" % (",".join(values), tail)
    else:
        cert["regularity"] += 1
    return cert


@pytest.mark.parametrize("kind", KINDS)
def test_verifier_matches_the_reference_on_the_sweep(kind):
    rng = random.Random(KINDS.index(kind))
    for n, payload in enumerate(sweep_certificates()):
        if kind != "stored":
            payload = tampered(rng, payload, kind)
        cert = certificate_from_dict(payload)
        report = verify_witness(cert)
        assert report.checks == reference_verify(cert).checks, (n, kind)
        assert report.ok == (kind == "stored"), (n, kind)


ONE = parse_hilbert_function("1 ; 1")
generator_sets = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6)))


@settings(max_examples=80, deadline=None)
@given(generator_sets, st.integers(0, 1), st.integers(-1, 6))
# Mixed degrees, one generator a multiple of one of lower degree, so that
# minimality fails and stability must still be reported: x1 divides
# x1*x2, whose raising x1 -> x2 is outside; x2 divides x2^2, and nothing
# raises; a stable ideal with x1*x2 beside x1 and x2; the unit beside x1^2.
@example((3, [(0, 1, 0), (0, 1, 1)]), 0, -1)
@example((3, [(0, 0, 1), (0, 0, 2)]), 0, -1)
@example((3, [(0, 1, 0), (0, 0, 1), (0, 1, 1)]), 0, -1)
@example((3, [(0, 0, 0), (0, 2, 0)]), 0, -1)
@example((4, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 2, 0, 0), (0, 2, 1, 1)]), 0, -1)
@example((4, [(0, 0, 1, 1), (0, 0, 3, 2), (1, 1, 0, 0)]), 0, -1)
def test_verifier_matches_the_reference_on_random_generators(
        data, extra, moved):
    """Random generator sets, most of them not minimal or not strongly
    stable; the sound ones claim their own function, with one value moved
    up at degree `moved` (none at -1), and their regularity plus `extra`."""
    nvars, gens = data
    ideal = StronglyStableIdeal(nvars, frozenset(gens))
    claim = ONE
    probe = reference_verify(
        WitnessCertificate(ideal, claim, regularity(ideal), ()))
    if all(passed for _, passed in probe.checks[:4]):
        f = hilbert_function(ideal)
        claim = HilbertFunction(
            tuple(f(t) + (t == moved)
                  for t in range(max(f.regularity, moved + 1))), f.tail)
    cert = WitnessCertificate(ideal, claim, regularity(ideal) + extra, ())
    assert verify_witness(cert).checks == reference_verify(cert).checks


def claims_beside(f, regularity):
    """Claims that the slice formulas must refuse beside f, the function
    of a certificate of that regularity, whose tail is not zero: one of
    regularity + 1; one that agrees with f up to the walk's limit,
    regularity + 3, but has a larger regularity; and two with another
    tail, one with f's values up to the limit and one below the
    regularity only."""
    limit = regularity + 3
    values = tuple(f(t) for t in range(limit + 2))
    a = f.tail.coordinates
    other = AdmissiblePolynomial((a[0] + 1,) + a[1:])
    return [
        HilbertFunction(values[:regularity] + (values[regularity] + 1,),
                        f.tail),
        HilbertFunction(values[:-1] + (values[-1] + 1,), f.tail),
        HilbertFunction(values[:-1], other),
        HilbertFunction(values[:regularity], other),
    ]


def test_verifier_matches_the_reference_beside_the_claim():
    # The slice formulas compare the tail, then the regularity, then the
    # values below it.  Claims that the walk, up to its limit, cannot
    # tell from the true one must fail them alone.
    for n, payload in enumerate(sweep_certificates()):
        cert = certificate_from_dict(payload)
        for m, claim in enumerate(claims_beside(cert.hilbert_function,
                                                cert.regularity)):
            moved = cert._replace(hilbert_function=claim)
            report = verify_witness(moved)
            assert report.checks == reference_verify(moved).checks, (n, m)
            assert report.failures() == (
                "hilbert function by slice formulas",
                "hilbert function by enumeration")[:1 + (m in (0, 3))], \
                (n, m)


def _power_and_tops(nvars, k):
    """(x_{n-1}, ..., x2, x1^k) in n = nvars variables; its quotient is
    that of (x1^k) in x0, x1."""
    return StronglyStableIdeal(nvars, frozenset(
        [(0, k) + (0,) * (nvars - 2)]
        + [tuple(int(i == j) for i in range(nvars))
           for j in range(2, nvars)]))


@pytest.mark.parametrize("nvars", [2, 3, 6])
def test_verifier_at_the_packing_width_boundaries(nvars):
    # The walk packs exponents in w = (k + 3).bit_length() bits, k the
    # regularity, and reaches x0^(k+3): k = 4, 12 and 28 fill the field of
    # x0, and k = 5, 13 and 29 widen it.  Each ideal verifies against its
    # own function and fails with the value at its last prefix degree
    # moved by one.  The scan reference is too slow in 6 variables for the
    # larger k, so there it reads the 2-variable ideal with the same
    # quotient, regularity and claim.
    for k in range(1, 41):
        ideal = _power_and_tops(nvars, k)
        f = hilbert_function(ideal)
        last = max(f.regularity - 1, 0)
        moved = HilbertFunction(
            tuple(f(t) + (-1) ** k * (t == last) for t in range(last + 1)),
            f.tail)
        for claim in (f, moved):
            cert = WitnessCertificate(ideal, claim, k, ())
            report = verify_witness(cert)
            assert report.ok == (claim is f), (nvars, k)
            if nvars > 3:
                cert = WitnessCertificate(_power_and_tops(2, k), claim, k, ())
            assert report.checks == reference_verify(cert).checks, (nvars, k)


def packed(J, limit):
    """J's generators packed as verify_witness packs them for a walk up
    to degree limit, and the field width w."""
    w = (max(limit, 0, *map(max, J.generators)) + 1).bit_length() + 1
    return {sum(e << w * i for i, e in enumerate(g))
            for g in J.generators}, w


def carried_ideals(k):
    """Generator sets in x0, x1, x2 with a raising that carries an
    exponent 2^k - 1 up to 2^k; whether the raising lies in the ideal
    rests on a generator with a positive exponent in that field, or on
    none."""
    top = 2 ** k
    return [
        # x1*x2^top, a multiple of the generator x2^top
        {(0, 2, top - 1), (0, 0, top)},
        # x2^(top-1) is a factor of x1^2*x2^(top-1), and of x1*x2^top
        {(0, 2, top - 1), (0, 0, top - 1)},
        # x1*x2^top lies outside
        {(0, 2, top - 1)},
        # the raising is the generator x2^top itself
        {(0, 1, top - 1), (0, 0, top)},
        # x0*x1^(top-1) raises to x1^top, a multiple of x1^(top-1)
        {(1, top - 1, 0), (0, top - 1, 0)},
        {(1, top - 1, 0), (0, top, 0), (0, 0, 1)},
    ]


@pytest.mark.parametrize("k", range(1, 7))
def test_verifier_at_the_guard_bits(k):
    # verify_witness packs exponents below a guard bit, in fields of
    # w = (max(limit, E) + 1).bit_length() + 1 bits, limit the claimed
    # regularity + 3 and E the largest exponent.  A raising that carries
    # 2^k - 1 to 2^k needs the last bit below the guard both when E sets
    # w (a regularity claimed too low, 0) and when limit does (the true
    # claim, whose top-degree generator x1^2*x2^(2^k-1) raises to
    # x1*x2^(2^k)).  Sound ideals claim their own function.
    for n, gens in enumerate(carried_ideals(k)):
        ideal = StronglyStableIdeal(3, frozenset(gens))
        probe = reference_verify(
            WitnessCertificate(ideal, ONE, regularity(ideal), ()))
        sound = all(passed for _, passed in probe.checks[:4])
        claim = hilbert_function(ideal) if sound else ONE
        for claimed in (regularity(ideal), 0):
            cert = WitnessCertificate(ideal, claim, claimed, ())
            report = verify_witness(cert)
            assert report.checks == reference_verify(cert).checks, \
                (k, n, claimed)
            assert report.ok == (sound and claimed > 0), (k, n)


def assert_walk_matches_the_count(J):
    """The walk accepts J's own counts up to regularity + 3, counted over
    the whole ambient ring, and refuses them moved by one up or down at
    any one degree."""
    limit = regularity(J) + 3
    counts = list(standard_counts(J, limit + 1))
    assert _standard_counts_match(*packed(J, limit), J.nvars,
                                  counts.__getitem__, limit)
    for t in range(limit + 1):
        for step in (1, -1):
            moved = counts[:]
            moved[t] += step
            assert not _standard_counts_match(
                *packed(J, limit), J.nvars, moved.__getitem__, limit), \
                (t, step)
    return counts


def raised(term, i):
    """The adjacent raising x_i -> x_{i+1} of a term."""
    return term[:i] + (term[i] - 1, term[i + 1] + 1) + term[i + 2:]


def saturated_stable_ideal(nvars, terms):
    """The ideal generated by the raising closure of x0-free terms, which
    is strongly stable and, with no x0 in its generators, saturated.  Its
    minimal generators are found degree by degree: the degree-d terms
    that the adjacent raisings reach from the given ones, less the
    multiples of the x0-free slice of degree d - 1, which is closed under
    raisings, and so are its multiples."""
    gens, below = [], set()
    for d in range(max(map(sum, terms), default=-1) + 1):
        above = {term[:i] + (term[i] + 1,) + term[i + 1:]
                 for term in below for i in range(1, nvars)}
        new, queue = set(), [term for term in terms if sum(term) == d]
        while queue:
            term = queue.pop()
            if term not in new and term not in above:
                new.add(term)
                queue.extend(raised(term, i) for i in range(1, nvars - 1)
                             if term[i])
        gens.extend(new)
        below = above | new
    return StronglyStableIdeal(nvars, frozenset(gens))


x0_free_terms = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.just(0), *[st.integers(0, 3)] * (n - 1)),
                         max_size=4)))


@settings(max_examples=40, deadline=None)
@given(x0_free_terms)
def test_walk_matches_the_ambient_count_on_random_ideals(data):
    nvars, terms = data
    assert_walk_matches_the_count(saturated_stable_ideal(nvars, terms))


def assert_slice_formulas_match_the_reference(J):
    """verify_witness compares its slice-formula function with the claim
    by ==, so a certificate that claims conftest's hilbert_function(J) at
    regularity(J) passes that check exactly when the two are equal."""
    report = verify_witness(
        WitnessCertificate(J, hilbert_function(J), regularity(J), ()))
    assert dict(report.checks)["hilbert function by slice formulas"], J
    assert report.ok, J


@settings(max_examples=60, deadline=None)
@given(x0_free_terms)
def test_slice_formulas_match_the_reference_on_random_ideals(data):
    nvars, terms = data
    assert_slice_formulas_match_the_reference(
        saturated_stable_ideal(nvars, terms))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_slice_formulas_of_the_zero_and_unit_ideals(nvars):
    # One variable has no other saturated ideals; the unit is the one
    # generator with no least variable, counted in the class of x_n.
    for gens in (frozenset(), frozenset({(0,) * nvars})):
        assert_slice_formulas_match_the_reference(
            StronglyStableIdeal(nvars, gens))


@settings(max_examples=40, deadline=None)
@given(x0_free_terms)
def test_walk_matches_the_ambient_count_on_raw_generators(data):
    # The walk relies on saturation alone: x0-free generators that need
    # be neither strongly stable nor minimal, such as x1*x3 in x0..x3,
    # whose column x2*x3*x1^e ends at e = 1 through (x2*x3)/x2 = x3 only,
    # or x1*x2 beside x1^2*x2, which share the column of x2.
    nvars, terms = data
    assert_walk_matches_the_count(StronglyStableIdeal(nvars, frozenset(terms)))


def test_walk_matches_the_ambient_count_on_the_sweep():
    for n, payload in enumerate(sweep_certificates()):
        cert = certificate_from_dict(payload)
        counts = assert_walk_matches_the_count(cert.ideal)
        assert counts == [cert.hilbert_function(t)
                          for t in range(len(counts))], n


def assert_walk_matches_the_reference(J, claim, limit):
    """The column walk and conftest's walk term by term give the same
    answer on a claim and on every copy of it with one value moved by one
    up or down, up to degree limit; the answer on the claim itself is
    returned."""
    values = [claim(t) for t in range(limit + 1)]
    gens, w = packed(J, limit)
    ok = _standard_counts_match(gens, w, J.nvars, values.__getitem__, limit)
    assert ok == reference_walk(gens, w, J.nvars, values.__getitem__, limit)
    for t in range(limit + 1):
        for step in (1, -1):
            moved = values[:]
            moved[t] += step
            assert _standard_counts_match(
                gens, w, J.nvars, moved.__getitem__, limit) \
                == reference_walk(gens, w, J.nvars, moved.__getitem__,
                                  limit), (t, step)
    return ok


def capped(exponents, degree):
    """The exponents, each cut down so that their sum is at most degree."""
    out = []
    for e in exponents:
        out.append(min(e, degree - sum(out)))
    return tuple(out)


# Up to 7 variables and exponents up to 6, of degree at most 8, where
# counting the ambient ring degree by degree, as above, takes too long.
wide_terms = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 6), min_size=n - 1,
                                  max_size=n - 1).map(
        lambda e: (0,) + capped(e, 8)), max_size=4)))


@settings(max_examples=60, deadline=None)
@given(wide_terms)
def test_walk_matches_the_reference_on_random_ideals(data):
    nvars, terms = data
    J = saturated_stable_ideal(nvars, terms)
    f = hilbert_function(J)
    assert verify_witness(WitnessCertificate(J, f, regularity(J), ())).ok
    assert assert_walk_matches_the_reference(J, f, regularity(J) + 3)


def test_walk_matches_the_reference_on_the_tampered_sweep():
    # Tampered certificates need not be sound, nor x0-free: the two walks
    # must still agree, on the generators as they stand.
    rng = random.Random(0)
    for n, payload in enumerate(sweep_certificates()):
        for kind in KINDS:
            cert = certificate_from_dict(
                payload if kind == "stored" else tampered(rng, payload, kind))
            ok = assert_walk_matches_the_reference(
                cert.ideal, cert.hilbert_function, cert.regularity + 3)
            assert ok or kind != "stored", n


def test_walk_edge_cases():
    # One variable: the zero ideal (x0 alone is standard) and the unit
    # ideal; the unit ideal in three variables; a power x1^5 with x2; and
    # x1*x2 beside its multiples x1^2*x2 and x1^3*x2, whose column of x2
    # is as short as the least of them makes it.
    for J in (StronglyStableIdeal(1, frozenset()),
              StronglyStableIdeal(1, frozenset({(0,)})),
              StronglyStableIdeal(3, frozenset({(0, 0, 0)})),
              _power_and_tops(3, 5),
              StronglyStableIdeal(3, frozenset({(0, 1, 1), (0, 3, 1)})),
              StronglyStableIdeal(3, frozenset({(0, e, 1)
                                                for e in (1, 2, 3)}))):
        assert_walk_matches_the_count(J)
    # A claim right up to degree t and one too high from t + 1 on: its
    # first difference is wrong at t + 1 alone.
    J = _power_and_tops(3, 5)
    counts = list(standard_counts(J, 9))
    for t in range(8):
        claim = [c + (s > t) for s, c in enumerate(counts)]
        assert not _standard_counts_match(*packed(J, 8), 3,
                                          claim.__getitem__, 8), t


class Counted:
    """A claim that records each degree it is asked for."""

    def __init__(self, values):
        self.values, self.asked = values, []

    def __call__(self, t):
        self.asked.append(t)
        return self.values[t]


def test_walk_asks_for_each_claim_value_once():
    # On the sweep, with each value moved by one up and down in turn: the
    # walk asks for claim(t) at most once for each t, and never past
    # limit, so values listed up to limit are enough.
    for n, payload in enumerate(sweep_certificates()):
        cert = certificate_from_dict(payload)
        limit = cert.regularity + 3
        gens, w = packed(cert.ideal, limit)
        values = [cert.hilbert_function(t) for t in range(limit + 1)]
        for t, step in [(None, 0)] + [(t, s) for t in range(limit + 1)
                                      for s in (1, -1)]:
            claim = Counted(values[:])
            if t is not None:
                claim.values[t] += step
            _standard_counts_match(gens, w, cert.ideal.nvars, claim, limit)
            assert len(set(claim.asked)) == len(claim.asked), (n, t, step)
            assert 0 <= min(claim.asked) <= max(claim.asked) <= limit, \
                (n, t, step)


def test_walk_memory_follows_the_walk_not_the_variables():
    # The zero ideal in 20000 variables, claiming "1 ; 0", stops at the
    # first standard variable; a table of every 2^(w*k) up front took 52 MB.
    cert = WitnessCertificate(StronglyStableIdeal(20000, frozenset()),
                              parse_hilbert_function("1 ; 0"), 0, ())
    tracemalloc.start()
    try:
        report = verify_witness(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.failures() == ("hilbert function by slice formulas",
                                 "hilbert function by enumeration")
    assert peak < 8 * 2 ** 20


class OverBudget(BaseException):
    """Not an Exception, so that cli.main's handlers let it through and
    the test fails instead of reading an exit code."""


@contextmanager
def budget(seconds):
    def expire(signum, frame):
        raise OverBudget("ran past its %d s budget" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("text", ["100", "40", "30z", "z^4"])
def test_slow_witnesses_end_and_verify(text):
    # Each took over 12 s with a verification at every level of the
    # recursion and the scan verifier; the public call verifies once.
    p = parse_polynomial(text)
    u = minimal_scheme_function(p, min_scheme_regularity(p))
    with budget(8):
        cert = witness_of(u)
    assert cert.hilbert_function == u


def test_hilbert_function_is_read_off_the_generators():
    # The quotient by (x11, x10^30) in 12 variables: counting its degree-30
    # slice term by term meant C(40, 11), about 2.3 * 10^9, terms.
    x11, x10_30 = (0,) * 11 + (1,), (0,) * 10 + (30, 0)
    J = StronglyStableIdeal(12, frozenset({x11, x10_30}))
    with budget(2):
        f = hilbert_function(J)
    assert f.prefix == tuple(binom(t + 10, 10) for t in range(20))
    assert f.tail == polynomial_from_coefficients(
        a - b for a, b in zip(binomial_coeffs(10, 10),
                              binomial_coeffs(10, -20)))


def test_zero_ideal_in_many_variables_is_refused_at_once(tmp_path, capsys):
    # The slice formulas give the tail C(z+1999, 1999), not the claimed
    # zero; checking its values one by one ran past 10 s.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"ideal": {"vars": 2000, "generators": []},
                                "hilbert_function": "1 ; 0",
                                "regularity": 0}))
    with budget(5):
        code = main(["verify", str(path)])
    assert code == 1
    assert "hilbert function by slice formulas: FAILED" in \
        capsys.readouterr().out


def test_degree_400_surface_verifies_by_its_columns():
    # (x3^400) in 4 variables, the witness of 200z^2-79200z+10507400: about
    # 11 million standard terms in x1, x2, x3 up to degree 403, walked one
    # by one in 16 s, but about 82,000 columns s*x1^e, s in x2, x3.
    J = StronglyStableIdeal(4, frozenset({(0, 0, 0, 400)}))
    f = hilbert_function(J)
    with budget(2):
        report = verify_witness(WitnessCertificate(J, f, 400, ()))
    assert report.ok
    # The last prefix value moved by one: the slice formulas refuse it
    # too, so the walk is also asked alone, which must reach degree 396.
    last = len(f.prefix) - 1
    moved = HilbertFunction(f.prefix[:last] + (f.prefix[last] + 1,), f.tail)
    with budget(2):
        report = verify_witness(WitnessCertificate(J, moved, 400, ()))
        walked = _standard_counts_match(*packed(J, 403), 4, moved, 403)
    assert report.failures() == ("hilbert function by slice formulas",
                                 "hilbert function by enumeration")
    assert not walked


def test_degree_400_surface_witness_ends_in_time(capsys):
    with budget(5):
        code = main(["witness", "200z^2-79200z+10507400", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["regularity"] == 400
